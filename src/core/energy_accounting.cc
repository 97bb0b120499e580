#include "core/energy_accounting.hh"

namespace javelin {
namespace core {

double
relativeImprovement(double a, double b)
{
    return a != 0.0 ? (a - b) / a : 0.0;
}

} // namespace core
} // namespace javelin
