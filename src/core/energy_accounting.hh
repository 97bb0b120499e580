/**
 * @file
 * Energy-efficiency metrics (paper Section III-A).
 *
 * The energy-delay product (EDP, joules * seconds) conveys the combined
 * attributes of energy and performance: a slow low-power configuration is
 * penalized by its execution time, an aggressive high-power one by its
 * energy. Peak power matters for thermal/packaging limits.
 */

#ifndef JAVELIN_CORE_ENERGY_ACCOUNTING_HH
#define JAVELIN_CORE_ENERGY_ACCOUNTING_HH

namespace javelin {
namespace core {

/** Energy-delay product in joule-seconds. */
constexpr double
energyDelayProduct(double joules, double seconds)
{
    return joules * seconds;
}

/** Relative improvement of b over a: (a - b) / a. */
double relativeImprovement(double a, double b);

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_ENERGY_ACCOUNTING_HH
