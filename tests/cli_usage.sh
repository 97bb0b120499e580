#!/bin/sh
# Usage contract of the command-line tools: malformed numeric
# arguments and unknown flags exit with status 2; well-formed ones
# are accepted.
#
#   tests/cli_usage.sh JAVELIN_SWEEP JAVELIN_TRACE
SWEEP=$1
TRACE=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
failures=0

# expect STATUS CMD...: run CMD quietly and require exit status STATUS.
expect() {
    want=$1
    shift
    "$@" > /dev/null 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: exit $got, want $want: $*" >&2
        failures=$((failures + 1))
    fi
}

PRINT="$SWEEP --builtin fig07-edp --print-scenario"
for bad in "--jobs abc" "--jobs 2x" "--jobs -1" "--shard /3" \
    "--shard 1/" "--shard 1/0" "--shard 2/2" "--result-store x"; do
    expect 2 $PRINT $bad
done
expect 0 $PRINT --jobs 2
expect 0 $PRINT --shard 0/2

OUT="--out $TMP/t.jtrc"
expect 2 "$TRACE" record --samples 10x $OUT
expect 2 "$TRACE" record --buffer-bytes abc $OUT
expect 2 "$TRACE" record --crash-after-blocks +1 $OUT
expect 0 "$TRACE" record --samples 10 $OUT
expect 2 "$TRACE" range "$TMP/t.jtrc" 0 10x
expect 0 "$TRACE" range "$TMP/t.jtrc" 0 10

[ "$failures" -eq 0 ] || exit 1
echo "cli_usage: all checks passed"
