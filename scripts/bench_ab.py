#!/usr/bin/env python3
"""Same-host paired A/B perf gate against a pinned reference revision.

Usage: bench_ab.py              run the gate (exit 0 ok, 1 regressed,
                                2 setup or data error)
       bench_ab.py --self-test  unit checks on hand-made benchmark JSON

1. Extract REFERENCE with ``git archive | tar -x`` into build-ref/src
   (reads .git only; no worktree is registered).
2. Build micro_sim, micro_gc and micro_trace in Release for the
   reference (build-ref/build) and for the working tree (build-release).
3. For each gate, run PAIRS interleaved reference/change pairs, one
   ``--benchmark_filter`` at a time, flipping which side goes first each
   pair, all on one CPU, so both halves of a pair land in the same host
   speed mode.
4. Fail when a gate's geomean change/reference ratio of *wall-clock*
   throughput is below BUDGET. google-benchmark's ``kIsRate`` counters
   divide by CPU time, so the wall rate is counter * cpu_time /
   real_time. Each ratio is printed with a seeded percentile-bootstrap
   95 % CI over the pairs.

Bumping REFERENCE is a one-line edit; the change that makes it records
an A/B report of the new reference against the old one in CHANGES.md.
"""

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

REFERENCE = "f1ec26b4ae4571f4d83590c50a4be3a66065175a"
# (suite binary, benchmark, rate counter)
GATES = [
    ("micro_sim", "BM_EndToEndExperiment", "bytecodes_per_sec"),
    ("micro_sim", "BM_EndToEndCallHeavy", "bytecodes_per_sec"),
    ("micro_sim", "BM_EndToEndGcHeavy", "bytecodes_per_sec"),
    ("micro_sim", "BM_EndToEndMutatorHeavy", "bytecodes_per_sec"),
    ("micro_sim", "BM_InterpreterDispatch", "bytecodes_per_sec"),
    ("micro_sim", "BM_CacheAccess/14", "items_per_second"),
    ("micro_sim", "BM_CacheAccess/18", "items_per_second"),
    ("micro_sim", "BM_CacheAccess/24", "items_per_second"),
    ("micro_gc", "BM_GcMark", "items_per_second"),
    ("micro_gc", "BM_GcEvacuate", "items_per_second"),
    ("micro_gc", "BM_GcSweep", "items_per_second"),
    ("micro_trace", "BM_TraceCapture", "items_per_second"),
    ("micro_trace", "BM_EndToEndExperimentSpooled", "bytecodes_per_sec"),
    ("micro_sim", "BM_EndToEndMultiTenant", "bytecodes_per_sec"),
]
BUDGET = 0.90

PAIRS = 40
MIN_TIME = "0.05"
BOOTSTRAP_ROUNDS = 2000
BOOTSTRAP_SEED = 0x5EED

ROOT = Path(__file__).resolve().parent.parent
REF_DIR = ROOT / "build-ref"
BUILDS = {"ref": REF_DIR / "build", "cur": ROOT / "build-release"}


class GateError(Exception):
    """A setup or data error: the gate cannot give a verdict."""


def resolve(rev, root=ROOT):
    """Full commit id of rev; an unknown or absent commit is an error."""
    try:
        got = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--verify", "--quiet",
             f"{rev}^{{commit}}"], capture_output=True, text=True)
    except OSError as e:
        raise GateError(f"cannot run git: {e}")
    if got.returncode != 0:
        raise GateError(f"reference revision {rev!r} is not in {root} "
                        f"(a shallow clone? fetch it first)")
    return got.stdout.strip()


def extract(sha):
    """Unpack the reference tree unless build-ref/src already holds it."""
    src, stamp = REF_DIR / "src", REF_DIR / "rev"
    if src.is_dir() and stamp.is_file() and stamp.read_text() == sha:
        return src
    # A new reference starts from an empty build-ref: tar restores the
    # commit's mtimes, which can be older than the previous reference's
    # objects, so an incremental build would keep the stale binaries.
    shutil.rmtree(REF_DIR, ignore_errors=True)
    src.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(src)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise GateError(f"git archive {sha} failed")
    stamp.write_text(sha)
    return src


def build(src, out):
    subprocess.run(["cmake", "-B", str(out), "-S", str(src),
                    "-DCMAKE_BUILD_TYPE=Release"], check=True)
    subprocess.run(["cmake", "--build", str(out), "-j",
                    str(os.cpu_count() or 2), "--target", "micro_sim",
                    "micro_gc", "micro_trace"], check=True)


def run_bench(side, suite, bench):
    """One google-benchmark run of one benchmark; returns its JSON."""
    got = subprocess.run(
        [str(BUILDS[side] / "bench" / suite),
         f"--benchmark_filter=^{re.escape(bench)}$",
         "--benchmark_format=json", f"--benchmark_min_time={MIN_TIME}"],
        capture_output=True, text=True, check=True)
    return json.loads(got.stdout)


def wall_rate(report, bench, counter, side):
    for entry in report.get("benchmarks", []):
        if entry.get("name") == bench and counter in entry:
            rate = entry[counter] * entry["cpu_time"] / entry["real_time"]
            if rate > 0:
                return rate
    raise GateError(f"gate {bench}.{counter} missing from the {side} run")


def pair_rates(run, suite, bench, counter):
    """[(ref_rate, cur_rate), ...] over PAIRS interleaved pairs."""
    rows = []
    for i in range(PAIRS):
        got = {}
        for side in ("ref", "cur") if i % 2 == 0 else ("cur", "ref"):
            got[side] = wall_rate(run(side, suite, bench), bench, counter,
                                  side)
        rows.append((got["ref"], got["cur"]))
    return rows


def geomean_ci(logs):
    """Geomean ratio and its seeded percentile-bootstrap 95 % CI."""
    rng = random.Random(BOOTSTRAP_SEED)
    n = len(logs)
    means = sorted(sum(rng.choices(logs, k=n)) / n
                   for _ in range(BOOTSTRAP_ROUNDS))
    lo = means[int(0.025 * BOOTSTRAP_ROUNDS)]
    hi = means[int(0.975 * BOOTSTRAP_ROUNDS) - 1]
    return math.exp(sum(logs) / n), math.exp(lo), math.exp(hi)


def evaluate(run):
    """Run every gate and print the verdicts; returns the exit code."""
    failed = []
    print(f"reference {REFERENCE[:12]}, {PAIRS} pairs per gate, "
          f"budget {BUDGET:.2f}x of wall-clock throughput", flush=True)
    for suite, bench, counter in GATES:
        try:
            rows = pair_rates(run, suite, bench, counter)
        except (GateError, subprocess.CalledProcessError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        ratio, lo, hi = geomean_ci([math.log(c / r) for r, c in rows])
        ref = sorted(r for r, _ in rows)[len(rows) // 2]
        verdict = "ok" if ratio >= BUDGET else "REGRESSED"
        print(f"  {bench + '.' + counter:<48} ref {ref / 1e6:8.2f}M  "
              f"{ratio:.3f}x [{lo:.3f}, {hi:.3f}] {verdict}", flush=True)
        if ratio < BUDGET:
            failed.append(bench)
    if failed:
        print(f"FAIL: below {BUDGET:.2f}x of the reference: "
              f"{', '.join(failed)}")
        return 1
    print(f"OK: all {len(GATES)} gates within budget")
    return 0


def self_test():
    import contextlib
    import io
    import tempfile

    def fake(rate=None, wall=None, drop=None, calls=None):
        """Hand-made google-benchmark JSON; the change side's counter
        and real_time scale by rate/wall, per benchmark name."""
        def run(side, suite, bench):
            if calls is not None:
                calls.append((side, bench))
            if (side, bench) == drop:
                return {"benchmarks": []}
            cur = side == "cur"
            counter = next(c for _, b, c in GATES if b == bench)
            return {"benchmarks": [{
                "name": bench, "run_type": "iteration", "time_unit": "ms",
                "cpu_time": 40.0,
                "real_time": 50.0 * ((wall or {}).get(bench, 1) if cur
                                     else 1),
                counter: 1e6 * ((rate or {}).get(bench, 1) if cur else 1),
            }]}
        return run

    def code(fn, *args, **kw):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                return fn(*args, **kw), sink.getvalue()
            except GateError:
                return 2, sink.getvalue()

    calls = []
    slow = {"BM_GcSweep": 0.85}
    rc_slow, text_slow = code(evaluate, fake(rate=slow))
    with tempfile.TemporaryDirectory() as no_git:
        checks = [
            ("equal runs pass", code(evaluate, fake(calls=calls))[0] == 0),
            ("pairs flip which side runs first",
             calls[:4] == [("ref", GATES[0][1]), ("cur", GATES[0][1]),
                           ("cur", GATES[0][1]), ("ref", GATES[0][1])]),
            ("5% slower passes", code(evaluate, fake(
                rate={b: 0.95 for _, b, _ in GATES}))[0] == 0),
            ("15% slower fails", rc_slow == 1),
            ("a failure names its benchmark",
             "FAIL: below 0.90x of the reference: BM_GcSweep" in text_slow
             and text_slow.count(" ok\n") == len(GATES) - 1),
            ("equal CPU rate but 20% more wall time fails",
             code(evaluate, fake(wall={"BM_GcMark": 1.25}))[0] == 1),
            ("gate missing on the reference side exits 2", code(
                evaluate, fake(drop=("ref", "BM_TraceCapture")))[0] == 2),
            ("gate missing on the change side exits 2", code(
                evaluate, fake(drop=("cur", "BM_EndToEndMultiTenant")))[0]
             == 2),
            ("unknown reference revision exits 2",
             code(resolve, "0" * 40)[0] == 2),
            ("reference absent from the clone exits 2",
             code(resolve, REFERENCE, root=no_git)[0] == 2),
            ("wall rate is counter * cpu_time / real_time", wall_rate(
                {"benchmarks": [{"name": "B", "c": 50e6, "cpu_time": 40.0,
                                 "real_time": 50.0}]}, "B", "c", "cur")
             == 40e6),
        ]
    for name, ok in checks:
        print(f"  {'ok' if ok else 'FAIL'}: {name}")
    failed = [name for name, ok in checks if not ok]
    if failed:
        print(f"self-test FAILED: {failed}", file=sys.stderr)
        return 1
    print(f"self-test OK ({len(checks)} checks)")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        src = extract(resolve(REFERENCE))
        build(ROOT, BUILDS["cur"])
        build(src, BUILDS["ref"])
    except (GateError, subprocess.CalledProcessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # Every run goes on one CPU: vCPUs switch between a fast and a ~1.5x
    # slower mode independently, so a pair split over two vCPUs can be
    # off by 1.5x; pinned, it is off only when that vCPU switches mode
    # between the pair's two halves.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return evaluate(run_bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
