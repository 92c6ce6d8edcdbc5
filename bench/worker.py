"""One fresh process that times decisions and reports them as JSON.

    python3 bench/worker.py --workload distinct --seed 1 --seconds 25 \
        [--pass N] [--trace]

The table cache in `lctkit.criterion` and the `lru_cache`s in
`lctkit.poly` live for the life of a process, so every run (and every sweep
pass) gets a process of its own.  The last line of stdout is one JSON
object: a record [degree, seconds, status, detail, wall seconds] per
decision (see SpeedClock), the timed wall time corrected for machine speed
and as measured, peak RSS, the generator's redraw counts and, when traced,
the per-layer metrics; the spans go to bench/out/spans-<workload>-<seed>.json.
A traced `distinct` worker also decides the degree ladder, one draw of each
degree 2..6, after the timed decisions.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402  (both import lctkit lazily)
import workloads  # noqa: E402

# degrees of the traced degree ladder (rootdata.diff_orders.ms.d2 .. d6)
LADDER = (2, 3, 4, 5, 6)

# Machine-speed correction.  On a shared host the single-thread speed of
# this process swings by up to 2x, for anything from two seconds to minutes,
# as other tenants load the core's sibling and caches.  A fixed reference
# kernel of exact rational arithmetic (the kind of work lctkit does, but
# code of the benchmark's own that no change to lctkit can touch) is timed
# every CALIBRATE_EVERY seconds of decisions.  Each decision's time is
# scaled by REFERENCE_S over the mean of the kernel times measured just
# before and just after it, which turns it into the time it would take with
# the kernel at REFERENCE_S: the kernel's time on the 2-core x86 machine
# the benchmark was tuned on, in that machine's fast phase.
REFERENCE_S = 0.001
CALIBRATE_EVERY = 0.1
_KERNEL_A = [Fraction(7 * i + 3, i + 2) for i in range(18)]
_KERNEL_B = [Fraction(5 - i, 2 * i + 3) for i in range(18)]


def kernel_seconds():
    """Median time of three runs of the reference kernel: the product of
    two 18-term polynomials with rational coefficients."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        out = {}
        for i, a in enumerate(_KERNEL_A):
            for j, b in enumerate(_KERNEL_B):
                out[i + j] = out.get(i + j, 0) + a * b
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Kernel times taken between chunks of about CALIBRATE_EVERY seconds
    of decisions, and the chunk each decision fell in."""

    def __init__(self):
        self.kernel = [kernel_seconds()]
        self.chunk = []
        self.since = 0.0

    def add(self, elapsed):
        self.chunk.append(len(self.kernel) - 1)
        self.since += elapsed
        if self.since >= CALIBRATE_EVERY:
            self.kernel.append(kernel_seconds())
            self.since = 0.0

    def factors(self):
        """Per decision: REFERENCE_S over the kernel's mean time around its
        chunk."""
        if self.chunk and self.chunk[-1] == len(self.kernel) - 1:
            self.kernel.append(kernel_seconds())
        return [2 * REFERENCE_S / (self.kernel[k] + self.kernel[k + 1])
                for k in self.chunk]


def run_decisions(items, tracer=None, first_id=0):
    """Records [degree, corrected seconds, status, detail, wall seconds],
    the corrected timed wall time and the timed wall time as measured."""
    from lctkit import LctkitError, criterion
    records, clock = [], SpeedClock()
    for i, dec in enumerate(items, start=first_id):
        if tracer is not None:
            tracer.decision = i
        start = time.perf_counter()
        try:
            verdict = criterion.lct_ge(dec.d, dec.c, dec.coeffs)[0]
        except LctkitError as exc:
            verdict, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        clock.add(elapsed)
        if verdict is None:
            status, detail = "failed", error
        else:
            status, detail = workloads.classify(verdict, dec.expect,
                                                 exact=True)
        records.append([dec.d, elapsed, status, detail, elapsed])
    for rec, factor in zip(records, clock.factors()):
        rec[1] *= factor
    return (records, sum(r[1] for r in records),
            sum(r[4] for r in records))


def run_cli_inprocess(cases, tracer=None):
    """`lctkit.cli.run` on every case inside this process; stdout and
    stderr are captured."""
    from lctkit import cli
    run = cli.run if tracer is None else tracer.wrap("cli.run", cli.run)
    records, busy = [], 0.0
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.decision = i
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = run(list(case.argv))
        elapsed = time.perf_counter() - start
        busy += elapsed
        status, detail = workloads.check_cli_output(case, code,
                                                    out.getvalue())
        records.append([case.d, elapsed, status, detail, elapsed])
    return records, busy


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pass", dest="pass_no", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    for name in [k for k in os.environ if k.startswith("LCTKIT_")]:
        del os.environ[name]

    report = {}
    if args.workload == "cli":
        start = time.perf_counter()
        import lctkit.cli  # noqa: F401
        report["cli_import_s"] = time.perf_counter() - start

    # inputs first, so that the generators' own series arithmetic is
    # never traced
    draws = workloads.Draws()
    if args.workload == "cli":
        items = workloads.cli_cases(
            args.seed, workloads.cli_argv_count(args.seconds),
            OUT.relative_to(ROOT) / "cli-inputs", draws)
    else:
        items = list(workloads.decisions(args.workload, args.seed,
                                         args.seconds, draws, args.pass_no))
    ladder = []
    if args.trace and args.workload == "distinct":
        ladder = list(workloads.distinct(f"ladder:{args.seed}", LADDER,
                                         workloads.Draws()))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        report["wrapped"] = tracing.install(tracer)

    if args.workload == "cli":
        records, busy = run_cli_inprocess(items, tracer)
        wall = busy
    else:
        records, busy, wall = run_decisions(items, tracer)
    report.update(records=records, busy_s=busy, wall_busy_s=wall,
                  draws=draws.to_json())
    if ladder:
        report["ladder"] = run_decisions(ladder, tracer,
                                         first_id=len(records))[0]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["rss_mb"] = usage.ru_maxrss / 1024
    if tracer is not None:
        report["layers"], report["span_s"] = tracing.layer_metrics(
            tracer.spans)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
