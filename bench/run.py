"""Benchmark of certified `lct_ge` decisions.

One workload, as the harness calls it (last stdout line is the result JSON):

    python3 bench/run.py --workload distinct --seed 1 --seconds 25 --trace 0

Every workload in turn, with a summary table and a results file:

    python3 bench/run.py --all [--seed 1] [--seconds 25] [--trace 0|1]

which writes bench/out/results-seed<seed>-trace<trace>.json.

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json,
`--trace 1` the per-layer ones.  Every verdict is checked against an
independent threshold; any wrong verdict makes the command exit 1.  The
package is imported from the working tree's `src/`.  See bench/NOTES.md for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(SRC)]

import workloads  # noqa: E402  (imports lctkit lazily)

SETUP_RUNS = 9
WORKER_TIMEOUT = 150
CLI_TIMEOUT = 60
TAIL_BEYOND = 10
# The cli workload's speed reference: a bare interpreter (`python3 -c pass`)
# is started before the first `lctkit lct` process and after every one, and
# each process's time is scaled by REFERENCE_PROCESS_S over the mean
# start-up time measured just before and just after it.  REFERENCE_PROCESS_S
# is that start-up time on the 2-core x86 machine the benchmark was tuned
# on, in its fast phase.  The in-process workloads correct their times in
# worker.py, against a kernel of rational arithmetic; that kernel does not
# track process start.
REFERENCE_PROCESS_S = 0.06
UNITS = {"setup_s": "s", "decisions_per_s": "1/s", "lct_ms.p50": "ms",
         "lct_ms.tail": "ms", "failed_frac": "fraction",
         "wrong_verdicts": "count", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCTKIT_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(module):
    """Median time a fresh interpreter takes to import `module`; one
    unmeasured import first writes the bytecode cache."""
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    values = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"import {module} failed:\n{proc.stderr}")
        if i:
            values.append(float(proc.stdout))
    return statistics.median(values)


def run_worker(workload, seed, seconds, pass_no=0, trace=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--pass", str(pass_no)] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(cmd[2:])} failed:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli_process(argv):
    """One `lctkit lct` process: (exit code, stdout bytes, seconds, peak RSS
    in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "lctkit.cli", *argv],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(CLI_TIMEOUT, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, elapsed, usage.ru_maxrss / 1024


def bare_process_seconds():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=CLI_TIMEOUT, check=True)
    return time.perf_counter() - start


def run_cli(seed, seconds):
    """Each argv runs twice, one process at a time; the repeat must print
    the same bytes.  Records are [degree, corrected seconds, status, detail,
    wall seconds]; see REFERENCE_PROCESS_S."""
    draws = workloads.Draws()
    cases = workloads.cli_cases(seed, workloads.cli_argv_count(seconds),
                                OUT.relative_to(ROOT) / "cli-inputs", draws)
    records, rss = [], 0.0
    bare = [bare_process_seconds()]
    for case in cases:
        first = None
        for repeat in (False, True):
            code, out, elapsed, peak = run_cli_process(case.argv)
            rss = max(rss, peak)
            status, detail = workloads.check_cli_output(
                case, code, out.decode(errors="replace"))
            if repeat and status != "wrong" and out != first:
                status, detail = "failed", "stdout differs on the repeat run"
            first = out
            records.append([case.d, elapsed, status, detail, elapsed])
            bare.append(bare_process_seconds())
    for k, rec in enumerate(records):
        rec[1] *= 2 * REFERENCE_PROCESS_S / (bare[k] + bare[k + 1])
    return {"records": records, "busy_s": sum(r[1] for r in records),
            "wall_busy_s": sum(r[4] for r in records), "rss_mb": rss,
            "draws": draws.to_json()}


def summarize(records, busy):
    """The end-to-end figures of one run's decision records."""
    times = sorted(r[1] for r in records)
    n = len(times)
    status = Counter(r[2] for r in records)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return {
        "decisions_per_s": status["ok"] / busy,
        "lct_ms.p50": 1000 * statistics.median(times),
        "lct_ms.tail": 1000 * times[rank],
        "tail_percentile": 100 * (rank + 1) / n,
        "tail_beyond": n - rank - 1,
        "failed_frac": status["failed"] / n,
        "wrong_verdicts": status["wrong"],
        "attempted": n,
        "failed": status["failed"],
        "reasons": Counter(r[3] for r in records
                           if r[2] != "ok").most_common(),
    }


def run_end_to_end(workload, seed, seconds):
    setup = measure_setup("lctkit.cli" if workload == "cli" else "lctkit")
    if workload == "cli":
        runs = [run_cli(seed, seconds)]
    elif workload == "sweep":
        runs = [run_worker(workload, seed, seconds, pass_no=p)
                for p in range(workloads.sweep_passes(seconds))]
    else:
        runs = [run_worker(workload, seed, seconds)]
    records = [r for run in runs for r in run["records"]]
    result = summarize(records, sum(run["busy_s"] for run in runs))
    result.update(setup_s=setup, peak_rss_mb=max(r["rss_mb"] for r in runs),
                  draws=runs[0]["draws"], passes=len(runs),
                  busy_s=sum(run["busy_s"] for run in runs),
                  wall_busy_s=sum(run["wall_busy_s"] for run in runs))
    return result


def run_traced(workload, seed, seconds):
    """A traced worker decides half a run's inputs (one pass for sweep)
    between two untraced workers on the same inputs; the traced timed wall
    time against the mean of the other two gives the overhead, with a
    linear drift in machine speed cancelled."""
    half = seconds / 2
    before = run_worker(workload, seed, half)
    traced = run_worker(workload, seed, half, trace=True)
    after = run_worker(workload, seed, half)
    layers = traced["layers"]
    layers["cli.import_s"] = traced.get("cli_import_s", 0.0)
    untraced_s = (before["busy_s"] + after["busy_s"]) / 2
    layers["trace.overhead_frac"] = traced["busy_s"] / untraced_s - 1
    records = (before["records"] + traced["records"] + after["records"] +
               traced.get("ladder", []))
    result = summarize(records, before["busy_s"] + traced["busy_s"] +
                       after["busy_s"])
    result.update(layers=layers, span_s=traced["span_s"],
                  wrapped=traced["wrapped"])
    if workload == "cli":
        n = len(traced["records"])
        run_s = sum(r[1] for r in traced["records"])
        result["cli_split_ms"] = {
            "import": 1000 * layers["cli.import_s"],
            "cli.run self": 1000 * layers["cli.run.self_s"] / n,
            "lct_ge": 1000 * (run_s - layers["cli.run.self_s"]) / n}
    return result


def print_end_to_end(workload, seed, r):
    print(f"workload {workload} seed {seed}: {r['attempted']} decisions "
          f"({r['passes']} process(es)), {r['failed']} failed, "
          f"{r['wrong_verdicts']} wrong; redraws before timing: "
          + ", ".join(f"{k}={v}" for k, v in r["draws"].items()))
    for name, unit in UNITS.items():
        line = f"  {name:<16} {r[name]:>12.6g} {unit}"
        if name == "lct_ms.tail":
            line += (f"  (p{r['tail_percentile']:.2f}: {r['tail_beyond']} of "
                     f"{r['attempted']} decisions beyond it)")
        print(line)
    print(f"  timed wall time {r['wall_busy_s']:.4g} s as measured, "
          f"{r['busy_s']:.4g} s corrected for machine speed")
    for reason, count in r["reasons"]:
        print(f"  not ok x{count}: {reason}")


def print_traced(workload, seed, r):
    print(f"workload {workload} seed {seed} traced: {r['attempted']} "
          f"decisions, {r['failed']} failed, {r['wrong_verdicts']} wrong; "
          f"spans in bench/out/spans-{workload}-{seed}.json")
    print("  wrapped: " + ", ".join(r["wrapped"]))
    for name, value in sorted(r["layers"].items()):
        print(f"  {name:<44} {value:>14.6g}")
    self_s, inclusive = r["span_s"]["self"], r["span_s"]["inclusive"]
    shares = sorted(self_s.items(), key=lambda kv: -kv[1])
    print("  share of self time: " + ", ".join(
        f"{name} {100 * s / sum(self_s.values()):.1f}%"
        for name, s in shares))
    root = "cli.run" if "cli.run" in inclusive else "criterion.lct_ge"
    shares = sorted(inclusive.items(), key=lambda kv: -kv[1])
    print(f"  inclusive share of {root} time: " + ", ".join(
        f"{name} {100 * s / inclusive[root]:.1f}%" for name, s in shares
        if name != root))
    if "cli_split_ms" in r:
        print("  per cli decision (ms): " + ", ".join(
            f"{k} {v:.1f}" for k, v in r["cli_split_ms"].items()))
    for reason, count in r["reasons"]:
        print(f"  not ok x{count}: {reason}")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_json(r, trace, spec):
    source = r["layers"] if trace else r
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    return {"correct": r["wrong_verdicts"] == 0, "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def run_one(workload, seed, seconds, trace):
    if trace:
        r = run_traced(workload, seed, seconds)
        print_traced(workload, seed, r)
    else:
        r = run_end_to_end(workload, seed, seconds)
        print_end_to_end(workload, seed, r)
    return r


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Benchmark of certified lct_ge decisions.")
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=workloads.WORKLOADS)
    group.add_argument("--all", action="store_true",
                       help="run every workload and write a results file")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=workloads.REF_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lctkit" / "__init__.py").is_file():
        sys.stderr.write(f"no lctkit sources under {SRC}; run the benchmark "
                         "from a checkout of the repository\n")
        return 2
    os.chdir(ROOT)
    spec = load_spec()
    try:
        if args.workload:
            r = run_one(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result_json(r, args.trace, spec)))
            return 0 if r["wrong_verdicts"] == 0 else 1
        results = {w: run_one(w, args.seed, args.seconds, args.trace)
                   for w in workloads.WORKLOADS}
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer"]} \
        if args.trace else UNITS
    rows = [results[w]["layers"] if args.trace else results[w]
            for w in results]
    print(f"\n{'metric [unit]':<48}" + "".join(f"{w:>12}" for w in results))
    for name, unit in units.items():
        print(f"{name + ' [' + unit + ']':<48}" +
              "".join(f"{r[name]:>12.5g}" for r in rows))
    out = OUT / f"results-seed{args.seed}-trace{args.trace}.json"
    OUT.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace, "workloads": results},
                              indent=1, sort_keys=True))
    print(f"results written to {out}")
    return 0 if all(r["wrong_verdicts"] == 0 for r in results.values()) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
