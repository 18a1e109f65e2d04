"""End-to-end benchmark of the bellkit command line.

Run from the repository root:

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload certify --seed 3 --seconds 20 --trace 1

Every ``bellkit <subcommand>`` invocation runs in a fresh child process,
one child at a time, on inputs generated from ``--seed`` (workloads.py).
A pass runs every invocation of the workload once, on inputs of its own
drawn from the seed and the pass number, and checks every output; passes
repeat while the next one is predicted to end within ``--seconds``
(untraced runs take at least two).  The end-to-end
metrics (``--trace 0``) are

* ``setup_s``: median over the run's invocations of the time a child
  takes to import ``bellkit.cli``;
* ``pass_s``: median over passes whose outputs all checked of the summed
  time inside ``bellkit.cli.main(argv)``, so interpreter start and
  imports are excluded and lazy set-up inside a call is included;
* ``peak_rss_mb``: median over passes of the largest child peak RSS.

Both times are the children's CPU time (user plus system, all threads),
not wall time: on a shared host, wall time also counts the time a child
waited for a processor that the host gave to someone else, which made
wall-time figures spread several times wider from run to run.  bellkit
computes on one thread by default, so CPU and wall time agree on an idle
machine; the wall times are printed as well.

``--trace 1`` alternates untraced and traced passes and reports per
layer, from spans recorded around bellkit's public functions
(tracer.py): ``<module>.<function>.calls``, ``.total_s`` and ``.self_s``,
work counters, and the tracing overhead (traced minus untraced pass_s).

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only if every output checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from tracer import COUNTERS, span_names

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: BLAS and OpenMP threads per child; children run one at a time.
CHILD_THREADS = 1
CHILD_TIMEOUT_S = 120.0
#: No pass starts if it would end later than this after measuring began.
RUN_LIMIT_S = 150.0
#: Untraced runs take at least two passes, so pass_s is never one sample.
MIN_PLAIN_PASSES = 2


@dataclass
class PassResult:
    main_s: float = 0.0
    main_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    import_s: list = field(default_factory=list)
    import_cpu_s: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # invocation name -> reason
    values: dict = field(default_factory=dict)    # invocation name -> check result
    attempted: int = 0
    #: Per invocation, its spans [name, start, end, parent index].
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def child_env() -> dict:
    env = dict(os.environ)
    # The program's own thread knob stays at its default, so removing it
    # does not change what is measured.
    env.pop("BELLKIT_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(CHILD_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], logs: Path, trace: bool, env: dict, timeout: float):
    """Run child.py on one bellkit argv; returns (record, stderr, rusage, code)."""
    result_path = logs / "result.json"
    logs.mkdir(parents=True, exist_ok=True)
    with open(logs / "stdout.txt", "w") as out, open(logs / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
             "1" if trace else "0", "--", *argv],
            cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    record = None
    if result_path.exists():
        with open(result_path) as fh:
            record = json.load(fh)
    return record, (logs / "stderr.txt").read_text(), rusage, code


def run_pass(workload, trace: bool, env: dict, timeout: float = CHILD_TIMEOUT_S,
             corrupt=None) -> PassResult:
    """Run and check every invocation once.  corrupt(name, out_dir), if
    given, damages an output before it is checked (see selftest.py)."""
    passdir = workload.invocations[0].out.parent
    shutil.rmtree(passdir, ignore_errors=True)
    result = PassResult()
    values = result.values
    for inv in workload.invocations:
        result.attempted += 1
        record, stderr, rusage, code = run_child(
            inv.argv, passdir / "_child" / inv.name, trace, env, timeout)
        result.peak_rss_mb = max(result.peak_rss_mb, rusage.ru_maxrss / 1024.0)
        values[inv.name] = None
        if record is None:
            result.failures[inv.name] = f"no result (exit {code}): {stderr[-300:]}"
            continue
        result.import_s.append(record["import_s"])
        result.import_cpu_s.append(record["import_cpu_s"])
        result.main_s += record["main_s"]
        result.main_cpu_s += record["main_cpu_s"]
        result.spans.append(record.get("spans", []))
        for key, n in record.get("counts", {}).items():
            result.counts[key] = result.counts.get(key, 0) + n
        if code != 0 or "bellkit-error" in stderr:
            result.failures[inv.name] = f"exit {code}: {stderr.strip()[-300:]}"
            continue
        if corrupt is not None:
            corrupt(inv.name, inv.out)
        try:
            values[inv.name] = inv.check(inv.out)
        except Exception as exc:  # any malformed output fails the invocation
            result.failures[inv.name] = f"check: {type(exc).__name__}: {exc}"
    for name in workload.pass_check(values):
        result.failures.setdefault(name, "pass check failed")
    return result


def layer_metrics(p: PassResult, names, counters) -> dict:
    """calls, total and self time per span name, summed over the pass."""
    stats = {name: [0, 0.0, 0.0] for name in names}
    for spans in p.spans:
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child_time):
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
    out = {}
    for name, (calls, total, self_s) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
    for key in counters:
        out[key] = p.counts.get(key, 0)
    return out


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": commit, "child_threads": CHILD_THREADS}


def tail_percentile(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has 10 samples beyond it (n={n})"
    rank = n - 10
    return f"p{100 * rank // n} {sorted(values)[rank - 1]:.4f}"


def measure(name: str, seed: int, seconds: float, trace: bool, frozen: dict) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    env = child_env()
    plain, traced = [], []
    start = time.monotonic()
    min_cycles = 1 if trace else MIN_PLAIN_PASSES
    while True:
        cycle_start = time.monotonic()
        workload = workloads.build(name, seed, work, frozen, len(plain))
        plain.append(run_pass(workload, False, env))
        if trace:
            traced.append(run_pass(workload, True, env))
        now = time.monotonic()
        next_end = now + (now - cycle_start)
        if next_end > start + RUN_LIMIT_S or (
                len(plain) >= min_cycles and next_end > start + seconds):
            break

    runs = plain + traced
    failures = [f"{inv}: {why}" for p in runs for inv, why in p.failures.items()]
    attempted = sum(p.attempted for p in runs)
    good = [p.main_s for p in plain if p.ok]
    good_cpu = [p.main_cpu_s for p in plain if p.ok]
    imports = [t for p in plain for t in p.import_s]
    summary = {"workload": name, "seed": seed, "passes": len(plain),
               "attempted": attempted, "failed": len(failures), "failures": failures,
               "pass_s_samples": good_cpu,
               "wall": {"pass_s": good, "setup_s": imports}}
    if not trace:
        import_cpu = [t for p in plain for t in p.import_cpu_s]
        summary["metrics"] = {
            "setup_s": (statistics.median(import_cpu) if import_cpu else None, "s"),
            "pass_s": (statistics.median(good_cpu) if good_cpu else None, "s"),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in plain), "MB"),
        }
        return summary

    names = span_names()
    per_pass = [layer_metrics(p, names, COUNTERS) for p in traced]
    metrics = {}
    for key in per_pass[0]:
        unit = "s" if key.endswith("_s") else (
            "B" if key.endswith("bytes") else "count")
        metrics[key] = (statistics.median(m[key] for m in per_pass), unit)
    traced_good = [p.main_s for p in traced if p.ok]
    if good and traced_good:
        traced_med = statistics.median(traced_good)
        metrics["trace.pass_s"] = (traced_med, "s")
        metrics["trace.overhead_s"] = (traced_med - statistics.median(good), "s")
        # Self times partition each root span, so this is the time inside
        # main that no span covers: the cost of the root wrapper itself.
        metrics["trace.unaccounted_s"] = (statistics.median(
            p.main_s - sum(v for k, v in m.items() if k.endswith(".self_s"))
            for p, m in zip(traced, per_pass)), "s")
    summary["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed,
                   "span_fields": ["name", "start", "end", "parent"],
                   "invocations": [inv.name for inv in workload.invocations],
                   "passes": [p.spans for p in traced]}, fh)
    return summary


def report(summary: dict):
    name, m = summary["workload"], summary["metrics"]
    print(f"== {name} (seed {summary['seed']}): {summary['passes']} passes, "
          f"{summary['attempted']} invocations")
    for why in summary["failures"]:
        print(f"   FAILED {why}")
    samples = summary["pass_s_samples"]
    for key, (value, unit) in m.items():
        text = "n/a" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value))
        line = f"   {key:<52} {text:>12} {unit}"
        if key == "pass_s" and len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            line += (f"  (median of n={len(samples)} passes; quartiles {q1:.4f}, "
                     f"{q3:.4f}; {tail_percentile(samples)})")
        print(line)
    for key, values in summary["wall"].items():
        if values:
            print(f"   {key + ' as wall time, median':<52} "
                  f"{statistics.median(values):>12.6g} s  (n={len(values)})")
    frac = summary["failed"] / summary["attempted"]
    print(f"   {'fail_frac':<52} {frac:>12.6g} ratio  "
          f"({summary['failed']} of {summary['attempted']} invocations failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellkit" / "cli.py").is_file():
        print(f"perfbench: no bellkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(BENCH_DIR / "frozen.json") as fh:
        frozen = json.load(fh)

    env = environment()
    OUT.mkdir(exist_ok=True)
    with open(OUT / "environment.json", "w") as fh:
        json.dump(env, fh, indent=1)
    print("environment " + " ".join(f"{k}={v!r}" for k, v in env.items()))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summaries.append(measure(name, args.seed, args.seconds, bool(args.trace),
                                 frozen))
        report(summaries[-1])

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    prefix = len(summaries) > 1
    metrics = {(f"{s['workload']}.{k}" if prefix else k): {"value": v, "unit": u}
               for s in summaries for k, (v, u) in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
