"""fracmatch verifier benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a source checkout; fracmatch is imported from
``src/``.  Each run is a fresh interpreter that drives ``fracmatch.cli.main``
with argv lists and calls ``verifier.clear_caches()`` before every call, so
each call pays what a one-shot CLI call pays.  Every output is checked (see
workloads.py); any failed check makes the run exit 1.

``--trace 0`` times whole passes and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced cycles of the same passes and
prints the per-layer metrics (see tracing.py) plus the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  The line before it holds the machine and
input facts.  Spans of a traced run go to .bench_out/spans-*.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Target, Tracer, default_targets, layer_totals, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
REQUIRED = ("src/fracmatch/cli.py", "src/fracmatch/verifier.py",
            "configs/acceptance.json", "data/graphs8.g6")

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "cpu_s": "s",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}
# (span key, metrics read at that boundary)
LAYERS = (
    ("verifier.native_invariants", ("calls", "self_s", "masks")),
    ("verifier.mask_invariants", ("self_s", "masks", "masks_per_s")),
    ("verifier.load_stream", ("self_s",)),
    ("verifier.count_motif_vector", ("self_s", "masks")),
    ("verifier.matching_number_at_least", ("self_s", "masks")),
    ("verifier.verify_bound", ("self_s",)),
    ("verifier.verify_nonexistence", ("self_s",)),
    ("matching.nu_star_fast", ("calls", "self_s")),
    ("matching.nu_star_deficiency", ("calls", "self_s")),
    ("matching.fractional_certificate", ("calls", "self_s")),
    ("matching.matching_number", ("calls", "self_s")),
    ("counting.count_motif", ("calls", "self_s")),
    ("graphs.from_graph6", ("calls", "self_s")),
    ("corpus.read_graph6_stream", ("self_s",)),
    ("graphs.to_graph6", ("calls", "self_s")),
    ("graphs.are_isomorphic", ("calls", "self_s")),
    ("constructions.build_extremal", ("calls", "self_s")),
    ("formulas", ("calls", "self_s")),
    ("corpus.canonical_graph6", ("calls", "self_s", "useful_ratio")),
    ("corpus.nonisomorphic_graphs", ("self_s",)),
    ("cli.main", ("self_s",)),
)
METRIC_UNITS = {"calls": "count", "self_s": "s", "masks": "count",
                "masks_per_s": "1/s", "useful_ratio": "ratio"}
EXTRA_LAYER_METRICS = {"verifier.filter_pass_ratio": "ratio",
                       "trace.overhead_ratio": "ratio", "trace.spans": "count"}
WORKERS_NOTE = ("spans inside pool worker processes are not collected: at --jobs > 1 "
                "native_invariants self time is the parent waiting on the pool")


def per_layer_units() -> dict[str, str]:
    units = {f"{key}.{m}": METRIC_UNITS[m] for key, metrics in LAYERS for m in metrics}
    units.update(EXTRA_LAYER_METRICS)
    return units


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100) of the values."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    import numpy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": cpu_model, "l2": caches.get("L2"), "l3": caches.get("L3"),
        "cgroup_cpu_max": _cgroup_cpu_max(),
    }


def _cgroup_cpu_max() -> str | None:
    """cgroup v2 cpu.max, or the v1 quota and period in the same form."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        return v2
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or period is None:
        return None
    return f"{'max' if quota == '-1' else quota} {period}"


def run_call(argv: list[str]) -> tuple[int, str, str, float, float]:
    """One cold CLI call: (exit code, stdout, stderr, wall s, cpu s)."""
    from fracmatch import cli, verifier

    verifier.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = _cpu(), time.perf_counter()
        code = cli.main(argv)
        t1, c1 = time.perf_counter(), _cpu()
    return code, out.getvalue(), err.getvalue(), t1 - t0, c1 - c0


class Stats:
    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, wl, i: int) -> tuple[float, float, int]:
        """Run pass i, check it; returns (wall s, cpu s, ops)."""
        calls = wl.pass_calls(i)
        results, wall, cpu = [], 0.0, 0.0
        for call in calls:
            code, out, err, dt, dc = run_call(call.argv)
            wall += dt
            cpu += dc
            results.append((code, out))
            if code != 0:
                self.errors.append(f"exit {code}: {' '.join(call.argv)}: {err.strip()[-300:]}")
        ops = sum(c.ops for c in calls)
        bad = wl.check_pass(i, results)
        if bad:
            self.errors.append(f"pass {i}: {bad} ops failed their output check")
        self.attempted += ops
        self.failed += bad
        return wall, cpu, ops


def measure(wl, seconds: float, stats: Stats) -> dict:
    passes = []
    while not passes or sum(p[0] for p in passes) < seconds:
        passes.append(stats.run_pass(wl, len(passes)))
    peak = _peak_rss_mb()
    wall = sum(p[0] for p in passes)
    cpu = sum(p[1] for p in passes)
    ops = sum(p[2] for p in passes)
    per_op_ms = [1000 * w / o for w, _, o in passes]
    return {
        "metrics": {
            "ops_per_s": ops / wall,
            "op_ms_p50": percentile(per_op_ms, 50),
            # CPU over a timed region of exactly --seconds
            "cpu_s": cpu * seconds / wall,
            "cpu_ms_per_op": 1000 * cpu / ops,
            "peak_rss_mb": peak,
        },
        "facts": {"passes": len(passes), "ops": ops, "op_ms_p50_samples": len(per_op_ms),
                  "timed_wall_s": wall, "pass_wall_s": [p[0] for p in passes]},
    }


def measure_traced(wl, seconds: float, stats: Stats) -> tuple[dict, object, dict]:
    """Alternate untraced and traced cycles; layer metrics from the traces."""
    distinct: list[set] = []
    tracer = Tracer(default_targets(), op_keys=frozenset({wl.op_key}),
                    observers={"corpus.canonical_graph6": lambda a, r: distinct[-1].add(r)})
    untraced, traced, bounds = [], [], []
    spent, c = 0.0, 0
    while c == 0 or spent < seconds:
        passes = range(c * wl.cycle_len, (c + 1) * wl.cycle_len)
        walls = [stats.run_pass(wl, i)[0] for i in passes]
        untraced.append(sum(walls))
        lo = len(tracer.spans)
        distinct.append(set())
        with tracer:
            walls = [stats.run_pass(wl, i)[0] for i in passes]
        traced.append(sum(walls))
        bounds.append((lo, len(tracer.spans)))
        spent += untraced[-1] + traced[-1]
        c += 1

    selfs = self_times(tracer.spans)
    cycles = [layer_totals(tracer.spans, selfs, lo, hi) for lo, hi in bounds]
    first = cycles[0]
    metrics: dict[str, float] = {}
    for key, names in LAYERS:
        t = first.get(key)
        for m in names:
            if m == "calls":
                v = t.calls if t else 0
            elif m == "masks":
                v = t.items if t else 0
            elif m == "self_s":
                v = statistics.median(cyc[key].self_s if key in cyc else 0.0 for cyc in cycles)
            elif m == "masks_per_s":
                items = sum(cyc[key].items for cyc in cycles if key in cyc)
                busy = sum(cyc[key].total_s for cyc in cycles if key in cyc)
                v = items / busy if busy else 0.0
            else:  # useful_ratio
                v = len(distinct[0]) / t.calls if t else 0.0
            metrics[f"{key}.{m}"] = v
    counted = first.get("verifier.count_motif_vector")
    evaluated = first.get("verifier.verify_bound")
    metrics["verifier.filter_pass_ratio"] = (
        counted.items / evaluated.items if counted and evaluated and evaluated.items else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.spans"] = bounds[0][1] - bounds[0][0]
    facts = {"cycles": c, "passes_per_cycle": wl.cycle_len,
             "untraced_cycle_s": untraced, "traced_cycle_s": traced,
             "missing_targets": tracer.missing, "note": WORKERS_NOTE}
    return metrics, tracer, facts


def probe_mask_dtype() -> str:
    """The mask dtype the verifier scans with, seen at count_motif_vector."""
    seen: list[str] = []
    key = "verifier.count_motif_vector"
    tracer = Tracer([Target("fracmatch.verifier", "count_motif_vector", key)],
                    observers={key: lambda args, result: seen.append(str(args[1].dtype))})
    with tracer:
        run_call(["verify", "--theorem", "1.6", "--n", "5", "--s2", "4", "--delta", "1",
                  "--motif", "clique:2", "--jobs", "1"])
    return ",".join(sorted(set(seen))) or "unknown"


def build_workload(name: str, seed: int, workdir: Path):
    """Set-up: imports and input generation."""
    import fracmatch.cli  # noqa: F401  (import cost belongs to set-up)

    return WORKLOADS[name](ROOT, seed, workdir)


def measure_setup(name: str, seed: int) -> list[float]:
    """Process start to ready, in fresh interpreters, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit {code})")
    return times


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} exit={proc.returncode}")
            worst = max(worst, proc.returncode)
            sys.stderr.write(proc.stderr)
            if not lines:
                continue
            result = json.loads(lines[-1])
            print(f"   correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"   {metric:45s} {v['value']:>16.6g} {v['unit']}")
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a fracmatch checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        wl = build_workload(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure_and_report(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(wl, args) -> int:
    import fracmatch.cli

    if not Path(fracmatch.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"fracmatch imported from {fracmatch.cli.__file__}, not this checkout")
    stats = Stats()
    facts = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "passes_per_cycle": wl.cycle_len}
    if args.trace:
        metrics, tracer, tfacts = measure_traced(wl, args.seconds, stats)
        facts.update(tfacts)
        units = per_layer_units()
        spans_file = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "note": WORKERS_NOTE,
            "columns": ["key", "start", "end", "parent", "op", "items"],
            "spans": tracer.spans}))
        facts["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        measured = measure(wl, args.seconds, stats)
        metrics, units = measured["metrics"], END_TO_END
        facts.update(measured["facts"])
    stats.failed += wl.final_check()
    if not args.trace:
        metrics["setup_s"] = statistics.median(measure_setup(wl.name, args.seed))
    facts["mask_dtype"] = probe_mask_dtype()
    facts["error_rate"] = stats.failed / stats.attempted
    facts.update(machine_facts())
    for err in stats.errors[:20]:
        print(err, file=sys.stderr)
    correct = stats.failed == 0 and not stats.errors
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": correct, "attempted": stats.attempted, "failed": stats.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
