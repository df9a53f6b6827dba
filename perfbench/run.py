"""eqthink benchmark: one workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload ci_corpus --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

The program is imported from ``src/`` of the same checkout.  A run sets
up (import, plus the corpus admission the workload needs), then repeats
passes over the workload's fixed inputs for ``--seconds``.  Reported
times are scaled by a reference loop timed next to them (see
``workloads.REF_SECONDS``); the unscaled times go to the table.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (environment, sizes, every sample) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ["ci_corpus", "sort_growth", "circuits_bignum", "mapreduce_jobs"]
IMPORT_SAMPLES = 9  # fresh interpreters timing `import eqthink.cli`
LOAD_SAMPLES = 3  # in-process corpus admissions; their median is used
MIN_PASSES = 3  # untraced passes per --trace 0 run
MIN_TRACED = 2  # traced passes (and as many untraced) per --trace 1 run

_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import eqthink.cli; t = time.perf_counter() - t; "
    "from workloads import reference_loop; print(t, reference_loop())"
)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def import_program():
    """Import eqthink from this checkout's src/, or exit non-zero."""
    package = SRC / "eqthink"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no eqthink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eqthink

    if Path(eqthink.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported eqthink from {eqthink.__file__}, not {package}")


def time_imports() -> list[tuple[float, float]]:
    """(import seconds, reference-loop seconds) from fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, loop = map(float, out.stdout.split())
        samples.append((seconds, loop))
    return samples


def scale(seconds: float, loop: float) -> float:
    """Seconds on a host where the reference loop takes REF_SECONDS."""
    return seconds * workloads.REF_SECONDS / loop


def scaled_ops(client) -> list[float]:
    """Each call's latency scaled by the mean of the reference-loop times
    taken just before and just after it."""
    taken_at = [n for n, _ in client.calibrations]
    out = []
    for i, (_, seconds, _) in enumerate(client.ops):
        after = bisect.bisect_right(taken_at, i)
        loop = (client.calibrations[after - 1][1] + client.calibrations[after][1]) / 2
        out.append(scale(seconds, loop))
    return out


def environment(seed: int) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # stay in the checkout
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "eqthink").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def why(workload: str) -> str:
    """The reason BENCHMARK.json records for choosing the workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Pass:
    def __init__(self, client, start, work, traced):
        self.start, self.end = start, len(client.ops)
        self.ops = client.ops[start:self.end]
        self.work = work
        self.traced = traced
        self.wall_raw = sum(seconds for _, seconds, _ in self.ops)
        self.wall = None  # scaled, set once the pass's last calibration is taken


def run_passes(workload, client, seconds, tracer):
    """Alternate untraced and traced passes (traced only with a tracer)
    until the window is spent and the minimum counts are reached."""
    passes: list[Pass] = []
    started = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(len(passes))
        before = len(client.ops)
        client.calibrate()
        try:
            work = workload.run_pass(client)
        finally:
            if traced:
                tracer.uninstall()
        client.calibrate()
        passes.append(Pass(client, before, work, traced))
        elapsed = perf_counter() - started
        n = len(passes)
        if tracer is None:
            enough, step = n >= MIN_PASSES, 1
        else:
            enough, step = n >= 2 * MIN_TRACED and n % 2 == 0, 2
        if enough and elapsed * (n + step) / n > seconds:
            break
    scaled = scaled_ops(client)
    for p in passes:
        p.wall = sum(scaled[p.start:p.end])
    return passes, scaled


def end_to_end(workload, untraced, setup, ops, scaled):
    metrics = {
        "setup_s": (setup["scaled"], "s"),
        "wall_s": (statistics.median(p.wall for p in untraced), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "failed_ratio": (sum(not ok for _, _, ok in ops) / len(ops), "ratio"),
        "setup_raw_s": (setup["raw"], "s"),
        "wall_raw_s": (statistics.median(p.wall_raw for p in untraced), "s"),
    }
    if workload.work_unit == "evaluator steps":
        extra["steps_per_s"] = (statistics.median(p.work / p.wall for p in untraced), "1/s")
    job_kinds = getattr(workload, "JOB_KINDS", ())
    jobs = [scaled[i] for p in untraced for i in range(p.start, p.end) if ops[i][0] in job_kinds]
    if jobs:
        extra["job_p50_ms"] = (percentile(jobs, 50) * 1e3, "ms")
        extra["job_p99_ms"] = (percentile(jobs, 99) * 1e3, "ms")
        extra["job_samples"] = (len(jobs), "count")
    return metrics, extra


# Per-layer times are scaled like the pass they belong to.
SCALE_POWER = {"s": 1, "us": 1, "ns": 1, "1/s": -1}


def per_layer(tracer, passes, client):
    by_pass = [
        {name: value * (p.wall / p.wall_raw) ** SCALE_POWER.get(spans.unit_of(name), 0)
         for name, value in tracer.layer_metrics(i).items()}
        for i, p in enumerate(passes) if p.traced
    ]
    for name in spans.EXACT_COUNTS:
        values = {m[name] for m in by_pass}
        if len(values) > 1:
            client.flag(f"{name} drifted across traced passes: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m in by_pass) for name in by_pass[0]}
    # Each traced pass is paired with the untraced pass just before it, so
    # host drift between distant passes does not enter the difference.
    pairs = [(passes[i - 1].wall, p.wall) for i, p in enumerate(passes) if p.traced]
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    metrics["trace.overhead_ratio"] = statistics.median((t - u) / u for u, t in pairs)
    metrics["trace.spans"] = statistics.median(tracer.span_count(i) for i, p in enumerate(passes) if p.traced)
    return metrics


COLUMNS = [
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("failed_ratio", "ratio"), ("setup_raw_s", "s"), ("wall_raw_s", "s"),
    ("steps_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_p99_ms", "ms"),
]


def print_table(rows: list[dict]) -> None:
    header = ["workload", "passes"] + [f"{name}[{unit}]" for name, unit in COLUMNS]
    lines = [header]
    for row in rows:
        cells = [row["workload"], str(row["passes"])]
        for name, _ in COLUMNS:
            value = row["metrics"].get(name)
            cells.append("-" if value is None else f"{value:.6g}")
        lines.append(cells)
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))


def run_one(args) -> int:
    import_program()
    global workloads  # importable only once src/ is on the path
    import workloads
    from eqthink import admissibility, circuits, cli, cost, evaluator, loader, mapreduce

    env = environment(args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    client = workloads.Client(log)

    import_samples = time_imports()
    load_samples = []  # (seconds, reference-loop seconds before and after)
    if workload.loads_corpus:
        for _ in range(LOAD_SAMPLES):
            loop = workloads.reference_loop()
            started = perf_counter()
            workload.setup()
            seconds = perf_counter() - started
            load_samples.append((seconds, (loop + workloads.reference_loop()) / 2))
    setup = {
        kind: sum(statistics.median(pick(s) for s in samples)
                  for samples in (import_samples, load_samples) if samples)
        for kind, pick in (("raw", lambda s: s[0]), ("scaled", lambda s: scale(*s)))
    }

    tracer = None
    if args.trace:
        tracer = spans.Tracer({
            "admissibility": admissibility, "circuits": circuits, "cli": cli, "cost": cost,
            "evaluator": evaluator, "loader": loader, "mapreduce": mapreduce,
        })
    passes, scaled = run_passes(workload, client, args.seconds, tracer)
    untraced = [p for p in passes if not p.traced]
    metrics, extra = end_to_end(workload, untraced, setup, client.ops, scaled)
    if tracer is not None:
        layers = per_layer(tracer, passes, client)

    op_times: dict[str, list[float]] = {}
    for p in untraced:
        for kind, seconds, _ in p.ops:
            op_times.setdefault(kind, []).append(seconds)
    record = {
        "workload": args.workload,
        "why": why(args.workload),
        "work_unit": workload.work_unit,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "sizes": workload.sizes(),
        "setup": {"import_s_and_loop_s": import_samples, "corpus_load_s_and_loop_s": load_samples},
        "reference_loop_s": [loop for _, loop in client.calibrations],
        "passes": [{"wall_s": p.wall, "wall_raw_s": p.wall_raw, "work": p.work, "traced": p.traced,
                    "ops": len(p.ops)} for p in passes],
        "end_to_end": metrics,
        "extra": extra,
        "op_median_s": {kind: statistics.median(v) for kind, v in op_times.items()},
        "faults": client.faults,
    }
    if hasattr(workload, "steps"):
        record["steps"] = {op: {str(n): s for n, s in v.items()} for op, v in workload.steps.items()}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["per_layer"] = layers
        tracer.write(RESULTS / f"{stem}-spans.csv.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    attempted = len(client.ops)
    failed = sum(not ok for _, _, ok in client.ops)
    print(json.dumps({"environment": env, "sizes": record["sizes"]}))
    print_table([{
        "workload": args.workload,
        "passes": len(untraced),
        "metrics": {k: v for k, (v, _) in {**metrics, **extra}.items()},
    }])
    if tracer is not None:
        for name, value in layers.items():
            print(f"  {name} = {value:.6g}")
        reported = {name: {"value": value, "unit": spans.unit_of(name)} for name, value in layers.items()}
    else:
        reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({
        "correct": failed == 0 and not client.faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one row for each."""
    rows = []
    ok = True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
        if result is None:
            log(f"{name} exited with {done.returncode}")
            return done.returncode or 1
        ok = ok and result["correct"]
        record = json.loads((RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        values = {k: v for k, (v, _) in record["end_to_end"].items()}
        values.update({k: v for k, (v, _) in record["extra"].items()})
        rows.append({"workload": name, "passes": sum(not p["traced"] for p in record["passes"]), "metrics": values})
    print_table(rows)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
