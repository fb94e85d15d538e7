"""Design-flow benchmark for scldpc.

    python3 benchmarks/run.py --workload table-cv --seed 1 --seconds 25 --trace 0

Runs one workload in this process as a closed loop with one caller: design
units back to back, until ``--seconds`` have passed (at least one unit).
Every unit's outputs are checked against the reference values in
``workloads.py``.  With ``--trace 0`` it reports the end-to-end metrics,
whose times are rescaled to a reference machine speed by ``pace.Pace``;
with ``--trace 1`` it installs the span recorder and reports the per-layer
metrics of ``layers.py`` instead.  The last line of standard output is one
JSON object; a fuller record, with the spans of a traced run, is written to
``benchmarks/results/``.

The library is imported from ``src/`` of the checkout that holds this file.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from pace import Pace, pin_to_one_cpu

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# one thread everywhere; set before numpy is first imported
PINNED_ENV = {
    var: "1"
    for var in ("SCLDPC_WORKERS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
SETUP_RUNS = 10
# the child prints the system-wide monotonic clock once the library is usable
SETUP_CODE = (
    "import time, scldpc; scldpc.FieldGF(2); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)
CHILD_TIMEOUT_S = 60


def time_setup() -> tuple[float, float]:
    """Start and end of a fresh interpreter's way to a usable library, on the
    monotonic clock, which ``time.perf_counter`` also reads on Linux."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT,
        env=env,
        check=True,
        timeout=CHILD_TIMEOUT_S,
        capture_output=True,
        text=True,
    )
    return t0, float(out.stdout)


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def peak_rss_mb() -> float:
    """High-water mark of this process's resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_unit(workload, seed: int, tracer=None) -> dict:
    """One design call, timed, then checked; never raises for a failed unit."""
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        out_dir = Path(tmp)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(seed, out_dir)
            else:
                output = tracer.call("unit", workload.run, seed, out_dir)
            t1 = time.perf_counter()
            problems = workload.check(output, seed, out_dir)
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
            traceback.print_exc()
            t1 = time.perf_counter()
            return {"t0": t0, "t1": t1, "rss_mb": peak_rss_mb(), "problems": [repr(exc)], "output": None}
    for p in problems:
        print(f"{workload.name}: {p}", file=sys.stderr)
    return {"t0": t0, "t1": t1, "rss_mb": peak_rss_mb(), "problems": problems, "output": output}


def loop(seconds: float, unit) -> list[dict]:
    """Run ``unit()`` back to back until ``seconds`` have passed, at least once."""
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(unit())
    return units


def end_to_end(workload, seed: int, seconds: float) -> tuple[list[dict], dict]:
    pin_to_one_cpu()
    with Pace() as pace:
        time_setup()  # first start compiles the bytecode cache; users pay that once
        # half the set-up samples before the units and half after, so that
        # they do not all fall in one slow or fast spell of a shared machine
        setups = [time_setup() for _ in range(SETUP_RUNS // 2)]
        units = loop(seconds, lambda: run_unit(workload, seed))
        setups += [time_setup() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    for u in units:
        u["probe_s"] = pace.probe_s(u["t0"], u["t1"])
        u["scaled_s"] = pace.scaled(u["t0"], u["t1"])
    n, failed = len(units), sum(1 for u in units if u["problems"])
    rows = [
        ("design_s", statistics.median(u["scaled_s"] for u in units), "s", n),
        ("setup_s", statistics.median(pace.scaled(*s) for s in setups), "s", len(setups)),
        # at the end of the first unit: the peak then creeps up by a few MB
        # over the next units, so a run that fits more units would read higher
        ("peak_rss_mb", units[0]["rss_mb"], "MB", 1),
        ("failed_ratio", failed / n, "ratio", n),
        ("design_wall_s", statistics.median(u["t1"] - u["t0"] for u in units), "s", n),
        ("setup_wall_s", statistics.median(t1 - t0 for t0, t1 in setups), "s", len(setups)),
        ("probe_ms", statistics.median(s for _, s in pace.samples) * 1e3, "ms", len(pace.samples)),
    ]
    print(f"{'workload':<18} {'metric':<13} {'value':>12}  unit   samples")
    for name, value, unit, samples in rows:
        print(f"{workload.name:<18} {name:<13} {value:>12.4f}  {unit:<6} {samples}")
    # a reported metric must never read 0, so the result carries the pass ratio
    metrics = {name: (value, unit) for name, value, unit, _ in rows[:3]}
    metrics["pass_ratio"] = ((n - failed) / n, "ratio")
    return units, metrics


def per_layer(workload, seed: int, seconds: float) -> tuple[list[dict], dict]:
    import layers
    from spans import Tracer, per_span_overhead_s

    span_cost = per_span_overhead_s()

    def traced_unit() -> dict:
        with Tracer() as tracer:
            u = run_unit(workload, seed, tracer)
        u["spans"] = tracer.spans
        return u

    units = loop(seconds, traced_unit)
    per_unit = [layers.span_metrics(u["spans"], span_cost) for u in units]
    for name in layers.COUNTS:
        if len({m[name] for m in per_unit}) > 1:
            units[-1]["problems"].append(f"{name} differs between units")
    last = next((u for u in reversed(units) if u["output"] is not None), None)
    # median_low keeps counts whole: it returns one of the values
    values = {k: statistics.median_low(m[k] for m in per_unit) for k in per_unit[0]}
    if last is not None:
        proto, mask, L = workload.shape(last["output"], last["spans"])
        values.update(layers.microbenchmarks(proto, mask, L, seed))
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in layers.PER_LAYER.items()}
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:<18} {name:<28} {value:>16.6f}  {unit}")
    return units, metrics


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        units, metrics = per_layer(workload, args.seed, args.seconds)
    else:
        units, metrics = end_to_end(workload, args.seed, args.seconds)

    import numpy

    failed = sum(1 for u in units if u["problems"])
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "commit": commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "units": [
            {
                "wall_s": u["t1"] - u["t0"],
                "probe_s": u.get("probe_s"),
                "scaled_s": u.get("scaled_s"),
                "rss_mb": u["rss_mb"],
                "problems": u["problems"],
                "spans": u.get("spans"),
            }
            for u in units
        ],
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.update(PINNED_ENV)
    if not (SRC / "scldpc" / "__init__.py").is_file():
        print(f"no scldpc sources under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import scldpc

    if not Path(scldpc.__file__).resolve().is_relative_to(SRC):
        print(f"scldpc imported from {scldpc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
