"""Per-layer metrics of the traced run: span totals plus layer microbenchmarks.

Each metric names the library layer it measures.  Which end-to-end metric it
moves, and on which workload, is listed in ``benchmarks/README.md``.  A layer
that a workload never calls reads 0 there (for example ``gast.*`` on
design-k19-nogast, whose design has no absorbing-set targets).
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc
from collections import defaultdict
from itertools import islice

import scldpc
from scldpc import overlap

from spans import duration, self_time

# name -> unit, in the order they are printed
PER_LAYER = {
    "overlap.solve_s": "s",
    "overlap.vectors": "count",
    "overlap.us_per_vector": "us",
    "overlap.census_us": "us",
    "cpo.optimize_s": "s",
    "cpo.evals": "count",
    "cpo.restarts": "count",
    "cpo.improvements": "count",
    "cpo.us_per_eval": "us",
    "cycles.window_build_s": "s",
    "cycles.census_s": "s",
    "cycles.girth_s": "s",
    "baselines.cv_s": "s",
    "baselines.masks_scored": "count",
    "baselines.us_per_mask": "us",
    "qc.label_s": "s",
    "qc.label_us_per_col": "us",
    "qc.json_s": "s",
    "qc.json_bytes": "bytes",
    "qc.json_us_per_col": "us",
    "alist.export_s": "s",
    "alist.bytes": "bytes",
    "alist.us_per_col": "us",
    "gast.scan_s": "s",
    "gast.seed_s": "s",
    "gast.seeds": "count",
    "gast.instances_found": "count",
    "gast.oracle_calls": "count",
    "gast.scan_oracle_calls": "count",
    "gast.remove_oracle_calls": "count",
    "gast.oracle_s": "s",
    "gast.oracle_us_per_call": "us",
    "gast.oracle_assignments": "count",
    "gast.hit_ratio": "ratio",
    "gast.remove_s": "s",
    "gast.removed": "count",
    "gast.candidates_tried": "count",
    "gast.removal_success_ratio": "ratio",
    "gast.is_gast_us": "us",
    "gast.is_gast_large_s": "s",
    "gast.is_gast_large_mb": "MB",
    "pipeline.self_s": "s",
    "pipeline.tracing_overhead_s": "s",
}

# counts that must repeat exactly between two units or runs at one seed
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))

CENSUS_VECTORS = 2000
REPEATS = 5


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def span_metrics(spans: list[dict], span_cost_s: float) -> dict:
    """Layer metrics of one traced unit, from its spans.

    ``spans[0]`` is the unit's root span.  ``span_cost_s`` is the measured
    cost of recording one span; times every span recorded, it is the time
    tracing added to the unit.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name: str, key: str | None = None) -> float:
        if key is None:
            return sum(duration(s) for s in by_name[name])
        # a call that raised has no counters
        return sum(s.get(key, 0) for s in by_name[name])

    # an oracle call belongs to the scan when the scan made it, else to removal
    oracle = by_name["gast_witnesses"]
    scan_oracle = [s for s in oracle if spans[s["parent"]]["name"] == "gast_scan"]
    cv_ids = {s["id"] for s in by_name["cv_exhaustive_best"]}
    masks = sum(1 for s in by_name["count_ugast_3330_for"] if s["parent"] in cv_ids)
    cols = total("couple", "cols")
    solves = [s for s in by_name["solve_optimal_overlap"] if "kappa" in s]
    vectors = sum(_count_vectors(s["kappa"]) for s in solves)
    cpo_s, evals = total("cpo_optimize"), total("cpo_optimize", "evals")
    found, removals = total("gast_scan", "n"), len(by_name["remove_gast"])
    removed = total("remove_gast", "ok")

    return {
        "overlap.solve_s": total("solve_optimal_overlap"),
        "overlap.vectors": vectors,
        "overlap.us_per_vector": _ratio(total("solve_optimal_overlap"), vectors, 1e6),
        "cpo.optimize_s": cpo_s,
        "cpo.evals": evals,
        "cpo.restarts": total("cpo_optimize", "restarts"),
        "cpo.improvements": total("cpo_optimize", "improvements"),
        "cpo.us_per_eval": _ratio(cpo_s, evals, 1e6),
        "cycles.census_s": total("count_ugast_3330") + total("count_ugast_3330_for"),
        "cycles.girth_s": total("girth_check"),
        "baselines.cv_s": total("cv_exhaustive_best"),
        "baselines.masks_scored": masks,
        "baselines.us_per_mask": _ratio(total("cv_exhaustive_best"), masks, 1e6),
        "qc.label_s": total("label_edges"),
        "qc.label_us_per_col": _ratio(total("label_edges"), cols, 1e6),
        "qc.json_s": total("code_to_json"),
        "qc.json_bytes": total("code_to_json", "n"),
        "qc.json_us_per_col": _ratio(total("code_to_json"), cols, 1e6),
        "alist.export_s": total("export_code_alist"),
        "alist.bytes": total("export_code_alist", "n"),
        "alist.us_per_col": _ratio(total("export_code_alist"), cols, 1e6),
        "gast.scan_s": total("gast_scan"),
        "gast.seed_s": total("lifted_6cycle_vn_sets"),
        "gast.seeds": total("lifted_6cycle_vn_sets", "n"),
        "gast.instances_found": found,
        "gast.oracle_calls": len(oracle),
        "gast.scan_oracle_calls": len(scan_oracle),
        "gast.remove_oracle_calls": len(oracle) - len(scan_oracle),
        "gast.oracle_s": total("gast_witnesses"),
        "gast.oracle_us_per_call": _ratio(total("gast_witnesses"), len(oracle), 1e6),
        "gast.oracle_assignments": total("gast_witnesses", "n"),
        "gast.hit_ratio": _ratio(found, len(scan_oracle)),
        "gast.remove_s": total("remove_gast"),
        "gast.removed": removed,
        "gast.candidates_tried": total("remove_gast", "tried"),
        "gast.removal_success_ratio": _ratio(removed, removals),
        "pipeline.self_s": self_time(spans, spans[0]),
        "pipeline.tracing_overhead_s": span_cost_s * len(spans),
    }


def _count_vectors(kappa: int) -> int:
    return sum(1 for _ in scldpc.enumerate_valid_overlaps(kappa))


def _clear_census_caches() -> None:
    for value in vars(overlap).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _median_time(fn, calls: int = 1) -> float:
    """Median over REPEATS batches of the seconds one call of ``fn`` takes."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def _ring(a: int) -> scldpc.UgastTopology:
    """``a`` variable nodes joined in a cycle by ``a`` degree-2 checks."""
    return scldpc.UgastTopology(
        gamma=3, a=a, shared_cns=tuple((v, (v + 1) % a) for v in range(a))
    )


def _weights(top: scldpc.UgastTopology, field: scldpc.FieldGF, rng: random.Random) -> dict:
    return {
        (c, v): rng.randrange(1, field.q) for c, cn in enumerate(top.shared_cns) for v in cn
    }


def microbenchmarks(proto, mask, L: int, seed: int) -> dict:
    """Single-layer timings, each called directly from outside the pipeline.

    ``proto`` and ``mask`` are the workload's design; the absorbing-set
    oracle runs on hand-built topologies with weights drawn from ``seed``.
    """
    kappa = proto.kappa
    vectors = list(islice(scldpc.enumerate_valid_overlaps(kappa), CENSUS_VECTORS))

    def census_pass():
        _clear_census_caches()
        for v in vectors:
            scldpc.cycle6_census(v, kappa, L)

    rng = random.Random(seed)
    # the run's target shape (4, 2, 2, 5, 0): two triangles sharing an edge
    small = scldpc.UgastTopology(
        gamma=3, a=4, shared_cns=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    )
    gf4 = scldpc.FieldGF(2)
    small_w = _weights(small, gf4, rng)
    # 15^5 assignments over GF(16): about 90 MB of oracle arrays
    large = _ring(5)
    gf16 = scldpc.FieldGF(4)
    large_w = _weights(large, gf16, rng)

    tracemalloc.start()
    scldpc.is_gast(large, large_w, gf16)
    large_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    return {
        "overlap.census_us": _median_time(census_pass) / len(vectors) * 1e6,
        "cycles.window_build_s": _median_time(lambda: scldpc.build_window(proto, mask)),
        "gast.is_gast_us": _median_time(lambda: scldpc.is_gast(small, small_w, gf4), 200) * 1e6,
        "gast.is_gast_large_s": _median_time(lambda: scldpc.is_gast(large, large_w, gf16)),
        "gast.is_gast_large_mb": large_peak / 2**20,
    }
