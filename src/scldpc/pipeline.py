"""End-to-end design flow and the comparison table.

The flow: fix (kappa, p, L), solve the optimal-overlap problem, realize a
mask, run the circulant power optimizer, draw edge weights, then scan for
and remove the targeted absorbing sets.  Reports embed the full
configuration plus the mask, powers, and seeds, so a report is sufficient to
rebuild the code and reproduce every count bit-exactly.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

from .alist import export_code_alist
from .baselines import cv_exhaustive_best, mo_best
from .cpo import cpo_optimize
from .cycles import count_ugast_3330_for
from .gast import _check_targets, _remove_hits, _scan_table
from .gf import FieldGF, _check_field_degree
from .overlap import realize_mask, solve_optimal_overlap
from .qc import (
    PartitionMask, _check_coupling_length, _check_lifted_size, apply_edge_changes, build_ab_powers,
    code_to_json, couple, label_edges,
)

__all__ = ["DesignConfig", "DesignReport", "PipelineError", "run_pipeline", "table1_report"]

TABLE_SIZES = (7, 11, 13, 17)


@dataclass(frozen=True)
class DesignConfig:
    kappa: int
    p: int
    L: int
    field_lam: int = 2
    seed_partition: int = 1
    seed_labels: int = 1
    seed_cpo: int = 0
    cpo_budget: int = 100_000
    cpo_target: int = 0
    gast_targets: tuple = ((4, 2, 2, 5, 0),)
    gast_a_max: int = 5
    optimum_index: int = 0

    def __post_init__(self):
        # refused here, before any stage runs, with the messages of the
        # stages that would refuse them
        _check_coupling_length(self.L)
        _check_lifted_size(self.L * self.kappa * self.p)
        if self.field_lam < 2:
            raise ValueError("code design requires a field with q >= 4")
        _check_field_degree(self.field_lam)
        if self.cpo_budget < 0:
            raise ValueError(f"CPO budget must be >= 0, got {self.cpo_budget}")
        # a_max only bounds the targets: the scan grows to the largest one
        a_max = self.gast_a_max
        if a_max < 3:
            raise ValueError(f"a_max must be >= 3, scan subsets grow from 6-cycles, got {a_max}")
        for t in _check_targets(self.gast_targets):
            if t[0] > a_max:
                raise ValueError(f"target size a must be <= a_max = {a_max}, "
                                 f"scan subsets grow no larger, got {t}")
        if self.optimum_index < 0:
            raise ValueError(f"optimum_index must be >= 0, got {self.optimum_index}")


class PipelineError(RuntimeError):
    """A stage failed; carries the stage name and the partial report."""

    def __init__(self, stage: str, cause: Exception, partial: dict):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage
        self.partial = partial


@dataclass
class DesignReport:
    config: DesignConfig
    f_star: int = 0
    alpha: int = 0
    n_choices: int = 0
    chosen_vector: list = field(default_factory=list)
    mask: list = field(default_factory=list)
    powers: list = field(default_factory=list)
    f_sc_initial: int = 0
    f_sc_final: int = 0
    cpo_evals: int = 0
    cpo_restarts: int = 0
    ugast_3330: int = 0
    girth_at_least_6: bool = False
    gasts_found: int = 0
    gasts_removed: int = 0
    # found - removed, as removal flags its hits: not a rescan of the code
    gasts_remaining: int = 0
    edge_changes: list = field(default_factory=list)
    code_json: str = ""

    def to_json(self) -> str:
        # a shallow copy: json.dumps walks the lists itself
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["config"] = asdict(self.config)
        return json.dumps(d, sort_keys=True, indent=1)

    def summary(self) -> str:
        c = self.config
        lines = [
            f"SC code design: kappa={c.kappa} p={c.p} L={c.L} GF(2^{c.field_lam})",
            f"  protograph 6-cycle minimum F* = {self.f_star} "
            f"(alpha={self.alpha}, {self.n_choices} partitioning choices)",
            f"  chosen overlap vector: {self.chosen_vector}",
            f"  lifted (3,3,3,0) count: {self.f_sc_initial} -> {self.f_sc_final} "
            f"after power optimization ({self.cpo_evals} evaluations)",
            f"  girth >= 6: {self.girth_at_least_6}",
            f"  absorbing sets: found {self.gasts_found}, removed {self.gasts_removed}, "
            f"remaining {self.gasts_remaining}",
        ]
        return "\n".join(lines)


def run_pipeline(config: DesignConfig, out_dir: Optional[str] = None) -> DesignReport:
    """Run the six design stages; writes report and code files when asked."""
    report = DesignReport(config=config)
    stage = "parameters"
    try:
        proto0 = build_ab_powers(3, config.p)
        if config.kappa != proto0.kappa:
            raise ValueError("kappa must equal p for the array-based start")

        stage = "overlap-optimization"
        sol = solve_optimal_overlap(config.kappa, config.L)
        report.f_star = sol.f_star
        report.alpha = sol.alpha
        report.n_choices = sol.n_choices
        if config.optimum_index >= len(sol.optima):
            raise ValueError(
                f"optimum_index {config.optimum_index} out of range: "
                f"the solve found {len(sol.optima)} optimal vectors"
            )
        vector = sol.optima[config.optimum_index]
        report.chosen_vector = vector.as_list()

        stage = "partition-realization"
        mask = realize_mask(vector, config.kappa, config.seed_partition)
        report.mask = [list(r) for r in mask.assign]

        stage = "power-optimization"
        cpo = cpo_optimize(
            proto0,
            mask,
            config.L,
            budget=config.cpo_budget,
            seed=config.seed_cpo,
            target=config.cpo_target,
        )
        report.f_sc_initial = cpo.f_sc_initial
        report.f_sc_final = cpo.f_sc
        report.cpo_evals = cpo.evals
        report.cpo_restarts = cpo.restarts
        report.powers = [list(r) for r in cpo.powers]
        proto = proto0.with_powers(cpo.powers)

        stage = "edge-labeling"
        code = couple(proto, mask, config.L)
        fld = FieldGF(config.field_lam)
        code = label_edges(code, fld, config.seed_labels)
        # the optimizer's final count is the census of this code, and it
        # keeps every window 4-cycle inactive from its start on
        report.ugast_3330 = cpo.f_sc
        report.girth_at_least_6 = True

        stage = "absorbing-set-removal"
        # on the hit table, without instance objects
        family, hits = _scan_table(code, fld, config.gast_targets)
        report.gasts_found = len(hits.group)
        removed, lifted = _remove_hits(code, family, hits, fld)
        report.gasts_removed = int(removed.sum())
        changes = lifted[:, 1:].tolist()
        if changes:
            code = apply_edge_changes(code, changes)
        report.gasts_remaining = report.gasts_found - report.gasts_removed
        report.edge_changes = changes
        report.code_json = code_to_json(code)
    except Exception as exc:  # noqa: BLE001 - abort with stage context
        raise PipelineError(stage, exc, partial=json.loads(report.to_json())) from exc

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json())
        (out / "report.txt").write_text(report.summary() + "\n")
        (out / "code.json").write_text(report.code_json)
        buf = io.StringIO()
        export_code_alist(code, buf)
        (out / "code.alist").write_text(buf.getvalue())
    return report


def table1_report(
    L: int,
    sizes: Sequence[int],
    methods: Sequence[str] = ("uncoupled", "cv"),
) -> dict:
    """(3,3,3,0) counts per design technique at each kappa = p.

    ``methods`` selects rows from uncoupled / cv / mo / oo-cpo; mo and oo-cpo
    can take minutes at the larger sizes.  oo-cpo runs ``cpo_optimize`` at
    its default budget and seed.
    """
    sizes = tuple(sizes)
    if not set(sizes) <= set(TABLE_SIZES):
        raise ValueError(f"sizes must be a subset of {TABLE_SIZES}")
    known = {"uncoupled", "cv", "mo", "oo-cpo"}
    if not set(methods) <= known:
        raise ValueError(f"methods must be a subset of {sorted(known)}")
    table: dict = {"L": L, "sizes": list(sizes), "counts": {}}
    for method in methods:
        row = []
        for kp in sizes:
            proto = build_ab_powers(3, kp)
            if method == "uncoupled":
                mask = PartitionMask.all_h0(3, kp)
                row.append(count_ugast_3330_for(proto, mask, L))
            elif method == "cv":
                _, count = cv_exhaustive_best(proto, L)
                row.append(count)
            elif method == "mo":
                _, count = mo_best(proto, L)
                row.append(count)
            else:
                sol = solve_optimal_overlap(kp, L)
                mask = realize_mask(sol.optima[0], kp, seed=1)
                res = cpo_optimize(proto, mask, L)
                row.append(res.f_sc)
        table["counts"][method] = row
    return table


def render_table1(table: dict) -> str:
    names = {
        "uncoupled": "Uncoupled (array-based)",
        "cv": "SC, cutting vector",
        "mo": "SC, minimum overlap",
        "oo-cpo": "SC, optimal overlap + power optimizer",
    }
    sizes = table["sizes"]
    head = "technique".ljust(40) + "".join(f"k=p={s}".rjust(12) for s in sizes)
    lines = [head, "-" * len(head)]
    for method, row in table["counts"].items():
        lines.append(names[method].ljust(40) + "".join(str(v).rjust(12) for v in row))
    return "\n".join(lines)
