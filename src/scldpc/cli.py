"""Command-line interface.

Subcommands mirror the library stages: oo-solve, cpo, count, baseline, gast,
pipeline, table1, export-alist.  Every command that uses randomness takes a
--seed flag; output is JSON on stdout unless --out is given.  Invalid input,
and a file that cannot be read or written, is reported as one
"scldpc: error: ..." line on stderr, with exit status 2.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
from pathlib import Path

from . import baselines, pipeline
from .alist import export_code_alist
from .cpo import cpo_optimize
from .cycles import count_ugast_3330, count_ugast_3330_for, girth_check
from .gast import _bounded_table, _remove_hits, gast_scan
from .gf import FieldGF
from .overlap import realize_mask, solve_optimal_overlap
from .qc import (
    _check_labelled, apply_edge_changes, build_ab_powers, code_from_json, code_to_json, couple,
    label_edges, protograph_of,
)


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load_code(path: str):
    return code_from_json(Path(path).read_text())


def _cmd_oo_solve(args) -> None:
    sol = solve_optimal_overlap(args.kappa, args.L)
    _emit(
        {
            "F_star": sol.f_star,
            "alpha": sol.alpha,
            "optima": [v.as_list() for v in sol.optima],
            "N_choices": sol.n_choices,
        },
        args.out,
    )


def _cmd_cpo(args) -> None:
    code = _load_code(args.code)
    res = cpo_optimize(
        code.proto,
        code.mask,
        code.L if args.L is None else args.L,
        budget=args.budget,
        seed=args.seed,
        target=args.target,
    )
    _emit(res.as_dict(), args.out)


def _cmd_count(args) -> None:
    code = _load_code(args.code)
    if args.what == "ugast3330":
        value = count_ugast_3330(code)
    else:
        # at p = 1 every protograph 6-cycle is active
        pg = protograph_of(code)
        value = count_ugast_3330_for(pg.proto, pg.mask, pg.L)
    # null when no 4- or 6-cycle survives the lift: longer cycles may remain
    girth = girth_check(code)
    _emit({"what": args.what, "count": value, "girth": None if girth == math.inf else girth}, args.out)


def _cmd_baseline(args) -> None:
    proto = build_ab_powers(3, args.kappa)
    if args.method == "cv":
        zeta, count = baselines.cv_exhaustive_best(proto, args.L)
        _emit({"method": "cv", "zeta": list(zeta), "count": count}, args.out)
    else:
        mask, count = baselines.mo_best(proto, args.L)
        _emit(
            {"method": "mo", "mask": [list(r) for r in mask.assign], "count": count},
            args.out,
        )


def _parse_targets(text: str) -> list[tuple]:
    try:
        return [tuple(t) for t in ast.literal_eval(f"[{text}]")]
    except (SyntaxError, TypeError, ValueError):
        raise ValueError(f"--targets must be a comma-separated list of tuples, got {text!r}") from None


def _cmd_gast(args) -> None:
    code = _load_code(args.code)
    if not 2 <= args.q <= 256 or args.q & (args.q - 1):
        raise ValueError(f"q must be a power of two from 2 to 256, got {args.q}")
    field = FieldGF(args.q.bit_length() - 1)
    targets = _parse_targets(args.targets)
    if args.action == "scan":
        _emit(
            [
                {
                    "label": list(inst.label),
                    "vns": list(inst.topology.vn_ids),
                    "witness": list(inst.witness),
                }
                for inst in gast_scan(code, field, targets)
            ],
            args.out,
        )
        return
    # removal on the hit table, as the design flow removes; each hit's
    # changes are (check, node, weight) by its ascending rows and columns.
    # An unlabeled code has no weights to change, so it is refused unscanned
    _check_labelled(code)
    family, hits = _bounded_table(code, field, targets)
    removed, lifted = _remove_hits(code, family, hits, field)
    mine: dict[int, list] = {}
    for h, row, col, w in lifted.tolist():
        mine.setdefault(h, []).append((row, col, w))
    applied = []
    for h, (i, t, m) in enumerate(zip(hits.group.tolist(), hits.translate.tolist(), hits.target.tolist())):
        g = family[i]
        vns, rows = g.vn[t].tolist(), sorted(g.cn[t].tolist())
        applied.append(
            {
                "label": list(g.matching[m]),
                "vns": vns,
                "removed": bool(removed[h]),
                "changes": [[rows.index(r), vns.index(c), w] for r, c, w in mine.get(h, [])],
            }
        )
    if len(lifted):
        code = apply_edge_changes(code, lifted[:, 1:].tolist())
    _emit({"results": applied, "code": json.loads(code_to_json(code))}, args.out)


def _cmd_pipeline(args) -> None:
    config = pipeline.DesignConfig(
        kappa=args.kappa,
        p=args.kappa,
        L=args.L,
        field_lam=args.field_lam,
        seed_partition=args.seed_partition,
        seed_labels=args.seed_labels,
        seed_cpo=args.seed_cpo,
        cpo_budget=args.budget,
        cpo_target=args.target,
        gast_targets=tuple(_parse_targets(args.targets)),
        gast_a_max=args.amax,
        optimum_index=args.optimum_index,
    )
    report = pipeline.run_pipeline(config, out_dir=args.out_dir)
    if args.out_dir is None:
        print(report.to_json())
    else:
        print(report.summary())


def _cmd_table1(args) -> None:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    table = pipeline.table1_report(args.L, args.sizes, methods=methods)
    if args.json:
        _emit(table, args.out)
    else:
        print(pipeline.render_table1(table))


def _cmd_export_alist(args) -> None:
    code = _load_code(args.code)
    with open(args.out, "w") as fh:
        export_code_alist(code, fh)


def _cmd_make_code(args) -> None:
    proto = build_ab_powers(3, args.kappa)
    sol = solve_optimal_overlap(args.kappa, args.L)
    mask = realize_mask(sol.optima[0], args.kappa, args.seed)
    code = couple(proto, mask, args.L)
    if args.field_lam:
        code = label_edges(code, FieldGF(args.field_lam), args.seed)
    text = code_to_json(code)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="scldpc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("oo-solve", help="solve the optimal-overlap partitioning problem")
    s.add_argument("--kappa", type=int, required=True)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_oo_solve)

    s = sub.add_parser("cpo", help="run the circulant power optimizer on a code")
    s.add_argument("--code", required=True)
    s.add_argument("--L", type=int)
    s.add_argument("--budget", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--target", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_cpo)

    s = sub.add_parser("count", help="cycle or absorbing-set census of a code")
    s.add_argument("--what", choices=("cycles6", "ugast3330"), required=True)
    s.add_argument("--code", required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_count)

    s = sub.add_parser("baseline", help="cutting-vector or minimum-overlap baselines")
    s.add_argument("--method", choices=("cv", "mo"), required=True)
    s.add_argument("--kappa", type=int, required=True)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_baseline)

    s = sub.add_parser("gast", help="scan for or remove absorbing sets")
    s.add_argument("action", choices=("scan", "remove"))
    s.add_argument("--code", required=True)
    s.add_argument("--q", type=int, default=4)
    s.add_argument("--targets", default="(4,2,2,5,0),(6,0,0,9,0)")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_gast)

    s = sub.add_parser("pipeline", help="run the full design flow")
    s.add_argument("--kappa", type=int, required=True)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--field-lam", type=int, default=2)
    s.add_argument("--seed-partition", type=int, default=1)
    s.add_argument("--seed-labels", type=int, default=1)
    s.add_argument("--seed-cpo", type=int, default=0)
    s.add_argument("--budget", type=int, default=100_000)
    s.add_argument("--target", type=int, default=0)
    s.add_argument("--targets", default="(4,2,2,5,0)")
    s.add_argument("--amax", type=int, default=5)
    s.add_argument("--optimum-index", type=int, default=0)
    s.add_argument("--out-dir")
    s.set_defaults(func=_cmd_pipeline)

    s = sub.add_parser("table1", help="comparison table across design techniques")
    s.add_argument("--L", type=int, default=30)
    s.add_argument("--sizes", type=int, nargs="+", default=[7, 11, 13, 17])
    s.add_argument("--methods", default="uncoupled,cv")
    s.add_argument("--json", action="store_true")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_table1)

    s = sub.add_parser("export-alist", help="write the lifted binary matrix as alist")
    s.add_argument("--code", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_export_alist)

    s = sub.add_parser("make-code", help="build an optimal-overlap code file")
    s.add_argument("--kappa", type=int, required=True)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--field-lam", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_make_code)

    args = ap.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, pipeline.PipelineError) as exc:
        print(f"scldpc: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a --code that cannot be read, or an --out that cannot be written
        where = f": {exc.filename}" if exc.filename is not None else ""
        print(f"scldpc: error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
