import errno
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from scldpc import cycles
from scldpc.cycles import count_ugast_3330
from scldpc.gast import gast_scan
from scldpc.gf import FieldGF
from scldpc.pipeline import (
    DesignConfig,
    PipelineError,
    render_table1,
    run_pipeline,
    table1_report,
)
from scldpc.qc import code_from_json

SMALL = DesignConfig(
    kappa=5, p=5, L=3, cpo_budget=3000, gast_targets=((4, 2, 2, 5, 0),), gast_a_max=4
)


@pytest.fixture(scope="module")
def small_report():
    return run_pipeline(SMALL)


class TestRunPipeline:
    def test_report_fields_populated(self, small_report):
        rep = small_report
        assert rep.f_star > 0 and rep.alpha > 0
        assert len(rep.chosen_vector) == 7
        assert rep.f_sc_final <= rep.f_sc_initial
        assert rep.girth_at_least_6
        assert rep.code_json

    def test_deterministic_reports(self, small_report):
        again = run_pipeline(SMALL)
        assert again.to_json() == small_report.to_json()

    def test_report_reconstructs_counts(self, small_report):
        code = code_from_json(small_report.code_json)
        assert count_ugast_3330(code) == small_report.ugast_3330
        assert small_report.ugast_3330 == small_report.f_sc_final
        assert [list(r) for r in code.mask.assign] == small_report.mask
        assert [list(r) for r in code.proto.powers] == small_report.powers

    def test_stage_failure_names_stage(self):
        bad = DesignConfig(kappa=6, p=7, L=3)  # kappa must equal p for AB start
        with pytest.raises(PipelineError) as err:
            run_pipeline(bad)
        assert err.value.stage == "parameters"
        assert isinstance(err.value.partial, dict)

    def test_small_field_rejected(self):
        with pytest.raises(ValueError):
            DesignConfig(kappa=5, p=5, L=3, field_lam=1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"gast_targets": ((4, 2, 2, 5, -1),)},
             "target entries must be non-negative integers, got (4, 2, 2, 5, -1)"),
            ({"gast_targets": ((4, 2, 2, 5, True),)},
             "target entries must be non-negative integers, got (4, 2, 2, 5, True)"),
            ({"gast_targets": ((4, 2, 2),)},
             "targets must be 5-tuples (a, b, d1, d2, d3), got (4, 2, 2)"),
            ({"gast_targets": ((4, 2, 2, 5, 0), (4, 2, 5, 0))},
             "targets must be 5-tuples (a, b, d1, d2, d3), got (4, 2, 5, 0)"),
            ({"cpo_budget": -1}, "CPO budget must be >= 0, got -1"),
            ({"gast_a_max": 2}, "a_max must be >= 3, scan subsets grow from 6-cycles, got 2"),
            ({"gast_a_max": 0, "gast_targets": ()},
             "a_max must be >= 3, scan subsets grow from 6-cycles, got 0"),
            ({"optimum_index": -1}, "optimum_index must be >= 0, got -1"),
            ({"gast_targets": ((6, 0, 0, 9, 0),)},
             "target size a must be <= a_max = 5, scan subsets grow no larger, got (6, 0, 0, 9, 0)"),
            # FieldGF's refusal, before the overlap solve and CPO run
            ({"field_lam": 9}, "field degree must be in [1, 8], got 9"),
            # SCCode's refusal, before the overlap solve and CPO run
            ({"L": 80_001}, "lifted code would have 2000025 columns, limit is 2000000"),
        ],
        ids=["negative-entry", "bool-entry", "short-target", "ugast-target", "negative-budget", "amax2",
             "amax0-no-targets", "negative-optimum-index", "target-above-amax", "field-degree",
             "lifted-size"],
    )
    def test_bad_config_refused_on_construction(self, fields, message):
        # refused before any stage runs, with the message the stage would give
        with pytest.raises(ValueError) as err:
            DesignConfig(**{"kappa": 5, "p": 5, "L": 3, **fields})
        assert str(err.value) == message

    def test_optimum_index_past_the_optima_refused(self):
        # known only after the solve: 12 optimal vectors at kappa = 7, L = 30
        with pytest.raises(PipelineError) as err:
            run_pipeline(DesignConfig(kappa=7, p=7, L=30, cpo_budget=0, optimum_index=12))
        assert err.value.stage == "overlap-optimization"
        assert str(err.value.__cause__) == (
            "optimum_index 12 out of range: the solve found 12 optimal vectors"
        )

    def test_output_files(self, tmp_path, small_report):
        run_pipeline(SMALL, out_dir=str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["f_star"] == small_report.f_star
        assert (tmp_path / "report.txt").read_text().startswith("SC code design")
        code = code_from_json((tmp_path / "code.json").read_text())
        assert count_ugast_3330(code) == small_report.ugast_3330
        alist = (tmp_path / "code.alist").read_text().split()
        assert int(alist[0]) == code.n_cols and int(alist[1]) == code.n_rows


# the design-k13-gast benchmark unit at the reference seed
K13 = DesignConfig(
    kappa=13, p=13, L=10, cpo_budget=20_000, seed_partition=1, seed_labels=1,
    seed_cpo=1, gast_targets=((4, 2, 2, 5, 0),), gast_a_max=4,
)


def test_pinned_design_outputs(tmp_path):
    # the files a design at fixed seeds writes; any change to labeling, JSON,
    # alist, scan or removal that moves a byte shows here
    run_pipeline(K13, out_dir=str(tmp_path))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("code.json", "code.alist", "report.json")
    }
    assert digests == {
        "code.json": "dbec29fe5a075cc0c9991dc99cd405946bb37c2c4bc39bf8880124b4fc4a76bf",
        "code.alist": "c06c0491490ae7fe857068399ade6ef9fa7139a3361edfebeaa73753b63d6554",
        "report.json": "c51af042dfd63abdf32b09dc11378e3606174b9ff56ea5a8013ef7ca51e97ee2",
    }


@pytest.mark.xfail(
    strict=True,
    reason="removal scores each hit on the code's weights as scanned, not after the changes "
    "made for the hits before it, so a rescan finds GASTs the report counts as removed",
)
def test_rescan_finds_the_reported_remainder(tmp_path):
    # gasts_remaining is found - removed as removal flags its hits; a fresh
    # scan of the written code.json must find exactly that many, at label
    # seeds 1-3 (it finds 5, 4 and 6 where 0 are reported)
    found, reported = [], []
    for seed in (1, 2, 3):
        out = tmp_path / str(seed)
        report = run_pipeline(replace(K13, seed_labels=seed), out_dir=str(out))
        code = code_from_json((out / "code.json").read_text())
        found.append(len(gast_scan(code, FieldGF(K13.field_lam), K13.gast_targets)))
        reported.append(report.gasts_remaining)
    assert found == reported


@pytest.mark.parametrize("targets, listings", [(K13.gast_targets, 1), ((), 0)], ids=["gast", "no-gast"])
def test_active_6cycles_listed_once(monkeypatch, targets, listings):
    # the census is the optimizer's final count, so only the scan's seeds
    # list the active window 6-cycles (the enumerator given powers)
    calls, enumerate_chunks = [], cycles._six_cycle_chunks

    def spy(inc, powers=None, s=1):
        calls.append(powers is not None)
        return enumerate_chunks(inc, powers, s)

    monkeypatch.setattr(cycles, "_six_cycle_chunks", spy)
    report = run_pipeline(replace(K13, gast_targets=targets))
    assert calls.count(True) == listings
    assert (report.ugast_3330, report.girth_at_least_6) == (1963, True)


@pytest.mark.slow
def test_kappa7_design_hits_published_marks():
    rep = run_pipeline(DesignConfig(kappa=7, p=7, L=30, gast_targets=(), gast_a_max=3))
    assert rep.f_star == 1170
    assert rep.f_sc_final <= 609
    assert rep.girth_at_least_6


class TestTable:
    def test_uncoupled_and_cv_columns(self):
        table = table1_report(30, sizes=(7,), methods=("uncoupled", "cv"))
        assert table["counts"]["uncoupled"] == [8820]
        assert table["counts"]["cv"] == [3290]

    def test_oo_cpo_column_at_kappa7(self):
        table = table1_report(30, sizes=(7,), methods=("oo-cpo",))
        assert table["counts"]["oo-cpo"][0] <= 609

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            table1_report(30, sizes=(9,))

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            table1_report(30, sizes=(7,), methods=("magic",))

    def test_render(self):
        table = table1_report(30, sizes=(7,), methods=("uncoupled",))
        text = render_table1(table)
        assert "k=p=7" in text and "8820" in text


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "scldpc.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestCli:
    def test_oo_solve(self):
        res = run_cli("oo-solve", "--kappa", "7", "--L", "30")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["F_star"] == 1170
        assert [3, 4, 3, 0, 1, 2, 0] in payload["optima"]
        assert payload["alpha"] == len(payload["optima"])
        assert payload["N_choices"] > 0

    def test_make_count_export_roundtrip(self, tmp_path):
        code_path = tmp_path / "code.json"
        res = run_cli(
            "make-code", "--kappa", "5", "--L", "3", "--field-lam", "2",
            "--out", str(code_path),
        )
        assert res.returncode == 0, res.stderr
        res = run_cli("count", "--what", "ugast3330", "--code", str(code_path))
        payload = json.loads(res.stdout)
        code = code_from_json(code_path.read_text())
        assert payload["count"] == count_ugast_3330(code)
        res = run_cli("count", "--what", "cycles6", "--code", str(code_path))
        assert json.loads(res.stdout)["count"] > 0
        alist_path = tmp_path / "code.alist"
        res = run_cli("export-alist", "--code", str(code_path), "--out", str(alist_path))
        assert res.returncode == 0
        assert alist_path.read_text().split()[0] == str(code.n_cols)

    @pytest.mark.parametrize("what", ["ugast3330", "cycles6"])
    def test_count_without_short_cycles_prints_valid_json(self, tmp_path, capsys, what):
        # no active 4- or 6-cycle: girth is null, never the non-JSON Infinity
        from scldpc import cli
        from scldpc.qc import PartitionMask, ProtoMatrix, code_to_json, couple

        proto = ProtoMatrix(gamma=3, kappa=2, p=7, powers=((0, 0), (0, 1), (0, 3)))
        path = tmp_path / "code.json"
        path.write_text(code_to_json(couple(proto, PartitionMask.all_h0(3, 2), 2)))
        assert cli.main(["count", "--what", what, "--code", str(path)]) == 0

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert payload == {"what": what, "count": 0, "girth": None}

    def test_cpo_command(self, tmp_path):
        code_path = tmp_path / "code.json"
        run_cli("make-code", "--kappa", "5", "--L", "3", "--out", str(code_path))
        res = run_cli(
            "cpo", "--code", str(code_path), "--budget", "2000", "--seed", "1"
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["f_sc"] <= payload["f_sc_initial"]

    def test_cpo_starts_from_code_powers(self, tmp_path, capsys):
        # a pipeline-written code holds optimized powers, not array-based ones
        from scldpc import cli
        from scldpc.qc import build_ab_powers

        out_dir = tmp_path / "run"
        argv = ["pipeline", "--kappa", "7", "--L", "30", "--budget", "2000", "--seed-cpo", "1"]
        assert cli.main([*argv, "--targets", "", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        code_path = str(out_dir / "code.json")
        assert cli.main(["cpo", "--code", code_path, "--budget", "0"]) == 0
        cpo = json.loads(capsys.readouterr().out)
        assert cli.main(["count", "--what", "ugast3330", "--code", code_path]) == 0
        count = json.loads(capsys.readouterr().out)["count"]
        powers = json.loads(Path(code_path).read_text())["powers"]
        assert powers != [list(r) for r in build_ab_powers(3, 7).powers]
        assert cpo["powers"] == powers
        assert cpo["f_sc_initial"] == cpo["f_sc"] == count == 203
        assert (cpo["evals"], cpo["trace"]) == (0, [])

    def test_baseline_command(self):
        res = run_cli("baseline", "--method", "cv", "--kappa", "7", "--L", "30")
        assert json.loads(res.stdout)["count"] == 3290

    def test_gast_scan_command(self, tmp_path):
        code_path = tmp_path / "code.json"
        run_cli(
            "make-code", "--kappa", "5", "--L", "3", "--field-lam", "2",
            "--out", str(code_path),
        )
        res = run_cli(
            "gast", "scan", "--code", str(code_path), "--q", "4",
            "--targets", "(3,3,3,3,0)",
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert isinstance(payload, list)

    def test_gast_remove_command(self, tmp_path):
        code_path = tmp_path / "code.json"
        run_cli(
            "make-code", "--kappa", "5", "--L", "3", "--field-lam", "2",
            "--out", str(code_path),
        )
        res = run_cli(
            "gast", "remove", "--code", str(code_path), "--q", "4",
            "--targets", "(3,3,3,3,0)",
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert "results" in payload and "code" in payload

    def test_pipeline_command(self, tmp_path):
        res = run_cli(
            "pipeline", "--kappa", "5", "--L", "3", "--budget", "2000",
            "--out-dir", str(tmp_path / "run"),
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "run" / "report.json").exists()

    def test_table1_command(self):
        res = run_cli("table1", "--L", "30", "--sizes", "7", "--methods", "uncoupled", "--json")
        assert json.loads(res.stdout)["counts"]["uncoupled"] == [8820]


SCAN_TARGET = (3, 3, 3, 3, 0)

# (id, --targets, message) of targets refused by the scan, the removal and
# the pipeline
MALFORMED_TARGETS = [
    ("bare-int", "5", "--targets must be a comma-separated list of tuples, got '5'"),
    ("unclosed", "(4,2", "--targets must be a comma-separated list of tuples, got '(4,2'"),
    ("name", "a", "--targets must be a comma-separated list of tuples, got 'a'"),
    ("float", "(4,2,2,5,0.5)", "target entries must be non-negative integers, got (4, 2, 2, 5, 0.5)"),
    ("negative", "(4,2,2,5,-1)", "target entries must be non-negative integers, got (4, 2, 2, 5, -1)"),
    ("a2", "(2,2,2,2,0)", "target size a must be >= 3, scan subsets grow from 6-cycles, got (2, 2, 2, 2, 0)"),
    ("ugast", "(4,2,5,0)", "targets must be 5-tuples (a, b, d1, d2, d3), got (4, 2, 5, 0)"),
    ("above-amax", "(5,2,2,6,0)",
     "target size a must be <= a_max = 4, scan subsets grow no larger, got (5, 2, 2, 6, 0)"),
]


def _labelled_code_file(tmp_path):
    from scldpc.qc import build_ab_powers, code_to_json, couple, label_edges
    from scldpc.overlap import realize_mask, solve_optimal_overlap

    mask = realize_mask(solve_optimal_overlap(5, 3).optima[0], 5, 1)
    code = label_edges(couple(build_ab_powers(3, 5), mask, 3), FieldGF(2), seed=1)
    path = tmp_path / "labelled.json"
    path.write_text(code_to_json(code))
    return str(path)


def _girth4_code_file(tmp_path):
    from scldpc.qc import PartitionMask, ProtoMatrix, code_to_json, couple

    powers = ((0, 0, 0, 0, 0), (0, 0, 1, 2, 3), (0, 2, 4, 1, 3))
    proto = ProtoMatrix(gamma=3, kappa=5, p=5, powers=powers)
    path = tmp_path / "girth4.json"
    path.write_text(code_to_json(couple(proto, PartitionMask.all_h0(3, 5), 2)))
    return str(path)


class TestCliErrors:
    def test_girth4_census_reports_girth_without_traceback(self, tmp_path, capsys):
        from scldpc import cli

        rc = cli.main(["count", "--what", "ugast3330", "--code", _girth4_code_file(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("scldpc: error: ")
        assert "girth 4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("q", [6, 0, 1, 512])
    def test_bad_field_size_reported(self, tmp_path, capsys, q):
        # q itself is named, not the field degree it would give
        from scldpc import cli

        rc = cli.main(["gast", "scan", "--code", _girth4_code_file(tmp_path), "--q", str(q)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == f"scldpc: error: q must be a power of two from 2 to 256, got {q}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["baseline", "--method", "cv", "--kappa", "7", "--L", "1"],
            ["baseline", "--method", "mo", "--kappa", "7", "--L", "1"],
            ["table1", "--L", "1", "--sizes", "7"],
            ["cpo", "--L", "1", "--budget", "200"],
            # 0 is a given L, not "use the code's own"
            ["cpo", "--L", "0", "--budget", "200"],
        ],
        ids=["cv", "mo", "table1", "cpo", "cpo-L0"],
    )
    def test_short_coupling_reported(self, tmp_path, capsys, argv):
        from scldpc import cli

        if argv[0] == "cpo":
            argv = argv + ["--code", _labelled_code_file(tmp_path)]
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "scldpc: error: coupling length L must be >= 2\n"

    def test_cpo_coupling_beyond_exact_range_reported(self, tmp_path, capsys):
        # the optimizer's counts must stay exact in int64
        from scldpc import cli

        L = 10**17
        rc = cli.main(["cpo", "--L", str(L), "--budget", "200", "--code", _labelled_code_file(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"scldpc: error: CPO counts at L={L} would leave the exact int64 range\n"

    @pytest.mark.parametrize("q", [4, 16])
    @pytest.mark.parametrize("action", ["scan", "remove"])
    def test_field_mismatch_reported(self, tmp_path, capsys, action, q):
        # the scan reads the label bytes directly, so a code labelled over
        # another field is refused before any weight is read
        from scldpc import cli

        path = tmp_path / "code8.json"
        argv = ["make-code", "--kappa", "5", "--L", "3", "--field-lam", "3", "--out", str(path)]
        assert cli.main(argv) == 0
        rc = cli.main(
            ["gast", action, "--code", str(path), "--q", str(q),
             "--targets", str(SCAN_TARGET)]
        )
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"scldpc: error: code is labelled over GF(8), the scan field is GF({q})\n"

    def test_negative_cpo_budget_reported(self, tmp_path, capsys):
        from scldpc import cli

        rc = cli.main(["cpo", "--code", _labelled_code_file(tmp_path), "--budget", "-5"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "scldpc: error: CPO budget must be >= 0, got -5\n"

    def test_girth4_cpo_reported(self, tmp_path, capsys):
        # the optimizer starts from the file's powers, which here close a 4-cycle
        from scldpc import cli

        rc = cli.main(["cpo", "--code", _girth4_code_file(tmp_path), "--budget", "10"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "scldpc: error: initial powers activate a 4-cycle; cannot start\n"

    def test_cpo_omitted_length_means_code_length(self, tmp_path, capsys):
        # the code file's L is 3; a given --L 0 is refused (test_short_coupling_reported)
        from scldpc import cli

        path = _labelled_code_file(tmp_path)
        outputs = []
        for extra in ([], ["--L", "3"]):
            assert cli.main(["cpo", "--code", path, "--budget", "300", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("dropped", "label list holds 220 distinct entries, the code has 225"),
            ("extra", "label list holds 226 distinct entries, the code has 225"),
            ("duplicated", "label list repeats entry"),
            ("out-of-field", "edge weight 4 outside 1..3, the nonzero elements of GF(4)"),
            ("zero", "edge weight 0 outside 1..3, the nonzero elements of GF(4)"),
            ("misplaced", "label at"),
            ("no-field", "a labelled code needs field_lam"),
            ("overflow", "label list holds an integer outside the 64-bit range"),
            ("null-weight", "labels must be a list of [row, col, weight] integer triples"),
            ("float-weight", "label list holds a non-integer value 1.5"),
            ("boolean-weight", "label list holds a non-integer value true"),
            ("float-row", "label list holds a non-integer value"),
        ],
        ids=[
            "dropped", "extra", "duplicated", "out-of-field", "zero", "misplaced", "no-field",
            "overflow", "null-weight", "float-weight", "boolean-weight", "float-row",
        ],
    )
    def test_malformed_labels_reported(self, tmp_path, capsys, fault, message):
        from scldpc import cli

        payload = json.loads(Path(_labelled_code_file(tmp_path)).read_text())
        code = code_from_json(json.dumps(payload))
        labels = payload["labels"]

        def stray_row(col):
            return min(set(range(code.n_rows)) - set(code.column_rows(col)))

        if fault == "dropped":
            del labels[-5:]
        elif fault == "extra":
            labels.append([stray_row(0), 0, 1])
        elif fault == "duplicated":
            # the same entry twice, with another weight the second time
            row, col, w = labels[7]
            labels.append([row, col, 1 + w % 3])
            message += f" ({row}, {col})"
        elif fault in ("out-of-field", "zero"):
            labels[7][2] = 4 if fault == "out-of-field" else 0
        elif fault == "no-field":
            payload["field_lam"] = None
        elif fault == "overflow":
            labels[7][2] = 2**70
        elif fault == "null-weight":
            labels[7][2] = None
        elif fault in ("float-weight", "boolean-weight"):
            labels[7][2] = 1.5 if fault == "float-weight" else True
        elif fault == "float-row":
            labels[7][0] = float(labels[7][0])
            message += f" {labels[7][0]}"
        else:
            # same count, one label moved off its entry onto a zero of its column
            row, col, w = labels[7]
            labels[7] = [stray_row(col), col, w]
            message += f" ({stray_row(col)}, {col}) is not a nonzero entry of the code"
        path = tmp_path / "code.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as err:
            code_from_json(path.read_text())
        assert str(err.value) == message
        # every command that reads a code file refuses it the same way
        for argv in (
            ["gast", "scan", "--targets", str(SCAN_TARGET)],
            ["count", "--what", "ugast3330"],
            ["count", "--what", "cycles6"],
            ["export-alist", "--out", str(tmp_path / "code.alist")],
            ["cpo", "--budget", "100"],
        ):
            rc = cli.main(argv + ["--code", str(path)])
            out, err = capsys.readouterr()
            assert rc == 2
            assert out == ""
            assert err == f"scldpc: error: {message}\n"
        assert not (tmp_path / "code.alist").exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("top-level-list", "code file must hold a JSON object, got list"),
            ("missing-key", "code file has no key 'kappa'"),
            ("string-header", "gamma must be an integer, got '3'"),
            ("float-power", "powers must be a list of integer lists"),
        ],
        ids=["top-level-list", "missing-key", "string-header", "float-power"],
    )
    def test_malformed_code_document_reported(self, tmp_path, capsys, fault, message):
        from scldpc import cli

        payload = json.loads(Path(_labelled_code_file(tmp_path)).read_text())
        if fault == "top-level-list":
            payload = []
        elif fault == "missing-key":
            payload = {"gamma": 3}
        elif fault == "string-header":
            payload["gamma"] = "3"
        else:
            payload["powers"][1][2] = 2.5
        path = tmp_path / "code.json"
        path.write_text(json.dumps(payload))
        rc = cli.main(["count", "--what", "cycles6", "--code", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"scldpc: error: {message}\n"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_code_reported(self, tmp_path, capsys, kind):
        from scldpc import cli

        if kind == "missing":
            path, reason = tmp_path / "absent.json", os.strerror(errno.ENOENT)
        else:
            path, reason = tmp_path, os.strerror(errno.EISDIR)
        rc = cli.main(["count", "--what", "cycles6", "--code", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"scldpc: error: {reason}: {path}\n"

    @pytest.mark.parametrize("command", ["export-alist", "oo-solve"])
    def test_out_into_missing_directory_reported(self, tmp_path, capsys, command):
        from scldpc import cli

        target = tmp_path / "missing" / "out"
        if command == "export-alist":
            argv = ["export-alist", "--code", _labelled_code_file(tmp_path)]
        else:
            argv = ["oo-solve", "--kappa", "5", "--L", "3"]
        rc = cli.main(argv + ["--out", str(target)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"scldpc: error: {os.strerror(errno.ENOENT)}: {target}\n"

    @pytest.mark.parametrize(
        "command, targets, message",
        [
            pytest.param(command, targets, message, id=f"{name}-{command}")
            for name, targets, message in MALFORMED_TARGETS
            for command in ("scan", "remove", "pipeline")
            # only the pipeline takes --amax; the scan grows to its largest target
            if name != "above-amax" or command == "pipeline"
        ],
    )
    def test_malformed_targets_reported(self, tmp_path, capsys, command, targets, message):
        # a target the scan cannot match is refused, not scanned for nothing
        from scldpc import cli

        if command != "pipeline":
            argv = ["gast", command, "--code", _labelled_code_file(tmp_path)]
        else:
            argv = ["pipeline", "--kappa", "5", "--L", "3", "--budget", "200", "--amax", "4"]
        rc = cli.main(argv + ["--targets", targets])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"scldpc: error: {message}\n"

    @pytest.mark.parametrize("amax", ["2", "0", "-5"], ids=lambda amax: f"pipeline-{amax}")
    def test_small_amax_reported(self, capsys, amax):
        # subsets grow from the three columns of a 6-cycle, so no bound below
        # 3 can hold
        from scldpc import cli

        argv = ["pipeline", "--kappa", "5", "--L", "3", "--budget", "200"]
        rc = cli.main(argv + ["--targets", "(3,3,3,3,0)", "--amax", amax])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        reason = f"a_max must be >= 3, scan subsets grow from 6-cycles, got {amax}"
        assert err == f"scldpc: error: {reason}\n"

    @pytest.mark.parametrize(
        "index, message",
        [
            ("-1", "optimum_index must be >= 0, got -1"),
            ("99", "pipeline stage 'overlap-optimization' failed: "
                   "optimum_index 99 out of range: the solve found 12 optimal vectors"),
        ],
        ids=["negative", "past-the-optima"],
    )
    def test_bad_optimum_index_reported(self, capsys, index, message):
        from scldpc import cli

        rc = cli.main(["pipeline", "--kappa", "7", "--L", "30", "--optimum-index", index])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"scldpc: error: {message}\n"

    def test_pipeline_error_reported(self, capsys):
        from scldpc import cli

        # the array-based start needs kappa = p prime
        rc = cli.main(["pipeline", "--kappa", "4", "--L", "3"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith("scldpc: error: pipeline stage 'parameters' failed")
        assert "array-based construction requires a prime p, got 4" in err
