import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scldpc.alist import export_code_alist, read_alist
from scldpc.gast import RawTanner, _grow_family, gast_scan
from scldpc.gf import FieldGF
from scldpc.qc import (
    PartitionMask,
    ProtoMatrix,
    apply_edge_changes,
    build_ab_powers,
    code_from_json,
    code_to_json,
    couple,
    label_edges,
    protograph_of,
)

from scldpc import qc

from oracles import (
    all_ugast_labels,
    build_lifted_dense,
    dfs_count_cycles,
    naive_column_rows,
    row_lists,
    serial_code_to_json,
    serial_export_code_alist,
    serial_label_edges,
)

# random.seed takes |seed|, and splits a seed past 32 bits into several key words
LABEL_SEEDS = [0, 1, -7, 2**70]


def dense(code):
    """The code's lifted 0/1 matrix, scattered from its edge array."""
    H = np.zeros((code.n_rows, code.n_cols), dtype=np.int8)
    H[code.edges.rows, np.arange(code.n_cols)[:, None]] = 1
    return H


def random_mask(gamma, kappa, seed):
    import random

    rng = random.Random(seed)
    return PartitionMask(
        tuple(tuple(rng.randrange(2) for _ in range(kappa)) for _ in range(gamma))
    )


class TestAbPowers:
    def test_rows_zero_and_linear(self):
        proto = build_ab_powers(3, 7)
        assert proto.powers[0] == (0,) * 7
        assert proto.powers[1] == tuple(range(7))
        assert proto.powers[2][3] == 6  # 2*3 mod 7

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            build_ab_powers(3, 9)

    def test_gamma_larger_than_p_rejected(self):
        with pytest.raises(ValueError):
            build_ab_powers(6, 5)

    def test_ab_block_code_has_no_4cycles(self):
        # lifted block code at kappa = p = 13, by direct dense enumeration
        proto = build_ab_powers(3, 13)
        all_h0 = [[0] * 13 for _ in range(3)]
        H = build_lifted_dense(3, 13, 13, proto.powers, all_h0, 2)
        # restrict to one block: rows 0..3p, cols of replica 1
        block = H[: 3 * 13, : 13 * 13]
        assert dfs_count_cycles(block, 4) == 0


class TestCoupling:
    def test_lifted_size(self):
        proto = build_ab_powers(3, 7)
        code = couple(proto, PartitionMask.all_h0(3, 7), 30)
        assert (code.n_rows, code.n_cols) == (651, 1470)

    def test_column_weight_is_gamma(self):
        proto = build_ab_powers(3, 5)
        code = couple(proto, random_mask(3, 5, 1), 4)
        for c in range(code.n_cols):
            assert len(code.column_rows(c)) == 3

    def test_matches_first_principles_dense(self):
        proto = build_ab_powers(3, 5)
        mask = random_mask(3, 5, 7)
        code = couple(proto, mask, 3)
        H = build_lifted_dense(3, 5, 5, proto.powers, mask.assign, 3)
        assert np.array_equal(dense(code), H)

    def test_two_replicas_overlap_in_middle_rows(self):
        proto = build_ab_powers(3, 5)
        mask = random_mask(3, 5, 3)
        code = couple(proto, mask, 2)
        H = dense(code)
        gp = 3 * 5
        # replica 1 never reaches the last block-row, replica 2 never the first
        assert not H[2 * gp :, : 5 * 5].any()
        assert not H[:gp, 5 * 5 :].any()

    def test_replica_extraction(self):
        # every replica equals [H0; H1] up to the block-row shift
        proto = build_ab_powers(3, 5)
        mask = random_mask(3, 5, 9)
        L = 4
        code = couple(proto, mask, L)
        H = dense(code)
        gp, kp = 3 * 5, 5 * 5
        first = H[: 2 * gp, :kp]
        for r in range(1, L):
            replica = H[r * gp : (r + 2) * gp, r * kp : (r + 1) * kp]
            assert np.array_equal(replica, first)
            other = np.delete(H[:, r * kp : (r + 1) * kp], np.s_[r * gp : (r + 2) * gp], axis=0)
            assert not other.any()

    def test_partition_identity(self):
        # lifting H0 plus lifting H1 entrywise equals lifting H, any mask
        proto = build_ab_powers(3, 5)
        for seed in range(5):
            mask = random_mask(3, 5, seed)
            h0_only = [[1 - m for m in row] for row in mask.assign]  # zero out H1
            h = build_lifted_dense(3, 5, 5, proto.powers, [[0] * 5] * 3, 2)[: 3 * 5, : 25]
            h0 = np.zeros_like(h)
            h1 = np.zeros_like(h)
            for i in range(3):
                for j in range(5):
                    blk = np.zeros((15, 25), dtype=np.int8)
                    f = proto.powers[i][j]
                    for v in range(5):
                        blk[i * 5 + (v + f) % 5, j * 5 + v] = 1
                    if mask.assign[i][j] == 0:
                        h0 += blk
                    else:
                        h1 += blk
            assert np.array_equal(h0 + h1, h)

    def test_oversize_coupling_refused(self):
        proto = build_ab_powers(3, 97)
        with pytest.raises(ValueError, match="^lifted code would have 9409000 columns, limit is 2000000$"):
            couple(proto, PartitionMask.all_h0(3, 97), 1000)

    def test_l_below_two_refused(self):
        proto = build_ab_powers(3, 5)
        with pytest.raises(ValueError):
            couple(proto, PartitionMask.all_h0(3, 5), 1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ProtoMatrix(0, 1, 1, ()), "gamma, kappa, p must be positive"),
            (lambda: ProtoMatrix(2, 2, 3, ((0, 1),)), "powers must be a gamma x kappa grid"),
            (lambda: ProtoMatrix(1, 2, 3, ((0, 3),)), r"circulant power 3 out of range \[0, 3\)"),
            (lambda: PartitionMask(((0, 2),)), "mask entries must be 0 or 1"),
            (lambda: qc.SCCode(build_ab_powers(3, 5), PartitionMask.all_h0(3, 7), 2),
             "protograph and mask shapes differ"),
        ],
        ids=["non-positive", "ragged", "power-range", "mask-entry", "mask-shape"],
    )
    def test_malformed_grid_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_oversize_code_file_refused(self, monkeypatch):
        # a short unlabelled document whose L gives 7 * 7 * 50 000 columns:
        # refused as couple refuses it, before any edge array is built
        proto = build_ab_powers(3, 7)
        payload = json.loads(code_to_json(couple(proto, PartitionMask.all_h0(3, 7), 2)))
        payload["L"] = 50_000

        def refuse(*args):
            raise AssertionError("an edge array was built")

        monkeypatch.setattr(qc, "_coupled_edges", refuse)
        with pytest.raises(ValueError) as err:
            code_from_json(json.dumps(payload))
        assert str(err.value) == "lifted code would have 2450000 columns, limit is 2000000"

    def test_memory_other_than_one_refused(self):
        proto = build_ab_powers(3, 5)
        payload = json.loads(code_to_json(couple(proto, PartitionMask.all_h0(3, 5), 3)))
        assert payload["m"] == 1
        payload["m"] = 2
        with pytest.raises(ValueError, match="m=1"):
            code_from_json(json.dumps(payload))


class TestProtograph:
    def test_size(self):
        proto = build_ab_powers(3, 7)
        code = couple(proto, PartitionMask.all_h0(3, 7), 30)
        bp = protograph_of(code)
        assert (bp.n_rows, bp.n_cols) == (93, 210)

    def test_all_h0_mask_is_block_diagonal(self):
        proto = build_ab_powers(3, 5)
        bp = protograph_of(couple(proto, PartitionMask.all_h0(3, 5), 3))
        H = dense(bp)
        for r in range(3):
            blk = H[r * 3 : (r + 1) * 3, r * 5 : (r + 1) * 5]
            assert blk.all()
            H[r * 3 : (r + 1) * 3, r * 5 : (r + 1) * 5] = 0
        assert not H.any()


class TestLabels:
    def setup_method(self):
        proto = build_ab_powers(3, 5)
        self.code = couple(proto, random_mask(3, 5, 2), 3)
        self.gf = FieldGF(2)

    def test_labels_nonzero_and_in_field(self):
        labeled = label_edges(self.code, self.gf, seed=11)
        assert set(labeled.labels) <= {1, 2, 3}
        assert len(labeled.labels) == self.code.n_cols * 3

    def test_same_seed_identical(self):
        a = label_edges(self.code, self.gf, seed=5)
        b = label_edges(self.code, self.gf, seed=5)
        assert a.labels == b.labels
        c = label_edges(self.code, self.gf, seed=6)
        assert a.labels != c.labels

    def test_label_histogram_near_uniform(self):
        # >= 10^4 draws; each nonzero value within 5% of the uniform share
        proto = build_ab_powers(3, 13)
        code = couple(proto, PartitionMask.all_h0(3, 13), 20)
        labeled = label_edges(code, self.gf, seed=0)
        values = list(labeled.labels)
        assert len(values) >= 10_000
        for v in (1, 2, 3):
            share = values.count(v) / len(values)
            assert math.isclose(share, 1 / 3, rel_tol=0.05)

    def test_binary_field_refused(self):
        with pytest.raises(ValueError):
            label_edges(self.code, FieldGF(1), seed=0)

    @pytest.mark.parametrize("lam", range(2, 9))
    def test_bulk_draw_crosses_chunk_boundaries(self, monkeypatch, lam):
        # a few words per chunk, so dozens of chunks end mid-stream
        monkeypatch.setattr(qc, "LABEL_WORDS", 5)
        field = FieldGF(lam)
        for seed in LABEL_SEEDS:
            assert label_edges(self.code, field, seed) == serial_label_edges(
                self.code, field, seed
            )


class TestEdgeChanges:
    def setup_method(self):
        proto = build_ab_powers(3, 5)
        self.code = label_edges(couple(proto, random_mask(3, 5, 4), 3), FieldGF(2), seed=1)

    def test_empty_change_list_is_identity(self):
        assert apply_edge_changes(self.code, []).labels == self.code.labels

    def test_change_then_inverse_restores(self):
        r, c = self.code.column_rows(4)[1], 4
        i = self.code.edges.index(r, c)
        old = self.code.labels[i]
        new = 1 if old != 1 else 2
        changed = apply_edge_changes(self.code, [(r, c, new)])
        assert changed.labels[i] == new
        assert sum(a != b for a, b in zip(changed.labels, self.code.labels)) == 1
        restored = apply_edge_changes(changed, [(r, c, old)])
        assert restored.labels == self.code.labels

    def test_zero_weight_rejected(self):
        r, c = self.code.column_rows(0)[0], 0
        with pytest.raises(ValueError):
            apply_edge_changes(self.code, [(r, c, 0)])

    def test_out_of_field_weight_rejected(self):
        # GF(4) here: a weight of 4 or more would write a code.json that no longer loads
        r, c = self.code.column_rows(0)[0], 0
        for w in (4, 7, 300, -1):
            with pytest.raises(ValueError, match="outside 1..3"):
                apply_edge_changes(self.code, [(r, c, w)])

    def test_zero_entry_rejected(self):
        zero_pos = None
        for r in range(self.code.n_rows):
            if r not in self.code.column_rows(0):
                zero_pos = (r, 0)
                break
        with pytest.raises(ValueError):
            apply_edge_changes(self.code, [(*zero_pos, 1)])

    def test_unlabeled_code_rejected(self):
        proto = build_ab_powers(3, 5)
        bare = couple(proto, random_mask(3, 5, 4), 3)
        with pytest.raises(ValueError):
            apply_edge_changes(bare, [(0, 0, 1)])


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        proto = build_ab_powers(3, 5)
        code = label_edges(couple(proto, random_mask(3, 5, 8), 3), FieldGF(3), seed=9)
        text = code_to_json(code)
        back = code_from_json(text)
        assert back == code
        assert code_to_json(back) == text

    @pytest.mark.parametrize(
        "field, value, shown",
        [(2, 1.5, "1.5"), (2, True, "true"), (2, 1.0, "1.0"), (0, 0.0, "0.0"), (1, False, "false")],
    )
    def test_non_integer_label_refused(self, field, value, shown):
        # numpy would load 1.5 and 1.0 as weight 1, true as 1 and a row 0.0 as 0
        code = couple(build_ab_powers(3, 5), random_mask(3, 5, 8), 3)
        code = label_edges(code, FieldGF(3), seed=9)
        payload = json.loads(code_to_json(code))
        first = next(i for i, (row, col, _) in enumerate(payload["labels"]) if (row, col) == (0, 0))
        payload["labels"][first][field] = value
        with pytest.raises(ValueError, match=f"^label list holds a non-integer value {shown}$"):
            code_from_json(json.dumps(payload))

    def test_alist_round_trip(self):
        proto = build_ab_powers(3, 5)
        code = couple(proto, random_mask(3, 5, 8), 3)
        buf = io.StringIO()
        export_code_alist(code, buf)
        buf.seek(0)
        col_adj, n_rows = read_alist(buf)
        assert n_rows == code.n_rows
        assert col_adj == [code.column_rows(c) for c in range(code.n_cols)]

    @pytest.mark.parametrize(
        "text, message",
        [
            # a row line names column 3 of 2
            ("2 2\n1 1\n1 1\n1 1\n1\n2\n3\n2\n", "row 0 has an index out of range"),
            # the row block leaves out the edge (0, 1) that column 1 holds
            ("2 2\n1 1\n1 1\n1 0\n1\n1\n1\n", r"disagree at \(0, 1\)"),
            # row 0 lists column 1 twice
            ("2 1\n1 2\n1 1\n2\n1\n1\n1 1\n", "row 0 repeats an index"),
            # a negative entry in a row line
            ("2 1\n1 2\n1 1\n2\n1\n1\n1 -3\n", "row 0 has an index out of range"),
            # the column side is held to the same rule
            ("1 1\n2 1\n2\n1\n1 1\n1\n", "column 0 repeats an index"),
            # the degree lists stop short
            ("2 2\n1 1\n1", "truncated alist file"),
        ],
        ids=[
            "column-past-end",
            "missing-edge",
            "repeated-column",
            "negative-entry",
            "column-repeats-row",
            "truncated",
        ],
    )
    def test_malformed_adjacency_refused(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_alist(io.StringIO(text))

    def test_alist_zero_padding_tolerated(self):
        text = "2 2\n1 2\n1 1\n2 0\n1 0\n1 0\n1 2\n0 0\n"
        assert read_alist(io.StringIO(text)) == ([[0], [0]], 2)

    def test_alist_header_layout(self):
        proto = build_ab_powers(3, 5)
        code = couple(proto, random_mask(3, 5, 8), 2)
        buf = io.StringIO()
        export_code_alist(code, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"{code.n_cols} {code.n_rows}"
        max_col, max_row = map(int, lines[1].split())
        assert max_col == 3
        assert max_row == max(map(len, row_lists(code.edges)))


@st.composite
def _coupled_codes(draw, labelled=True):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kappa = draw(st.integers(1, p))

    def grid(top):
        row = st.lists(st.integers(0, top), min_size=kappa, max_size=kappa)
        return st.lists(row, min_size=3, max_size=3)

    proto = ProtoMatrix(gamma=3, kappa=kappa, p=p, powers=draw(grid(p - 1)))
    code = couple(proto, PartitionMask(draw(grid(1))), draw(st.sampled_from([2, 3])))
    if not labelled:
        return code
    return label_edges(code, FieldGF(2), seed=draw(st.integers(0, 9)))


@settings(max_examples=80, deadline=None)
@given(
    _coupled_codes(labelled=False),
    st.one_of(st.none(), st.integers(2, 8)),
    st.sampled_from(LABEL_SEEDS),
)
# kappa = 31, L = 20 has 19 220 columns, so column ids reach five digits
@example(couple(build_ab_powers(3, 31), random_mask(3, 31, 1), 20), 2, 1)
# an all-H0 mask leaves the last gamma * p rows without entries: empty lines
@example(couple(build_ab_powers(3, 7), PartitionMask.all_h0(3, 7), 3), 2, 1)
def test_output_kernels_match_serial_references(code, lam, seed):
    if lam is not None:
        field = FieldGF(lam)
        labelled = label_edges(code, field, seed)
        assert labelled == serial_label_edges(code, field, seed)
        code = labelled
    assert code_to_json(code) == serial_code_to_json(code)
    fast, slow = io.StringIO(), io.StringIO()
    export_code_alist(code, fast)
    serial_export_code_alist(code, slow)
    assert fast.getvalue() == slow.getvalue()


# every digit-width boundary up to six digits, and the largest values of the
# unsigned dtypes the kernel narrows a table to
DECIMAL_BOUNDS = sorted(
    {0, *(v for d in range(1, 6) for v in (10**d - 1, 10**d)), 255, 256, 2**16 - 1, 2**16,
     2**32 - 1, 2**32}
)


@pytest.mark.parametrize("top", DECIMAL_BOUNDS)
def test_decimal_rows_match_str(top):
    values = [v for v in DECIMAL_BOUNDS if v <= top]
    column = np.array(values, dtype=np.int64)[:, None]
    assert str(qc._decimal_rows(column, ["\n"]), "ascii") == "".join(f"{v}\n" for v in values)
    # fields of different widths, glue of different lengths, one of them empty
    table = np.concatenate((column, column[::-1], np.full_like(column, 7)), axis=1)
    expected = "".join(f"{a}, {b}{c}], [" for a, b, c in table.tolist())
    assert str(qc._decimal_rows(table, (", ", "", "], [")), "ascii") == expected


@settings(max_examples=60, deadline=None)
@given(_coupled_codes())
def test_edge_array_matches_coupling_formula(code):
    # girth-4 draws included: the scan's 4-cycle bound must agree on both paths
    columns = [naive_column_rows(code, c) for c in range(code.n_cols)]
    assert code.edges.rows.tolist() == columns
    assert row_lists(code.edges) == [
        [c for c in range(code.n_cols) if r in columns[c]] for r in range(code.n_rows)
    ]
    # every label up to a = 4, at b = d1: both paths grow the same
    # translates, and find the same GASTs among them (over GF(2) every
    # weight is 1, so those with d3 = 0)
    targets = [(a, d1, d1, d2, d3) for a, d1, d2, d3 in all_ugast_labels(3, 4)]
    raw = RawTanner(columns, 3, labels=code.labels)

    def translates(graph):
        return sorted(tuple(vn) for g in _grow_family(graph, targets) for vn in g.vn.tolist())

    assert translates(raw) == translates(code)
    assert gast_scan(raw, FieldGF(2), targets) == gast_scan(code, FieldGF(2), targets)
