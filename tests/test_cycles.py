import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scldpc import cycles
from scldpc.baselines import cv_exhaustive_best, cv_mask, mo_search
from scldpc.cpo import _State
from scldpc.cycles import (
    CensusTable,
    _four_cycle_array,
    _six_cycle_array,
    build_window,
    census_active_counts,
    count_ugast_3330,
    count_ugast_3330_for,
    girth_check,
    union_census,
)
from scldpc.gast import RawTanner
from scldpc.overlap import cycle6_census, realize_mask, solve_optimal_overlap
from scldpc.qc import PartitionMask, ProtoMatrix, build_ab_powers, couple, protograph_of

from oracles import (
    SPAN_DUAL,
    SPAN_R1,
    SPAN_R2,
    ProtoCycle,
    ReferenceWindow,
    active_census,
    build_lifted_dense,
    dfs_count_cycles,
    enumerate_cycles,
    four_cycles,
    full_census_table,
    has_active_4cycle,
    lift_count,
    lifted_counts,
    loop_census_active_counts,
    proto_cycles6,
    row_lists,
    six_cycles,
    union_active_4cycles,
)


def random_binary_matrix(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < density).astype(np.int8)


class TestEnumerateCycles:
    def test_all_ones_3x3_has_six_6cycles(self):
        m = np.ones((3, 3), dtype=np.int8)
        assert len(enumerate_cycles(m, 6)) == 6
        assert dfs_count_cycles(m, 6) == 6

    def test_zero_row_changes_nothing(self):
        m = random_binary_matrix(4, 6, 0.6, seed=0)
        with_zero = np.vstack([m, np.zeros((1, 6), dtype=np.int8)])
        for length in (4, 6):
            assert len(enumerate_cycles(m, length)) == len(enumerate_cycles(with_zero, length))

    def test_unsupported_length(self):
        with pytest.raises(ValueError):
            enumerate_cycles(np.ones((2, 2)), 8)

    def test_cycles_are_unique(self):
        m = random_binary_matrix(5, 8, 0.5, seed=3)
        cycles = enumerate_cycles(m, 6)
        assert len({c.entries for c in cycles}) == len(cycles)

    def test_entries_alternate_and_close(self):
        m = random_binary_matrix(5, 8, 0.5, seed=4)
        for cyc in enumerate_cycles(m, 6):
            e = cyc.entries
            for idx in range(0, 6, 2):
                assert e[idx][0] == e[idx + 1][0]  # row shared
                assert e[idx + 1][1] == e[(idx + 2) % 6][1]  # column shared

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_counts_match_dfs_oracle(self, seed):
        m = random_binary_matrix(5, 7, 0.55, seed=seed)
        for length in (4, 6):
            assert len(enumerate_cycles(m, length)) == dfs_count_cycles(m, length)

    def test_oo_protograph_count_1170(self):
        sol = solve_optimal_overlap(7, 30)
        mask = realize_mask(sol.optima[0], 7, seed=1)
        proto1 = ProtoMatrix(gamma=3, kappa=7, p=1, powers=((0,) * 7,) * 3)
        H = build_lifted_dense(3, 7, 1, proto1.powers, mask.assign, 30)
        assert len(enumerate_cycles(H, 6)) == 1170


def _incidence(rows, n_cols):
    inc = np.zeros((len(rows), n_cols), dtype=bool)
    for r, cols in enumerate(rows):
        inc[r, sorted(cols)] = True
    return inc


def _reference_arrays(rows, powers=None):
    """The reference 6- and 4-cycles as arrays, the active ones under ``powers``."""
    def active(pos_rows, pos_cols):
        f, p = powers
        return sum((-1) ** n * f[r, c] for n, (r, c) in enumerate(zip(pos_rows, pos_cols))) % p == 0

    six = [c for c in six_cycles(rows) if powers is None or active(
        [c[0], c[0], c[2], c[2], c[1], c[1]], [c[3], c[4], c[4], c[5], c[5], c[3]])]
    four = [c for c in four_cycles(rows) if powers is None or active(
        [c[0], c[0], c[1], c[1]], [c[2], c[3], c[3], c[2]])]
    return np.array(six, dtype=np.intp).reshape(-1, 6), np.array(four, dtype=np.intp).reshape(-1, 4)


@st.composite
def _row_sets(draw):
    """Random row sets, empty rows included, or the rows of a random RawTanner graph."""
    if draw(st.booleans()):
        n_cols = draw(st.integers(1, 10))
        rows = draw(st.lists(st.sets(st.integers(0, n_cols - 1)), max_size=10))
        return rows, n_cols
    gamma = draw(st.sampled_from([3, 4]))
    n_rows = draw(st.integers(gamma, 10))
    col_rows = st.lists(st.integers(0, n_rows - 1), min_size=gamma, max_size=gamma, unique=True)
    graph = RawTanner(draw(st.lists(col_rows, min_size=1, max_size=11)), gamma)
    return [set(cols) for cols in row_lists(graph.edges)], len(graph.edges.rows)


@settings(max_examples=150, deadline=None)
@given(_row_sets(), st.integers(1, 7), st.randoms(use_true_random=False), st.sampled_from([1, 5, 1 << 14]))
def test_array_enumerators_match_references(case, p, rnd, cells):
    # rows, their order included, with and without the active-cycle join,
    # at any enumeration chunk size
    rows, n_cols = case
    inc = _incidence(rows, n_cols)
    powers = (np.array([[rnd.randrange(p) for _ in range(n_cols)] for _ in rows],
                       dtype=np.int64).reshape(len(rows), n_cols), p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "BUILD_CELLS", cells)
        for given_powers in (None, powers):
            six, four = _reference_arrays(rows, given_powers)
            assert _six_cycle_array(inc, given_powers).tolist() == six.tolist()
            assert _four_cycle_array(inc, given_powers).tolist() == four.tolist()


@pytest.mark.parametrize("cells", [3, 1 << 14])
def test_array_enumerators_on_a_lifted_code(cells, monkeypatch):
    # 45 check rows, 50 columns: many triple chunks at a small cap
    proto = build_ab_powers(3, 5)
    code = couple(proto, PartitionMask(((0, 0, 1, 1, 0), (1, 0, 0, 1, 1), (0, 1, 0, 1, 0))), 2)
    rows = [set(cols) for cols in row_lists(code.edges)]
    inc = _incidence(rows, code.n_cols)
    six, four = _reference_arrays(rows)
    assert len(six) and len(four) == 0
    monkeypatch.setattr(cycles, "BUILD_CELLS", cells)
    assert _six_cycle_array(inc).tolist() == six.tolist()
    assert _four_cycle_array(inc).tolist() == four.tolist()


class TestLiftCount:
    def test_equal_powers_are_active(self):
        proto = ProtoMatrix(gamma=3, kappa=3, p=5, powers=((2, 2, 2),) * 3)
        cyc = enumerate_cycles(np.ones((3, 3)), 6)[0]
        active, beta = lift_count(cyc, proto)
        assert active and beta == 1

    def test_prime_p_forces_beta_p(self):
        powers = ((0, 0, 0), (0, 1, 0), (0, 0, 0))
        proto = ProtoMatrix(gamma=3, kappa=3, p=7, powers=powers)
        for cyc in enumerate_cycles(np.ones((3, 3)), 6):
            active, beta = lift_count(cyc, proto)
            assert active or beta == 7

    @pytest.mark.parametrize("p", [5, 7])
    def test_lift_counts_on_sub_support(self, p):
        # for each proto 6-cycle, the lift restricted to its six circulants is
        # 2-regular: active -> p hexagons; inactive -> p/beta cycles of 6*beta
        rng = random.Random(p)
        checked = 0
        while checked < 40:
            powers = tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))
            proto = ProtoMatrix(gamma=3, kappa=3, p=p, powers=powers)
            for cyc in enumerate_cycles(np.ones((3, 3)), 6):
                active, beta = lift_count(cyc, proto)
                lengths = self._lifted_component_lengths(cyc, proto)
                if active:
                    assert lengths == [6] * p
                else:
                    assert lengths == [6 * beta] * (p // beta)
                # conservation: total lifted edges-per-cycle x count = p x 6
                assert sum(lengths) == 6 * p
                checked += 1

    @staticmethod
    def _lifted_component_lengths(cyc: ProtoCycle, proto: ProtoMatrix) -> list[int]:
        p = proto.p
        # walk each lift offset around the proto cycle until it returns
        deltas = []
        for e in range(3):
            r_a, c_a = cyc.entries[2 * e]
            r_b, c_b = cyc.entries[2 * e + 1]
            deltas.append(proto.powers[r_a][c_a] - proto.powers[r_b][c_b])
        step = sum(deltas) % p
        lengths = []
        seen = set()
        for s in range(p):
            if s in seen:
                continue
            orbit = 0
            v = s
            while True:
                seen.add(v)
                orbit += 1
                v = (v + step) % p
                if v == s:
                    break
            lengths.append(6 * orbit)
        return sorted(lengths)


class TestUgastCensus:
    @pytest.mark.parametrize(
        "kp,expected", [(7, 8820), (11, 36300), (13, 60840), (17, 138720)]
    )
    def test_uncoupled_array_based(self, kp, expected):
        proto = build_ab_powers(3, kp)
        code = couple(proto, PartitionMask.all_h0(3, kp), 30)
        assert count_ugast_3330(code) == expected

    def test_small_code_matches_direct_lifted_enumeration(self):
        proto = build_ab_powers(3, 5)
        import random as _r

        rng = _r.Random(0)
        for seed in range(4):
            mask = PartitionMask(
                tuple(tuple(rng.randrange(2) for _ in range(5)) for _ in range(3))
            )
            code = couple(proto, mask, 2)
            H = build_lifted_dense(3, 5, 5, proto.powers, mask.assign, 2)
            assert count_ugast_3330(code) == dfs_count_cycles(H, 6)

    def test_wrong_gamma_rejected(self):
        proto = ProtoMatrix(gamma=2, kappa=3, p=5, powers=((0, 1, 2), (0, 2, 4)))
        mask = PartitionMask(((0, 0, 0), (0, 0, 0)))
        with pytest.raises(ValueError):
            count_ugast_3330(couple(proto, mask, 2))

    def test_census_fast_path_agrees_with_window(self):
        proto = build_ab_powers(3, 7)
        import random as _r

        rng = _r.Random(5)
        for _ in range(5):
            mask = PartitionMask(
                tuple(tuple(rng.randrange(2) for _ in range(7)) for _ in range(3))
            )
            win = ReferenceWindow(proto, mask)
            assert active_census(win, proto.powers)[1:] == census_active_counts(proto, mask)


class TestGirth:
    def test_array_based_has_no_4cycles(self):
        for kp in (5, 7, 13):
            proto = build_ab_powers(3, kp)
            code = couple(proto, PartitionMask.all_h0(3, kp), 3)
            assert girth_check(code) >= 6

    def test_coupling_preserves_4cycle_freedom(self):
        # coupling only removes edges: a 4-cycle-free block lift stays
        # 4-cycle-free under every partition
        import random as _r

        rng = _r.Random(2)
        proto = build_ab_powers(3, 7)
        for _ in range(20):
            mask = PartitionMask(
                tuple(tuple(rng.randrange(2) for _ in range(7)) for _ in range(3))
            )
            assert girth_check(couple(proto, mask, 4)) >= 6

    def test_active_4cycle_detected(self):
        # equal powers on a 2x2 block force an active 4-cycle
        powers = ((0, 0, 0, 0, 0), (0, 0, 1, 2, 3), (0, 2, 4, 1, 3))
        proto = ProtoMatrix(gamma=3, kappa=5, p=5, powers=powers)
        code = couple(proto, PartitionMask.all_h0(3, 5), 2)
        assert girth_check(code) == 4
        H = build_lifted_dense(3, 5, 5, powers, PartitionMask.all_h0(3, 5).assign, 2)
        assert dfs_count_cycles(H, 4) > 0
        # p x (active 6-cycles) is not the (3,3,3,0) count once a 4-cycle is active
        with pytest.raises(ValueError, match="girth"):
            count_ugast_3330(code)

    def test_girth_above_6_when_no_active_6cycle(self):
        # kappa=2 protograph cannot host a 6-cycle at all
        proto = ProtoMatrix(gamma=3, kappa=2, p=5, powers=((0, 0), (0, 1), (0, 3)))
        code = couple(proto, PartitionMask(((0, 1), (0, 1), (0, 1))), 3)
        assert girth_check(code) == math.inf


def _grid(kappa, hi):
    row = st.lists(st.integers(0, hi), min_size=kappa, max_size=kappa)
    return st.lists(row, min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5).flatmap(lambda k: st.tuples(_grid(k, 4), _grid(k, 1))),
    st.sampled_from([2, 3]),
)
def test_girth_check_matches_dfs(grids, L):
    powers, assign = grids
    proto = ProtoMatrix(gamma=3, kappa=len(powers[0]), p=5, powers=powers)
    code = couple(proto, PartitionMask(assign), L)
    H = build_lifted_dense(3, proto.kappa, 5, proto.powers, code.mask.assign, L)
    girth = girth_check(code)
    assert (girth == 4) == (dfs_count_cycles(H, 4) > 0)
    if girth != 4:
        assert (girth == 6) == (dfs_count_cycles(H, 6) > 0)


@st.composite
def census_batches(draw):
    """A random protograph and a batch of its masks, with repeats."""
    gamma = draw(st.sampled_from([3, 4]))
    kappa = draw(st.integers(2, 8))
    p = draw(st.sampled_from([1, 5, 7]))
    grid = lambda hi: st.lists(  # noqa: E731
        st.lists(st.integers(0, hi), min_size=kappa, max_size=kappa),
        min_size=gamma,
        max_size=gamma,
    )
    proto = ProtoMatrix(gamma=gamma, kappa=kappa, p=p, powers=draw(grid(p - 1)))
    distinct = draw(st.lists(grid(1), min_size=1, max_size=4))
    batch = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    return proto, [PartitionMask(m) for m in batch], draw(st.randoms(use_true_random=False))


def unchecked_union_census(proto):
    """The union-window table without the girth-4 refusal."""
    every = np.ones((proto.gamma, proto.kappa), dtype=bool)
    return CensusTable.of_window(proto, cycles._window_incidence(every, every))


class TestBatchedCensus:
    @settings(max_examples=60, deadline=None)
    @given(census_batches())
    def test_matches_loop_and_ignores_batch_mates(self, case):
        proto, masks, rnd = case
        # the counting itself holds on girth-4 protographs too, which
        # union_census refuses
        table = unchecked_union_census(proto)
        if union_active_4cycles(proto):
            with pytest.raises(ValueError, match="girth at least 6"):
                union_census(proto)
        else:
            assert (union_census(proto).counts == table.counts).all()
        counts = [tuple(c) for c in table.active_counts([m.assign for m in masks]).tolist()]
        for mask, got in zip(masks, counts):
            assert got == loop_census_active_counts(proto, mask)
            assert got == census_active_counts(proto, mask)
        # a mask scores the same alone and anywhere in a shuffled batch
        order = list(range(len(masks)))
        rnd.shuffle(order)
        shuffled = table.active_counts([masks[i].assign for i in order]).tolist()
        for pos, i in enumerate(order):
            assert tuple(shuffled[pos]) == counts[i]
            assert tuple(table.active_counts([masks[i].assign])[0]) == counts[i]

    def test_masks_wider_than_one_word(self):
        # 3 x 23 = 69 circulants: two 64-bit words per mask
        proto = build_ab_powers(3, 23)
        rng = random.Random(3)
        masks = [
            PartitionMask(tuple(tuple(rng.randrange(2) for _ in range(23)) for _ in range(3)))
            for _ in range(3)
        ]
        batched = union_census(proto).active_counts([m.assign for m in masks]).tolist()
        assert [tuple(c) for c in batched] == [loop_census_active_counts(proto, m) for m in masks]

    def test_chunking_does_not_change_counts(self, monkeypatch):
        proto = build_ab_powers(3, 7)
        rng = random.Random(4)
        grids = [[[rng.randrange(2) for _ in range(7)] for _ in range(3)] for _ in range(50)]
        whole = union_census(proto).active_counts(grids).tolist()
        monkeypatch.setattr(cycles, "SCORE_CELLS", 1)
        assert union_census(proto).active_counts(grids).tolist() == whole

    @pytest.mark.parametrize("kappa", [23, 29])
    def test_wide_protographs_match_loop(self, kappa):
        # gamma * kappa > 64 circulants; the cv masks included
        proto = build_ab_powers(3, kappa)
        rng = random.Random(kappa)
        masks = [
            PartitionMask(tuple(tuple(rng.randrange(2) for _ in range(kappa)) for _ in range(3)))
            for _ in range(2)
        ] + [cv_mask(zeta, kappa) for zeta in ((0, kappa // 3, kappa), (5, 9, 17))]
        got = union_census(proto).active_counts([m.assign for m in masks]).tolist()
        assert [tuple(c) for c in got] == [loop_census_active_counts(proto, m) for m in masks]
        assert [tuple(c) for c in got] == [census_active_counts(proto, m) for m in masks]

    def test_build_and_score_caps_do_not_change_counts(self, monkeypatch):
        proto = ProtoMatrix(
            gamma=3, kappa=6, p=7, powers=((0, 1, 2, 3, 4, 5), (0, 2, 4, 6, 1, 3), (0, 3, 6, 2, 5, 1))
        )
        rng = random.Random(6)
        masks = [
            PartitionMask(tuple(tuple(rng.randrange(2) for _ in range(6)) for _ in range(3)))
            for _ in range(20)
        ]
        grids = [m.assign for m in masks]
        whole = unchecked_union_census(proto)
        singles = [census_active_counts(proto, m) for m in masks]
        win = build_window(proto, masks[0])
        monkeypatch.setattr(cycles, "BUILD_CELLS", 1)
        monkeypatch.setattr(cycles, "SCORE_CELLS", 1)
        capped = unchecked_union_census(proto)
        assert (capped.support == whole.support).all() and (capped.counts == whole.counts).all()
        assert capped.active_counts(grids).tolist() == whole.active_counts(grids).tolist()
        assert [census_active_counts(proto, m) for m in masks] == singles
        capped_win = build_window(proto, masks[0])
        for name in ("ids6", "dual6", "ids4"):
            assert (getattr(capped_win, name) == getattr(win, name)).all()

    def test_oversize_census_refused(self):
        # from 1449 circulants on, six-circulant group keys leave int64:
        # refused before the window is read
        proto = ProtoMatrix(3, 483, 1, ((0,) * 483,) * 3)
        with pytest.raises(ValueError, match="the census needs gamma \\* kappa < 1449"):
            CensusTable.of_window(proto, np.zeros((9, 966), dtype=bool))

    def test_girth4_protograph_refused(self):
        # two all-zero rows: every column pair of them closes an active
        # 4-cycle; the CV search used to return ((0, 0, 0), 0) here
        proto = ProtoMatrix(3, 7, 7, ((0,) * 7, (0,) * 7, tuple(range(7))))
        assert union_active_4cycles(proto) == 210
        for search in (union_census, lambda pr: cv_exhaustive_best(pr, 30),
                       lambda pr: mo_search(pr, 30)):
            with pytest.raises(ValueError, match="girth at least 6"):
                search(proto)

    def test_array_protographs_have_no_realizable_active_4cycle(self):
        for kappa in (7, 11, 13, 17, 19):
            assert union_active_4cycles(build_ab_powers(3, kappa)) == 0
            union_census(build_ab_powers(3, kappa))

    def test_lifted_count_is_exact_at_huge_L(self):
        proto = build_ab_powers(3, 7)
        mask = realize_mask(solve_optimal_overlap(7, 30).optima[0], 7, seed=1)
        L = 10**18
        fs, fd = loop_census_active_counts(proto, mask)
        got = count_ugast_3330_for(proto, mask, L)
        assert type(got) is int
        assert got == (L * fs + (L - 1) * fd) * 7
        assert lifted_counts(union_census(proto), [mask.assign], L) == [got]
        assert union_census(proto).best([mask.assign], L) == (0, got)


@st.composite
def shift_cases(draw):
    """A protograph, a row-constant mask of its shape, and the protograph's kind.

    "symmetric" rows are f[i, j] = c_i + d_i * j mod p with d_i * kappa = 0
    mod p, cyclic progressions that a column shift maps onto themselves
    (composite kappa and p = 1 included); "array" grids f[i, j] = i * j mod p
    with kappa < p wrap off the progression; "random" powers are anything.
    """
    gamma = draw(st.sampled_from([3, 4]))
    kind = draw(st.sampled_from(["symmetric", "array", "random"]))
    if kind == "array":
        p = draw(st.sampled_from([5, 7, 11]))
        kappa = draw(st.integers(2, p - 1))
        powers = [[i * j % p for j in range(kappa)] for i in range(gamma)]
    else:
        kappa, p = draw(st.integers(2, 9)), draw(st.sampled_from([1, 2, 3, 5, 7]))
        steps = [d for d in range(p) if d * kappa % p == 0] if kind == "symmetric" else None
        powers = []
        for _ in range(gamma):
            if steps is None:
                powers.append(draw(st.lists(st.integers(0, p - 1), min_size=kappa, max_size=kappa)))
            else:
                c, d = draw(st.integers(0, p - 1)), draw(st.sampled_from(steps))
                powers.append([(c + d * j) % p for j in range(kappa)])
    sides = draw(st.lists(st.integers(0, 1), min_size=gamma, max_size=gamma))
    mask = PartitionMask(tuple((side,) * kappa for side in sides))
    return ProtoMatrix(gamma, kappa, p, tuple(map(tuple, powers))), mask, kind


class TestOrbitCensus:
    @settings(max_examples=80, deadline=None)
    @given(shift_cases())
    def test_matches_full_enumeration(self, case):
        proto, mask, kind = case
        every = np.ones((proto.gamma, proto.kappa), dtype=bool)
        inc = cycles._window_incidence(every, every)
        s = cycles._shift_order(proto, inc)
        assert s == {"symmetric": proto.kappa, "array": 1}.get(kind, s)
        table = CensusTable.of_window(proto, inc)
        ref = full_census_table(proto, inc)
        assert np.array_equal(table.support, ref.support)
        assert np.array_equal(table.counts, ref.counts)
        # girth-4 verdicts, of the union window and of the mask's own
        assert cycles._has_active_4cycle(proto, inc) == (union_active_4cycles(proto) > 0)
        own = cycles._has_active_4cycle(proto, cycles._mask_incidence(mask))
        assert own == has_active_4cycle(ReferenceWindow(proto, mask), proto.powers)
        want = loop_census_active_counts(proto, mask)
        assert tuple(table.active_counts([mask.assign])[0].tolist()) == want
        assert census_active_counts(proto, mask) == want

    @pytest.mark.parametrize("kappa", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_array_tables_match_full_enumeration(self, kappa):
        proto = build_ab_powers(3, kappa)
        every = np.ones((3, kappa), dtype=bool)
        assert cycles._shift_order(proto, cycles._window_incidence(every, every)) == kappa
        table = union_census(proto)
        ref = full_census_table(proto, cycles._window_incidence(every, every))
        assert np.array_equal(table.support, ref.support)
        assert np.array_equal(table.counts, ref.counts)

    def test_shift_order_needs_row_constant_incidence(self):
        proto = build_ab_powers(3, 7)
        assert cycles._shift_order(proto, cycles._mask_incidence(PartitionMask.all_h0(3, 7))) == 7
        assert cycles._shift_order(proto, cycles._mask_incidence(cv_mask((0, 3, 5), 7))) == 1


def orbit_census(proto, mask, monkeypatch) -> tuple[int, int]:
    """``census_active_counts`` and the shift order its enumerator was given."""
    calls, enumerate_chunks = [], cycles._six_cycle_chunks

    def spy(inc, powers=None, s=1):
        calls.append(s)
        return enumerate_chunks(inc, powers, s)

    with monkeypatch.context() as m:
        m.setattr(cycles, "_six_cycle_chunks", spy)
        got = census_active_counts(proto, mask)
    assert len(calls) == 1
    return got, calls[0]


class TestSingleMaskOrbits:
    @pytest.mark.parametrize("kappa", [5, 7, 11, 13])
    def test_row_constant_masks_count_on_orbits(self, kappa, monkeypatch):
        # the uncoupled all-H0 mask among them
        proto = build_ab_powers(3, kappa)
        for sides in itertools.product((0, 1), repeat=3):
            mask = PartitionMask(tuple((side,) * kappa for side in sides))
            got, s = orbit_census(proto, mask, monkeypatch)
            assert s == kappa
            assert got == loop_census_active_counts(proto, mask)

    def test_p1_protograph_of_the_cycles6_count(self, monkeypatch):
        # the coupled protograph that ``scldpc count --what cycles6`` counts,
        # with its own mask and with row-constant ones
        mask = realize_mask(solve_optimal_overlap(7, 30).optima[0], 7, seed=1)
        pg = protograph_of(couple(build_ab_powers(3, 7), mask, 30))
        got, s = orbit_census(pg.proto, pg.mask, monkeypatch)
        assert s == 1
        assert got == loop_census_active_counts(pg.proto, pg.mask)
        assert count_ugast_3330_for(pg.proto, pg.mask, pg.L) == 1170
        for side in (0, 1):
            mask = PartitionMask(((side,) * 7, (0,) * 7, (1,) * 7))
            got, s = orbit_census(pg.proto, mask, monkeypatch)
            assert s == 7
            assert got == loop_census_active_counts(pg.proto, mask)

    def test_non_symmetric_mask_counts_every_cycle(self, monkeypatch):
        proto = build_ab_powers(3, 7)
        mask = cv_mask((1, 3, 5), 7)
        got, s = orbit_census(proto, mask, monkeypatch)
        assert s == 1
        assert got == loop_census_active_counts(proto, mask) == (6, 10)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 7), (4, 7)])
    def test_mask_of_another_shape_refused(self, shape):
        # at L = 30 these counted 4550, 0 and 17640 before
        proto, mask = build_ab_powers(3, 7), PartitionMask.all_h0(*shape)
        for count in (census_active_counts, lambda pr, m: count_ugast_3330_for(pr, m, 30)):
            with pytest.raises(ValueError, match="protograph and mask shapes differ"):
                count(proto, mask)

    @pytest.mark.parametrize("shape", [(7, 3, 5), (7, 5, 3), (7, 7, 3), (21,), (7, 21), (3, 7, 1)])
    def test_grids_of_another_shape_refused(self, shape):
        # seven 3 x 5 grids came back as five counts of 8820
        table = union_census(build_ab_powers(3, 7))
        with pytest.raises(ValueError, match="mask grids must be 3 x 7"):
            table.active_counts(np.zeros(shape, dtype=np.uint8))
        with pytest.raises(ValueError, match="mask grids must be 3 x 7"):
            table.best(np.zeros(shape, dtype=np.uint8), 30)
        # one grid alone, or stacked in any leading shape, is scored
        assert table.active_counts(np.zeros((3, 7))).tolist() == [[42, 0]]
        assert table.active_counts(np.zeros((2, 2, 3, 7))).shape == (4, 2)


class TestWindowDecomposition:
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_window_multiplicities_match_whole_graph(self, L):
        # structural count: L x one-replica + (L-1) x two-replica
        import random as _r

        rng = _r.Random(L)
        kappa = 5
        proto1 = ProtoMatrix(gamma=3, kappa=kappa, p=1, powers=((0,) * kappa,) * 3)
        for _ in range(5):
            mask = PartitionMask(
                tuple(tuple(rng.randrange(2) for _ in range(kappa)) for _ in range(3))
            )
            fs, fd = census_active_counts(proto1, mask)
            H = build_lifted_dense(3, kappa, 1, proto1.powers, mask.assign, L)
            assert L * fs + (L - 1) * fd == dfs_count_cycles(H, 6)

    def test_formula_census_equals_window_census_at_p1(self):
        kappa = 6
        sol = solve_optimal_overlap(kappa, 4)
        for vec in sol.optima[:3]:
            mask = realize_mask(vec, kappa, seed=0)
            proto1 = ProtoMatrix(gamma=3, kappa=kappa, p=1, powers=((0,) * kappa,) * 3)
            fs, fd = census_active_counts(proto1, mask)
            census = cycle6_census(vec, kappa, 4)
            assert (fs, fd) == (census.fs, census.fd)

    def test_every_window_cycle_in_exactly_one_case(self):
        import random as _r

        rng = _r.Random(11)
        proto = build_ab_powers(3, 7)
        mask = PartitionMask(
            tuple(tuple(rng.randrange(2) for _ in range(7)) for _ in range(3))
        )
        win = ReferenceWindow(proto, mask)
        cycles = proto_cycles6(win)
        assert len(cycles) == win.coef6.shape[0]
        singles = [c for c in cycles if c.span == 1]
        duals = [c for c in cycles if c.span == 2]
        assert all(c.case in {"s0", "s1", "s2", "s3"} for c in singles)
        assert all(c.case in {"d_top", "d_bot", "d_mid21", "d_mid12"} for c in duals)

    def test_case_counts_match_formula_components(self):
        kappa = 6
        sol = solve_optimal_overlap(kappa, 3)
        vec = sol.optima[0]
        mask = realize_mask(vec, kappa, seed=2)
        proto1 = ProtoMatrix(gamma=3, kappa=kappa, p=1, powers=((0,) * kappa,) * 3)
        win = ReferenceWindow(proto1, mask)
        census = cycle6_census(vec, kappa, 3)
        from collections import Counter

        tags = Counter(c.case for c in proto_cycles6(win) if c.span == 1)
        # single-replica tags appear once per replica copy
        assert tags["s0"] == 2 * census.single[0]
        assert tags["s1"] == 2 * census.single[1]
        assert tags["s2"] == 2 * census.single[2]
        assert tags["s3"] == 2 * census.single[3]
        dual_tags = Counter(c.case for c in proto_cycles6(win) if c.span == 2)
        assert dual_tags["d_mid12"] == census.cross[0]
        assert dual_tags["d_mid21"] == census.cross[1]
        assert dual_tags["d_top"] == census.cross[2]
        assert dual_tags["d_bot"] == census.cross[3]


_grids = st.integers(2, 4).flatmap(
    lambda g: st.integers(1, 7).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=g, max_size=g
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(_grids)
def test_window_coefficients_are_units_and_mirrored(assign):
    # the optimizer's move table rests on both.  No window row holds both
    # copies j and j + kappa of a circulant column, so a cycle meets each
    # circulant at most once per sign: every coefficient is 0 or +-1, its own
    # inverse mod p.  And each R2 cycle is an R1 cycle shifted by one
    # replica, with the same circulants in walk order, so the optimizer's
    # window keeps exactly the R1 and two-replica cycles.
    g, k = len(assign), len(assign[0])
    proto = ProtoMatrix(gamma=g, kappa=k, p=1, powers=((0,) * k,) * g)
    mask = PartitionMask(tuple(map(tuple, assign)))
    ref = ReferenceWindow(proto, mask)
    assert set(np.unique(ref.coef6).tolist()) <= {-1, 0, 1}
    assert set(np.unique(ref.coef4).tolist()) <= {-1, 0, 1}
    for ids, span in ((ref.ids6, ref.span6), (ref.ids4, ref.span4)):
        r1 = sorted(map(tuple, ids[span == SPAN_R1].tolist()))
        assert r1 == sorted(map(tuple, ids[span == SPAN_R2].tolist()))

    win = build_window(proto, mask)
    kept = ref.span6 != SPAN_R2
    want = zip(map(tuple, ref.ids6[kept].tolist()), (ref.span6[kept] == SPAN_DUAL).tolist())
    assert sorted(zip(map(tuple, win.ids6.tolist()), win.dual6.tolist())) == sorted(want)
    kept = ref.span4 != SPAN_R2
    assert sorted(map(tuple, win.ids4.tolist())) == sorted(map(tuple, ref.ids4[kept].tolist()))
    # Nor does a cycle visit a circulant twice: its two visits would put
    # the circulant in H0 and H1 at once.  So the optimizer's mover index
    # keeps every visit, each with coefficient +-1
    state = _State(win, np.zeros(g * k, dtype=np.int64), 2)
    assert len(state.cycles) == win.ids6.size + win.ids4.size
    assert set(state.coefs.tolist()) <= {-1, 1}
