import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scldpc import overlap
from scldpc.overlap import (
    OverlapConstraintError,
    OverlapVector,
    count_cycles_same_half,
    count_cycles_split_half,
    count_cycles_two_replica_band,
    count_cycles_two_replica_corner,
    count_partition_choices,
    pattern_counts,
    cycle6_census,
    enumerate_valid_overlaps,
    realize_mask,
    solve_optimal_overlap,
)
from scldpc.qc import PartitionMask

from oracles import (
    build_lifted_dense,
    dfs_count_cycles,
    loop_valid_overlaps,
    masks_for_vector,
    measure_overlaps,
    naive_overlap_filter,
    naive_solve_overlap,
    scalar_optima,
    serial_solve_optimal_overlap,
)


def coupled_protograph_dense(mask: PartitionMask, kappa: int, L: int):
    powers = [[0] * kappa for _ in range(3)]
    return build_lifted_dense(3, kappa, 1, powers, mask.assign, L)


def sample_vectors(kappa, n, seed):
    vecs = list(enumerate_valid_overlaps(kappa))
    rng = random.Random(seed)
    return rng.sample(vecs, min(n, len(vecs)))


class TestCaseFunctions:
    def test_no_three_way_overlap_reduces_to_product(self):
        rng = random.Random(0)
        for _ in range(50):
            o01, o02, o12 = (rng.randrange(0, 8) for _ in range(3))
            assert count_cycles_same_half(o01, o02, o12, 0) == o01 * o02 * o12

    def test_empty_overlaps_admit_no_cycle(self):
        assert count_cycles_same_half(0, 0, 0, 0) == 0

    def test_split_case_matches_bruteforce_classification(self):
        # kappa=4 toy partitions: single-replica cycles classified by how many
        # check rows sit in H0, compared against the closed-form components
        kappa = 4
        for vec in sample_vectors(kappa, 30, seed=1):
            mask = realize_mask(vec, kappa, seed=2)
            H = coupled_protograph_dense(mask, kappa, 2)
            census = cycle6_census(vec, kappa, 2)
            # replica 1 = rows 0..5 (block 0 holds H0, block 1 holds H1), cols 0..3
            sub = H[:6, :kappa]
            from oracles import dfs_cycle_edge_sets

            counts = {3: 0, 2: 0, 1: 0, 0: 0}
            for edges in dfs_cycle_edge_sets(sub, 6):
                rows = {n for e in edges for n in e if n < 6}
                n_h0 = sum(1 for r in rows if r < 3)
                counts[n_h0] += 1
            assert counts[3] == census.single[0]
            assert counts[0] == census.single[1]
            assert counts[2] == census.single[2]
            assert counts[1] == census.single[3]


class TestCensusFormula:
    def test_example_vector_total(self):
        vec = OverlapVector(3, 4, 3, 0, 1, 2, 0)
        census = cycle6_census(vec, kappa=7, L=30)
        assert census.total == 1170

    def test_all_in_h0_bypassing_balance(self):
        # with H1 empty there are no cross-replica cycles and Fs is the block
        # protograph count; the balance chain rejects the vector, so compute
        # components on the complement-symmetric pieces directly
        kappa = 4
        vec = OverlapVector(kappa, kappa, kappa, kappa, kappa, kappa, kappa)
        bad = vec.violated_chains(kappa)
        assert bad and all("floor" in b for b in bad)
        with pytest.raises(OverlapConstraintError):
            cycle6_census(vec, kappa, 3)
        # bypass the check: evaluate the same closed forms by hand
        from scldpc.overlap import (
            count_cycles_same_half as A,
            count_cycles_split_half as B,
            count_cycles_two_replica_band as C,
            count_cycles_two_replica_corner as D,
        )

        comp = vec.complement(kappa)
        fs = (
            A(vec.o01, vec.o02, vec.o12, vec.o012)
            + A(comp.o01, comp.o02, comp.o12, comp.o012)
            + B(vec.r0, vec.r1, vec.r2, vec.o01, vec.o02, vec.o12, vec.o012)
            + B(comp.r0, comp.r1, comp.r2, comp.o01, comp.o02, comp.o12, comp.o012)
        )
        fd = (
            C(kappa, vec.r0, vec.r1, vec.r2, vec.o01, vec.o02, vec.o12, vec.o012)
            + C(kappa, comp.r0, comp.r1, comp.r2, comp.o01, comp.o02, comp.o12, comp.o012)
            + D(vec.r0, vec.r1, vec.r2, vec.o01, vec.o02, vec.o12, vec.o012)
            + D(comp.r0, comp.r1, comp.r2, comp.o01, comp.o02, comp.o12, comp.o012)
        )
        assert fd == 0
        block = coupled_protograph_dense(PartitionMask.all_h0(3, kappa), kappa, 2)[:3, :kappa]
        assert fs == dfs_count_cycles(block, 6)

    @pytest.mark.parametrize("kappa", [4, 5])
    def test_formula_equals_dfs_on_random_vectors(self, kappa):
        for vec in sample_vectors(kappa, 25, seed=3):
            mask = realize_mask(vec, kappa, seed=4)
            for L in (2, 3):
                H = coupled_protograph_dense(mask, kappa, L)
                assert cycle6_census(vec, kappa, L).total == dfs_count_cycles(H, 6)

    def test_formula_equals_dfs_every_vector_kappa6(self):
        for vec in enumerate_valid_overlaps(6):
            mask = realize_mask(vec, 6, seed=3)
            for L in (2, 4):
                H = coupled_protograph_dense(mask, 6, L)
                assert cycle6_census(vec, 6, L).total == dfs_count_cycles(H, 6)

    def test_complement_symmetry(self):
        # swapping H0 and H1 swaps the paired components and preserves totals
        kappa = 5
        for vec in sample_vectors(kappa, 40, seed=5):
            comp = vec.complement(kappa)
            if comp.violated_chains(kappa):
                continue
            a = cycle6_census(vec, kappa, 3)
            b = cycle6_census(comp, kappa, 3)
            assert a.single[0] == b.single[1] and a.single[1] == b.single[0]
            assert a.single[2] == b.single[3] and a.single[3] == b.single[2]
            assert a.cross[0] == b.cross[1] and a.cross[1] == b.cross[0]
            assert a.cross[2] == b.cross[3] and a.cross[3] == b.cross[2]
            assert (a.fs, a.fd) == (b.fs, b.fd)

    def test_total_is_affine_in_l(self):
        kappa = 5
        for vec in sample_vectors(kappa, 10, seed=6):
            c2 = cycle6_census(vec, kappa, 2)
            for L in (3, 4, 7):
                cl = cycle6_census(vec, kappa, L)
                assert cl.total == L * (c2.fs + c2.fd) - c2.fd

    def test_invalid_vector_names_chain(self):
        vec = OverlapVector(3, 0, 0, 2, 0, 0, 0)  # o01 > r1
        with pytest.raises(OverlapConstraintError, match="o01 <= r1"):
            cycle6_census(vec, 4, 2)
        with pytest.raises(ValueError, match=r"vector \[3, 0, 0, 2, 0, 0, 0\] is not realizable at kappa=4"):
            pattern_counts(vec, 4)
        for fields, chain in [
            ((5, 2, 0, 0, 0, 0, 0), "0 <= r0 <= kappa"),
            ((1, 2, 3, 2, 0, 0, 0), "0 <= o01 <= r0"),
            ((2, 2, 2, 0, 0, 0, 1), "0 <= o012 <= o01"),
            ((1, 2, 3, 0, 2, 0, 0), "o012 <= o02 <= r0 - o01 + o012"),
            ((2, 1, 3, 0, 0, 2, 0), "o012 <= o12 <= r1 - o01 + o012"),
            ((2, 2, 0, 0, 1, 1, 0), "o02 + o12 - o012 <= r2 <= kappa - r0 - r1 + o01 + o02 + o12 - o012"),
        ]:
            assert chain in OverlapVector(*fields).violated_chains(4)


class TestEnumeration:
    def test_kappa_one_balance(self):
        vecs = list(enumerate_valid_overlaps(1))
        assert vecs
        assert all(1 <= v.r0 + v.r1 + v.r2 <= 2 for v in vecs)

    def test_unique_and_self_consistent(self):
        vecs = list(enumerate_valid_overlaps(7))
        assert len(set(vecs)) == len(vecs)
        for v in vecs:
            assert v.violated_chains(7) == []

    def test_matches_naive_filter_kappa4(self):
        mine = {tuple(v.as_list()) for v in enumerate_valid_overlaps(4)}
        naive = set(naive_overlap_filter(4))
        assert mine == naive

    @pytest.mark.parametrize("kappa", range(1, 14))
    def test_matches_nested_loop_in_order(self, kappa):
        mine = [tuple(v.as_list()) for v in enumerate_valid_overlaps(kappa)]
        assert mine == list(loop_valid_overlaps(kappa))

    def test_kappa_above_limit_rejected(self):
        with pytest.raises(ValueError, match="kappa above 64"):
            next(enumerate_valid_overlaps(65))
        with pytest.raises(ValueError, match="kappa above 64"):
            solve_optimal_overlap(65, 2)
        with pytest.raises(ValueError, match="kappa must be >= 1"):
            next(enumerate_valid_overlaps(0))
        with pytest.raises(ValueError, match="kappa must be >= 2"):
            solve_optimal_overlap(1, 2)


class TestSolve:
    def test_example_optimum(self):
        sol = solve_optimal_overlap(7, 30)
        assert sol.f_star == 1170
        assert OverlapVector(3, 4, 3, 0, 1, 2, 0) in sol.optima
        assert sol.alpha == len(sol.optima)

    def test_small_l_consistency(self):
        sol = solve_optimal_overlap(7, 2)
        for vec in sol.optima:
            census = cycle6_census(vec, 7, 2)
            assert sol.f_star == 2 * census.fs + census.fd

    @pytest.mark.parametrize("kappa", range(2, 7))
    def test_matches_naive_solve(self, kappa):
        for L in (2, 3, 30):
            sol = solve_optimal_overlap(kappa, L)
            f_star, optima = naive_solve_overlap(kappa, L)
            assert sol.f_star == f_star
            assert [tuple(v.as_list()) for v in sol.optima] == optima

    def test_pinned_kappa23(self):
        sol = solve_optimal_overlap(23, 20)
        assert (sol.f_star, sol.alpha) == (47334, 12)

    def test_pinned_kappa31(self):
        sol = solve_optimal_overlap(31, 20)
        assert (sol.f_star, sol.alpha) == (122960, 12)
        assert [v.as_list() for v in sol.optima[:2]] == [
            [15, 15, 16, 7, 0, 8, 0],
            [15, 15, 16, 7, 8, 0, 0],
        ]

    def test_results_are_python_ints(self, capsys):
        from scldpc import cli

        sol = solve_optimal_overlap(13, 10)
        assert type(sol.f_star) is int
        assert all(type(x) is int for v in sol.optima for x in v.as_list())
        assert type(count_cycles_same_half(3, 2, 2, 1)) is int
        assert type(count_cycles_split_half(3, 4, 3, 0, 1, 2, 0)) is int
        assert type(count_cycles_two_replica_band(7, 3, 4, 3, 0, 1, 2, 0)) is int
        assert type(count_cycles_two_replica_corner(3, 4, 3, 0, 1, 2, 0)) is int
        assert cli.main(["oo-solve", "--kappa", "13", "--L", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(payload)) == {
            "F_star": sol.f_star,
            "alpha": sol.alpha,
            "optima": [v.as_list() for v in sol.optima],
            "N_choices": sol.n_choices,
        }

    @pytest.mark.slow
    def test_matches_mask_level_bruteforce_kappa4(self):
        # min over all 2^12 masks of the coupled-protograph 6-cycle count,
        # restricted to balanced masks, equals the solver's optimum
        kappa, L = 4, 3
        lo, hi = (3 * kappa) // 2, -((-3 * kappa) // 2)
        best = None
        for bits in range(1 << (3 * kappa)):
            assign = tuple(
                tuple((bits >> (i * kappa + j)) & 1 for j in range(kappa)) for i in range(3)
            )
            mask = PartitionMask(assign)
            ones_h0 = sum(row.count(0) for row in assign)
            if not lo <= ones_h0 <= hi:
                continue
            H = coupled_protograph_dense(mask, kappa, L)
            val = dfs_count_cycles(H, 6)
            best = val if best is None else min(best, val)
        assert best == solve_optimal_overlap(kappa, L).f_star


class TestSymmetrySolve:
    @pytest.mark.parametrize(
        "kappa", [*range(2, 25), *(pytest.param(k, marks=pytest.mark.long) for k in range(25, 41))]
    )
    def test_matches_serial_solve(self, kappa):
        for L in (2, 3, 30):
            assert solve_optimal_overlap(kappa, L) == serial_solve_optimal_overlap(kappa, L)

    @pytest.mark.parametrize("size", [1, 7])
    def test_chunk_size_does_not_matter(self, monkeypatch, size):
        # a chunk of 1 scores each representative alone; 7 splits slabs
        # across chunks and packs several slabs into one
        expected = {(k, L): solve_optimal_overlap(k, L) for k in range(2, 11) for L in (2, 30)}
        monkeypatch.setattr(overlap, "SOLVE_VECTORS", size)
        for (k, L), sol in expected.items():
            assert solve_optimal_overlap(k, L) == sol

    def test_int64_threshold_pinned(self):
        # the representatives' largest Fs + Fd is the largest over all vectors
        L = 1_277_475_351_364_927
        assert solve_optimal_overlap(21, L).f_star == serial_solve_optimal_overlap(21, L).f_star
        for solve in (solve_optimal_overlap, serial_solve_optimal_overlap):
            with pytest.raises(ValueError, match="int64"):
                solve(21, L + 1)

    @pytest.mark.parametrize("kappa", range(1, 15))
    def test_canonical_slabs_filter_the_full_set(self, kappa):
        # sorted rows; one row sum at odd kappa, r0 + r2 <= kappa at even kappa
        def kept(v):
            if not v.r0 <= v.r1 <= v.r2:
                return False
            if kappa % 2:
                return v.r0 + v.r1 + v.r2 == (3 * kappa) // 2
            return v.r0 + v.r2 <= kappa

        canonical = np.concatenate(list(overlap._overlap_slabs(kappa, canonical=True)), axis=1)
        expected = [v.as_list() for v in enumerate_valid_overlaps(kappa) if kept(v)]
        assert canonical.T.tolist() == expected

    @pytest.mark.parametrize("kappa", range(1, 15))
    def test_orbits_of_representatives_cover_each_vector_once(self, kappa):
        full = sorted(v.as_list() for v in enumerate_valid_overlaps(kappa))
        canonical = np.concatenate(list(overlap._overlap_slabs(kappa, canonical=True)), axis=1)
        assert overlap._orbit_union(kappa, canonical).tolist() == full

    @pytest.mark.parametrize("kappa", [4, 7, 8])
    def test_orbit_helper_returns_each_orbit_once(self, kappa):
        # orbits partition the valid vectors: each vector's images are
        # distinct, sorted, include it, and have that same orbit
        vectors = [v.as_list() for v in enumerate_valid_overlaps(kappa)]
        orbit = {}
        for v in vectors:
            images = overlap._orbit_union(kappa, np.array(v)[:, None]).tolist()
            assert v in images
            assert images == sorted(images)
            assert len({tuple(x) for x in images}) == len(images) <= 12
            orbit[tuple(v)] = images
        for images in orbit.values():
            for w in images:
                assert orbit[tuple(w)] == images
        # a union over several vectors holds each orbit once
        pair = np.array(vectors[:2] + vectors[:2]).T
        union = {tuple(x) for v in vectors[:2] for x in orbit[tuple(v)]}
        assert overlap._orbit_union(kappa, pair).tolist() == sorted(map(list, union))


@st.composite
def random_valid_vectors(draw):
    """A balanced random mask's H0 overlap vector, with its 12 symmetric masks' vectors."""
    kappa = draw(st.integers(min_value=2, max_value=64))
    total = draw(st.sampled_from([(3 * kappa) // 2, -((-3 * kappa) // 2)]))
    rng = draw(st.randoms(use_true_random=False))
    cells = rng.sample(range(3 * kappa), total)
    h0 = [{c % kappa for c in cells if c // kappa == i} for i in range(3)]
    h1 = [set(range(kappa)) - rows for rows in h0]
    images = [
        measure_overlaps(PartitionMask.from_h0_support(3, kappa, [half[i] for i in perm]))
        for half in (h0, h1)
        for perm in itertools.permutations(range(3))
    ]
    return kappa, images


@settings(max_examples=60, deadline=None)
@given(random_valid_vectors(), st.integers(min_value=2, max_value=50))
def test_census_is_invariant_under_row_and_half_symmetries(drawn, L):
    # images are measured on permuted-row and swapped-half masks, not taken
    # from the library's symmetry table
    kappa, images = drawn
    census = []
    for vec in images:
        vec.validate(kappa)
        c = cycle6_census(vec, kappa, L)
        census.append((c.fs, c.fd))
    assert len(set(census)) == 1
    vector = np.array(images[0].as_list())[:, None]
    orbit = overlap._orbit_union(kappa, vector).tolist()
    assert orbit == sorted(map(list, {tuple(v.as_list()) for v in images}))


class TestCouplingLength:
    @pytest.mark.parametrize("L", [0, -3, 1])
    def test_short_coupling_rejected(self, L):
        with pytest.raises(ValueError, match="coupling length L must be >= 2"):
            solve_optimal_overlap(7, L)
        with pytest.raises(ValueError, match="coupling length L must be >= 2"):
            cycle6_census(OverlapVector(3, 4, 3, 0, 1, 2, 0), 7, L)

    def test_long_coupling_stays_exact(self):
        # L * max(Fs + Fd) is 7.22e18 at kappa=21, just inside int64
        L = 10**15
        sol = solve_optimal_overlap(21, L)
        assert sol.f_star == cycle6_census(sol.optima[0], 21, L).total
        # once L exceeds every Fd, both minimize Fs + Fd and then maximize Fd
        assert sol.optima == solve_optimal_overlap(21, 2 * 10**6).optima

    def test_int64_overflow_rejected(self):
        # L * max(Fs + Fd) is 9.24e18 at kappa=22, past int64
        with pytest.raises(ValueError, match="int64"):
            solve_optimal_overlap(22, 10**15)
        vec = OverlapVector(3, 4, 3, 0, 1, 2, 0)  # Fs + Fd = 40
        assert cycle6_census(vec, 7, 10**17).total == 10**17 * 10 + (10**17 - 1) * 30
        with pytest.raises(ValueError, match="int64"):
            cycle6_census(vec, 7, 10**18)

    def test_cli_reports_short_coupling(self, capsys):
        from scldpc import cli

        rc = cli.main(["oo-solve", "--kappa", "7", "--L", "0"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "scldpc: error: coupling length L must be >= 2\n"

    def test_design_config_rejects_short_coupling(self):
        from scldpc.pipeline import DesignConfig

        with pytest.raises(ValueError, match="coupling length L must be >= 2"):
            DesignConfig(kappa=7, p=7, L=0)


class TestChoicesAndMasks:
    def test_forced_vector_has_one_choice(self):
        kappa = 4
        vec = OverlapVector(kappa, kappa, kappa, kappa, kappa, kappa, kappa)
        assert count_partition_choices(vec, kappa) == 1

    def test_choice_count_matches_mask_census_kappa4(self):
        # histogram all 2^12 masks by overlap vector; every bucket must equal
        # the binomial product
        kappa = 4
        from collections import Counter

        hist = Counter()
        for bits in range(1 << (3 * kappa)):
            assign = tuple(
                tuple((bits >> (i * kappa + j)) & 1 for j in range(kappa)) for i in range(3)
            )
            hist[tuple(measure_overlaps(PartitionMask(assign)).as_list())] += 1
        assert sum(hist.values()) == 1 << (3 * kappa)
        for key, count in hist.items():
            vec = OverlapVector(*key)
            assert count_partition_choices(vec, kappa) == count

    def test_realize_round_trip(self):
        kappa = 6
        for vec in sample_vectors(kappa, 30, seed=8):
            mask = realize_mask(vec, kappa, seed=0)
            assert measure_overlaps(mask) == vec

    def test_realize_seed_variation(self):
        vec = OverlapVector(3, 4, 3, 0, 1, 2, 0)
        masks = {realize_mask(vec, 7, seed=s).assign for s in range(6)}
        assert len(masks) > 1
        for assign in masks:
            assert measure_overlaps(PartitionMask(assign)) == vec

    def test_realize_rejects_infeasible(self):
        with pytest.raises(OverlapConstraintError):
            realize_mask(OverlapVector(3, 0, 0, 2, 0, 0, 0), 4, seed=0)

    def test_realized_mask_census_matches_formula(self):
        kappa, L = 5, 3
        for vec in sample_vectors(kappa, 10, seed=9):
            mask = realize_mask(vec, kappa, seed=1)
            H = coupled_protograph_dense(mask, kappa, L)
            assert dfs_count_cycles(H, 6) == cycle6_census(vec, kappa, L).total

    def test_optima_realization_census_at_kappa7(self):
        # every optimal vector realizes the same number of masks, and the
        # total matches alpha times the per-vector binomial product
        sol = solve_optimal_overlap(7, 30)
        per_vector = [sum(1 for _ in masks_for_vector(v, 7)) for v in sol.optima]
        assert len(set(per_vector)) == 1
        assert per_vector[0] == count_partition_choices(sol.optima[0], 7)
        assert sum(per_vector) == sol.n_choices


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=11), st.integers(min_value=2, max_value=40))
def test_solve_matches_loop_scalar_minimum(kappa, L):
    sol = solve_optimal_overlap(kappa, L)
    f_star, optima = scalar_optima(loop_valid_overlaps(kappa), kappa, L)
    assert sol.f_star == f_star
    assert [tuple(v.as_list()) for v in sol.optima] == optima


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_enumerated_vectors_realize_and_verify(kappa, pick):
    vecs = list(enumerate_valid_overlaps(kappa))
    vec = vecs[pick % len(vecs)]
    mask = realize_mask(vec, kappa, seed=pick)
    assert measure_overlaps(mask) == vec
