import itertools
import json

import numpy as np
import pytest

from scldpc import baselines
from scldpc.baselines import (
    cv_exhaustive_best,
    cv_mask,
    MoSearchResult,
    mo_admissible_vectors,
    mo_best,
    mo_search,
)
from scldpc.cycles import CensusTable, count_ugast_3330_for, union_census
from scldpc.overlap import count_partition_choices
from scldpc.pipeline import table1_report
from scldpc.qc import PartitionMask, ProtoMatrix, build_ab_powers

from oracles import (
    lifted_counts,
    loop_census_active_counts,
    masks_for_vector,
    measure_overlaps,
    python_best,
)


def oracle_count(proto, mask, L):
    fs, fd = loop_census_active_counts(proto, mask)
    return (L * fs + (L - 1) * fd) * proto.p


class TestCvMask:
    def test_zero_vector_empty_h0(self):
        mask = cv_mask([0, 0, 0], 7)
        assert all(v == 1 for row in mask.assign for v in row)

    def test_full_vector_empty_h1(self):
        mask = cv_mask([7, 7, 7], 7)
        assert all(v == 0 for row in mask.assign for v in row)

    def test_row_populations(self):
        mask = cv_mask([2, 4, 6], 7)
        assert [row.count(0) for row in mask.assign] == [2, 4, 6]

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError):
            cv_mask([3, 2, 5], 7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cv_mask([0, 1, 8], 7)

    def test_masks_are_valid_partitions(self):
        for zeta in ([0, 0, 7], [1, 2, 3], [5, 6, 7]):
            mask = cv_mask(zeta, 7)
            assert len(mask.assign) == 3 and all(len(r) == 7 for r in mask.assign)
            assert set(v for row in mask.assign for v in row) <= {0, 1}


class TestCvSearch:
    def test_kappa7_value(self):
        proto = build_ab_powers(3, 7)
        zeta, count = cv_exhaustive_best(proto, 30)
        assert count == 3290
        assert count == count_ugast_3330_for(proto, cv_mask(zeta, 7), 30)

    @pytest.mark.parametrize("kappa", [7, 11])
    def test_every_cutting_vector_matches_oracle(self, kappa):
        proto = build_ab_powers(3, kappa)
        zetas = list(itertools.combinations_with_replacement(range(kappa + 1), 3))
        masks = [cv_mask(z, kappa) for z in zetas]
        batched = lifted_counts(union_census(proto), [m.assign for m in masks], 30)
        assert batched == [oracle_count(proto, m, 30) for m in masks]
        # ties break toward the lexicographically smallest vector
        count, zeta = min(zip(batched, zetas))
        assert cv_exhaustive_best(proto, 30) == (zeta, count)

    @pytest.mark.parametrize(
        "kappa,zeta,count",
        [
            (7, (1, 3, 5), 3290),
            (11, (2, 6, 8), 14872),
            (13, (2, 6, 9), 25233),
            (17, (4, 8, 13), 59024),
        ],
    )
    def test_pinned_best_vectors(self, kappa, zeta, count):
        assert cv_exhaustive_best(build_ab_powers(3, kappa), 30) == (zeta, count)

    def test_counts_are_exact_python_ints(self):
        table = table1_report(30, [7], ("uncoupled", "cv"))
        assert json.loads(json.dumps(table))["counts"] == {"uncoupled": [8820], "cv": [3290]}


class TestRanking:
    """Both searches rank their masks in numpy; the reference ranks their
    lifted counts as Python ints."""

    LENGTHS = [2, 3, 30, 10**18]

    @pytest.mark.parametrize("L", LENGTHS)
    @pytest.mark.parametrize("kappa", [5, 7, 11, 13])
    def test_cv_search_matches_python_ranking(self, kappa, L):
        # kappa = 5 at L = 2 and kappa = 13 at L = 3 tie at the minimum
        # between masks of different (fs, fd)
        proto = build_ab_powers(3, kappa)
        zetas = list(itertools.combinations_with_replacement(range(kappa + 1), 3))
        i, count = python_best(union_census(proto), [cv_mask(z, kappa).assign for z in zetas], L)
        assert cv_exhaustive_best(proto, L) == (zetas[i], count)

    @pytest.mark.parametrize("L", LENGTHS)
    @pytest.mark.parametrize("kappa,chunk", [(5, 1024), (7, 1024), (7, 7)])
    def test_mo_search_matches_python_ranking(self, kappa, chunk, L, monkeypatch):
        proto = build_ab_powers(3, kappa)
        monkeypatch.setattr(baselines, "MO_CHUNK", chunk)
        got = mo_search(proto, L)
        monkeypatch.setattr(CensusTable, "best", python_best)
        assert got == mo_search(proto, L)

    @pytest.mark.parametrize("L", LENGTHS)
    def test_sampled_mo_search_matches_python_ranking(self, L, monkeypatch):
        proto = build_ab_powers(3, 11)
        got = mo_search(proto, L, max_masks=2000, seed=5)
        assert not got.exhaustive
        monkeypatch.setattr(CensusTable, "best", python_best)
        assert got == mo_search(proto, L, max_masks=2000, seed=5)

    def test_ties_go_to_the_first_mask(self):
        # (fs, fd) = (1, 7) and (2, 5) lift to 2*1 + 7 = 2*2 + 5 at L = 2,
        # while at L = 3 the second is smaller in either order
        table = union_census(build_ab_powers(3, 5))
        grids = [cv_mask(z, 5).assign for z in ((1, 3, 3), (0, 2, 3))]
        assert table.active_counts(grids).tolist() == [[1, 7], [2, 5]]
        assert table.best(grids, 2) == table.best(grids[::-1], 2) == (0, 45)
        assert table.best(grids, 3) == (1, 80)
        assert table.best(grids[::-1], 3) == (0, 80)
        for L in self.LENGTHS:
            assert table.best(grids, L) == python_best(table, grids, L)
            assert table.best(grids * 3, L) == python_best(table, grids * 3, L)

    def test_key_orders_as_the_lifted_count_at_every_L(self):
        # a one-group table whose two masks have (fs, fd) = (6, 5) and
        # (10, 0): t = 11 against 10 with the largest fd gap, M = 5, so they
        # tie at L = M and the second wins from L = M + 1 on
        counts = np.zeros(64, dtype=np.int64)
        counts[0], counts[63] = 10, 5 << 32 | 6
        table = CensusTable(1, 2, 3, np.zeros((1, 6), dtype=np.int64), counts)
        grids = [[[1, 0]], [[0, 0]]]
        assert table.active_counts(grids).tolist() == [[6, 5], [10, 0]]
        assert table.best(grids, 5) == (0, 150)
        assert table.best(grids, 6) == (1, 180)
        for L in [*range(2, 12), 10**18, 2**62, 2**70]:
            for order in (grids, grids[::-1], grids * 2):
                assert table.best(order, L) == python_best(table, order, L)


class TestColumnWeight:
    @pytest.mark.parametrize("search", [cv_exhaustive_best, mo_search])
    def test_gamma_other_than_3_rejected(self, search):
        powers = [[(i * j) % 5 for j in range(5)] for i in range(4)]
        proto = ProtoMatrix(gamma=4, kappa=5, p=5, powers=powers)
        with pytest.raises(ValueError, match="column weight 3"):
            search(proto, 30)


class TestCouplingLength:
    SEARCHES = {
        "census": lambda L: count_ugast_3330_for(
            build_ab_powers(3, 7), PartitionMask.all_h0(3, 7), L
        ),
        "cv": lambda L: cv_exhaustive_best(build_ab_powers(3, 7), L),
        "mo": lambda L: mo_search(build_ab_powers(3, 7), L),
        "table1": lambda L: table1_report(L, [7]),
    }

    @pytest.mark.parametrize("L", [1, 0, -5])
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_short_coupling_rejected(self, search, L):
        with pytest.raises(ValueError, match="coupling length L must be >= 2"):
            self.SEARCHES[search](L)


class TestMo:
    def test_admissible_vectors_balanced(self):
        for v in mo_admissible_vectors(7):
            rows = (v.r0, v.r1, v.r2)
            assert all(2 <= r <= 4 and 2 <= 7 - r <= 4 for r in rows)
            assert 10 <= sum(rows) <= 11

    def test_mask_generator_matches_choice_count(self):
        vecs = mo_admissible_vectors(7)
        v = vecs[0]
        masks = list(masks_for_vector(v, 7))
        assert len(masks) == count_partition_choices(v, 7)
        assert all(measure_overlaps(m) == v for m in masks[:50])

    @pytest.mark.slow
    def test_kappa7_value(self):
        proto = build_ab_powers(3, 7)
        _, count = mo_best(proto, 30)
        assert count == 609

    @pytest.mark.slow
    def test_table_ordering_at_kappa7(self):
        proto = build_ab_powers(3, 7)
        uncoupled = count_ugast_3330_for(proto, PartitionMask.all_h0(3, 7), 30)
        _, cv = cv_exhaustive_best(proto, 30)
        _, mo = mo_best(proto, 30)
        from scldpc.cpo import cpo_optimize
        from scldpc.overlap import realize_mask, solve_optimal_overlap

        sol = solve_optimal_overlap(7, 30)
        mask = realize_mask(sol.optima[0], 7, seed=1)
        oo = cpo_optimize(proto, mask, 30, budget=100_000, seed=0).f_sc
        assert oo <= mo <= cv <= uncoupled

    def test_pinned_exhaustive_kappa7(self):
        res = mo_search(build_ab_powers(3, 7), 30)
        mask = ((0, 0, 1, 1, 1, 0, 1), (0, 1, 1, 0, 0, 1, 1), (1, 0, 0, 0, 1, 1, 0))
        assert res == MoSearchResult(PartitionMask(mask), 609, exhaustive=True, masks_scored=1080)

    def test_pinned_sampled_kappa11(self):
        res = mo_search(build_ab_powers(3, 11), 30, max_masks=2000, seed=0)
        mask = (
            (0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0),
            (0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1),
            (1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1),
        )
        assert res == MoSearchResult(PartitionMask(mask), 3861, exhaustive=False, masks_scored=1971)
        assert res.count == oracle_count(build_ab_powers(3, 11), res.mask, 30)

    @pytest.mark.long
    def test_exhaustive_kappa11(self):
        # published value comes from a differently-specified search; this run
        # reports drift rather than force-fitting (13/17 run in acceptance)
        from scldpc.baselines import mo_search

        proto = build_ab_powers(3, 11)
        res = mo_search(proto, 30)
        assert res.exhaustive
        assert count_ugast_3330_for(proto, res.mask, 30) == res.count
        mask = (
            (0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0),
            (0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1),
            (1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1),
        )
        assert res == MoSearchResult(
            PartitionMask(mask), 3828, exhaustive=True, masks_scored=136080
        )
        assert measure_overlaps(res.mask) in mo_admissible_vectors(11)
        print(
            f"minimum-overlap at kappa=11: got {res.count} (exhaustive), published 3850"
            + ("" if res.count == 3850 else " -- deviation recorded")
        )
