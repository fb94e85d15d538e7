import pytest

from scldpc.baselines import (
    cv_exhaustive_best,
    cv_mask,
    masks_for_vector,
    mo_admissible_vectors,
    mo_best,
    mo_search,
)
from scldpc.cycles import count_ugast_3330_for
from scldpc.overlap import count_partition_choices, measure_overlaps
from scldpc.pipeline import table1_report
from scldpc.qc import PartitionMask, build_ab_powers


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

    @pytest.mark.long
    def test_exhaustive_kappa11(self):
        # published value comes from a differently-specified search; this run
        # reports drift rather than force-fitting (13/17 run in acceptance)
        from scldpc.baselines import mo_search
        from scldpc.overlap import measure_overlaps

        proto = build_ab_powers(3, 11)
        res = mo_search(proto, 30)
        assert res.exhaustive
        assert count_ugast_3330_for(proto, res.mask, 30) == res.count
        assert measure_overlaps(res.mask) in mo_admissible_vectors(11)
        print(
            f"minimum-overlap at kappa=11: got {res.count} (exhaustive), published 3850"
            + ("" if res.count == 3850 else " -- deviation recorded")
        )
