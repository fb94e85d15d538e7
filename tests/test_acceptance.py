"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact unless stated otherwise.  The long exhaustive
minimum-overlap searches at kappa > 7 run only with --long.
"""

import random

import pytest

from scldpc.baselines import cv_exhaustive_best, mo_best
from scldpc.cpo import cpo_optimize
from scldpc.cycles import count_ugast_3330, count_ugast_3330_for, girth_check
from scldpc.gf import FieldGF
from scldpc.gast import (
    GastInstance,
    count_candidate_sets,
    enumerate_candidate_sets,
    is_gast,
    removal_budget,
)
from scldpc.overlap import (
    OverlapVector,
    count_partition_choices,
    cycle6_census,
    enumerate_valid_overlaps,
    realize_mask,
    solve_optimal_overlap,
)
from scldpc.pipeline import DesignConfig, run_pipeline
from scldpc.qc import PartitionMask, ProtoMatrix, build_ab_powers, couple

from oracles import (
    build_lifted_dense,
    dfs_count_cycles,
    enumerate_cycles,
    lift_count,
    measure_overlaps,
    remove_gast_weights,
    with_weights,
)
from test_gast import example_7_9_9_13, example_8_0_0_16, synthesize_instances

GF4 = FieldGF(2)


def test_criterion_1_closed_form_matches_enumeration(acceptance_line):
    """Every valid overlap vector at kappa in {3,4,5}, L in {2,3,4}."""
    checked = 0
    for kappa in (3, 4, 5):
        for vec in enumerate_valid_overlaps(kappa):
            mask = realize_mask(vec, kappa, seed=17)
            powers1 = [[0] * kappa for _ in range(3)]
            for L in (2, 3, 4):
                H = build_lifted_dense(3, kappa, 1, powers1, mask.assign, L)
                expected = dfs_count_cycles(H, 6)
                assert cycle6_census(vec, kappa, L).total == expected
                checked += 1
    acceptance_line("1 closed-form 6-cycle count vs DFS", True, f"{checked} cases exact")


def test_criterion_2_example_optimization(acceptance_line):
    sol = solve_optimal_overlap(7, 30)
    ok = sol.f_star == 1170 and OverlapVector(3, 4, 3, 0, 1, 2, 0) in sol.optima
    acceptance_line(
        "2 optimal overlap at kappa=7 L=30", ok, f"F*={sol.f_star}, alpha={sol.alpha}"
    )
    assert ok


def test_criterion_3_uncoupled_column(acceptance_line):
    expected = {7: 8820, 11: 36300, 13: 60840, 17: 138720}
    got = {}
    for kp, want in expected.items():
        proto = build_ab_powers(3, kp)
        got[kp] = count_ugast_3330(couple(proto, PartitionMask.all_h0(3, kp), 30))
    ok = got == expected
    acceptance_line("3 uncoupled array-based census", ok, str(got))
    assert ok


@pytest.mark.slow
def test_criterion_4_cutting_vector_column(acceptance_line):
    expected = {7: 3290, 11: 14872, 13: 25233, 17: 59024}
    got = {}
    for kp in expected:
        proto = build_ab_powers(3, kp)
        _, count = cv_exhaustive_best(proto, 30)
        got[kp] = count
    ok = got == expected
    acceptance_line("4 best cutting vector census", ok, str(got))
    assert ok


@pytest.mark.slow
def test_criterion_5_minimum_overlap_kappa7(acceptance_line):
    proto = build_ab_powers(3, 7)
    _, count = mo_best(proto, 30)
    ok = count == 609
    acceptance_line("5 minimum overlap at kappa=7", ok, f"count={count}")
    assert ok


@pytest.mark.long
@pytest.mark.parametrize(
    "kp,published,max_masks",
    [(11, 3850, None), (13, 6851, None), (17, 15997, 2_000_000)],
)
def test_criterion_5_minimum_overlap_long(kp, published, max_masks, acceptance_line):
    from scldpc.baselines import mo_search

    proto = build_ab_powers(3, kp)
    res = mo_search(proto, 30, max_masks=max_masks)
    consistent = count_ugast_3330_for(proto, res.mask, 30) == res.count
    acceptance_line(
        f"5L minimum overlap at kappa={kp}",
        consistent,
        f"count={res.count} ({'exhaustive' if res.exhaustive else 'sampled'}), "
        f"published={published}"
        + ("" if res.count == published else "; admissibility-rule deviation recorded"),
    )
    assert consistent


@pytest.mark.slow
def test_criterion_6_power_optimizer_end_to_end(acceptance_line):
    proto = build_ab_powers(3, 7)
    sol = solve_optimal_overlap(7, 30)
    mask = realize_mask(sol.optima[0], 7, seed=1)
    res = cpo_optimize(proto, mask, 30, budget=100_000, seed=0)
    # girth stays at least 6 along every recorded state, checked on the
    # coupled code itself
    powers = [[(i * j) % 7 for j in range(7)] for i in range(3)]

    def girth_at_least_6() -> bool:
        return girth_check(couple(proto.with_powers(tuple(map(tuple, powers))), mask, 30)) >= 6

    girth_ok = girth_at_least_6()
    for _, changes, _ in res.trace:
        for i, j, v in changes:
            powers[i][j] = v
        girth_ok &= girth_at_least_6()
    hard = res.f_sc <= 609 and girth_ok
    soft = res.f_sc <= 203
    acceptance_line(
        "6 power optimizer at kappa=7 (hard gate 609)",
        hard,
        f"f_sc={res.f_sc}, girth>=6 along trace: {girth_ok}; "
        f"soft target 203 {'reached' if soft else 'not reached'}",
    )
    assert hard


def test_criterion_7_lifting_law(acceptance_line):
    rng = random.Random(42)
    checked = 0
    while checked < 200:
        p = rng.choice((5, 7))
        kappa = rng.choice((3, 4))
        powers = tuple(tuple(rng.randrange(p) for _ in range(kappa)) for _ in range(3))
        proto = ProtoMatrix(gamma=3, kappa=kappa, p=p, powers=powers)
        import numpy as np

        support = np.ones((3, kappa), dtype=np.int8)
        cycles = enumerate_cycles(support, 6)
        cyc = cycles[rng.randrange(len(cycles))]
        active, beta = lift_count(cyc, proto)
        # build the lift restricted to the six circulants of the cycle; it is
        # 2-regular there, so components are counted by direct DFS
        sub = np.zeros((3 * p, kappa * p), dtype=np.int8)
        for (r, c) in set(cyc.entries):
            f = powers[r][c]
            for v in range(p):
                sub[r * p + (v + f) % p, c * p + v] = 1
        if active:
            assert beta == 1
            assert dfs_count_cycles(sub, 6) == p
        else:
            assert beta >= 2 and p % beta == 0
            assert dfs_count_cycles(sub, 6) == 0
            assert dfs_count_cycles(sub, 6 * beta) == p // beta
        checked += 1
    acceptance_line("7 circulant lifting law", True, f"{checked} proto-cycles verified")


def test_criterion_8_partition_choice_count(acceptance_line):
    from collections import Counter

    kappa = 4
    hist = Counter()
    for bits in range(1 << (3 * kappa)):
        assign = tuple(
            tuple((bits >> (i * kappa + j)) & 1 for j in range(kappa)) for i in range(3)
        )
        hist[measure_overlaps(PartitionMask(assign))] += 1
    assert sum(hist.values()) == 4096
    for vec in enumerate_valid_overlaps(kappa):
        assert count_partition_choices(vec, kappa) == hist[vec]
    acceptance_line(
        "8 partition choice count vs mask census", True, "all 2^12 masks binned"
    )


def test_criterion_9_candidate_set_counts(acceptance_line):
    top7, top8 = example_7_9_9_13(), example_8_0_0_16()
    inst7 = GastInstance(topology=top7, weights={(c, v): 1 for c, cn in enumerate(top7.shared_cns) for v in cn})
    inst8 = GastInstance(topology=top8, weights={(c, v): 1 for c, cn in enumerate(top8.shared_cns) for v in cn})
    bud7 = removal_budget(inst7)
    bud8 = removal_budget(inst8)
    closed = all(count_candidate_sets(bud7, q) == 16 * (q - 2) for q in (4, 8, 16)) and all(
        count_candidate_sets(bud8, q) == 192 * (q - 2) ** 2 for q in (4, 8)
    )
    n7 = sum(1 for _ in enumerate_candidate_sets(inst7, GF4))
    n8 = sum(1 for _ in enumerate_candidate_sets(inst8, GF4))
    ok = closed and n7 == 32 and n8 == 768
    acceptance_line(
        "9 candidate weight-change sets", ok, f"closed forms ok, enumerated {n7} and {n8}"
    )
    assert ok


@pytest.mark.slow
def test_criterion_10_removal_soundness(acceptance_line):
    instances = synthesize_instances(50, seed=123)
    sound = 0
    for inst in instances:
        out = remove_gast_weights(inst, GF4)
        if out.success:
            still, _ = is_gast(out.instance.topology, out.instance.weights, GF4)
            assert not still
            sound += 1
        else:
            bud = removal_budget(inst)
            for changes in enumerate_candidate_sets(inst, GF4):
                trial = with_weights(inst, {(c, v): w for c, v, w in changes})
                assert is_gast(trial.topology, trial.weights, GF4)[0]
            sound += 1
    ok = sound == len(instances)
    acceptance_line("10 removal soundness", ok, f"{sound}/{len(instances)} sound")
    assert ok


def test_criterion_11_out_of_scope_statement(acceptance_line):
    # Channel simulation (frame/bit error rates over a Flash channel model)
    # is not reproducible at desk scale: no channel parameters and no decoder
    # are part of this package.  The structural criteria 1-10 plus the census
    # comparison of criterion 12 stand in for those measurements.
    acceptance_line(
        "11 out-of-scope: channel error-rate curves",
        True,
        "substituted by structural criteria",
    )


@pytest.mark.slow
def test_criterion_12_structural_census_kappa19(acceptance_line):
    config = DesignConfig(
        kappa=19,
        p=19,
        L=20,
        cpo_budget=200_000,
        seed_cpo=1,
        gast_targets=((4, 2, 2, 5, 0),),
        gast_a_max=4,
    )
    report = run_pipeline(config)
    ok = report.ugast_3330 < 55366 and report.girth_at_least_6
    stretch = report.ugast_3330 <= 16340
    acceptance_line(
        "12 structural census at kappa=p=19 L=20",
        ok,
        f"census={report.ugast_3330} (< 55366 required; stretch 16340 "
        f"{'met' if stretch else 'not met'})",
    )
    assert ok
