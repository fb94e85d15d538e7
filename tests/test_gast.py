import functools
import hashlib
import itertools
import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from scldpc import cli
from scldpc.gf import FieldGF
from scldpc.gast import (
    CANON_MAX_A,
    GastInstance,
    RawTanner,
    UgastTopology,
    count_candidate_sets,
    enumerate_candidate_sets,
    gast_scan,
    is_gast,
    removal_budget,
    _canonical,
    _first_witnesses,
    _grow_family,
    _instances,
    _remove_hits,
    _scan_table,
    _test_family,
)
from scldpc.cycles import count_ugast_3330, girth_check
from scldpc.overlap import realize_mask, solve_optimal_overlap
from scldpc.pipeline import DesignConfig, run_pipeline
from scldpc.qc import (
    PartitionMask, ProtoMatrix, apply_edge_changes, build_ab_powers, code_from_json, code_to_json,
    couple, label_edges,
)

from oracles import (
    all_ugast_labels,
    build_lifted_dense,
    enumerate_cycles,
    exhaustive_witnesses,
    gast_witnesses,
    lifted_6cycle_vn_sets,
    naive_ugast_subsets,
    remove_gast,
    remove_gast_weights,
    remove_gasts,
    row_lists,
    serial_gast_scan,
    serial_remove_gast_weights,
    with_weights,
)

GF4 = FieldGF(2)
GF8 = FieldGF(3)


def uniform_weights(top: UgastTopology, value: int = 1) -> dict:
    return {(c, v): value for c, cn in enumerate(top.shared_cns) for v in cn}


def hexagon() -> UgastTopology:
    """6-cycle: three VNs, three degree-2 checks, one hanging check each."""
    return UgastTopology(gamma=3, a=3, shared_cns=((0, 1), (0, 2), (1, 2)))


def k4_minus_edge() -> UgastTopology:
    """Four VNs, five degree-2 checks: the (4, 2, 2, 5, 0) shape."""
    return UgastTopology(
        gamma=3, a=4, shared_cns=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    )


def prism() -> UgastTopology:
    """Two triangles plus a matching: the (6, 0, 0, 9, 0) shape."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return UgastTopology(gamma=3, a=6, shared_cns=tuple(tuple(e) for e in edges))


def example_7_9_9_13() -> UgastTopology:
    """gamma=5 shape with three doubly-loaded VNs sharing one check."""
    edges = [
        (0, 1), (0, 3), (0, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6),
        (3, 4), (3, 6), (4, 5), (4, 6), (5, 6),
    ]
    return UgastTopology(gamma=5, a=7, shared_cns=tuple(tuple(e) for e in edges))


def example_8_0_0_16() -> UgastTopology:
    """gamma=4 shape: 4-regular circulant graph on 8 VNs, 16 degree-2 checks."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, (i + 2) % 8) for i in range(8)]
    return UgastTopology(gamma=4, a=8, shared_cns=tuple(tuple(sorted(e)) for e in edges))


class TestTopology:
    def test_labels(self):
        assert hexagon().label == (3, 3, 3, 0)
        assert k4_minus_edge().label == (4, 2, 5, 0)
        assert prism().label == (6, 0, 9, 0)
        assert example_7_9_9_13().label == (7, 9, 13, 0)
        assert example_8_0_0_16().label == (8, 0, 16, 0)

    def test_ugast_conditions(self):
        assert hexagon().is_ugast()
        assert prism().is_ugast()
        # a path of two VNs sharing one check: majority condition fails
        path = UgastTopology(gamma=3, a=2, shared_cns=((0, 1),))
        assert not path.is_ugast()

    def test_invalid_checks_rejected(self):
        with pytest.raises(ValueError):
            UgastTopology(gamma=3, a=2, shared_cns=((0,),))
        with pytest.raises(ValueError):
            UgastTopology(gamma=3, a=2, shared_cns=((0, 0),))
        with pytest.raises(ValueError):
            # VN 0 would need 4 shared checks with gamma=3
            UgastTopology(gamma=3, a=5, shared_cns=((0, 1), (0, 2), (0, 3), (0, 4)))
        with pytest.raises(ValueError, match="check neighbor index out of range"):
            UgastTopology(gamma=3, a=2, shared_cns=((0, 2),))


class TestOracle:
    def test_hexagon_all_ones_is_gast(self):
        # witness: equal values satisfy all three degree-2 checks; each VN
        # then sees 2 satisfied vs its 1 hanging check
        top = hexagon()
        ok, witness = is_gast(top, uniform_weights(top), GF4)
        assert ok
        assert witness == (1, 1, 1)
        v0 = witness[0]
        assert all(v == v0 for v in witness)

    def test_exhaustive_scan_matches_manual_check(self):
        # brute-force the definition independently over all 27 assignments
        top = hexagon()
        weights = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 2): 1, (2, 1): 2, (2, 2): 3}
        manual = []
        for vals in itertools.product((1, 2, 3), repeat=3):
            sat = []
            for c, cn in enumerate(top.shared_cns):
                s = 0
                for v in cn:
                    s ^= GF4.mul(weights[(c, v)], vals[v])
                sat.append(s == 0)
            per_vn_ok = True
            for v in range(3):
                n_sat = sum(1 for c, cn in enumerate(top.shared_cns) if v in cn and sat[c])
                n_unsat = sum(1 for c, cn in enumerate(top.shared_cns) if v in cn and not sat[c]) + 1
                if not n_sat > n_unsat:
                    per_vn_ok = False
            if per_vn_ok:
                manual.append(vals)
        ok, witness = is_gast(top, weights, GF4)
        assert ok == bool(manual)
        if manual:
            assert witness == manual[0]

    def test_d2_not_above_d3_rejected_before_scan(self):
        # one degree-3 check, no degree-2 checks: d2 = 0 <= d3 = 1
        top = UgastTopology(gamma=1, a=3, shared_cns=((0, 1, 2),))
        ok, witness = is_gast(top, {(0, 0): 1, (0, 1): 1, (0, 2): 1}, GF4)
        assert not ok and witness is None

    def test_prism_with_solved_weights(self):
        # choose a target assignment, then solve each degree-2 check equation
        # for its second weight; the scan must confirm the construction
        top = prism()
        rng = random.Random(7)
        target = tuple(rng.randrange(1, 4) for _ in range(6))
        weights = {}
        for c, (u, v) in enumerate(top.shared_cns):
            wu = rng.randrange(1, 4)
            # wu*target[u] + wv*target[v] = 0  =>  wv = wu*target[u]/target[v]
            wv = GF4.mul(GF4.mul(wu, target[u]), GF4.inv(target[v]))
            weights[(c, u)] = wu
            weights[(c, v)] = wv
        ok, witness = is_gast(top, weights, GF4)
        assert ok
        vals, mask, b_tot = gast_witnesses(top, weights, GF4)
        found = {tuple(int(x) for x in row) for row in vals[mask]}
        assert target in found
        assert 0 in b_tot[mask]  # the solved assignment satisfies every check

    def test_vn_rescaling_invariance(self):
        # scaling all weights at one VN by a nonzero constant is absorbed by
        # rescaling that VN's value, so the verdict cannot change
        rng = random.Random(3)
        for _ in range(20):
            top = k4_minus_edge()
            weights = {
                (c, v): rng.randrange(1, 4)
                for c, cn in enumerate(top.shared_cns)
                for v in cn
            }
            before, _ = is_gast(top, weights, GF4)
            vn = rng.randrange(top.a)
            scale = rng.randrange(2, 4)
            scaled = {
                (c, v): GF4.mul(w, scale) if v == vn else w
                for (c, v), w in weights.items()
            }
            after, _ = is_gast(top, scaled, GF4)
            assert before == after

    def test_oracle_capacity_guard(self):
        # 7^11 assignments over GF(8), far above the 2^20 limit
        edges = [(i, (i + 1) % 11) for i in range(11)] + [
            (i, (i + 2) % 11) for i in range(11)
        ]
        top = UgastTopology(gamma=4, a=11, shared_cns=tuple(tuple(sorted(e)) for e in edges))
        with pytest.raises(ValueError):
            is_gast(top, uniform_weights(top), GF8)

    def test_assignment_limit_checked_before_allocation(self, monkeypatch):
        edges = [(i, (i + 1) % 10) for i in range(10)] + [
            (i, (i + 2) % 10) for i in range(10)
        ]
        top = UgastTopology(gamma=4, a=10, shared_cns=tuple(tuple(sorted(e)) for e in edges))
        # a = 10 at q = 4 is 3^10 = 59 049 assignments: within the limit
        assert is_gast(top, uniform_weights(top), GF4)[0]

        def refuse(a, q):
            raise AssertionError("assignment matrix built for a rejected request")

        monkeypatch.setattr("scldpc.gast._assignments", refuse)
        # a = 10 at q = 8 would be 7^10 = 282 M assignments
        with pytest.raises(ValueError, match="assignments"):
            is_gast(top, uniform_weights(top), GF8)


def five_with_triple_check() -> UgastTopology:
    """The (5, 4, 4, 1) shape: a degree-3 check that must be satisfied."""
    return UgastTopology(
        gamma=3, a=5, shared_cns=((0, 1, 2), (0, 3), (1, 4), (2, 3), (3, 4))
    )


def pair_and_loner() -> UgastTopology:
    """One shared check and a node with none: never absorbing."""
    return UgastTopology(gamma=3, a=3, shared_cns=((0, 1),))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [hexagon, k4_minus_edge, prism, five_with_triple_check, example_7_9_9_13, pair_and_loner]
    ),
    st.sampled_from([1, 2, 3, 4]),
    st.randoms(use_true_random=False),
)
def test_oracle_matches_reference(shape, lam, rng):
    # assignment table, valid mask and b totals, element by element
    top, field = shape(), FieldGF(lam)
    if (field.q - 1) ** top.a > 2**14:
        field = GF4
    weights = {(c, v): rng.randrange(1, field.q) for c, cn in enumerate(top.shared_cns) for v in cn}
    got = gast_witnesses(top, weights, field)
    want = exhaustive_witnesses(top, weights, field)
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()


@st.composite
def _prefix_cases(draw):
    """A random topology (gamma 3 or 4, shared checks of degree 2 or 3, no
    node past gamma), weights over q in {4, 8, 16}, and the node order the
    oracle reads it in.  a stays small enough for the reference's table.
    Half the weightings are solved so that a random assignment satisfies
    every check whose last weight comes out nonzero, so witnesses are
    common and their x_1 is spread over the whole field."""
    q = draw(st.sampled_from([4, 8, 16]))
    field = FieldGF(q.bit_length() - 1)
    a = draw(st.integers(2, {4: 7, 8: 4, 16: 3}[q]))
    gamma = draw(st.sampled_from([3, 4]))
    deg, checks = [0] * a, []
    node_sets = st.lists(st.integers(0, a - 1), min_size=2, max_size=3, unique=True)
    for members in draw(st.lists(node_sets, min_size=a, max_size=2 * a)):
        if all(deg[v] < gamma for v in members):
            checks.append(tuple(sorted(members)))
            for v in members:
                deg[v] += 1
    top = UgastTopology(gamma=gamma, a=a, shared_cns=tuple(checks))
    x = [draw(st.integers(1, q - 1)) for _ in range(a)]
    solved = draw(st.booleans())
    weights = {}
    for c, cn in enumerate(checks):
        total = 0
        for v in cn[:-1]:
            weights[(c, v)] = draw(st.integers(1, q - 1))
            total ^= field.mul(weights[(c, v)], x[v])
        last = field.mul(total, field.inv(x[cn[-1]]))
        weights[(c, cn[-1])] = last if solved and last else draw(st.integers(1, q - 1))
    return top, weights, field, draw(st.permutations(range(a)))


@settings(max_examples=150, deadline=None)
@given(_prefix_cases())
# a node with no shared check (no witness at any b), and the scan target's
# shape over GF(16)
@example((pair_and_loner(), {(0, 0): 1, (0, 1): 2}, GF8, [2, 0, 1]))
@example((k4_minus_edge(), uniform_weights(k4_minus_edge(), 3), FieldGF(4), [3, 1, 0, 2]))
def test_prefix_oracle_matches_reference(case):
    # the pass over the assignments with x_0 = 1 finds, for every b, the
    # first valid assignment of the full exhaustive scan, in the node order
    # perm gives (node i reads column perm[i] of the table)
    top, weights, field, perm = case
    moved = UgastTopology(
        gamma=top.gamma, a=top.a,
        shared_cns=tuple(tuple(perm[v] for v in cn) for cn in top.shared_cns),
    )
    vals, ok, b_tot = exhaustive_witnesses(
        moved, {(c, perm[v]): w for (c, v), w in weights.items()}, field
    )
    edge_weights = np.array(
        [[weights[(c, v)] for c, cn in enumerate(top.shared_cns) for v in cn]], dtype=np.uint8
    )

    def prefix_pass(bs):
        won, first = _first_witnesses(
            top.gamma, top.shared_cns, edge_weights, np.array([perm]), field, bs
        )
        return int(won[0]), int(first[0])

    bs = list(range(top.gamma * top.a + 1))
    for b in bs:
        want = np.flatnonzero(ok & (b_tot == b))
        won, first = prefix_pass([b])
        assert (won, first) == ((0, int(want[0])) if want.size else (-1, 0))
    # several b at once: the first listed b that has a witness wins
    want = np.flatnonzero(ok)
    smallest = [b for b in bs if (ok & (b_tot == b)).any()]
    assert prefix_pass(bs)[0] == (bs.index(smallest[0]) if smallest else -1)
    assert prefix_pass(None) == ((0, int(want[0])) if want.size else (-1, 0))


class TestBudget:
    def test_example_gamma5(self):
        inst = GastInstance(topology=example_7_9_9_13(), weights=uniform_weights(example_7_9_9_13()))
        bud = removal_budget(inst)
        assert (bud.gamma, bud.g, bud.d1_vm, bud.a_vm, bud.n_co) == (5, 2, 2, 3, 1)
        assert bud.e_mu == 1

    def test_example_gamma4(self):
        inst = GastInstance(topology=example_8_0_0_16(), weights=uniform_weights(example_8_0_0_16()))
        bud = removal_budget(inst)
        assert (bud.gamma, bud.g, bud.d1_vm, bud.a_vm) == (4, 1, 0, 8)
        assert bud.e_mu == 2

    def test_loaded_node_at_bound_means_single_change(self):
        # hexagon: g = 1, every VN has one hanging check, so e_mu = 1
        inst = GastInstance(topology=hexagon(), weights=uniform_weights(hexagon()))
        bud = removal_budget(inst)
        assert bud.d1_vm == bud.g == 1
        assert bud.e_mu == 1

    def test_b_not_equal_d1_refused(self):
        inst = GastInstance(topology=hexagon(), weights=uniform_weights(hexagon()), b=4)
        with pytest.raises(ValueError, match="generic"):
            removal_budget(inst)


class TestCandidateSets:
    def test_counts_match_closed_forms(self):
        inst7 = GastInstance(
            topology=example_7_9_9_13(), weights=uniform_weights(example_7_9_9_13())
        )
        bud7 = removal_budget(inst7)
        for q in (4, 8, 16):
            assert count_candidate_sets(bud7, q) == 16 * (q - 2)
        inst8 = GastInstance(
            topology=example_8_0_0_16(), weights=uniform_weights(example_8_0_0_16())
        )
        bud8 = removal_budget(inst8)
        for q in (4, 8):
            assert count_candidate_sets(bud8, q) == 192 * (q - 2) ** 2

    def test_q2_has_no_candidates(self):
        inst = GastInstance(topology=hexagon(), weights=uniform_weights(hexagon()))
        bud = removal_budget(inst)
        assert count_candidate_sets(bud, 2) == 0

    def test_enumeration_length_matches_count(self):
        for top in (example_7_9_9_13(), example_8_0_0_16()):
            inst = GastInstance(topology=top, weights=uniform_weights(top))
            bud = removal_budget(inst)
            sets = list(enumerate_candidate_sets(inst, bud, GF4))
            assert len(sets) == count_candidate_sets(bud, 4)
            assert len(set(sets)) == len(sets)

    def test_enumerated_sets_touch_only_degree2_checks(self):
        top = example_7_9_9_13()
        inst = GastInstance(topology=top, weights=uniform_weights(top))
        bud = removal_budget(inst)
        for changes in enumerate_candidate_sets(inst, bud, GF4):
            cns = [c for c, _, _ in changes]
            assert len(set(cns)) == len(cns)  # no shared check inside a set
            for c, v, w in changes:
                assert len(top.shared_cns[c]) == 2
                assert w != 0 and w != inst.weights[(c, v)]


class TestRemoval:
    def test_already_clean_succeeds_with_empty_set(self):
        top = hexagon()
        weights = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2}
        ok, _ = is_gast(top, weights, GF4)
        assert not ok
        out = remove_gast_weights(GastInstance(topology=top, weights=weights), GF4)
        assert out.success and out.changes == ()

    def test_k4_minus_edge_end_to_end(self):
        top = k4_minus_edge()
        inst = GastInstance(topology=top, weights=uniform_weights(top))
        assert is_gast(top, inst.weights, GF4)[0]
        out = remove_gast_weights(inst, GF4)
        assert out.success
        assert not is_gast(out.instance.topology, out.instance.weights, GF4)[0]

    def test_q2_always_exhausts(self):
        gf2 = FieldGF(1)
        top = hexagon()
        inst = GastInstance(topology=top, weights=uniform_weights(top))
        assert is_gast(top, inst.weights, gf2)[0]
        out = remove_gast_weights(inst, gf2)
        assert not out.success and out.changes is None and out.tried == 0

    def test_exhaustion_reports_all_candidates_failing(self):
        # over GF(4), a hexagon with b = d1 has 12 single-change candidates;
        # verify the claim of failure for each when removal exhausts
        top = hexagon()
        inst = GastInstance(topology=top, weights=uniform_weights(top))
        out = remove_gast_weights(inst, GF4)
        if out.success:
            assert not is_gast(top, out.instance.weights, GF4)[0]
        else:
            bud = removal_budget(inst)
            for changes in enumerate_candidate_sets(inst, bud, GF4):
                trial = with_weights(inst, {(c, v): w for c, v, w in changes})
                assert is_gast(trial.topology, trial.weights, GF4)[0]

    @pytest.mark.parametrize("kept, edge", [(0, (0, 0)), (4, (2, 0))], ids=["empty", "partial"])
    def test_missing_weight_refused(self, kept, edge):
        # named as the (check, node) edge it belongs to, not a bare KeyError
        top = k4_minus_edge()
        weights = dict(list(uniform_weights(top).items())[:kept])
        message = re.escape(f"no weight given for the (check, node) edge {edge}")
        with pytest.raises(ValueError, match=message):
            is_gast(top, weights, GF4)
        with pytest.raises(ValueError, match=message):
            remove_gasts([GastInstance(top, weights)], GF4)

    def test_weight_outside_field_refused(self):
        # one message wherever weights are read; a dict entry off the
        # topology's edges is not read, so it is not refused
        top = k4_minus_edge()
        weights = uniform_weights(top)
        assert is_gast(top, {**weights, (9, 9): 0}, GF4) == is_gast(top, weights, GF4)
        message = re.escape("edge weight 4 outside 1..3, the nonzero elements of GF(4)")
        bad = {**weights, (1, 0): 4}
        with pytest.raises(ValueError, match=message):
            is_gast(top, bad, GF4)
        with pytest.raises(ValueError, match=message):
            remove_gasts([GastInstance(top, weights), GastInstance(top, bad)], GF4)


def test_remove_refuses_instance_without_lifted_ids():
    top = hexagon()
    inst = GastInstance(topology=top, weights=uniform_weights(top))
    with pytest.raises(ValueError, match="not tied to lifted code coordinates"):
        remove_gast(inst, GF4)
    (outcome,) = remove_gasts([inst], GF4)
    with pytest.raises(ValueError, match="not tied to lifted code coordinates"):
        outcome.lifted_changes()


def synthesize_instances(n: int, seed: int) -> list[GastInstance]:
    """Random weighted instances (with witnesses) across the shape corpus."""
    shapes = [hexagon, k4_minus_edge, prism, example_8_0_0_16, example_7_9_9_13]
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        mk = shapes[rng.randrange(len(shapes))]
        top = mk()
        weights = {
            (c, v): rng.randrange(1, 4)
            for c, cn in enumerate(top.shared_cns)
            for v in cn
        }
        if is_gast(top, weights, GF4)[0]:
            out.append(GastInstance(topology=top, weights=weights))
    return out


def generic_instances(n_each: int, seed: int) -> list[GastInstance]:
    """Random GASTs labelled b = d1 + 1, so removal takes the generic stream."""
    rng = random.Random(seed)
    out = []
    for mk in (hexagon, k4_minus_edge, five_with_triple_check, prism):
        top, found = mk(), 0
        while found < n_each:
            weights = {(c, v): rng.randrange(1, 4) for c, cn in enumerate(top.shared_cns) for v in cn}
            if is_gast(top, weights, GF4)[0]:
                out.append(GastInstance(topology=top, weights=weights, b=top.d1 + 1))
                found += 1
    return out


def assert_removals_match_serial(instances, field) -> list:
    """The batched removal's outcomes equal the serial loop's, one by one."""
    got = remove_gasts(instances, field)
    want = [serial_remove_gast_weights(inst, field) for inst in instances]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.success, g.changes, g.tried) == (w.success, w.changes, w.tried)
        assert g.instance.weights == w.instance.weights
    return want


@pytest.mark.parametrize("max_changes", [2, 1])
def test_batched_removal_matches_serial_loop(monkeypatch, max_changes):
    # closed-form and generic streams, with and without witnesses, over
    # rounds of up to 32 candidates; with one change per set some prisms
    # use up the generic stream
    monkeypatch.setattr("scldpc.gast.MAX_CHANGES", max_changes)
    closed = synthesize_instances(30, seed=11)
    generic = generic_instances(6, seed=5)
    witnessed = [
        replace(inst, witness=is_gast(inst.topology, inst.weights, GF4)[1])
        for inst in closed[:10] + generic[::2]
    ]
    want = assert_removals_match_serial(closed + generic + witnessed, GF4)
    assert max(w.tried for w in want) > 16
    assert any(w.success for w in want)
    if max_changes == 1:
        assert any(not w.success and w.tried == 36 for w in want)
    # over GF(2) no other weight exists, so every stream is empty
    top = hexagon()
    plain = GastInstance(topology=top, weights=uniform_weights(top))
    want = assert_removals_match_serial([plain, replace(plain, witness=(1, 1, 1))], FieldGF(1))
    assert [(w.success, w.tried) for w in want] == [(False, 0), (False, 0)]


def test_batched_removal_matches_serial_loop_on_code():
    # the CLI smoke case: every hexagon of the kappa = 7, L = 30 code
    proto = build_ab_powers(3, 7)
    mask = realize_mask(solve_optimal_overlap(7, 30).optima[0], 7, 1)
    code = label_edges(couple(proto, mask, 30), GF4, 1)
    found = gast_scan(code, GF4, [(3, 3, 3, 3, 0)])
    assert len(found) == 678
    assert_removals_match_serial(found, GF4)


@pytest.mark.slow
def test_removal_soundness_on_synthesized_corpus():
    instances = synthesize_instances(50, seed=123)
    for inst in instances:
        out = remove_gast_weights(inst, GF4)
        if out.success:
            assert not is_gast(out.instance.topology, out.instance.weights, GF4)[0]
        else:
            # every candidate must provably fail
            bud = removal_budget(inst)
            for changes in enumerate_candidate_sets(inst, bud, GF4):
                trial = with_weights(inst, {(c, v): w for c, v, w in changes})
                assert is_gast(trial.topology, trial.weights, GF4)[0]


def _small_code():
    proto = build_ab_powers(3, 5)
    sol = solve_optimal_overlap(5, 3)
    mask = realize_mask(sol.optima[0], 5, seed=0)
    code = couple(proto, mask, 3)
    return label_edges(code, GF4, seed=2)


@pytest.fixture(scope="module")
def small_code():
    return _small_code()


@st.composite
def _sc_codes(draw):
    """A coupled gamma = 3 code with random powers and mask, girth 4 allowed:
    kappa 2..6, p 1..7 (p != kappa and composite p included), L 2..4."""
    kappa, p = draw(st.integers(2, 6)), draw(st.integers(1, 7))

    def grid(top):
        row = st.lists(st.integers(0, top), min_size=kappa, max_size=kappa)
        return st.lists(row, min_size=3, max_size=3)

    proto = ProtoMatrix(gamma=3, kappa=kappa, p=p, powers=draw(grid(p - 1)))
    return couple(proto, PartitionMask(draw(grid(1))), draw(st.integers(2, 4)))


class TestScan:
    # about one draw in twenty has girth >= 6
    @settings(max_examples=300, deadline=None)
    @given(_sc_codes())
    @example(_small_code())
    def test_6cycle_seed_count_matches_census(self, code):
        if girth_check(code) == 4:
            # the census refuses it: 6-cycles are not the (3,3,3,0) sets there
            with pytest.raises(ValueError, match="girth 4"):
                count_ugast_3330(code)
        else:
            assert len(lifted_6cycle_vn_sets(code)) == count_ugast_3330(code)

    @settings(max_examples=60, deadline=None)
    @given(_sc_codes())
    @example(_small_code())
    def test_6cycle_seeds_match_direct_enumeration(self, code):
        # independent path: enumerate 6-cycles on the dense lifted matrix and
        # collect their variable-node (column) triples
        H = build_lifted_dense(3, code.kappa, code.p, code.proto.powers, code.mask.assign, code.L)
        expected = set()
        for cyc in enumerate_cycles(H, 6):
            cols = tuple(sorted({c for _, c in cyc.entries}))
            expected.add(cols)
        assert set(lifted_6cycle_vn_sets(code)) == expected

    def test_row_column_adjacency_inversion(self, small_code):
        adj = [set() for _ in range(small_code.n_rows)]
        for c in range(small_code.n_cols):
            for r in small_code.column_rows(c):
                adj[r].add(c)
        assert row_lists(small_code.edges) == [sorted(cols) for cols in adj]

    def test_ugast_target_count_equals_census(self, small_code):
        # growth keys on (a, d1, d2, d3), so its family holds every (3,3,3,0)
        # set, whatever the weights
        family = _grow_family(small_code, [(3, 3, 3, 3, 0)])
        assert sum(len(g.vn) for g in family) == count_ugast_3330(small_code)

    def test_empty_targets(self, small_code):
        assert gast_scan(small_code, GF4, []) == []

    def test_bad_target_shape_rejected(self, small_code):
        with pytest.raises(ValueError):
            gast_scan(small_code, GF4, [(1, 2, 3)])
        # a topology-only target: weights cannot remove a topology
        with pytest.raises(ValueError) as err:
            gast_scan(small_code, GF4, [(3, 3, 3, 3, 0), (4, 2, 5, 0)])
        assert str(err.value) == "targets must be 5-tuples (a, b, d1, d2, d3), got (4, 2, 5, 0)"
        with pytest.raises(ValueError) as err:
            gast_scan(small_code, None, [(3, 3, 3, 3, 0)])
        assert str(err.value) == "a non-empty target list needs a field"
        assert gast_scan(small_code, None, []) == []

    @pytest.mark.parametrize("rows", [[0, 1], [0, 1, 1], [0, 1, 2, 3]], ids=["short", "repeat", "four"])
    def test_raw_column_degree_refused(self, rows):
        with pytest.raises(ValueError, match="column 1 must touch exactly gamma distinct rows"):
            RawTanner([[0, 1, 2], rows], 3)

    def test_planted_prism_found_exactly_once(self):
        found = gast_scan(_planted_prism(), GF4, [(6, 0, 0, 9, 0)])
        assert len(found) == 1
        assert found[0].topology.vn_ids == (0, 1, 2, 3, 4, 5)

    def test_code_and_raw_graph_scans_agree(self, small_code):
        # the lifted-code path (closed-form seeds, girth from the census)
        # must match the hand-built-graph path on the same Tanner graph
        targets = [(3, 3, 3, 3, 0), (4, 2, 2, 5, 0)]
        raw = RawTanner(
            [small_code.column_rows(c) for c in range(small_code.n_cols)],
            3,
            labels=small_code.labels,
        )
        from_code = gast_scan(small_code, GF4, targets)
        assert from_code
        assert from_code == gast_scan(raw, GF4, targets)

    def test_unfielded_scan_reads_the_code_labels(self, small_code):
        # growth needs no field, yet each translate's edges index the code's
        # label bytes, one per edge of its shared checks, check by check
        family = _grow_family(small_code, [(3, 3, 3, 3, 0)])
        assert sum(len(g.vn) for g in family) == count_ugast_3330(small_code)
        edges, labels = small_code.edges, np.frombuffer(small_code.labels, dtype=np.uint8)
        for g in family:
            ends = [(c, i) for c, members in enumerate(g.checks) for i in members]
            for vn, perm, cn, own in zip(g.vn.tolist(), g.perm.tolist(), g.cn.tolist(), g.edges.tolist()):
                assert own == [edges.index(cn[c], vn[perm[i]]) for c, i in ends]
        assert set(np.concatenate([labels[g.edges].ravel() for g in family]).tolist()) == {1, 2, 3}

    @pytest.mark.parametrize(
        "target, match",
        [
            ((4, 2, 2, 5, 0.5), "non-negative integers"),
            ((4, 2, 2, 5, -1), "non-negative integers"),
            ((4, 2, 2, 5, True), "non-negative integers"),
            ((4, 2, 2, "5", 0), "non-negative integers"),
            ((2, 2, 2, 0), "must be 5-tuples"),
            ((2, 2, 2, 2, 0), "size a must be >= 3"),
            ((0, 0, 0, 0, 0), "size a must be >= 3"),
        ],
        ids=["float", "negative", "bool", "str", "a2-ugast", "a2-gast", "a0"],
    )
    def test_target_entries_must_be_non_negative_ints(self, small_code, target, match):
        with pytest.raises(ValueError, match=match):
            gast_scan(small_code, GF4, [(3, 3, 3, 3, 0), target])

    def test_gast_targets_carry_witness_and_b(self, small_code):
        found = gast_scan(small_code, GF4, [(3, 3, 3, 3, 0)])
        for inst in found:
            assert inst.b == 3
            assert inst.witness is not None
            ok, _ = is_gast(inst.topology, inst.weights, GF4)
            assert ok

    def test_scan_then_remove_on_code(self, small_code):
        found = gast_scan(small_code, GF4, [(3, 3, 3, 3, 0)])
        if not found:
            pytest.skip("no labeled hexagon present under this seed")
        inst = found[0]
        outcome, lifted = remove_gast(inst, GF4)
        if outcome.success and outcome.changes:
            code = apply_edge_changes(small_code, lifted)
            refreshed = gast_scan(code, GF4, [(3, 3, 3, 3, 0)])
            assert all(
                r.topology.vn_ids != inst.topology.vn_ids for r in refreshed
            )


@st.composite
def _raw_graphs(draw):
    n_rows = draw(st.integers(5, 9))
    n_cols = draw(st.integers(6, 11))
    col_rows = st.lists(st.integers(0, n_rows - 1), min_size=3, max_size=3, unique=True)
    return draw(st.lists(col_rows, min_size=n_cols, max_size=n_cols))


def _family_vn_sets(code, labels) -> list[tuple[int, ...]]:
    """The columns of every translate that growth emits for the unlabeled
    ``labels``, each as a target with b = d1: growth keys on (a, d1, d2,
    d3), so these are the topology matches, whatever the weights."""
    family = _grow_family(code, [(a, d1, d1, d2, d3) for a, d1, d2, d3 in labels])
    return [tuple(vn) for g in family for vn in g.vn.tolist()]


@settings(max_examples=60, deadline=None)
@given(_raw_graphs(), st.integers(3, 5))
def test_scan_matches_brute_force(col_adj, a_max):
    # 4-cycles allowed: dense random graphs exercise convert_bound = gamma
    labels = all_ugast_labels(3, a_max)
    got = _family_vn_sets(RawTanner(col_adj, 3), labels)
    assert len(got) == len(set(got))
    assert set(got) == naive_ugast_subsets(col_adj, 3, labels, a_max)


@st.composite
def _gamma4_graphs(draw):
    """Column weight 4: dense random graphs, or girth-6 ones taken as column
    subsets of the array-based code with p = 5 (rows (i, v + i*j mod 5))."""
    if draw(st.booleans()):
        n_rows = draw(st.integers(6, 10))
        col_rows = st.lists(st.integers(0, n_rows - 1), min_size=4, max_size=4, unique=True)
        return draw(st.lists(col_rows, min_size=6, max_size=10))
    cols = draw(st.lists(st.integers(0, 24), min_size=6, max_size=11, unique=True))
    return [[i * 5 + (c % 5 + i * (c // 5)) % 5 for i in range(4)] for c in cols]


# the whole array code with p = 5: girth 6, so an added node converts at
# most one hanging check, and a 4-node subset grown from a 6-cycle by a node
# on one of its rows holds that node with one shared check; with one
# addition left at a_max = 5 it cannot reach 3 and is not grown
ARRAY_CODE_P5 = [[i * 5 + (c % 5 + i * (c // 5)) % 5 for i in range(4)] for c in range(25)]


@settings(max_examples=60, deadline=None)
@given(_gamma4_graphs(), st.integers(3, 5))
@example(ARRAY_CODE_P5, 5)
def test_scan_matches_brute_force_gamma4(col_adj, a_max):
    # at gamma = 4 a member needs 3 shared checks, so a subset one node short
    # of a_max whose weakest member shares one check is pruned unless an added
    # node may convert two of its checks, which only a 4-cycle allows
    labels = all_ugast_labels(4, a_max)
    got = _family_vn_sets(RawTanner(col_adj, 4), labels)
    assert len(got) == len(set(got))
    assert set(got) == naive_ugast_subsets(col_adj, 4, labels, a_max)


# every unlabeled label present in small_code up to a = 5, each with all its
# b in [d1, d1 + d2], largest first
MIXED_TARGETS = [
    (a, b, d1, d2, d3)
    for a, d1, d2, d3 in [(3, 3, 3, 0), (4, 2, 5, 0), (5, 3, 6, 0), (5, 4, 4, 1), (5, 2, 5, 1)]
    for b in range(d1 + d2, d1 - 1, -1)
]


def _short_period_case():
    """A p = 6 girth-4 code whose (6, 4, 4, 2) subsets are fixed by a shift.
    Each circulant has one weight, so the shift keeps the weights too, and
    every translate of a GAST is one."""
    proto = ProtoMatrix(gamma=3, kappa=3, p=6, powers=((5, 0, 1), (0, 4, 1), (3, 3, 1)))
    mask = PartitionMask(((0, 0, 1), (1, 1, 1), (0, 0, 0)))
    code = couple(proto, mask, 2)
    rng, weight = random.Random(0), {}
    blocks = zip((code.edges.rows // 6).ravel().tolist(), (np.arange(code.edges.rows.size) // 18).tolist())
    labels = bytes(weight.setdefault(block, rng.randrange(1, 4)) for block in blocks)
    return replace(code, labels=labels, field_lam=2), GF4, [(6, b, 4, 4, 2) for b in range(4, 9)], 6


SHORT_PERIOD_CASE = _short_period_case()


def _bridged_triangles() -> RawTanner:
    """Two 6-cycles joined by one check, all weights 1: scaling one triangle
    against the other satisfies the bridge (b = 4) or not (b = 5)."""
    checks = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)]
    col_adj = [[r for r, cn in enumerate(checks) if v in cn] for v in range(6)]
    for v, hanging in ((1, 7), (2, 8), (4, 9), (5, 10)):
        col_adj[v].append(hanging)
    return RawTanner(col_adj, 3, labels=bytes([1] * 18))


def _planted_prism() -> RawTanner:
    """6 VNs wired as a prism, plus filler VNs on fresh checks, all weights
    1: the last node of the prism closes three hanging checks at once."""
    prism_edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    col_adj = [[] for _ in range(10)]
    for c, (u, v) in enumerate(prism_edges):
        col_adj[u].append(c)
        col_adj[v].append(c)
    nxt = len(prism_edges)
    for filler in range(6, 10):
        for _ in range(3):
            col_adj[filler].append(nxt)
            nxt += 1
    return RawTanner(col_adj, 3, labels=bytes([1] * 30))


TWO_B_CASE = (_bridged_triangles(), GF4, [(6, 5, 4, 7, 0), (6, 4, 4, 7, 0)], 6)
# a node lowering d1 by gamma, the most the d1 bound allows
PRISM_CASE = (_planted_prism(), GF4, [(6, 0, 0, 9, 0)], 6)
MIXED_CASE = (_small_code(), GF4, MIXED_TARGETS, 5)


class TestOrbitOracle:
    def test_over_limit_orbit_refused(self, small_code):
        # 63^4 assignments per translate of a (4, 2, 5, 0) orbit over GF(64)
        gf64 = FieldGF(6)
        code = label_edges(small_code, gf64, seed=2)
        with pytest.raises(ValueError) as err:
            gast_scan(code, gf64, [(4, 2, 2, 5, 0)])
        assert str(err.value) == (
            "oracle would scan (q-1)^a = 63^4 = 15752961 assignments, limit is 1048576"
        )

    def test_batch_cap_does_not_change_results(self, small_code, monkeypatch):
        full = gast_scan(small_code, GF4, MIXED_TARGETS)
        assert full == serial_gast_scan(small_code, GF4, MIXED_TARGETS, a_max=5)
        assert sum(inst.b is not None for inst in full) > 0
        monkeypatch.setattr("scldpc.gast.ORACLE_BATCH_ROWS", 1)
        assert gast_scan(small_code, GF4, MIXED_TARGETS) == full

    def test_short_period_orbit_reported_once(self):
        # each of these (6, 4, 4, 2) subsets is two translates of a 6-cycle,
        # fixed by the shift by 3, so its orbit has 3 members, not 6
        code, _, targets, _ = SHORT_PERIOD_CASE
        found = gast_scan(code, GF4, targets)
        assert found == serial_gast_scan(code, GF4, targets, a_max=6)
        vn_sets = [inst.topology.vn_ids for inst in found]
        assert len(vn_sets) == len(set(vn_sets)) == 6
        for vns in vn_sets:
            assert {c - c % 6 + (c + 3) % 6 for c in vns} == set(vns)

    def test_first_listed_b_wins(self):
        graph, _, targets, _ = TWO_B_CASE
        for order in (targets, targets[::-1]):
            (inst,) = gast_scan(graph, GF4, order)
            assert inst.b == order[0][1]
            assert inst.topology.vn_ids == tuple(range(6))

    def test_field_mismatch_refused(self, small_code):
        with pytest.raises(ValueError, match=r"labelled over GF\(4\), the scan field is GF\(8\)"):
            gast_scan(small_code, GF8, [(3, 3, 3, 3, 0)])

    def test_raw_labels_outside_field_refused(self, small_code):
        raw = RawTanner(small_code.edges.rows.tolist(), 3, labels=small_code.labels)
        with pytest.raises(ValueError, match=r"^edge weight 2 outside 1\.\.1, the nonzero elements of GF\(2\)$"):
            gast_scan(raw, FieldGF(1), [(3, 3, 3, 3, 0)])


@st.composite
def _orbit_scan_cases(draw):
    """A coupled gamma = 3 code with random powers and mask (girth 4
    allowed) labelled over GF(4) or GF(8), and targets that list several b
    of one unlabeled label in random order.  p is prime or composite and may
    be at most a_max."""
    p = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 9]))
    kappa = draw(st.integers(2, p))

    def grid(top):
        row = st.lists(st.integers(0, top), min_size=kappa, max_size=kappa)
        return st.lists(row, min_size=3, max_size=3)

    proto = ProtoMatrix(gamma=3, kappa=kappa, p=p, powers=draw(grid(p - 1)))
    code = couple(proto, PartitionMask(draw(grid(1))), draw(st.sampled_from([2, 3])))
    field = FieldGF(draw(st.sampled_from([2, 3])))
    code = label_edges(code, field, seed=draw(st.integers(0, 9)))
    # a subset fixed by a shorter shift holds two translates of a 6-cycle, so
    # it needs a >= 6; depth grows only on smaller codes and fields, which
    # bounds the serial reference's time
    deepest = 6 if kappa * p <= 12 and field.q == 4 else 5 if kappa * p <= 30 else 4
    a_max = draw(st.integers(3, deepest))
    rng = random.Random(draw(st.integers(0, 2**16)))
    targets = []
    for a, d1, d2, d3 in all_ugast_labels(3, a_max):
        options = [(a, b, d1, d2, d3) for b in range(d1, d1 + d2 + 1)]
        rng.shuffle(options)
        targets += options[: rng.randrange(len(options) + 1)]
    rng.shuffle(targets)
    return code, field, targets, a_max


@settings(max_examples=60, deadline=None)
@given(_orbit_scan_cases())
# random draws rarely reach a subset fixed by a shorter shift, one with
# witnesses for two b or a node that lowers d1 by gamma, and reach
# translates whose witness depends on their own node order only sometimes
@example(SHORT_PERIOD_CASE)
@example(TWO_B_CASE)
@example(MIXED_CASE)
@example(PRISM_CASE)
def test_orbit_scan_matches_serial_scan(case):
    # subsets, checks, weights, b and witnesses, in order, on both paths
    code, field, targets, a_max = case
    want = serial_gast_scan(code, field, targets, a_max=a_max)
    assert gast_scan(code, field, targets) == want
    raw = RawTanner(code.edges.rows.tolist(), 3, labels=code.labels)
    assert gast_scan(raw, field, targets) == want


@settings(max_examples=40, deadline=None)
@given(_orbit_scan_cases())
@example(SHORT_PERIOD_CASE)
@example(MIXED_CASE)
def test_family_rescan_matches_fresh_scan(case):
    # the grown family does not depend on the weights: tested against the
    # labels of the code the removal wrote, it finds what a new scan finds
    code, field, targets, _ = case
    assume(targets)
    family = _grow_family(code, targets)
    # growth's d2 > d3 and majority filter: removal reads every group as one
    assert all(UgastTopology(g.gamma, g.perm.shape[1], g.checks).is_ugast() for g in family)

    def test(labelled):
        return _instances(family, _test_family(family, labelled, field), labelled, field)

    found = test(code)
    assert found == gast_scan(code, field, targets)
    outcomes = remove_gasts(found, field)
    changed = apply_edge_changes(code, [c for out in outcomes for c in out.lifted_changes()])
    assert test(changed) == gast_scan(changed, field, targets)


@settings(max_examples=40, deadline=None)
@given(_orbit_scan_cases())
@example(SHORT_PERIOD_CASE)
@example(TWO_B_CASE)
@example(MIXED_CASE)
@example(PRISM_CASE)
def test_table_removal_matches_serial_removal(case):
    # the pipeline's stage on the hit table finds and removes what gast_scan
    # and the one-candidate-at-a-time reference do, with the same lifted
    # changes in the same order
    code, field, targets, _ = case
    found = gast_scan(code, field, targets)
    want = [serial_remove_gast_weights(inst, field) for inst in found]
    family, hits = _scan_table(code, field, targets)
    removed, changes = _remove_hits(code, family, hits, field)
    assert len(hits.group) == len(found)
    assert removed.tolist() == [w.success for w in want]
    assert changes.tolist() == [[h, *c] for h, w in enumerate(want) for c in w.lifted_changes()]


def _relabelled(inst: GastInstance, rng: random.Random) -> GastInstance:
    """The instance with its nodes renumbered, its checks reordered and each
    check's nodes listed in a random order: the same shape, literally new."""
    top = inst.topology
    new = list(range(top.a))
    rng.shuffle(new)
    order = list(range(len(top.shared_cns)))
    rng.shuffle(order)
    shared = []
    for c in order:
        members = [new[v] for v in top.shared_cns[c]]
        rng.shuffle(members)
        shared.append(tuple(members))
    weights = {(i, new[v]): inst.weights[(c, v)] for i, c in enumerate(order) for v in top.shared_cns[c]}
    witness = None if inst.witness is None else tuple(inst.witness[new.index(v)] for v in range(top.a))
    return GastInstance(UgastTopology(top.gamma, top.a, tuple(shared)), weights, inst.b, witness)


@settings(max_examples=40, deadline=None)
@given(_prefix_cases(), st.randoms(use_true_random=False))
def test_canonical_form_ignores_node_and_check_order(case, rng):
    # every relabelling of a structure of at most CANON_MAX_A nodes has one
    # canonical form, and the maps it returns carry a structure onto it
    top, weights, _, _ = case
    moved = _relabelled(GastInstance(top, weights), rng).topology
    checks, node, check, edge = _canonical(top.a, top.shared_cns)
    if top.a <= CANON_MAX_A:
        assert _canonical(moved.a, moved.shared_cns)[0] == checks
    ends = [(c, v) for c, cn in enumerate(top.shared_cns) for v in cn]
    canon = [(c, i) for c, cn in enumerate(checks) for i in cn]
    assert sorted(node.tolist()) == list(range(top.a))
    for (c, i), e in zip(canon, edge.tolist()):
        assert ends[e] == (check[c], node[i])


def test_relabelled_instances_share_oracle_passes(monkeypatch):
    # one shape in many literal orders: removal merges them into one table
    # per shape, so a round makes one oracle pass per shape, and the
    # outcomes stay those of the serial loop on each literal instance
    import scldpc.gast as gast_module

    rng = random.Random(3)
    corpus = synthesize_instances(20, seed=11) + generic_instances(3, seed=5)
    instances = [_relabelled(inst, rng) for inst in corpus for _ in range(3)]
    shapes = {_canonical(i.topology.a, i.topology.shared_cns)[0] for i in instances}
    literal = {i.topology.shared_cns for i in instances}
    assert len(literal) > 2 * len(shapes)
    calls = []
    first_witnesses = gast_module._first_witnesses

    def counting(gamma, checks, *args, **kwargs):
        calls.append(checks)
        return first_witnesses(gamma, checks, *args, **kwargs)

    monkeypatch.setattr(gast_module, "_first_witnesses", counting)
    want = assert_removals_match_serial(instances, GF4)
    # every pass is on a canonical shape, one per round: sets of 1, 2, 4,
    # ... candidates, and one more round to find a stream used up; a pass
    # per literal structure would take at least one each
    assert set(calls) == shapes
    assert max(calls.count(c) for c in shapes) <= 1 + max(w.tried for w in want).bit_length()
    assert len(calls) < len(literal)


@functools.lru_cache(maxsize=None)
def _design_code(kappa: int, L: int, seed: int):
    """The pipeline's code (CPO budget 20 000, CPO seed 1) before removal,
    labelled over GF(4) with label seed ``seed``."""
    config = DesignConfig(kappa=kappa, p=kappa, L=L, seed_labels=seed, seed_cpo=1,
                          cpo_budget=20000, gast_targets=())
    return code_from_json(run_pipeline(config).code_json)


def _digest(found) -> str:
    """sha256 of every instance's columns, rows, checks, weights, b and witness."""
    text = repr([
        (i.topology.vn_ids, i.topology.cn_ids, i.topology.shared_cns, sorted(i.weights.items()),
         i.b, i.witness)
        for i in found
    ])
    return hashlib.sha256(text.encode()).hexdigest()


# per depth, targets that reach it, some with b = d1 and some above it
DEPTH_TARGETS = {
    4: [(4, 2, 2, 5, 0), (3, 3, 3, 3, 0), (4, 5, 4, 4, 0)],
    5: [(5, 3, 3, 6, 0), (5, 4, 3, 6, 0), (4, 2, 2, 5, 0)],
}


@pytest.mark.parametrize(
    "kappa, L, seed, a_max",
    [(13, 10, seed, 4) for seed in (1, 2, 3)]
    + [pytest.param(*case, marks=pytest.mark.long)
       for case in [(13, 10, 1, 5), (13, 10, 2, 5), (13, 10, 3, 5), (19, 20, 1, 4)]],
)
def test_level_growth_matches_serial_scan(kappa, L, seed, a_max):
    code, targets = _design_code(kappa, L, seed), DEPTH_TARGETS[a_max]
    assert gast_scan(code, GF4, targets) == serial_gast_scan(
        code, GF4, targets, a_max=a_max
    )


# (count, digest) of the breadth-first orbit scan, without the d1 bound, that
# the level growth replaced: a serial scan of every 5-node subset of these
# codes, about 7 M of them, is out of reach
DEPTH6_SCANS = {
    (1, 2): (44, "03a9ff55dbfdbe264d8dd4fe4dc0d14354084e97832dccd931496a5b4874b9ec"),
    (2, 2): (54, "3ee68d5dd937a2f20e83d7b748973c16e0820d1d6c60fcfd8a6ee0fb18a04dfe"),
    (3, 2): (42, "e55aee390252bd5689cc775afc58877ef020bb62fde7cb6f05a6dc9ac9c98c66"),
    (1, 3): (343, "8ed1fd02c5525a01e976a83d8909e1ac76815d1330522672634da928e3a64808"),
}


@pytest.mark.parametrize("kappa, L", [(13, 10), pytest.param(19, 20, marks=pytest.mark.long)])
def test_one_group_per_shape(kappa, L):
    # the (4, 2, 2, 5, 0) hits are all K4 minus an edge, in several literal
    # check orders: one group of the family holds them all
    code = _design_code(kappa, L, 1)
    family = _grow_family(code, [(4, 2, 2, 5, 0)])
    assert len(family) == 1
    found = gast_scan(code, GF4, [(4, 2, 2, 5, 0)])
    assert len({inst.topology.shared_cns for inst in found}) > 1


def test_design_stage_builds_no_instances(monkeypatch):
    # the design-k13-gast unit removes its 44 hits on the hit table: no
    # instance object, one oracle pass for the scan's group and one for the
    # removal round that removes them all
    import scldpc.gast as gast_module

    def refuse(*args, **kwargs):
        raise AssertionError("an instance object was built")

    calls = []
    first_witnesses = gast_module._first_witnesses

    def counting(*args, **kwargs):
        calls.append(1)
        return first_witnesses(*args, **kwargs)

    monkeypatch.setattr(gast_module, "GastInstance", refuse)
    monkeypatch.setattr(gast_module, "_first_witnesses", counting)
    config = DesignConfig(kappa=13, p=13, L=10, cpo_budget=20_000, seed_partition=1, seed_labels=1,
                          seed_cpo=1, gast_targets=((4, 2, 2, 5, 0),), gast_a_max=4)
    report = run_pipeline(config)
    assert (report.gasts_found, report.gasts_removed) == (44, 44)
    assert len(calls) == 2


def _smoke_code():
    """The kappa = 7 L = 30 code of the CLI smoke test (make-code, GF(4), seed 1)."""
    proto = build_ab_powers(3, 7)
    mask = realize_mask(solve_optimal_overlap(7, 30).optima[0], 7, 1)
    return label_edges(couple(proto, mask, 30), GF4, 1)


def _refuse_instances(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an instance object was built")

    monkeypatch.setattr("scldpc.gast.GastInstance", refuse)


def test_scan_refuses_more_instances_than_it_builds(monkeypatch):
    # the kappa = 7 smoke code's 678 hexagons, against a lowered bound: one
    # error line before any instance is built
    code = _smoke_code()
    monkeypatch.setattr("scldpc.gast.MAX_SCAN_INSTANCES", 677)
    _refuse_instances(monkeypatch)
    with pytest.raises(ValueError) as err:
        gast_scan(code, GF4, [(3, 3, 3, 3, 0)])
    want = "scan found 678 hits, more than the 677 it reports one by one; narrow the targets"
    assert str(err.value) == want
    # the design stage reads the table and is not bounded
    family, hits = _scan_table(code, GF4, [(3, 3, 3, 3, 0)])
    assert len(hits.group) == 678


def test_gast_remove_refuses_more_hits_than_it_reports(monkeypatch, tmp_path, capsys):
    # the command-line removal has gast_scan's bound and message, and
    # refuses before any instance is built
    path = tmp_path / "code.json"
    path.write_text(code_to_json(_smoke_code()))
    monkeypatch.setattr("scldpc.gast.MAX_SCAN_INSTANCES", 677)
    _refuse_instances(monkeypatch)
    assert cli.main(["gast", "remove", "--code", str(path), "--targets", "(3,3,3,3,0)"]) == 2
    want = "scan found 678 hits, more than the 677 it reports one by one; narrow the targets"
    assert capsys.readouterr().err == f"scldpc: error: {want}\n"


@pytest.mark.parametrize(
    "targets, hits",
    [((3, 3, 3, 3, 0), 678), ((4, 2, 2, 5, 0), 89)],
    ids=["hexagon", "k4-edge"],
)
def test_gast_remove_matches_instance_removal(monkeypatch, tmp_path, targets, hits):
    # the command line removes on the hit table and builds no instance; its
    # results and written code are those of gast_scan's instances through
    # the instance-list removal of the test oracles
    code = _smoke_code()
    found = gast_scan(code, GF4, [targets])
    outcomes = remove_gasts(found, GF4)
    assert len(found) == hits and any(out.changes for out in outcomes)
    want = [
        {
            "label": list(inst.label),
            "vns": list(inst.topology.vn_ids),
            "removed": out.success,
            "changes": [list(c) for c in out.changes or ()],
        }
        for inst, out in zip(found, outcomes)
    ]
    changed = apply_edge_changes(code, [c for out in outcomes for c in out.lifted_changes()])
    path, dest = tmp_path / "code.json", tmp_path / "remove.json"
    path.write_text(code_to_json(code))
    _refuse_instances(monkeypatch)
    argv = ["gast", "remove", "--code", str(path), "--targets", str(targets), "--out", str(dest)]
    assert cli.main(argv) == 0
    got = json.loads(dest.read_text())
    assert got["results"] == want
    assert got["code"] == json.loads(code_to_json(changed))


@pytest.mark.parametrize("targets", ["(3,3,3,3,0)", "(9,0,0,14,0)"], ids=["hits", "no-hits"])
def test_gast_remove_refuses_unlabeled_code(monkeypatch, tmp_path, capsys, targets):
    # an unlabeled code has no weights to change: refused before the scan,
    # whether or not the targets have hits in it
    path = tmp_path / "code.json"
    code = _smoke_code()
    path.write_text(code_to_json(replace(code, labels=None, field_lam=None, label_seed=None)))

    def refuse(*args, **kwargs):
        raise AssertionError("the code was scanned")

    monkeypatch.setattr("scldpc.gast._grow_family", refuse)
    assert cli.main(["gast", "remove", "--code", str(path), "--targets", targets]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "scldpc: error: cannot change edge weights of an unlabeled code\n"


@pytest.mark.parametrize(
    "seed, n_targets",
    [(1, 2), (2, 2), (3, 2), pytest.param(1, 3, marks=pytest.mark.slow)],
)
def test_depth6_scan_matches_breadth_first_scan(seed, n_targets):
    # the CLI's default targets, where the d1 bound keeps level 5 small, and
    # a 6-node GAST of d1 = 2 that 299 of the hits match, where it does not
    targets = [(4, 2, 2, 5, 0), (6, 0, 0, 9, 0), (6, 2, 2, 8, 0)][:n_targets]
    found = gast_scan(_design_code(13, 10, seed), GF4, targets)
    assert (len(found), _digest(found)) == DEPTH6_SCANS[seed, n_targets]


@pytest.mark.parametrize("case", [MIXED_CASE, SHORT_PERIOD_CASE, TWO_B_CASE], ids=["mixed", "period", "two-b"])
def test_one_subset_chunks_grow_the_same_family(case, monkeypatch):
    # every level cut into chunks of one subset: each check structure holds
    # the same translates, in whatever order growth emits them
    code, _, targets, _ = case
    whole = {g.checks: g for g in _grow_family(code, targets)}
    monkeypatch.setattr("scldpc.gast.GROW_CELLS", 1)
    chunked = {g.checks: g for g in _grow_family(code, targets)}
    assert whole and whole.keys() == chunked.keys()

    def rows(g):
        return sorted(np.concatenate([g.vn, g.perm, g.cn, g.edges], axis=1).tolist())

    for checks, g in whole.items():
        h = chunked[checks]
        assert (g.gamma, g.matching) == (h.gamma, h.matching)
        assert rows(g) == rows(h)
