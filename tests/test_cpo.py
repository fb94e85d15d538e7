import functools
import hashlib
import itertools
import json
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    SPAN_DUAL,
    EntryCycles,
    ReferenceWindow,
    active_census,
    compress_loads,
    has_active_4cycle,
    serial_cpo_optimize,
)
from scldpc.baselines import cv_exhaustive_best, cv_mask
from scldpc.cpo import _State, cpo_optimize
from scldpc.cycles import build_window, count_ugast_3330_for
from scldpc.overlap import realize_mask, solve_optimal_overlap
from scldpc.qc import PartitionMask, ProtoMatrix, build_ab_powers
from scldpc import cpo, words
from scldpc.words import WordStream


@functools.lru_cache(maxsize=None)
def _oo_mask(kappa: int, L: int) -> PartitionMask:
    return realize_mask(solve_optimal_overlap(kappa, L).optima[0], kappa, seed=1)


def _digest(res) -> str:
    return hashlib.sha256(json.dumps(res.as_dict(), sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def oo_setup():
    return build_ab_powers(3, 7), _oo_mask(7, 30)


class TestActiveCensus:
    def test_no_active_cycles_means_zero(self):
        # kappa=2 window has no 6-cycles at all
        proto = ProtoMatrix(gamma=3, kappa=2, p=5, powers=((0, 0), (0, 1), (0, 3)))
        mask = PartitionMask(((0, 1), (0, 1), (0, 1)))
        win = ReferenceWindow(proto, mask)
        counts, fa_s, fa_d = active_census(win, proto.powers)
        assert fa_s == 0 and fa_d == 0
        assert not counts.any()

    def test_best_cutting_vector_census_is_3290(self):
        proto = build_ab_powers(3, 7)
        zeta, count = cv_exhaustive_best(proto, 30)
        assert count == 3290
        win = ReferenceWindow(proto, cv_mask(zeta, 7))
        _, fa_s, fa_d = active_census(win, proto.powers)
        assert (30 * fa_s + 29 * fa_d) * 7 == 3290

    def test_annotation_totals(self, oo_setup):
        # every active cycle annotates six window positions with its weight
        # (1 one-replica, 2 two-replica): the one-replica share of the
        # annotation mass is 6 * (2 Fa_s), the two-replica share 6 * 2 * Fa_d
        proto, mask = oo_setup
        win = ReferenceWindow(proto, mask)
        counts, fa_s, fa_d = active_census(win, proto.powers)
        act = win.balances6(proto.powers) == 0
        singles_weighted = int(win.inc6[act & (win.span6 != 2)].sum())
        duals_weighted = 2 * int(win.inc6[act & (win.span6 == 2)].sum())
        assert singles_weighted == 6 * 2 * fa_s
        assert duals_weighted == 6 * 2 * fa_d
        assert counts.sum() == singles_weighted + duals_weighted


class TestCpoOptimize:
    def test_zero_budget_returns_ab_initial(self, oo_setup):
        proto, mask = oo_setup
        res = cpo_optimize(proto, mask, 30, budget=0, seed=0)
        assert res.f_sc == res.f_sc_initial
        assert res.powers == proto.powers
        assert res.trace == ()

    def test_initial_census_matches_fast_path(self, oo_setup):
        proto, mask = oo_setup
        res = cpo_optimize(proto, mask, 30, budget=0, seed=0)
        assert res.f_sc_initial == count_ugast_3330_for(proto, mask, 30)

    def test_trace_strictly_decreasing(self, oo_setup):
        proto, mask = oo_setup
        res = cpo_optimize(proto, mask, 30, budget=20_000, seed=0)
        fs = [step[2] for step in res.trace]
        assert all(a > b for a, b in zip(fs, fs[1:]))
        assert fs[0] < res.f_sc_initial

    def test_deterministic(self, oo_setup):
        proto, mask = oo_setup
        a = cpo_optimize(proto, mask, 30, budget=15_000, seed=3)
        b = cpo_optimize(proto, mask, 30, budget=15_000, seed=3)
        assert a == b
        c = cpo_optimize(proto, mask, 30, budget=15_000, seed=4)
        assert a.powers != c.powers or a.f_sc == c.f_sc

    def test_final_count_survives_recount(self, oo_setup):
        # no stale-census drift: recount the returned powers from scratch
        proto, mask = oo_setup
        res = cpo_optimize(proto, mask, 30, budget=30_000, seed=1)
        fresh = count_ugast_3330_for(proto.with_powers(res.powers), mask, 30)
        assert fresh == res.f_sc

    def test_no_active_4cycles_along_trace(self, oo_setup):
        proto, mask = oo_setup
        res = cpo_optimize(proto, mask, 30, budget=30_000, seed=2)
        win = ReferenceWindow(proto, mask)
        # replay the trace: apply accepted changes cumulatively
        powers = np.array([[(i * j) % 7 for j in range(7)] for i in range(3)])
        for _, changes, _ in res.trace:
            for i, j, v in changes:
                powers[i][j] = v
            assert not has_active_4cycle(win, powers)
        assert not has_active_4cycle(win, res.powers)

    def test_target_stops_early(self, oo_setup):
        proto, mask = oo_setup
        res = cpo_optimize(proto, mask, 30, budget=100_000, seed=0, target=800)
        assert res.f_sc <= 800
        assert res.evals < 100_000

    def test_rejects_kappa_above_p(self):
        proto = ProtoMatrix(gamma=3, kappa=6, p=5, powers=((0,) * 6,) * 3)
        mask = PartitionMask.all_h0(3, 6)
        with pytest.raises(ValueError):
            cpo_optimize(proto, mask, 4)

    def test_rejects_gamma_not_3(self):
        proto = ProtoMatrix(gamma=2, kappa=5, p=5, powers=((0,) * 5,) * 2)
        mask = PartitionMask.all_h0(2, 5)
        with pytest.raises(ValueError):
            cpo_optimize(proto, mask, 4)

    @pytest.mark.parametrize("L", [1, 0, -5])
    def test_rejects_short_coupling(self, oo_setup, L):
        proto, mask = oo_setup
        with pytest.raises(ValueError, match="coupling length L must be >= 2"):
            cpo_optimize(proto, mask, L, budget=200)

    def test_starts_from_given_powers(self, oo_setup):
        proto, mask = oo_setup
        tuned = proto.with_powers(cpo_optimize(proto, mask, 30, budget=2000, seed=1).powers)
        assert tuned.powers != proto.powers
        res = cpo_optimize(tuned, mask, 30, budget=0)
        assert res.powers == tuned.powers
        assert res.f_sc == res.f_sc_initial == count_ugast_3330_for(tuned, mask, 30)

    def test_rejects_start_with_active_4cycle(self):
        powers = ((0, 0, 0, 0, 0), (0, 0, 1, 2, 3), (0, 2, 4, 1, 3))
        proto = ProtoMatrix(gamma=3, kappa=5, p=5, powers=powers)
        with pytest.raises(ValueError, match="initial powers activate a 4-cycle"):
            cpo_optimize(proto, PartitionMask.all_h0(3, 5), 2, budget=10)

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_rejects_negative_budget(self, oo_setup, budget):
        proto, mask = oo_setup
        with pytest.raises(ValueError, match=f"CPO budget must be >= 0, got {budget}"):
            cpo_optimize(proto, mask, 30, budget=budget)

    @pytest.mark.parametrize(
        "kappa, L, budget, seed, counts, restarts, n_trace, digest",
        [
            (7, 30, 5000, 1, (2058, 203), 5, 7,
             "4670fbe143713634fabfcd05a066ac1db29ff90077afc7698b8a993adb3585c5"),
            # more walks; a walk that leaves the balances stale changes this run
            (7, 30, 20000, 0, (2058, 203), 20, 6,
             "ea97e63dd9b14cd4b59658254d23041aeb3735477c60bd454928008879f648ad"),
            (13, 10, 20000, 1, (4537, 1963), 4, 7,
             "287627028e6fddcf3d850deed2e24c76828c38716370a075dccf5008e8fe2c84"),
            (19, 20, 20000, 1, (29165, 16131), 1, 15,
             "1ad51999641334793622ae1eb8e4a90295df5d80043053835b904c257d7540e6"),
            (31, 20, 20000, 1, (130200, 89652), 0, 21,
             "30d9fd93f707f9b1a205e2effce18fbca3905d7cc28031f77c041e431ae5080b"),
        ],
        ids=["seed1", "seed0", "k13", "k19", "k31"],
    )
    def test_pinned_runs_with_restarts(
        self, kappa, L, budget, seed, counts, restarts, n_trace, digest
    ):
        # the digest pins powers, trace, evals and restarts; every run ends
        # by spending its budget, part of the way through a batch
        proto, mask = build_ab_powers(3, kappa), _oo_mask(kappa, L)
        res = cpo_optimize(proto, mask, L, budget=budget, seed=seed)
        assert (res.f_sc_initial, res.f_sc, res.evals) == (*counts, budget)
        assert (res.restarts, len(res.trace)) == (restarts, n_trace)
        assert _digest(res) == digest

    @pytest.mark.parametrize("kappa, budget, seed", [(7, 3000, 2), (11, 20000, 1)])
    def test_largest_exact_coupling_matches_serial(self, kappa, budget, seed):
        # the largest L whose counts stay exact in int64; summing float
        # weights, the move table drifts from the serial count here
        proto, mask = build_ab_powers(3, kappa), _oo_mask(kappa, 30)
        m = max(len(build_window(proto, mask).ids6), 1)
        L = np.iinfo(np.int64).max // (2 * proto.p * m)
        got = cpo_optimize(proto, mask, L, budget=budget, seed=seed)
        assert got.as_dict() == serial_cpo_optimize(proto, mask, L, budget, seed).as_dict()
        refused = f"CPO counts at L={L + 1} would leave the exact int64 range"
        with pytest.raises(ValueError, match=refused):
            cpo_optimize(proto, mask, L + 1, budget=budget, seed=seed)


@st.composite
def _cpo_problems(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    kappa = draw(st.integers(1, p))
    bits = st.lists(st.integers(0, 1), min_size=kappa, max_size=kappa)
    mask = PartitionMask(tuple(draw(st.lists(bits, min_size=3, max_size=3))))
    if draw(st.booleans()):
        powers = tuple(tuple(i * j % p for j in range(kappa)) for i in range(3))
    else:
        row = st.lists(st.integers(0, p - 1), min_size=kappa, max_size=kappa)
        powers = tuple(draw(st.lists(row, min_size=3, max_size=3)))
    proto = ProtoMatrix(gamma=3, kappa=kappa, p=p, powers=powers)
    return proto, mask, draw(st.integers(2, 30))


def _ab_problem(p, assign, L):
    kappa = len(assign[0])
    powers = tuple(tuple(i * j % p for j in range(kappa)) for i in range(3))
    return ProtoMatrix(gamma=3, kappa=kappa, p=p, powers=powers), PartitionMask(assign), L


@settings(max_examples=150, deadline=None)
@given(
    _cpo_problems(),
    st.integers(0, 2500),
    st.integers(0, 2**16),
    st.sampled_from([0, 0, 0, 100]),
)
# p = 2 allows kappa <= 2, whose window has 4-cycles but no 6-cycle: the
# start is checked and scored, and no move improves on 0
@example(_ab_problem(2, ((0, 0), (0, 0), (0, 1)), 5), 500, 7, 0)
# p = 3: 9 plateau walks and about 1 100 pair draws
@example(_ab_problem(3, ((0, 1, 0), (1, 1, 0), (1, 1, 0)), 2), 1488, 5871, 0)
# pairs sharing a 6-cycle and a 4-cycle, whose joint change decides the run
@example(_ab_problem(5, ((0, 1, 0, 1, 1), (1, 1, 0, 0, 1), (0, 1, 1, 0, 1)), 27), 937, 13399, 0)
# improving pair draws that keep one entry at its current power
@example(_ab_problem(5, ((1, 0, 1, 0), (1, 1, 1, 0), (1, 0, 1, 1)), 6), 1811, 5906, 0)
# a pair accepted at a width whose later widths' batches were drawn too: the
# stream goes back to the end of the accepted batch
@example(_ab_problem(5, ((1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)), 19), 2102, 34829, 0)
# the budget ends inside a later width's batch, whose evals are not charged
# once an earlier batch wins
@example(
    _ab_problem(7, ((1, 1, 1, 1, 0, 1), (1, 1, 1, 0, 0, 1), (1, 0, 0, 0, 1, 0)), 13), 497, 10097, 0
)
# pools of 24 circulants, past sample's n <= 21 switch
@example(
    _ab_problem(
        11, ((1, 0, 1, 1, 1, 1, 1, 1), (1, 0, 1, 0, 1, 0, 1, 0), (0, 1, 1, 0, 0, 1, 1, 0)), 13
    ),
    2056,
    8730,
    0,
)
# the budget ends inside a width's singles, whose newest circulants are scored
# only up to it, and that clipped scoring picks a move the whole row would not:
# in the first width (2618 -> 2123), and at the end of a 5-move descent
# (1738 -> 495) and of a 2-move one (4070 -> 2497)
@example(
    _ab_problem(
        11,
        (
            (1, 0, 0, 0, 1, 1, 0, 0, 1, 0),
            (1, 1, 0, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 1, 1, 1, 0, 1),
        ),
        12,
    ),
    10,
    48345,
    0,
)
@example(
    _ab_problem(
        11,
        (
            (1, 1, 1, 1, 1, 0, 0, 1, 0),
            (0, 0, 0, 0, 1, 1, 1, 1, 0),
            (0, 0, 1, 0, 0, 0, 1, 1, 1),
        ),
        10,
    ),
    228,
    56999,
    0,
)
@example(
    _ab_problem(
        11,
        (
            (1, 1, 1, 0, 0, 1, 0, 0, 1),
            (1, 0, 1, 0, 1, 0, 0, 0, 0),
            (0, 1, 0, 1, 1, 1, 1, 1, 1),
        ),
        29,
    ),
    37,
    24218,
    0,
)
def test_batched_matches_serial(problem, budget, seed, target):
    # the budget stops most runs part of the way through an entry's powers
    # or a pair batch, and lets about a quarter of those near kappa = p
    # reach a plateau walk; random powers may start on an active 4-cycle
    proto, mask, L = problem
    try:
        want = serial_cpo_optimize(proto, mask, L, budget, seed, target)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            cpo_optimize(proto, mask, L, budget=budget, seed=seed, target=target)
        return
    got = cpo_optimize(proto, mask, L, budget=budget, seed=seed, target=target)
    assert got.as_dict() == want.as_dict()


@pytest.mark.parametrize("block", [words.STREAM_WORDS, 7])
def test_word_stream_matches_random(monkeypatch, block):
    # the optimizer's draws, read off the generator's words, against the
    # generator itself: sample(pool, 2) on both sides of its n <= 21 switch
    # (at n = 2 the second index is randbelow(1), which still reads words),
    # randrange(p) and shuffle; a 7-word buffer refills inside every batch
    monkeypatch.setattr(words, "STREAM_WORDS", block)
    for seed in range(30):
        rng, stream = random.Random(seed), WordStream(seed)
        for n in range(2, 65):
            pool = list(range(100, 100 + n))
            p = (2, 3, 5, 13, 31, 61)[n % 6]
            want = []
            for _ in range(5):
                want += [*rng.sample(pool, 2), rng.randrange(p), rng.randrange(p)]
            assert stream.pairs(pool, p, 5) == want
        for p in range(1, 62):
            assert stream.below(p) == rng.randrange(p)
        for n in range(61):
            want, got = list(range(n)), list(range(n))
            rng.shuffle(want)
            stream.shuffle(got)
            assert got == want


@st.composite
def _table_states(draw):
    # a state the optimizer can reach: array-based powers, then random
    # single moves that keep every window 4-cycle inactive
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kappa = draw(st.integers(1, p))
    bits = st.lists(st.integers(0, 1), min_size=kappa, max_size=kappa)
    proto, mask, L = _ab_problem(p, tuple(draw(st.lists(bits, min_size=3, max_size=3))), 0)
    ref = ReferenceWindow(proto, mask)
    flat = np.ravel(proto.powers)
    moves = st.tuples(st.integers(0, 3 * kappa - 1), st.integers(0, p - 1))
    for e, v in draw(st.lists(moves, max_size=12)):
        trial = flat.copy()
        trial[e] = v
        if not has_active_4cycle(ref, trial):
            flat = trial
    # at p = 2 the array-based powers of rows 0 and 2 agree
    assume(not has_active_4cycle(ref, flat))
    return build_window(proto, mask), ref, flat, draw(st.integers(2, 30))


def _dense_moves(window, flat, L, moves):
    """(f_sc, active 4-cycles) after each move, recomputed from every cycle
    of the reference window, mirrors included.

    Row i of ``moves`` sets circulant moves[i, 0] to power moves[i, 1],
    moves[i, 2] to moves[i, 3], and so on.
    """
    trials = np.repeat(flat[None, :], len(moves), axis=0)
    rows = np.arange(len(moves))
    for e, v in zip(moves[:, 0::2].T, moves[:, 1::2].T):
        trials[rows, e] = v
    act = (trials @ window.coef6.T) % window.p == 0
    duals = np.count_nonzero(act & (window.span6 == SPAN_DUAL), axis=1)
    singles = np.count_nonzero(act, axis=1) - duals
    hits = np.count_nonzero((trials @ window.coef4.T) % window.p == 0, axis=1)
    return (L * (singles // 2) + (L - 1) * duals) * window.p, hits


@settings(max_examples=80, deadline=None)
@given(_table_states())
def test_move_table_matches_dense_recompute(case):
    # every cell, including the current power and moves the search never
    # reaches; then every pair of circulants that shares a cycle, both ways.
    # The library counts only the 4-cycles it keeps (no replica-2 mirror),
    # and its 4-cycle counts are only ever tested against zero
    window, ref, flat, L = case
    p, n = ref.p, ref.n_entries
    state = _State(window, flat, L)
    singles = np.array(list(itertools.product(range(n), range(p))), dtype=np.int64).reshape(-1, 2)
    f, hits = _dense_moves(ref, flat, L, singles)
    assert (state.f_after.ravel() == f).all()
    assert ((state.hits4.ravel() == 0) == (hits == 0)).all()
    assert (state.f_after[np.arange(n), flat] == state.f_sc).all()

    touched = np.concatenate([ref.coef6, ref.coef4]) != 0
    for e1, e2 in itertools.permutations(range(n), 2):
        if not (touched[:, e1] & touched[:, e2]).any():
            continue
        v1, v2 = np.divmod(np.arange(p * p), p)
        pairs = np.stack([np.full(p * p, e1), np.full(p * p, e2), v1, v2], axis=1)
        f, hits = state.pair_moves(pairs)
        want_f, want_hits = _dense_moves(ref, flat, L, pairs[:, [0, 2, 1, 3]])
        assert (f == want_f).all()
        assert ((hits == 0) == (want_hits == 0)).all()


@settings(max_examples=100, deadline=None)
@given(_cpo_problems())
def test_window_cycles_visit_distinct_circulants(problem):
    # the optimizer's indexes take every coefficient as +-1, which holds
    # because no window cycle visits a circulant twice
    proto, mask, _ = problem
    window = build_window(proto, mask)
    for ids in (window.ids6, window.ids4):
        assert all(len(set(row)) == len(row) for row in ids.tolist())


def _coefficients(ids, n):
    coef = np.zeros((len(ids), n), dtype=np.int64)
    for c, row in enumerate(ids.tolist()):
        for i, e in enumerate(row):
            coef[c, e] += (-1) ** i
    return coef


def _listed(index, key, first):
    """(first + cycle, coefficients) of one key of a reference index."""
    at = slice(index.ptr[key], index.ptr[key + 1])
    return [(first + c, a) for c, a in zip(index.cycles[at].tolist(), index.coefs[at].tolist())]


def _ab_window(p, assign):
    proto, mask, _ = _ab_problem(p, assign, 2)
    return build_window(proto, mask), np.ravel(proto.powers), 2


@settings(max_examples=100, deadline=None)
@given(_table_states().map(lambda case: (case[0], *case[2:])), st.booleans())
# no cycle at all; 4-cycles alone
@example(_ab_window(3, ((0,), (1,), (0,))), False)
@example(_ab_window(3, ((0, 0), (0, 0), (0, 1))), True)
def test_cycle_indexes_match_reference(case, int64_keys):
    # the mover and pair indexes over one cycle set (6-cycles, then
    # 4-cycles) against the per-kind reference; int64_keys sorts the keys
    # as int64, as windows of more than 256 circulants do
    window, flat, L = case
    n, p, m6, m4 = window.n_entries, window.p, len(window.ids6), len(window.ids4)
    with mock.patch.object(cpo, "RADIX_KEYS", 0 if int64_keys else cpo.RADIX_KEYS):
        state = _State(window, flat, L)
    touch = (EntryCycles.of(window.ids6, n), EntryCycles.of(window.ids4, n))
    for e in range(n):
        span = slice(state.ptr[e], state.ptr[e + 1])
        got = list(zip(state.cycles[span].tolist(), state.coefs[span].tolist()))
        assert got == _listed(touch[0], e, 0) + _listed(touch[1], e, m6)
        assert state.ptr4[e] - state.ptr[e] == touch[0].ptr[e + 1] - touch[0].ptr[e]
    coef = np.concatenate([_coefficients(window.ids6, n), _coefficients(window.ids4, n)])
    assert (state.b == coef @ flat % p).all()

    # every position pair once; the reference lists the cycles both
    # circulants move, one position pair each
    assert state.pair_ptr[-1] == 15 * m6 + 6 * m4
    kinds = np.concatenate([window.dual6.astype(int), np.full(m4, 2)]).tolist()
    columns = (state.pair_cycles, state.pair_lo, state.pair_hi, state.pair_kinds)
    pairs = [index.pairs() for index in touch]
    for lo, hi in itertools.combinations(range(n), 2):
        key = lo * n + hi
        at = slice(state.pair_ptr[key], state.pair_ptr[key + 1])
        got = sorted(zip(*(a[at].tolist() for a in columns)))
        listed = _listed(pairs[0], key, 0) + _listed(pairs[1], key, m6)
        assert got == sorted((c, a, b, kinds[c]) for c, (a, b) in listed)

    # every pair at every power against the balances recomputed from
    # scratch.  The 4-cycle count covers those that either circulant moves,
    # and holds where none is active before the move, as along every descent
    e1, e2 = np.array(list(itertools.permutations(range(n), 2))).reshape(-1, 2).T
    v1, v2 = np.divmod(np.arange(p * p), p)
    v1, v2 = np.tile(v1, e1.size), np.tile(v2, e1.size)
    moves = np.stack([e1.repeat(p * p), e2.repeat(p * p), v1, v2])
    f, hits = state.pair_moves(moves.T)
    trials = np.repeat(flat[None, :], moves.shape[1], axis=0)
    rows = np.arange(moves.shape[1])
    trials[rows, moves[0]], trials[rows, moves[1]] = moves[2], moves[3]
    active = trials @ coef.T % p == 0
    assert (f == p * (active[:, :m6] @ np.where(window.dual6, L - 1, L))).all()
    moved = (coef[m6:, moves[0]] != 0) | (coef[m6:, moves[1]] != 0)
    assert not state.b4.all() or (hits == (active[:, m6:] & moved.T).sum(axis=1)).all()


@settings(max_examples=60, deadline=None)
@given(_table_states(), st.lists(st.tuples(st.integers(0, 20), st.integers(0, 6)), max_size=8))
def test_walk_rows_match_full_table(case, steps):
    # a plateau walk reads one 4-cycle row per step and refreshes the table
    # once at its end: each row against a table built from scratch
    window, _, flat, L = case
    n, p = window.n_entries, window.p
    state = _State(window, flat, L)
    for e, pick in steps:
        e %= n
        row = state.hits4_row(e)
        assert (row == _State(window, state.flat, L).hits4[e]).all()
        free = [v for v in range(p) if v != state.flat[e] and row[v] == 0]
        if free:
            state.move(e, free[pick % len(free)])
    state.refresh()
    fresh = _State(window, state.flat, L)
    assert state.f_sc == fresh.f_sc
    assert (state.f_after == fresh.f_after).all() and (state.hits4 == fresh.hits4).all()


def _oo_state(kappa: int):
    """The optimizer's start on the OO mask at L = 20, as a table state."""
    proto = build_ab_powers(3, kappa)
    return build_window(proto, _oo_mask(kappa, 20)), None, np.ravel(proto.powers), 20


@settings(max_examples=60, deadline=None)
@given(_table_states(), st.lists(st.tuples(st.integers(0, 20), st.integers(0, 6)), max_size=8))
@example(_oo_state(7), [(0, 3), (9, 1), (20, 5), (4, 6)])
@example(_oo_state(13), [(1, 2), (17, 4), (30, 0), (38, 6)])
@example(_oo_state(19), [(2, 5), (25, 1), (40, 3), (56, 2)])
@example(_oo_state(31), [(3, 4), (47, 6), (60, 2), (92, 1)])
def test_loads_match_active_visits(case, moves):
    # the optimizer ranks circulants by the loads its move table holds at
    # their current powers: against the active 6-cycles' visits, tallied
    # one by one, at the start and after each move
    window, _, flat, L = case
    state = _State(window, flat, L)
    assert (state.loads == compress_loads(window, state.b6)).all()
    for e, v in moves:
        state.apply([(e % state.n, v % state.p)])
        assert (state.loads == compress_loads(window, state.b6)).all()
