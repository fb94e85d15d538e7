"""Circulant power optimizer: greedy descent on lifted 6-cycle counts.

Starting from the code's own powers (array-based ones guarantee no lifted
4-cycles), the optimizer scores the two-replica window, maps active-cycle
counts back onto the gamma*kappa circulants, and re-powers the most-loaded
circulants.  A move is accepted only when it strictly reduces the lifted
(3,3,3,0) count while keeping every window 4-cycle inactive.  On a plateau
the candidate pool widens; once exhausted, a short feasible random walk
perturbs a few entries and the descent resumes, with the best state ever
seen retained.

Candidates are read from a move table built once per state.  Every window
coefficient is +-1, so a cycle that circulant e touches with balance b is
active under e -> v for exactly one power, v = f[e] - b*a (mod p); one
bincount over the window's per-circulant index then gives, for every
circulant at every power, the f_sc after the move and the 4-cycles it
activates.  Widening the pool and the plateau walk only read the table.  A
pair move adds its two single-move changes and corrects them over the
cycles both circulants touch, which a per-pair index lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cycles import SPAN_DUAL, SPAN_R1, EntryCycles, TwoReplicaWindow, build_window
from .qc import PartitionMask, ProtoMatrix, _check_coupling_length, is_prime

__all__ = ["CpoResult", "cpo_optimize"]

# the candidate pool starts at the TOP_B most-loaded circulants and widens
# by TOP_B on a plateau; PAIR_SAMPLES random pair moves are tried per width
TOP_B = 3
PAIR_SAMPLES = 40


def _loads(window: TwoReplicaWindow, act: np.ndarray) -> np.ndarray:
    """Per-circulant visits of the active 6-cycles ``act``, two-replica ones counted twice."""
    weights = np.where(window.span6[act] == SPAN_DUAL, 2, 1)
    return weights @ window.inc6[act]


@dataclass(frozen=True)
class CpoResult:
    powers: tuple[tuple[int, ...], ...]
    f_sc: int
    f_sc_initial: int
    trace: tuple[tuple[int, tuple[tuple[int, int, int], ...], int], ...]
    evals: int
    restarts: int

    def as_dict(self) -> dict:
        return {
            "powers": [list(r) for r in self.powers],
            "f_sc": self.f_sc,
            "f_sc_initial": self.f_sc_initial,
            "evals": self.evals,
            "restarts": self.restarts,
            "trace": [
                {"evals": e, "changes": [list(c) for c in ch], "f_sc": f}
                for e, ch, f in self.trace
            ],
        }


class _State:
    """Mutable descent state over one window, with its move table.

    ``b4`` and ``b6`` are the window cycles' balances mod p under ``flat``.
    The move table, rebuilt once per state, holds for every circulant e and
    power v the f_sc after e -> v (``f_after``) and the number of window
    4-cycles that move activates (``hits4``); both are (gamma*kappa, p).
    """

    def __init__(self, window: TwoReplicaWindow, flat: np.ndarray, L: int):
        self.win = window
        self.p = window.p
        self.n = window.n_entries
        self.flat = flat.copy()
        self.b6 = window.balances6(self.flat)
        self.b4 = window.balances4(self.flat)
        # an active cycle's share of f_sc / p: an R2 cycle moves with its R1
        # mirror (same circulants and balance), so R1 stands for the pair
        span = window.span6
        self.w6 = np.where(span == SPAN_DUAL, L - 1, np.where(span == SPAN_R1, L, 0))
        scored = self.w6 > 0
        self.movers6 = self._movers(window.touch6, scored)
        self.movers4 = self._movers(window.touch4)
        self.pairs6 = window.touch6.pairs(scored)
        self.pairs4 = window.touch4.pairs()
        self._refresh()

    def _movers(self, index: EntryCycles, scored: Optional[np.ndarray] = None):
        """(circulant, cycle, coefficient) of every (scored) cycle a circulant touches."""
        ents = index.keys()
        keep = slice(None) if scored is None else scored[index.cycles]
        return ents[keep], index.cycles[keep], index.coefs[keep]

    def _cells(self, movers, b: np.ndarray) -> np.ndarray:
        # a window coefficient a is +-1, so under e -> v the cycle is active
        # exactly at v = f[e] - b / a = f[e] - b * a (mod p)
        ents, cycles, coefs = movers
        return ents * self.p + (self.flat[ents] - b[cycles] * coefs) % self.p

    def _refresh(self) -> None:
        """f_sc and the move table of the current balances."""
        self.f_sc = self.p * int(self.w6 @ (self.b6 == 0))
        size = self.n * self.p
        weights = self.w6[self.movers6[1]]
        gain = np.bincount(self._cells(self.movers6, self.b6), weights, size).astype(np.int64)
        gain = gain.reshape(self.n, self.p)
        # the current power's cell holds the cycles active now
        now = gain[np.arange(self.n), self.flat]
        self.f_after = self.f_sc + self.p * (gain - now[:, None])
        self.hits4 = np.bincount(self._cells(self.movers4, self.b4), minlength=size)
        self.hits4 = self.hits4.reshape(self.n, self.p)

    def best_single(self, ents: np.ndarray, counts: np.ndarray) -> Optional[list[tuple[int, int]]]:
        """Best improving move [(e, v)] among the first ``counts[i]`` powers
        other than the current one of each circulant ``ents[i]``; ties go to
        the lowest (e, v)."""
        v = np.arange(self.p)
        cur = self.flat[ents][:, None]
        f = self.f_after[ents]
        take = (v != cur) & (v - (v > cur) < counts[:, None])
        take &= (self.hits4[ents] == 0) & (f < self.f_sc)
        if not take.any():
            return None
        scores = np.full((self.n, self.p), self.f_sc)
        scores[ents] = np.where(take, f, self.f_sc)
        return [divmod(int(np.argmin(scores)), self.p)]

    def _shared(self, index: EntryCycles, b, lo, hi, d_lo, d_hi):
        """(pair, cycle, correction) over the cycles both circulants of a
        pair touch: joint activity minus each single move's, plus the old."""
        rows, cycles, coefs = index.gather(lo * self.n + hi)
        b = b[cycles]
        s_lo = b + coefs[:, 0] * d_lo[rows]
        s_hi = b + coefs[:, 1] * d_hi[rows]
        s_both = s_lo + s_hi - b
        p = self.p
        fix = (s_both % p == 0).astype(np.int64) - (s_lo % p == 0) - (s_hi % p == 0) + (b == 0)
        return rows, cycles, fix

    def pair_moves(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f_sc after, 4-cycles activated) of each move (e1, e2, v1, v2), e1 != e2."""
        e1, e2, v1, v2 = pairs.T
        f = self.f_after[e1, v1] + self.f_after[e2, v2] - self.f_sc
        hits = self.hits4[e1, v1] + self.hits4[e2, v2]
        swap = e1 > e2
        lo, hi = np.where(swap, e2, e1), np.where(swap, e1, e2)
        d1, d2 = v1 - self.flat[e1], v2 - self.flat[e2]
        d_lo, d_hi = np.where(swap, d2, d1), np.where(swap, d1, d2)
        m = len(pairs)
        rows, cycles, fix = self._shared(self.pairs6, self.b6, lo, hi, d_lo, d_hi)
        f = f + self.p * np.bincount(rows, fix * self.w6[cycles], m).astype(np.int64)
        rows, _, fix = self._shared(self.pairs4, self.b4, lo, hi, d_lo, d_hi)
        return f, hits + np.bincount(rows, fix, m).astype(np.int64)

    def apply(self, changes: list[tuple[int, int]]) -> None:
        # balances are linear in the powers, so entries update one at a time
        for e, v in changes:
            for b, index in ((self.b4, self.win.touch4), (self.b6, self.win.touch6)):
                span = slice(index.ptr[e], index.ptr[e + 1])
                cycles = index.cycles[span]
                b[cycles] = (b[cycles] + index.coefs[span] * (v - self.flat[e])) % self.p
            self.flat[e] = v
        self._refresh()


def cpo_optimize(
    proto: ProtoMatrix,
    mask: PartitionMask,
    L: int,
    budget: int = 100_000,
    seed: int = 0,
    target: int = 0,
) -> CpoResult:
    """Minimize the lifted (3,3,3,0) count by re-powering circulants.

    The descent starts from ``proto.powers``.  ``budget`` caps candidate
    evaluations, counted one per move as if scored one at a time (a plateau
    walk that starts within the budget finishes its steps, so ``evals`` may
    end a few above it); the search also stops once the count reaches
    ``target``.  The candidate pool starts at the ``TOP_B`` most-loaded
    circulants and widens by ``TOP_B`` on a plateau; the best move is the
    lowest (count, sorted (row, col, power) changes).  Deterministic for
    fixed arguments.  Requires gamma = 3, L >= 2, kappa <= p with p prime,
    budget >= 0 and start powers that keep every window 4-cycle inactive.
    """
    if proto.gamma != 3:
        raise ValueError("the optimizer is defined for column weight 3")
    if proto.kappa > proto.p or not is_prime(proto.p):
        raise ValueError("the optimizer needs kappa <= p with p prime")
    _check_coupling_length(L)
    if budget < 0:
        raise ValueError(f"CPO budget must be >= 0, got {budget}")
    g, k, p = proto.gamma, proto.kappa, proto.p

    window = build_window(proto, mask)
    state = _State(window, np.asarray(proto.powers, dtype=np.int64).reshape(-1), L)
    if not state.b4.all():
        raise ValueError("initial powers activate a 4-cycle; cannot start")

    rng = random.Random(seed)
    n_entries = g * k
    best_flat = state.flat.copy()
    best_f = state.f_sc
    f_initial = state.f_sc
    trace: list[tuple[int, tuple[tuple[int, int, int], ...], int]] = []
    evals = 0
    restarts = 0

    def record_if_best() -> None:
        # trace entries carry the net power changes since the previous best
        # state, so replaying them cumulatively reconstructs every state
        nonlocal best_f, best_flat
        if state.f_sc < best_f:
            diff = tuple(
                (e // k, e % k, int(state.flat[e]))
                for e in np.flatnonzero(state.flat != best_flat).tolist()
            )
            best_f = state.f_sc
            best_flat = state.flat.copy()
            trace.append((evals, diff, state.f_sc))

    def spend(n: int) -> int:
        # evaluations left for the next n candidates
        nonlocal evals
        n = min(n, budget - evals)
        evals += n
        return n

    def best_pair(pairs: np.ndarray) -> Optional[list[tuple[int, int]]]:
        # best improving pair move by (f_sc, sorted (row, col, power) changes)
        f, hits = state.pair_moves(pairs)
        f = np.where(hits == 0, f, state.f_sc)
        f_best = int(f.min(initial=state.f_sc))
        if f_best >= state.f_sc:
            return None
        moves = ([(e1, v1), (e2, v2)] for e1, e2, v1, v2 in pairs[f == f_best].tolist())
        return min((tuple(sorted((e // k, e % k, v) for e, v in ch)), ch) for ch in moves)[1]

    while evals < budget and best_f > target:
        order = np.argsort(-_loads(window, state.b6 == 0), kind="stable").tolist()
        width = TOP_B
        scored = 0
        accepted = False
        while width <= n_entries and not accepted and evals < budget:
            pool = order[:width]
            # the entries of a narrower pool have no improving single move:
            # the state has not changed since, so only their evaluations count
            spend((p - 1) * scored)
            fresh = np.array(pool[scored:], dtype=np.int64)
            # each entry scores its first p - 1 powers until the budget ends
            counts = spend((p - 1) * len(fresh)) - (p - 1) * np.arange(len(fresh))
            best_move = state.best_single(fresh, counts.clip(0, p - 1))
            scored = width
            if best_move is None and len(pool) >= 2:
                # all pairs are drawn even when the budget ends inside the
                # batch: a spent budget ends the search, so the rng is done
                pairs = [
                    (*rng.sample(pool, 2), rng.randrange(p), rng.randrange(p))
                    for _ in range(PAIR_SAMPLES)
                ]
                pairs = np.array(pairs[: spend(PAIR_SAMPLES)], dtype=np.int64).reshape(-1, 4)
                best_move = best_pair(pairs)
            if best_move is not None:
                state.apply(best_move)
                record_if_best()
                accepted = True
            else:
                width += TOP_B
        if not accepted and evals < budget and best_f > target:
            # plateau everywhere: random walk over a few entries, keeping
            # every 4-cycle inactive, then resume the descent from there
            restarts += 1
            for _ in range(1 + rng.randrange(2 * g)):
                e = rng.randrange(n_entries)
                values = [v for v in range(p) if v != state.flat[e]]
                rng.shuffle(values)
                hits = np.flatnonzero(state.hits4[e, values] == 0)
                if hits.size:
                    evals += int(hits[0]) + 1
                    state.apply([(e, values[hits[0]])])
                else:
                    evals += len(values)

    powers = tuple(tuple(int(x) for x in best_flat[i * k : (i + 1) * k]) for i in range(g))
    return CpoResult(
        powers=powers,
        f_sc=best_f,
        f_sc_initial=f_initial,
        trace=tuple(trace),
        evals=evals,
        restarts=restarts,
    )
