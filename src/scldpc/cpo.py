"""Circulant power optimizer: greedy descent on lifted 6-cycle counts.

Starting from the code's own powers (array-based ones guarantee no lifted
4-cycles), the optimizer scores the two-replica window, maps active-cycle
counts back onto the gamma*kappa circulants, and re-powers the most-loaded
circulants.  A move is accepted only when it strictly reduces the lifted
(3,3,3,0) count while keeping every window 4-cycle inactive.  On a plateau
the candidate pool widens; once exhausted, a short feasible random walk
perturbs a few entries and the descent resumes, with the best state ever
seen retained.

Candidates are read from a move table built once per state.  The window
keeps each cycle once, a single-replica one for its replica-shift pair
(weight L) and a two-replica one with weight L - 1.  Every window
coefficient is +-1, so a cycle that circulant e touches with balance b is
active under e -> v for exactly one power, v = f[e] - b*a (mod p); one
bincount over the window's per-circulant index then gives, for every
circulant at every power, the f_sc after the move and the 4-cycles it
activates.  Widening the pool and the plateau walk only read the table.  A
pair move adds its two single-move changes and corrects them over the
cycles both circulants touch, which a per-pair index lists.

Each state is handled in one pass.  One masked argmin over the table gives
every circulant's best improving single move, and so the first pool width
that holds one.  The widths before it are walked in integer evaluation
counts; their pair batches are drawn up front and scored in one call, the
first improving batch wins, and the random stream and the count go back to
its end.  The random draws are those of ``random.Random(seed)``, read off
its 32-bit words in bulk (:class:`~scldpc.words.WordStream`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cycles import EntryCycles, TwoReplicaWindow, build_window
from .qc import PartitionMask, ProtoMatrix, _check_coupling_length, is_prime
from .words import WordStream

__all__ = ["CpoResult", "cpo_optimize"]

# the candidate pool starts at the TOP_B most-loaded circulants and widens
# by TOP_B on a plateau; PAIR_SAMPLES random pair moves are tried per width
TOP_B = 3
PAIR_SAMPLES = 40


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
    power v the f_sc after e -> v (``f_after``) and the number of kept
    window 4-cycles that move activates (``hits4``, zero exactly when it
    activates none of the window's); both are (gamma*kappa, p).
    """

    def __init__(self, window: TwoReplicaWindow, flat: np.ndarray, L: int):
        self.win = window
        self.p = window.p
        self.n = window.n_entries
        self.flat = flat.copy()
        # (circulant, cycle, coefficient) of every cycle a circulant moves
        self.movers6, self.movers4 = (
            (t.keys(), t.cycles, t.coefs) for t in (window.touch6, window.touch4)
        )
        self.b6 = self._balances(self.movers6, len(window.ids6))
        self.b4 = self._balances(self.movers4, len(window.ids4))
        # an active cycle's share of f_sc / p
        self.w6 = np.where(window.dual6, L - 1, L)
        self.pairs6 = window.touch6.pairs()
        self.pairs4 = window.touch4.pairs()
        self._refresh()

    def _balances(self, movers, n_cycles: int) -> np.ndarray:
        """The cycles' alternating power sums mod p."""
        ents, cycles, coefs = movers
        return np.bincount(cycles, coefs * self.flat[ents], n_cycles).astype(np.int64) % self.p

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

    def best_singles(self) -> tuple[np.ndarray, np.ndarray]:
        """(f_sc after, power) of every circulant's best improving single
        move, ties to the lowest power; f_sc after is f_sc where none is."""
        scores = np.where((self.hits4 == 0) & (self.f_after < self.f_sc), self.f_after, self.f_sc)
        v = scores.argmin(axis=1)
        return scores[np.arange(self.n), v], v

    def clipped_single(
        self, ents: np.ndarray, counts: np.ndarray
    ) -> Optional[list[tuple[int, int]]]:
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


def _best_pair(pairs: np.ndarray, f: np.ndarray, k: int) -> list[tuple[int, int]]:
    """The pair move (e1, e2, v1, v2) of lowest (f, sorted (row, col, power) changes)."""
    moves = ([(e1, v1), (e2, v2)] for e1, e2, v1, v2 in pairs[f == f.min()].tolist())
    return min((tuple(sorted((e // k, e % k, v) for e, v in ch)), ch) for ch in moves)[1]


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
    circulants and widens by ``TOP_B`` on a plateau; each width scores every
    single move of its pool, (p - 1) per circulant, then ``PAIR_SAMPLES``
    random pairs, and the best move is the lowest (count, sorted (row, col,
    power) changes).  The state is scored once however many widths it takes;
    the evaluation count, the trace and the random stream are those of
    scoring the widths one after another, with ``random.Random(seed)``'s
    ``sample``, ``randrange`` and ``shuffle``.  Deterministic for fixed
    arguments.  Requires gamma = 3, L >= 2, kappa <= p with p prime,
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

    words = WordStream(seed)
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

    while evals < budget and best_f > target:
        # a state's words are replayed only within it
        words.drop_consumed()
        # circulants by their visits from active window 6-cycles, most first
        loads = np.bincount(window.ids6[state.b6 == 0].ravel(), minlength=n_entries)
        order = np.argsort(-loads, kind="stable").tolist()
        f_single, v_single = state.best_singles()
        ranked = np.flatnonzero(f_single[order] < state.f_sc)
        # the first width whose pool holds an improving single move
        single_at = TOP_B * (int(ranked[0]) // TOP_B + 1) if ranked.size else None

        # Walk the widths in integer evals: each re-scores its whole pool's
        # singles, (p - 1) per circulant, then draws PAIR_SAMPLES pairs from
        # the pool and scores those the budget still covers.  The state does
        # not change between widths, so the batches of every width before
        # single_at are drawn up front and scored in one pass.
        pairs: list[int] = []  # flattened (e1, e2, v1, v2)
        batches: list[tuple[int, int, int]] = []  # (pairs, stream position, evals) at each end
        clipped = single = None
        for width in range(TOP_B, n_entries + 1, TOP_B):
            if evals + (p - 1) * width > budget:
                clipped = width
                break
            evals += (p - 1) * width
            if width == single_at:
                # the lowest (f_sc, circulant) among the pool's newest ones
                e = min(order[width - TOP_B : width], key=lambda e: (f_single[e], e))
                single = [(e, int(v_single[e]))]
                break
            pool = order[:width]
            drawn = min(PAIR_SAMPLES, budget - evals)
            pairs += words.pairs(pool, p, drawn)
            evals += drawn
            batches.append((len(pairs) // 4, words.pos, evals))
            if evals == budget:
                break

        move = None
        if pairs:
            batch = np.array(pairs, dtype=np.int64).reshape(-1, 4)
            f, hits = state.pair_moves(batch)
            f = np.where(hits == 0, f, state.f_sc)
            better = np.flatnonzero(f < state.f_sc)
            if better.size:
                # the first width with an improving pair wins; the stream
                # and evals go back to the end of its batch
                ends = [end for end, _, _ in batches]
                j = bisect.bisect_right(ends, int(better[0]))
                _, words.pos, evals = batches[j]
                start = ends[j - 1] if j else 0
                move = _best_pair(batch[start : ends[j]], f[start : ends[j]], k)
        if move is None and clipped is not None:
            # the narrower pool has no improving single move, so only the
            # width's newest circulants are scored, each up to the budget
            fresh = np.array(order[clipped - TOP_B : clipped], dtype=np.int64)
            left = budget - evals - (p - 1) * (clipped - TOP_B)
            counts = (left - (p - 1) * np.arange(TOP_B)).clip(0, p - 1)
            move = state.clipped_single(fresh, counts)
            evals = budget
        elif move is None:
            move = single
        if move is not None:
            state.apply(move)
            record_if_best()
        elif evals < budget:
            # plateau everywhere: random walk over a few entries, keeping
            # every 4-cycle inactive, then resume the descent from there
            restarts += 1
            for _ in range(1 + words.below(2 * g)):
                e = words.below(n_entries)
                values = [v for v in range(p) if v != state.flat[e]]
                words.shuffle(values)
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
