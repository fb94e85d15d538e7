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
(weight L) and a two-replica one with weight L - 1, and the optimizer takes
its 6-cycles, then its 4-cycles, as one cycle set.  Every window coefficient
is +-1, so a cycle that circulant e moves with balance b is active under
e -> v for exactly one power, v = f[e] - b*a (mod p); one integer bincount
over the per-circulant mover index then gives, for every circulant at every
power, the f_sc after the move and the 4-cycles it activates.  Widening the
pool reads the table, and a plateau-walk step reads only its circulant's
4-cycle row.  A pair move adds its two single-move changes and corrects
them over the cycles both circulants visit, which one per-pair index lists
for both cycle kinds.

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

from .cycles import TwoReplicaWindow, _expand, build_window
from .qc import PartitionMask, ProtoMatrix, _check_coupling_length, is_prime
from .words import WordStream

__all__ = ["CpoResult", "cpo_optimize"]

# the candidate pool starts at the TOP_B most-loaded circulants and widens
# by TOP_B on a plateau; PAIR_SAMPLES random pair moves are tried per width
TOP_B = 3
PAIR_SAMPLES = 40
# pair keys below this sort as 16-bit integers, which numpy radix-sorts
RADIX_KEYS = 1 << 16
# the position pairs (i, j), i < j, of a 4- and a 6-cycle
POSITION_PAIRS = {width: np.triu_indices(width, 1) for width in (4, 6)}


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


def _key_type(n_keys: int) -> type:
    """The integer type for sort keys below ``n_keys``: 16 bits, which numpy
    radix-sorts, where they fit."""
    return np.uint16 if n_keys <= RADIX_KEYS else np.int64


class _State:
    """Mutable descent state over one window, with its move table.

    The window's 6-cycles, then its 4-cycles, form one cycle set, and ``b``
    holds their balances (alternating power sums) mod p under ``flat``;
    ``b6`` and ``b4`` are views of its two parts.  Two indexes over the set
    are built once:

      movers:  per circulant e, the cycles whose balance e's power moves,
               cycle ids ascending (CSR ``ptr``, with ``cycles`` and
               ``coefs``; ``ptr4`` marks where e's 4-cycles start).  One
               sort of the (circulant, cycle) keys builds it.
      pairs:   per circulant pair ``lo * n + hi``, every position pair of
               every cycle that visits both (CSR ``pair_ptr``), with each
               position's coefficient and the cycle's class.

    No window cycle visits a circulant twice.  Window position (r, c) is
    circulant (r mod gamma, c mod kappa) on side r // gamma - c // kappa,
    and a mask puts each circulant on one side, so two visits of one
    circulant would sit at (r, c) and (r + gamma, c + kappa).  Rows r and
    r + gamma never share a column: a shared column x would put circulant
    (r mod gamma, x mod kappa) in both H0 and H1.  Yet any two rows of a
    window 4-cycle or 6-cycle share a column.  So no cycle that
    :func:`~scldpc.cycles.build_window` lists visits a circulant twice, and
    every coefficient is +-1.

    A cycle's class is 0 for a single-replica 6-cycle (weight L), 1 for a
    two-replica one (weight L - 1) and 2 for a 4-cycle.  A cycle is active
    under e -> v exactly at v = f[e] - b * coef (mod p).  Each mover keeps
    its cell ``base``, class * 2np + e * 2p + f[e], plus p for coefficient
    +1, which :meth:`move` shifts with f[e]; the cell ``base - b * coef``
    then lies in e's block [0, 2p).  One integer bincount, folded over the
    two p-blocks, counts per class the cycles each circulant activates at
    each power.  The move table holds, for every circulant e and power v,
    the f_sc after e -> v (``f_after``) and the number of kept window
    4-cycles that move activates (``hits4``, zero exactly when it activates
    none of the window's); both are (gamma*kappa, p) and exact in int64 (see
    :func:`cpo_optimize`).
    ``loads`` holds each circulant's visits from active 6-cycles.
    """

    def __init__(self, window: TwoReplicaWindow, flat: np.ndarray, L: int):
        self.p, self.n, self.L = window.p, window.n_entries, L
        p, n = self.p, self.n
        self.flat = flat.copy()
        self.dual6 = window.dual6
        m6, m4 = len(window.ids6), len(window.ids4)
        m = m6 + m4
        kinds = np.concatenate([window.dual6, np.full(m4, 2)]).astype(np.int8)
        # every visit, cycle by cycle: its circulant, cycle and sign
        visits = np.concatenate([window.ids6.ravel(), window.ids4.ravel()])
        cycles = np.concatenate([np.repeat(np.arange(m6), 6), np.repeat(np.arange(m6, m), 4)])
        signs = np.concatenate([np.tile([1, -1], 3 * m6), np.tile([1, -1], 2 * m4)])
        # cycles ascend, so a stable sort by circulant orders the keys
        order = np.argsort(visits.astype(_key_type(n)), kind="stable")
        keys = (visits * m + cycles)[order]
        ents, self.cycles, self.coefs = visits[order], cycles[order], signs[order]
        self.ptr = np.searchsorted(keys, np.arange(n + 1) * m)
        self.ptr4 = np.searchsorted(keys, np.arange(n) * m + m6)
        self.b = np.bincount(self.cycles, self.coefs * self.flat[ents], m).astype(np.int64) % p
        self.b6, self.b4 = self.b[:m6], self.b[m6:]
        first_cell = (kinds.astype(np.int64) * (2 * n * p))[self.cycles]
        self.base = first_cell + ents * (2 * p) + self.flat[ents] + p * (self.coefs > 0)
        self._index_pairs(visits * 4 + signs + 1, m6, m4, kinds)
        # zero[t] says whether t = 0 mod p, for t in [0, 5p)
        self.zero = (np.arange(5 * p) % p == 0).astype(np.int8)
        self.refresh()

    def _index_pairs(self, visits: np.ndarray, m6: int, m4: int, kinds: np.ndarray) -> None:
        """The per-pair index, from every visit's 4 * circulant + coefficient
        + 1, cycle by cycle; every coefficient is +-1."""
        n, lo, hi, cycles = self.n, [], [], []
        visits = visits.astype(_key_type(n * n))
        for width, first, count in ((6, 0, m6), (4, m6, m4)):
            i, j = POSITION_PAIRS[width]
            at = visits[6 * first : 6 * first + width * count].reshape(count, width).T
            # the lower circulant's visit packs to the lower value
            lo.append(np.minimum(at[i], at[j]).ravel())
            hi.append(np.maximum(at[i], at[j]).ravel())
            cycles.append(np.tile(np.arange(first, first + count), len(i)))
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        keys = (lo >> 2) * n + (hi >> 2)
        order = np.argsort(keys, kind="stable")
        self.pair_ptr = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n * n))))
        self.pair_cycles = np.concatenate(cycles)[order]
        self.pair_lo = (lo[order] & 3).astype(np.int8) - 1
        self.pair_hi = (hi[order] & 3).astype(np.int8) - 1
        self.pair_kinds = kinds[self.pair_cycles]

    def _cells(self, span) -> np.ndarray:
        return self.base[span] - self.b[self.cycles[span]] * self.coefs[span]

    def refresh(self) -> None:
        """f_sc and the move table of the current balances."""
        p, n, L = self.p, self.n, self.L
        active = self.b6 == 0
        # an active cycle weighs L, or L - 1 across both replicas
        duals = int(np.count_nonzero(active & self.dual6))
        self.f_sc = p * (L * int(np.count_nonzero(active)) - duals)
        table = np.bincount(self._cells(slice(None)), minlength=6 * n * p).reshape(3, n, 2, p)
        table = table[:, :, 0] + table[:, :, 1]
        # f_sc, less the moved cycles active now, plus those active after the move
        after = np.dot([p * L, p * (L - 1)], table[:2].reshape(2, -1)).reshape(n, p)
        now = (np.arange(n), self.flat)
        self.f_after = after - (after[now] - self.f_sc)[:, None]
        self.hits4 = table[2]
        # the active 6-cycles each circulant moves, which are its visits from
        # active 6-cycles, as no window cycle visits a circulant twice
        self.loads = table[0][now] + table[1][now]

    def hits4_row(self, e: int) -> np.ndarray:
        """``hits4[e]`` of the current balances, read off e's 4-cycle movers."""
        cells = self._cells(slice(self.ptr4[e], self.ptr[e + 1])) - (2 * self.n + e) * 2 * self.p
        row = np.bincount(cells, minlength=2 * self.p)
        return row[: self.p] + row[self.p :]

    def best_singles(self, limit: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """(f_sc after, power) of every circulant's best improving single
        move, ties to the lowest power; f_sc after is f_sc where none is.
        With ``limit``, circulant e takes only its first ``limit[e]`` powers
        other than its current one."""
        take = (self.hits4 == 0) & (self.f_after < self.f_sc)
        if limit is not None:
            v = np.arange(self.p)
            take &= v - (v > self.flat[:, None]) < limit[:, None]
        scores = np.where(take, self.f_after, self.f_sc)
        v = scores.argmin(axis=1)
        return scores[np.arange(self.n), v], v

    def pair_moves(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f_sc after, 4-cycles activated) of each move (e1, e2, v1, v2), e1 != e2.

        A pair move adds its two single moves and corrects them over the
        cycles both circulants visit: joint activity minus each single
        move's, plus the old.
        """
        p, m = self.p, len(pairs)
        e1, e2, v1, v2 = pairs.T
        f = self.f_after[e1, v1] + self.f_after[e2, v2] - self.f_sc
        hits = self.hits4[e1, v1] + self.hits4[e2, v2]
        swap = e1 > e2
        lo, hi = np.where(swap, e2, e1), np.where(swap, e1, e2)
        d1, d2 = v1 - self.flat[e1], v2 - self.flat[e2]
        d_lo, d_hi = np.where(swap, d2, d1), np.where(swap, d1, d2)
        starts = self.pair_ptr[lo * self.n + hi]
        lens = self.pair_ptr[lo * self.n + hi + 1] - starts
        rows, rank = _expand(lens)
        at = starts[rows] + rank
        # balances offset by 2p: every sum below lies in [0, 5p)
        t = self.b[self.pair_cycles[at]] + 2 * p
        t_lo = t + self.pair_lo[at] * d_lo[rows]
        t_hi = t + self.pair_hi[at] * d_hi[rows]
        fix = self.zero[t_lo + t_hi - t] - self.zero[t_lo] - self.zero[t_hi] + self.zero[t]
        fix = np.bincount(rows * 3 + self.pair_kinds[at], fix, 3 * m).astype(np.int64).reshape(m, 3)
        f += p * (self.L * fix[:, 0] + (self.L - 1) * fix[:, 1])
        return f, hits + fix[:, 2]

    def move(self, e: int, v: int) -> None:
        """Set circulant e to power v; the move table goes stale until :meth:`refresh`."""
        span = slice(self.ptr[e], self.ptr[e + 1])
        d = v - self.flat[e]
        cycles = self.cycles[span]
        # balances are linear in the powers
        self.b[cycles] = (self.b[cycles] + self.coefs[span] * d) % self.p
        self.base[span] += d
        self.flat[e] = v

    def apply(self, changes: list[tuple[int, int]]) -> None:
        for e, v in changes:
            self.move(e, v)
        self.refresh()


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
    Every count is exact in int64, which bounds L: 2 * p * L * m must stay
    below 2**63, where m is the number of window 6-cycles kept (at least 1);
    a larger L is refused before the descent starts.
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
    # f_sc, the move table and every pair score stay within 2 p L (6-cycles)
    if 2 * p * L * max(len(window.ids6), 1) > np.iinfo(np.int64).max:
        raise ValueError(f"CPO counts at L={L} would leave the exact int64 range")
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
        order = np.argsort(-state.loads, kind="stable").tolist()
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
        for width in range(TOP_B, n_entries + 1, TOP_B):
            newest = order[width - TOP_B : width]
            if evals + (p - 1) * width > budget:
                # the narrower pool has no improving single move, so only the
                # width's newest circulants are scored, each up to the budget
                left = budget - evals - (p - 1) * (width - TOP_B)
                limit = np.zeros(n_entries, dtype=np.int64)
                limit[newest] = (left - (p - 1) * np.arange(TOP_B)).clip(0, p - 1)
                f_single, v_single = state.best_singles(limit)
                evals = budget
                break
            evals += (p - 1) * width
            if width == single_at:
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
        if move is None:
            # the lowest (f_sc, circulant) among the last width's newest ones;
            # a width before single_at holds no improving single move
            e = min(newest, key=lambda e: (f_single[e], e))
            if f_single[e] < state.f_sc:
                move = [(e, int(v_single[e]))]
        if move is not None:
            state.apply(move)
            record_if_best()
        elif evals < budget:
            # plateau everywhere: random walk over a few entries, keeping
            # every 4-cycle inactive, then resume the descent from there;
            # a step reads only its circulant's 4-cycle row of the table
            restarts += 1
            for _ in range(1 + words.below(2 * g)):
                e = words.below(n_entries)
                values = [v for v in range(p) if v != state.flat[e]]
                words.shuffle(values)
                hits = np.flatnonzero(state.hits4_row(e)[values] == 0)
                if hits.size:
                    evals += int(hits[0]) + 1
                    state.move(e, values[hits[0]])
                else:
                    evals += len(values)
            state.refresh()

    powers = tuple(tuple(int(x) for x in best_flat[i * k : (i + 1) * k]) for i in range(g))
    return CpoResult(
        powers=powers,
        f_sc=best_f,
        f_sc_initial=f_initial,
        trace=tuple(trace),
        evals=evals,
        restarts=restarts,
    )
