"""Circulant power optimizer: greedy descent on lifted 6-cycle counts.

Starting from the code's own powers (array-based ones guarantee no lifted
4-cycles), the optimizer scores the two-replica window, maps active-cycle
counts back onto the gamma*kappa circulants, and re-powers the most-loaded
circulants.  A move is accepted only when it strictly reduces the lifted
(3,3,3,0) count while keeping every window 4-cycle inactive.  On a plateau
the candidate pool widens; once exhausted, a short feasible random walk
perturbs a few entries and the descent resumes, with the best state ever
seen retained.

Candidates are scored in batches: all alternative powers of one pool entry
at once, then the random pair moves of a pool at once.  A batch reads only
the window cycles its entries touch (the window's sparse per-circulant
index), checks the 4-cycle balances first, and scores the survivors as the
current active counts plus their change over the touched 6-cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cycles import SPAN_DUAL, EntryCycles, TwoReplicaWindow, build_window
from .qc import PartitionMask, ProtoMatrix, _check_coupling_length, is_prime

__all__ = ["CpoResult", "active_census", "cpo_optimize"]

# the candidate pool starts at the TOP_B most-loaded circulants and widens
# by TOP_B on a plateau; PAIR_SAMPLES random pair moves are tried per width
TOP_B = 3
PAIR_SAMPLES = 40


def _loads(window: TwoReplicaWindow, act: np.ndarray) -> np.ndarray:
    """Per-circulant visits of the active 6-cycles ``act``, two-replica ones counted twice."""
    weights = np.where(window.span6[act] == SPAN_DUAL, 2, 1)
    return weights @ window.inc6[act]


def active_census(
    window: TwoReplicaWindow, powers
) -> tuple[np.ndarray, int, int]:
    """Weighted active-cycle count per circulant, plus (Fa_s, Fa_d).

    Each active one-replica cycle adds 1 at every window position it visits,
    each active two-replica cycle adds 2; positions are folded onto their
    gamma x kappa circulants.
    """
    act = window.balances6(window.flat_powers(powers)) == 0
    duals = int(np.count_nonzero(act & (window.span6 == SPAN_DUAL)))
    singles = int(np.count_nonzero(act)) - duals
    return _loads(window, act).reshape(window.gamma, window.kappa), singles // 2, duals


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
    """Mutable descent state over one window.

    ``b4`` and ``b6`` are the window cycles' balances mod p under ``flat``,
    ``singles`` and ``duals`` the active one- and two-replica 6-cycles.  A
    batch of moves is given as (m, width) arrays: move i sets entry
    ``ents[i, j]`` to power ``vals[i, j]`` for every j.
    """

    def __init__(self, window: TwoReplicaWindow, flat: np.ndarray, L: int):
        self.win = window
        self.L = L
        self.p = window.p
        self.flat = flat.copy()
        self.b6 = window.balances6(self.flat)
        self.b4 = window.balances4(self.flat)
        self.dual = window.span6 == SPAN_DUAL
        self._count()

    def _count(self) -> None:
        act = self.b6 == 0
        self.duals = int(np.count_nonzero(act & self.dual))
        self.singles = int(np.count_nonzero(act)) - self.duals
        self.f_sc = self._score(self.singles, self.duals)

    def _score(self, singles, duals):
        return (self.L * (singles // 2) + (self.L - 1) * duals) * self.p

    def _moved(
        self,
        b: np.ndarray,
        coef: np.ndarray,
        index: EntryCycles,
        ents: np.ndarray,
        vals: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(move, cycle, new balance) once per cycle a move touches."""
        deltas = vals - self.flat[ents]
        width = ents.shape[1]
        parts = []
        for j in range(width):
            rows, cycles, cf = index.gather(ents[:, j])
            change = cf * deltas[rows, j]
            for o in range(width):
                if o != j:
                    change += coef[cycles, ents[rows, o]] * deltas[rows, o]
            if j:
                # a cycle that an earlier entry of the move touches was listed there
                keep = (coef[cycles[:, None], ents[rows, :j]] == 0).all(axis=1)
                rows, cycles, change = rows[keep], cycles[keep], change[keep]
            parts.append((rows, cycles, change))
        rows, cycles, change = (np.concatenate(x) for x in zip(*parts))
        return rows, cycles, (b[cycles] + change) % self.p

    def valid(self, ents: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Which moves keep every window 4-cycle inactive."""
        rows, _, new = self._moved(self.b4, self.win.coef4, self.win.touch4, ents, vals)
        return np.bincount(rows[new == 0], minlength=len(ents)) == 0

    def score(self, ents: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """f_sc after each move (moves assumed valid)."""
        rows, cycles, new = self._moved(self.b6, self.win.coef6, self.win.touch6, ents, vals)
        gained = (new == 0).astype(np.int64) - (self.b6[cycles] == 0)
        dual = self.dual[cycles]
        d_duals = np.bincount(rows, weights=gained * dual, minlength=len(ents)).astype(np.int64)
        d_singles = np.bincount(rows, weights=gained * ~dual, minlength=len(ents)).astype(np.int64)
        return self._score(self.singles + d_singles, self.duals + d_duals)

    def apply(self, changes: list[tuple[int, int]]) -> None:
        ents, vals = np.array(changes, dtype=np.int64).T[:, None]
        for b, coef, index in (
            (self.b4, self.win.coef4, self.win.touch4),
            (self.b6, self.win.coef6, self.win.touch6),
        ):
            _, cycles, new = self._moved(b, coef, index, ents, vals)
            b[cycles] = new
        self.flat[ents[0]] = vals[0]
        self._count()


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

    def best_of(ents: np.ndarray, vals: np.ndarray) -> Optional[tuple[int, tuple, list]]:
        # best improving move as (f_sc, sorted (row, col, power) key, changes)
        ok = state.valid(ents, vals)
        ents, vals = ents[ok], vals[ok]
        f = state.score(ents, vals)
        if not f.size or f.min() >= state.f_sc:
            return None
        f_best = int(f.min())
        moves = (list(zip(ents[i].tolist(), vals[i].tolist())) for i in np.flatnonzero(f == f_best))
        return min((f_best, tuple(sorted((e // k, e % k, v) for e, v in ch)), ch) for ch in moves)

    def entry_moves(e: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.full((len(values), 1), e), values[:, None]

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
            best_move = None
            for e in pool[scored:]:
                values = np.flatnonzero(np.arange(p) != state.flat[e])[: spend(p - 1)]
                if not values.size:
                    break
                move = best_of(*entry_moves(e, values))
                if move is not None and (best_move is None or move[:2] < best_move[:2]):
                    best_move = move
            scored = width
            if best_move is None and len(pool) >= 2:
                # all pairs are drawn even when the budget ends inside the
                # batch: a spent budget ends the search, so the rng is done
                pairs = [
                    (*rng.sample(pool, 2), rng.randrange(p), rng.randrange(p))
                    for _ in range(PAIR_SAMPLES)
                ]
                pairs = np.array(pairs[: spend(PAIR_SAMPLES)], dtype=np.int64).reshape(-1, 4)
                best_move = best_of(pairs[:, :2], pairs[:, 2:])
            if best_move is not None:
                state.apply(best_move[2])
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
                hits = np.flatnonzero(state.valid(*entry_moves(e, np.array(values))))
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
