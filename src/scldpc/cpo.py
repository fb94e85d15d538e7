"""Circulant power optimizer: greedy descent on lifted 6-cycle counts.

Starting from array-based powers (which guarantee no lifted 4-cycles), the
optimizer scores the two-replica window, maps active-cycle counts back onto
the gamma*kappa circulants, and re-powers the most-loaded circulants.  A move
is accepted only when it strictly reduces the lifted (3,3,3,0) count while
keeping every window 4-cycle inactive.  On a plateau the candidate pool
widens; once exhausted, a short feasible random walk perturbs a few entries
and the descent resumes, with the best state ever seen retained.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cycles import SPAN_DUAL, TwoReplicaWindow, build_window
from .qc import PartitionMask, ProtoMatrix, _check_coupling_length, is_prime

__all__ = ["CpoResult", "active_census", "cpo_optimize"]

# the candidate pool starts at the TOP_B most-loaded circulants and widens
# by TOP_B on a plateau; PAIR_SAMPLES random pair moves are tried per width
TOP_B = 3
PAIR_SAMPLES = 40


def active_census(
    window: TwoReplicaWindow, powers
) -> tuple[np.ndarray, int, int]:
    """Weighted active-cycle count per circulant, plus (Fa_s, Fa_d).

    Each active one-replica cycle adds 1 at every window position it visits,
    each active two-replica cycle adds 2; positions are folded onto their
    gamma x kappa circulants.
    """
    flat = window.flat_powers(powers)
    act = window.balances6(flat) == 0
    weights = np.where(window.span6 == SPAN_DUAL, 2, 1) * act
    counts = weights.astype(np.int64) @ window.inc6
    singles = int(np.count_nonzero(act & (window.span6 != SPAN_DUAL)))
    duals = int(np.count_nonzero(act & (window.span6 == SPAN_DUAL)))
    return counts.reshape(window.gamma, window.kappa), singles // 2, duals


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

    ``b4`` and ``b6`` are the window cycles' balances mod p under ``flat``;
    ``moved`` is the one update rule for a change of one entry's power.
    """

    def __init__(self, window: TwoReplicaWindow, flat: np.ndarray, L: int):
        self.win = window
        self.L = L
        self.p = window.p
        self.flat = flat.copy()
        self.b6 = window.balances6(self.flat)
        self.b4 = window.balances4(self.flat)
        self.dual = window.span6 == SPAN_DUAL
        self.f_sc = self._score(self.b6)

    def _score(self, b6: np.ndarray) -> int:
        act = b6 == 0
        singles = int(np.count_nonzero(act & ~self.dual))
        duals = int(np.count_nonzero(act & self.dual))
        return (self.L * (singles // 2) + (self.L - 1) * duals) * self.p

    def moved(self, b: np.ndarray, coef_byentry: np.ndarray, e: int, v: int) -> np.ndarray:
        """Balances ``b`` after entry e moves from its current power to v."""
        return (b + coef_byentry[e] * (int(v) - int(self.flat[e]))) % self.p

    def try_changes(self, changes: list[tuple[int, int]]) -> Optional[int]:
        """Score after setting entry e to power v; None if a 4-cycle activates.

        The 4-cycle balances are checked first, so a rejected move never
        touches the larger 6-cycle table.
        """
        b4 = self.b4
        for e, v in changes:
            b4 = self.moved(b4, self.win.coef4_byentry, e, v)
        if not b4.all():
            return None
        b6 = self.b6
        for e, v in changes:
            b6 = self.moved(b6, self.win.coef6_byentry, e, v)
        return self._score(b6)

    def apply(self, changes: list[tuple[int, int]]) -> None:
        for e, v in changes:
            self.b4 = self.moved(self.b4, self.win.coef4_byentry, e, v)
            self.b6 = self.moved(self.b6, self.win.coef6_byentry, e, v)
            self.flat[e] = v
        self.f_sc = self._score(self.b6)


def cpo_optimize(
    proto: ProtoMatrix,
    mask: PartitionMask,
    L: int,
    budget: int = 100_000,
    seed: int = 0,
    target: int = 0,
) -> CpoResult:
    """Minimize the lifted (3,3,3,0) count by re-powering circulants.

    ``budget`` caps candidate evaluations; the search also stops once the
    count reaches ``target``.  The candidate pool starts at the ``TOP_B``
    most-loaded circulants and widens by ``TOP_B`` on a plateau.
    Deterministic for fixed arguments.  Requires gamma = 3, L >= 2 and an
    array-based start (kappa <= p, p prime).
    """
    if proto.gamma != 3:
        raise ValueError("the optimizer is defined for column weight 3")
    if proto.kappa > proto.p or not is_prime(proto.p):
        raise ValueError("array-based initialization needs kappa <= p with p prime")
    _check_coupling_length(L)
    g, k, p = proto.gamma, proto.kappa, proto.p

    ab = np.array([[(i * j) % p for j in range(k)] for i in range(g)], dtype=np.int64)
    window = build_window(proto, mask)
    state = _State(window, ab.reshape(-1), L)
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
                for e in range(n_entries)
                if state.flat[e] != best_flat[e]
            )
            best_f = state.f_sc
            best_flat = state.flat.copy()
            trace.append((evals, diff, state.f_sc))

    def best_of(moves) -> Optional[tuple[int, tuple, list[tuple[int, int]]]]:
        # best = (f_sc, lexicographic (row, col, power) key, changes)
        nonlocal evals
        best = None
        for changes in moves:
            if evals >= budget:
                break
            evals += 1
            f = state.try_changes(changes)
            if f is not None and f < state.f_sc:
                key = tuple(sorted((e // k, e % k, v) for e, v in changes))
                if best is None or (f, key) < best[:2]:
                    best = (f, key, changes)
        return best

    def random_pairs(pool: list[int]):
        for _ in range(PAIR_SAMPLES):
            e1, e2 = rng.sample(pool, 2)
            yield [(e1, rng.randrange(p)), (e2, rng.randrange(p))]

    while evals < budget and best_f > target:
        counts, _, _ = active_census(window, state.flat.reshape(g, k))
        order = sorted(range(n_entries), key=lambda e: (-counts.reshape(-1)[e], e))
        width = TOP_B
        accepted = False
        while width <= n_entries and not accepted and evals < budget:
            pool = order[:width]
            best_move = best_of([(e, v)] for e in pool for v in range(p) if v != state.flat[e])
            if best_move is None and len(pool) >= 2:
                best_move = best_of(random_pairs(pool))
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
                for v in values:
                    evals += 1
                    if state.moved(state.b4, window.coef4_byentry, e, v).all():
                        state.apply([(e, v)])
                        break

    powers = tuple(tuple(int(x) for x in best_flat[i * k : (i + 1) * k]) for i in range(g))
    return CpoResult(
        powers=powers,
        f_sc=best_f,
        f_sc_initial=f_initial,
        trace=tuple(trace),
        evals=evals,
        restarts=restarts,
    )
