"""Short-cycle enumeration for protographs and lifted QC codes.

A cycle through circulant positions lifts to p same-length cycles exactly
when its alternating power sum vanishes mod p; otherwise it lifts to p/beta
cycles that are beta times longer.  Because every cycle of length 4 or 6 in a
memory-1 coupled protograph spans at most two consecutive replicas, all
counting happens on a two-replica window with multiplicities (L, L-1) rather
than on the full L-long chain.

One row-pair/row-triple enumerator serves every consumer: the census and
girth test, the absorbing-set scan of hand-built Tanner graphs, and the
optimizer's window, which stores its 4- and 6-cycles as numpy
coefficient rows over the gamma*kappa circulant positions, plus a sparse
per-circulant index of the cycles each power moves; the optimizer tabulates
every single power change from that index at once, and builds a per-pair
index of the cycles two circulants share for its pair moves.

The (3,3,3,0) census has one path, :class:`CensusTable`: the active window
6-cycles kept as bit conditions on the partition mask, built once and scored
against a whole batch of masks in numpy.  A partition search builds it on the
union window, where every circulant may sit in H0 or H1; a single mask uses
its own window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator, Optional, Sequence

import numpy as np

from .qc import PartitionMask, ProtoMatrix, SCCode, _check_coupling_length

__all__ = [
    "TwoReplicaWindow",
    "EntryCycles",
    "build_window",
    "CensusTable",
    "union_census",
    "census_active_counts",
    "count_ugast_3330",
    "count_ugast_3330_for",
    "girth_check",
]

SPAN_R1, SPAN_R2, SPAN_DUAL = 0, 1, 2


def _row_triples(rows: Sequence[set[int]]) -> Iterator[tuple]:
    """Row triples r1<r2<r3 whose pairwise column overlaps are all nonempty.

    Yields (r1, r2, r3, s12, s13, s23) with sij = rows[ri] & rows[rj].  This
    and the two enumerators below are the only row-pair/row-triple loops.
    """
    for r1, r2, r3 in combinations(range(len(rows)), 3):
        s12 = rows[r1] & rows[r2]
        if not s12:
            continue
        s13 = rows[r1] & rows[r3]
        if not s13:
            continue
        s23 = rows[r2] & rows[r3]
        if not s23:
            continue
        yield r1, r2, r3, s12, s13, s23


def _six_cycles(rows: Sequence[set[int]]) -> Iterator[tuple[int, ...]]:
    """Every 6-cycle once, as (r1, r2, r3, a, b, c).

    The cycle visits (r1,a) (r1,b) (r3,b) (r3,c) (r2,c) (r2,a): a is shared
    by rows (r1,r2), b by (r1,r3), c by (r2,r3), all distinct.  The column
    triple is recoverable from the cycle, so each cycle appears exactly once.
    """
    for r1, r2, r3, s12, s13, s23 in _row_triples(rows):
        for a in sorted(s12):
            for b in sorted(s13):
                if b == a:
                    continue
                for c in sorted(s23):
                    if c != a and c != b:
                        yield r1, r2, r3, a, b, c


def _four_cycles(rows: Sequence[set[int]]) -> Iterator[tuple[int, ...]]:
    """Every 4-cycle once, as (r1, r2, a, b) with r1<r2 and a<b shared."""
    for r1, r2 in combinations(range(len(rows)), 2):
        for a, b in combinations(sorted(rows[r1] & rows[r2]), 2):
            yield r1, r2, a, b


def _window_row_support(mask: PartitionMask, block: int, i: int) -> set[int]:
    """Columns of window row (block, i); window has 2*kappa columns."""
    k = mask.kappa
    cols: set[int] = set()
    if block >= 1:
        # H1 part of replica block-1
        base = (block - 1) * k
        cols |= {base + j for j in range(k) if mask.assign[i][j] == 1}
    if block <= 1:
        # H0 part of replica block
        base = block * k
        cols |= {base + j for j in range(k) if mask.assign[i][j] == 0}
    return cols


def _window_rows(mask: PartitionMask) -> list[set[int]]:
    """Column supports of the 3*gamma window rows, block-major."""
    return [_window_row_support(mask, b, i) for b in range(3) for i in range(mask.gamma)]


def _csr(keys: np.ndarray, n_keys: int, cycles: np.ndarray, coefs: np.ndarray):
    """(ptr, cycles, coefs) grouped by key, each key's cycle ids ascending."""
    order = np.lexsort((cycles, keys))
    ptr = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n_keys))))
    return ptr, cycles[order], coefs[order]


@dataclass(frozen=True)
class EntryCycles:
    """The window cycles whose balance a circulant's power moves (CSR).

    Key k lists the cycle ids ``cycles[ptr[k]:ptr[k + 1]]`` (ascending) with
    their nonzero alternating-sum coefficients at the same rows of
    ``coefs``; a circulant that a cycle visits with opposite signs cancels
    and is not listed.  :meth:`of` keys by circulant e, with one coefficient
    per row.  :meth:`pairs` keys by circulant pair ``lo * n + hi`` (lo < hi,
    n circulants) and lists the cycles both circulants touch, with the
    (lo, hi) coefficients per row.
    """

    ptr: np.ndarray
    cycles: np.ndarray
    coefs: np.ndarray

    @classmethod
    def of(cls, coef: np.ndarray) -> "EntryCycles":
        """Per-circulant index of an (n_cycles, n_entries) coefficient table."""
        cycles, ents = np.nonzero(coef)
        return cls(*_csr(ents, coef.shape[1], cycles, coef[cycles, ents]))

    def keys(self) -> np.ndarray:
        """The key of every listed cycle, in listing order."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr))

    def pairs(self, keep: Optional[np.ndarray] = None) -> "EntryCycles":
        """Per-circulant-pair index of a per-circulant one.

        Only the cycles under the boolean ``keep`` (by cycle id) are listed
        when it is given.
        """
        n = len(self.ptr) - 1
        ents, cycles, coefs = self.keys(), self.cycles, self.coefs
        if keep is not None:
            kept = keep[cycles]
            ents, cycles, coefs = ents[kept], cycles[kept], coefs[kept]
        # by cycle, then circulant: a cycle's circulants sit next to each
        # other, ascending, at most six of them
        order = np.lexsort((ents, cycles))
        ents, cycles, coefs = ents[order], cycles[order], coefs[order]
        lo, hi = [], []
        for gap in range(1, 6):
            same = np.flatnonzero(cycles[gap:] == cycles[:-gap])
            lo.append(same)
            hi.append(same + gap)
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        pair_coefs = np.stack([coefs[lo], coefs[hi]], axis=1)
        return EntryCycles(*_csr(ents[lo] * n + ents[hi], n * n, cycles[lo], pair_coefs))

    def gather(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(position in ``keys``, cycle id, coefficients) of every listed cycle."""
        starts = self.ptr[keys]
        lens = self.ptr[keys + 1] - starts
        rows = np.repeat(np.arange(len(keys)), lens)
        pos = np.arange(len(rows)) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        return rows, self.cycles[pos], self.coefs[pos]


class TwoReplicaWindow:
    """Cycle tables of the two-replica coupled protograph, for the optimizer.

    Rows are indexed (block, local) with 3 blocks of gamma rows; columns run
    over 2*kappa, the first kappa belonging to replica 1.  The window stores

      coef6, coef4:    (n, gamma*kappa) alternating-sum coefficients per circulant
      touch6, touch4:  the same coefficients as an :class:`EntryCycles` index
                       over the circulants, for the optimizer's move table
                       and its updates after a power change
      inc6:            (n, gamma*kappa) 6-cycle visit multiplicities per circulant
      span6:           SPAN_R1 / SPAN_R2 / SPAN_DUAL per 6-cycle
      pos6_rows, pos6_cols:  (n, 6) window positions of each 6-cycle

    Circulants are numbered row-major, e = row * kappa + col.  Activity of
    every cycle under a flat power vector f is (coef @ f) % p == 0.  Every
    coefficient is 0 or +-1: no window row holds both copies j and j + kappa
    of a circulant column, so a cycle meets a circulant at most once per
    sign.  Each SPAN_R2 cycle is a SPAN_R1 cycle shifted by one replica,
    with the same coefficient row.
    """

    def __init__(self, proto: ProtoMatrix, mask: PartitionMask):
        if proto.gamma != mask.gamma or proto.kappa != mask.kappa:
            raise ValueError("protograph and mask shapes differ")
        self.proto = proto
        self.mask = mask
        self.gamma = proto.gamma
        self.kappa = proto.kappa
        self.p = proto.p
        self.n_entries = self.gamma * self.kappa
        self._build(_window_rows(mask))

    def _coef(self, pos_rows: np.ndarray, pos_cols: np.ndarray):
        """Signed and unsigned per-circulant visit counts of each cycle."""
        n, width = pos_rows.shape
        ids = (pos_rows % self.gamma) * self.kappa + pos_cols % self.kappa
        cells = (ids + self.n_entries * np.arange(n)[:, None]).ravel()
        signs = np.tile([1, -1], n * width // 2)
        size = n * self.n_entries
        coef = np.bincount(cells, weights=signs, minlength=size).astype(np.int16)
        inc = np.bincount(cells, minlength=size).astype(np.int8)
        return coef.reshape(n, self.n_entries), inc.reshape(n, self.n_entries)

    def _build(self, rows: list[set[int]]) -> None:
        # (r1, r2, r3, a, b, c) -> visiting order (r1,a) (r1,b) (r3,b) (r3,c) (r2,c) (r2,a)
        six = np.fromiter(chain.from_iterable(_six_cycles(rows)), dtype=np.int64).reshape(-1, 6)
        self.pos6_rows, self.pos6_cols = six[:, [0, 0, 2, 2, 1, 1]], six[:, [3, 4, 4, 5, 5, 3]]
        self.coef6, self.inc6 = self._coef(self.pos6_rows, self.pos6_cols)
        self.touch6 = EntryCycles.of(self.coef6)
        k = self.kappa
        self.span6 = np.full(six.shape[0], SPAN_DUAL, dtype=np.int8)
        self.span6[(self.pos6_cols < k).all(axis=1)] = SPAN_R1
        self.span6[(self.pos6_cols >= k).all(axis=1)] = SPAN_R2

        # (r1, r2, a, b) -> visiting order (r1,a) (r1,b) (r2,b) (r2,a)
        four = np.fromiter(chain.from_iterable(_four_cycles(rows)), dtype=np.int64).reshape(-1, 4)
        self.coef4, _ = self._coef(four[:, [0, 0, 1, 1]], four[:, [2, 3, 3, 2]])
        self.touch4 = EntryCycles.of(self.coef4)

    # -- evaluation --------------------------------------------------------

    def flat_powers(self, powers: Sequence[Sequence[int]]) -> np.ndarray:
        return np.asarray(powers, dtype=np.int64).reshape(-1)

    def balances6(self, flat: np.ndarray) -> np.ndarray:
        return (self.coef6 @ flat) % self.p

    def balances4(self, flat: np.ndarray) -> np.ndarray:
        return (self.coef4 @ flat) % self.p


def build_window(proto: ProtoMatrix, mask: PartitionMask) -> TwoReplicaWindow:
    return TwoReplicaWindow(proto, mask)


def _union_rows(gamma: int, kappa: int) -> list[set[int]]:
    """Window rows when every circulant may sit in H0 or H1 (block-major)."""
    r1, both, r2 = set(range(kappa)), set(range(2 * kappa)), set(range(kappa, 2 * kappa))
    return [r1] * gamma + [both] * gamma + [r2] * gamma


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """(n, m) 0/1 rows as (n, ceil(m / 64)) little-endian 64-bit words."""
    n, m = bits.shape
    out = np.zeros((n, 8 * -(-m // 64)), dtype=np.uint8)
    out[:, : -(-m // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")


# mask-by-condition cells tested at once: 256 kB of uint64 temporaries
SCORE_CELLS = 1 << 15


@dataclass(frozen=True)
class CensusTable:
    """Active window 6-cycles as bit conditions on a partition mask.

    A window cycle's balance reads the powers at (row mod gamma, col mod
    kappa), so whether it is active does not depend on the mask; the mask only
    decides whether the cycle exists.  Its entry in window row block b and
    replica t is circulant (row mod gamma, col mod kappa), which must sit in
    H_{b-t}.  Each active cycle is kept as that condition: the mask bits
    under ``care`` equal ``value`` (1 = H1), packed into 64-bit words over
    the gamma*kappa circulants (row-major, e = row * kappa + col).

    The first ``n_single`` rows are single-replica cycles.  These come as
    R1/R2 mirror pairs with one condition, so only the R1 cycle is kept and
    stands for the pair.  The other rows are two-replica cycles.
    """

    gamma: int
    kappa: int
    p: int
    care: np.ndarray
    value: np.ndarray
    n_single: int

    @classmethod
    def of_rows(cls, proto: ProtoMatrix, rows: Sequence[set[int]]) -> "CensusTable":
        """Table of the active 6-cycles among window rows ``rows``."""
        g, k, p = proto.gamma, proto.kappa, proto.p
        f = np.asarray(proto.powers, dtype=np.int64)
        words = -(-g * k // 64)
        singles, duals = [], []
        for r1, r2, r3, s12, s13, s23 in _row_triples(rows):
            a, b, c = (np.array(sorted(s), dtype=np.int64) for s in (s12, s13, s23))
            # balance of (r1,a) (r1,b) (r3,b) (r3,c) (r2,c) (r2,a), split by column
            fa = f[r1 % g, a % k] - f[r2 % g, a % k]
            fb = f[r3 % g, b % k] - f[r1 % g, b % k]
            fc = f[r2 % g, c % k] - f[r3 % g, c % k]
            # active: fa + fb = -fc mod p; only the bool array is three-dimensional
            keep = ((fa[:, None] + fb) % p)[:, :, None] == -fc % p
            keep &= (a[:, None] != b)[:, :, None]
            keep &= (a[:, None] != c)[:, None, :]
            keep &= b[:, None] != c
            ia, ib, ic = np.nonzero(keep)
            a, b, c = a[ia], b[ib], c[ic]
            # on[s]: the circulants the cycle needs in H_s, one bit each
            on = np.zeros((2, len(a), words), dtype=np.uint64)
            for r, col in ((r1, a), (r1, b), (r3, b), (r3, c), (r2, c), (r2, a)):
                e = (r % g) * k + col % k
                bit = np.uint64(1) << (e % 64).astype(np.uint64)
                on[r // g - col // k, np.arange(len(a)), e // 64] |= bit
            # a cycle needing one circulant on both sides never exists
            ok = ~(on[0] & on[1]).any(axis=1)
            in_r1 = (a < k) & (b < k) & (c < k)
            in_r2 = (a >= k) & (b >= k) & (c >= k)
            singles.append(on[:, ok & in_r1])
            duals.append(on[:, ok & ~in_r1 & ~in_r2])
        on = np.concatenate([np.empty((2, 0, words), np.uint64), *singles, *duals], axis=1)
        return cls(g, k, p, on[0] | on[1], on[1], sum(s.shape[1] for s in singles))

    def active_counts(self, assign) -> np.ndarray:
        """(n, 2) per-replica and two-replica active counts of n masks.

        ``assign`` holds the masks' 0/1 grids, shape (n, gamma, kappa).
        """
        grids = np.asarray(assign, dtype=np.uint8).reshape(-1, self.gamma * self.kappa)
        x = _pack_bits(grids)
        out = np.empty((len(x), 2), dtype=np.int64)
        step = max(1, SCORE_CELLS // max(1, len(self.care)))
        for lo in range(0, len(x), step):
            chunk = x[lo : lo + step, None, :]
            hit = (chunk[..., 0] & self.care[:, 0]) == self.value[:, 0]
            for w in range(1, x.shape[1]):
                hit &= (chunk[..., w] & self.care[:, w]) == self.value[:, w]
            out[lo : lo + step, 0] = np.count_nonzero(hit[:, : self.n_single], axis=1)
            out[lo : lo + step, 1] = np.count_nonzero(hit[:, self.n_single :], axis=1)
        return out

    def lifted_counts(self, assign, L: int) -> list[int]:
        """p times the active counts weighted (L, L-1), one Python int per mask."""
        _check_coupling_length(L)
        return [(L * s + (L - 1) * d) * self.p for s, d in self.active_counts(assign).tolist()]


def union_census(proto: ProtoMatrix) -> CensusTable:
    """Census table valid for every mask of the protograph's shape."""
    return CensusTable.of_rows(proto, _union_rows(proto.gamma, proto.kappa))


def _mask_census(proto: ProtoMatrix, mask: PartitionMask) -> CensusTable:
    """Census table of one mask's own window."""
    return CensusTable.of_rows(proto, _window_rows(mask))


def census_active_counts(proto: ProtoMatrix, mask: PartitionMask) -> tuple[int, int]:
    """(per-replica, two-replica) active 6-cycle counts of the window.

    Scores the one mask against the table of its own window; a
    single-replica cycle counts once for its R1/R2 mirror pair.
    """
    fs, fd = _mask_census(proto, mask).active_counts([mask.assign])[0]
    return int(fs), int(fd)


def _has_active_4cycle(proto: ProtoMatrix, mask: PartitionMask) -> bool:
    """Whether some window 4-cycle balances to 0 mod p, i.e. survives the lift."""
    g, k, p = proto.gamma, proto.kappa, proto.p
    f = proto.powers
    return any(
        (f[r1 % g][a % k] - f[r1 % g][b % k] + f[r2 % g][b % k] - f[r2 % g][a % k]) % p == 0
        for r1, r2, a, b in _four_cycles(_window_rows(mask))
    )


def count_ugast_3330_for(proto: ProtoMatrix, mask: PartitionMask, L: int) -> int:
    """p times the active window 6-cycles weighted (L, L-1).

    Unchecked: equals the (3,3,3,0) count only when no 4-cycle is active.
    Raises when L < 2.
    """
    return _mask_census(proto, mask).lifted_counts([mask.assign], L)[0]


def count_ugast_3330(code: SCCode) -> int:
    """Number of (3, 3, 3, 0) unlabeled absorbing sets in the lifted graph.

    For codes of girth at least 6 (the only kind the optimizers produce)
    these are exactly the lifted 6-cycles, counted as p times the active
    window cycles weighted (L, L-1); the full lifted graph is never walked.
    Codes with an active 4-cycle are refused.
    """
    if code.gamma != 3:
        raise ValueError("(3,3,3,0) counting requires column weight 3")
    if _has_active_4cycle(code.proto, code.mask):
        raise ValueError(
            "(3,3,3,0) counting requires girth at least 6, this code has girth 4"
        )
    return count_ugast_3330_for(code.proto, code.mask, code.L)


def girth_check(code: SCCode) -> float:
    """4 if the lift has an active 4-cycle, else 6 if an active 6-cycle, else inf."""
    if _has_active_4cycle(code.proto, code.mask):
        return 4
    if any(census_active_counts(code.proto, code.mask)):
        return 6
    return math.inf
