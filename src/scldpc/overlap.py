"""Exact 6-cycle counting over overlap parameters and optimal partitioning.

For a column-weight-3 coupled protograph, every 6-cycle spans either one
replica or two consecutive replicas, so the total count is

    F = L * Fs + (L - 1) * Fd,

where Fs and Fd only depend on how the all-ones 3 x kappa protograph is split
between the two halves H0 and H1.  That split is captured by seven overlap
parameters: the H0 population of each row (r0, r1, r2), the pairwise overlap
sizes (o01, o02, o12), and the three-way overlap o012.  The H1-side values
follow by complementation.

Fs and Fd decompose into four terms each, one per placement of the cycle's
check rows relative to H0/H1 (and, for the two-replica terms, per placement
of its variable columns relative to the replicas).  Each term is a sum of
products of position counts, with every product clamped at zero to discard
degenerate choices.  The term functions are plain arithmetic, so the same
definitions score one vector in Python ints (``cycle6_census``) or a whole
array of vectors in int64 numpy columns (the solver).  Nothing is cached.

Minimizing F over all valid overlap vectors (subject to a balance constraint
on r0+r1+r2) yields the optimal-overlap partitioning.  The valid vectors are
built one r0 slab at a time as a (7, n) array in the nested-loop order.  The
census is invariant under the six row permutations and the swap of halves,
so the solver builds only representatives of these 12 symmetries (about a
tenth of the vectors at odd kappa, a fifth at even kappa), scores them in
chunks of at most ``SOLVE_VECTORS``, and expands the optimal ones to their
orbits; memory stays at one slab plus one chunk.  A counting identity gives
the number of masks realizing any given vector.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cycles import _expand
from .qc import PartitionMask, _check_coupling_length

__all__ = [
    "OverlapVector",
    "CycleCensus",
    "OverlapConstraintError",
    "count_cycles_same_half",
    "count_cycles_split_half",
    "count_cycles_two_replica_band",
    "count_cycles_two_replica_corner",
    "cycle6_census",
    "enumerate_valid_overlaps",
    "solve_optimal_overlap",
    "OOSolution",
    "count_partition_choices",
    "pattern_counts",
    "realize_mask",
]

MAX_KAPPA = 64

# overlap vectors the solver scores in one pass: 128 kB per int64 column
SOLVE_VECTORS = 1 << 14


class OverlapConstraintError(ValueError):
    """An overlap vector violates one of its validity chains."""


def _pos(x):
    """Clamp at zero, for an int or elementwise for an int64 array."""
    return x * (x > 0)


def _check_exact_range(L: int, peak: int) -> None:
    """Refuse L when totals up to L * peak (peak = largest Fs + Fd) may not fit int64."""
    if L * max(peak, 1) > np.iinfo(np.int64).max:
        raise ValueError(f"6-cycle totals at L={L} would leave the exact int64 range")


def count_cycles_same_half(o01: int, o02: int, o12: int, o012: int) -> int:
    """6-cycles whose three linking columns are pairwise overlaps of one half.

    Equivalently: the 6-cycle count of a 3-row binary matrix with the given
    pairwise and three-way overlap sizes.  Columns in the three-way overlap
    belong to all three pair sets, so they are split out to keep the three
    chosen columns distinct.  With o012 = 0 this reduces to o01*o02*o12.
    """
    return (
        _pos(o012 * (o012 - 1) * (o12 - 2))
        + _pos(o012 * (o02 - o012) * (o12 - 1))
        + _pos((o01 - o012) * o012 * (o12 - 1))
        + _pos((o01 - o012) * (o02 - o012) * o12)
    )


def count_cycles_split_half(
    r0: int, r1: int, r2: int, o01: int, o02: int, o12: int, o012: int
) -> int:
    """Single-replica 6-cycles with two check rows in the half, one opposite.

    One linking column comes from a pair overlap of the half; the other two
    columns sit in the half for one row but in the complement for the other.
    Grouped by which row pair supplies the in-half overlap.
    """
    return (
        # overlap from rows (0,1); crossing columns against row 2's complement
        _pos(o012 * (o01 - o012) * (r1 - o12 - 1))
        + _pos(o012 * (r0 - o01 - o02 + o012) * (r1 - o12))
        + _pos((o01 - o012) * (o01 - o012 - 1) * (r1 - o12 - 2))
        + _pos((o01 - o012) * (r0 - o01 - o02 + o012) * (r1 - o12 - 1))
        # overlap from rows (0,2)
        + _pos(o012 * (o02 - o012) * (r0 - o01 - 1))
        + _pos(o012 * (r2 - o02 - o12 + o012) * (r0 - o01))
        + _pos((o02 - o012) * (o02 - o012 - 1) * (r0 - o01 - 2))
        + _pos((o02 - o012) * (r2 - o02 - o12 + o012) * (r0 - o01 - 1))
        # overlap from rows (1,2)
        + _pos(o012 * (o12 - o012) * (r2 - o02 - 1))
        + _pos(o012 * (r1 - o01 - o12 + o012) * (r2 - o02))
        + _pos((o12 - o012) * (o12 - o012 - 1) * (r2 - o02 - 2))
        + _pos((o12 - o012) * (r1 - o01 - o12 + o012) * (r2 - o02 - 1))
    )


def count_cycles_two_replica_band(
    kappa: int, r0: int, r1: int, r2: int, o01: int, o02: int, o12: int, o012: int
) -> int:
    """Two-replica 6-cycles with all three check rows in the coupling band.

    One linking column is a pair overlap of the complement half (first
    replica); the other two are pair overlaps of the half itself (second
    replica).  The complement pair sizes follow from kappa.
    """
    c01 = kappa - r0 - r1 + o01
    c02 = kappa - r0 - r2 + o02
    c12 = kappa - r1 - r2 + o12
    return (
        _pos(c01 * o012 * (o12 - 1))
        + _pos(c01 * (o02 - o012) * o12)
        + _pos(c02 * o012 * (o01 - 1))
        + _pos(c02 * (o12 - o012) * o01)
        + _pos(c12 * o012 * (o02 - 1))
        + _pos(c12 * (o01 - o012) * o02)
    )


def count_cycles_two_replica_corner(
    r0: int, r1: int, r2: int, o01: int, o02: int, o12: int, o012: int
) -> int:
    """Two-replica 6-cycles with one check row outside the coupling band.

    The outside row contributes a pair overlap of the half; the remaining two
    linking columns cross between the half and its complement.
    """
    return (
        _pos(o01 * (r2 - o02 - o12 + o012) * (r2 - o12 - 1))
        + _pos(o01 * (o12 - o012) * (r2 - o12))
        + _pos(o02 * (r1 - o01 - o12 + o012) * (r1 - o01 - 1))
        + _pos(o02 * (o01 - o012) * (r1 - o01))
        + _pos(o12 * (r0 - o01 - o02 + o012) * (r0 - o02 - 1))
        + _pos(o12 * (o02 - o012) * (r0 - o02))
    )


@dataclass(frozen=True, order=True)
class OverlapVector:
    """Row populations and overlap sizes of H0 in the all-ones protograph."""

    r0: int
    r1: int
    r2: int
    o01: int
    o02: int
    o12: int
    o012: int

    def as_list(self) -> list[int]:
        return [self.r0, self.r1, self.r2, self.o01, self.o02, self.o12, self.o012]

    def complement(self, kappa: int) -> "OverlapVector":
        """The same quantities measured on H1 instead of H0."""
        return OverlapVector(*_complement(kappa, *self.as_list()))

    def violated_chains(self, kappa: int) -> list[str]:
        """Names of validity chains this vector breaks (empty when valid)."""
        v = self
        bad = []
        if not 0 <= v.r0 <= kappa:
            bad.append("0 <= r0 <= kappa")
        if not 0 <= v.o01 <= v.r0:
            bad.append("0 <= o01 <= r0")
        if not v.o01 <= v.r1 <= kappa - v.r0 + v.o01:
            bad.append("o01 <= r1 <= kappa - r0 + o01")
        if not 0 <= v.o012 <= v.o01:
            bad.append("0 <= o012 <= o01")
        if not v.o012 <= v.o02 <= v.r0 - v.o01 + v.o012:
            bad.append("o012 <= o02 <= r0 - o01 + o012")
        if not v.o012 <= v.o12 <= v.r1 - v.o01 + v.o012:
            bad.append("o012 <= o12 <= r1 - o01 + o012")
        lo2 = v.o02 + v.o12 - v.o012
        hi2 = kappa - v.r0 - v.r1 + v.o01 + v.o02 + v.o12 - v.o012
        if not lo2 <= v.r2 <= hi2:
            bad.append("o02 + o12 - o012 <= r2 <= kappa - r0 - r1 + o01 + o02 + o12 - o012")
        s = v.r0 + v.r1 + v.r2
        if not (3 * kappa) // 2 <= s <= -((-3 * kappa) // 2):
            bad.append("floor(3*kappa/2) <= r0 + r1 + r2 <= ceil(3*kappa/2)")
        return bad

    def validate(self, kappa: int) -> None:
        bad = self.violated_chains(kappa)
        if bad:
            raise OverlapConstraintError(
                f"overlap vector {self.as_list()} invalid at kappa={kappa}: "
                + "; ".join(bad)
            )


@dataclass(frozen=True)
class CycleCensus:
    """6-cycle counts of the coupled protograph, split by placement case.

    ``single`` holds the four one-replica components (checks all in H0, all
    in H1, 2+1 split, 1+2 split); ``cross`` the four two-replica components.
    """

    single: tuple[int, int, int, int]
    cross: tuple[int, int, int, int]
    L: int

    @property
    def fs(self) -> int:
        return sum(self.single)

    @property
    def fd(self) -> int:
        return sum(self.cross)

    @property
    def total(self) -> int:
        return self.L * self.fs + (self.L - 1) * self.fd


def _complement(kappa, r0, r1, r2, o01, o02, o12, o012) -> tuple:
    """H1-side parameters from H0-side ones, for ints or int64 arrays alike."""
    return (
        kappa - r0,
        kappa - r1,
        kappa - r2,
        kappa - r0 - r1 + o01,
        kappa - r0 - r2 + o02,
        kappa - r1 - r2 + o12,
        kappa - (r0 + r1 + r2) + (o01 + o02 + o12) - o012,
    )


def _census_terms(kappa: int, v: Sequence, w: Sequence) -> tuple[tuple, tuple]:
    """The four single- and four two-replica components of H0 ``v``, H1 ``w``.

    ``v`` and ``w`` hold the seven parameters in field order, as ints or as
    int64 columns of equal length.
    """
    single = (
        count_cycles_same_half(*v[3:]),
        count_cycles_same_half(*w[3:]),
        count_cycles_split_half(*v),
        count_cycles_split_half(*w),
    )
    cross = (
        count_cycles_two_replica_band(kappa, *v),
        count_cycles_two_replica_band(kappa, *w),
        count_cycles_two_replica_corner(*v),
        count_cycles_two_replica_corner(*w),
    )
    return single, cross


def cycle6_census(vector: OverlapVector, kappa: int, L: int) -> CycleCensus:
    """Closed-form 6-cycle census of the coupled protograph.

    Single-replica and two-replica components are evaluated once with the H0
    parameters and once with their complements.  Raises when the vector
    violates a validity chain, naming the chain, when L < 2, or when the
    total could leave the int64 range the solver computes in.
    """
    _check_coupling_length(L)
    vector.validate(kappa)
    v = vector.as_list()
    single, cross = _census_terms(kappa, v, _complement(kappa, *v))
    _check_exact_range(L, sum(single) + sum(cross))
    return CycleCensus(single=single, cross=cross, L=L)


def _nest(cols: list, start: np.ndarray, stop: np.ndarray) -> list:
    """Repeat each row once per value of a new column ranging over [start, stop).

    Rows keep their order and the new values ascend within each row, so the
    result is the order of a loop nested one level deeper.
    """
    row, offset = _expand(np.maximum(stop - start, 0))
    return [c[row] for c in cols] + [start[row] + offset]


def _overlap_slabs(kappa: int, canonical: bool = False) -> Iterator[np.ndarray]:
    """Yield the valid vectors of each r0 in turn, as (7, n) int64 arrays.

    Columns are in field order, rows in the order of the nested loop over
    r0, o01, r1, o012, o02, o12, r2, where each range prunes with the values
    already fixed and the balance constraint folds into the ranges of o12
    and r2.

    With ``canonical``, only representatives of the census symmetries are
    kept (see :func:`_orbit_union`), at least one per orbit: vectors with
    r0 <= r1 <= r2 and, since the swap of halves maps the row sum s to
    3 kappa - s and, on sorted rows, r0 + r2 to 2 kappa - r0 - r2, only
    s = floor(3 kappa / 2) at odd kappa and r0 + r2 <= kappa at even kappa.
    The row sum is then fixed, so r2 = s - r0 - r1 and every rule is a bound
    on r0 or r1.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if kappa > MAX_KAPPA:
        raise ValueError(f"kappa above {MAX_KAPPA} not supported")
    bal_lo = (3 * kappa) // 2
    bal_hi = -((-3 * kappa) // 2)
    r0_stop = kappa + 1
    if canonical:
        # one row sum s = bal_lo: r0 <= r1 <= r2 = s - r0 - r1 bounds r0 by
        # s // 3 and r1 by (s - r0) // 2, and at even kappa r0 + r2 <= kappa
        # is r1 >= s - kappa
        bal_hi = bal_lo
        r0_stop = bal_lo // 3 + 1
        r1_floor = bal_lo - kappa if kappa % 2 == 0 else 0
    for r0 in range(r0_stop):
        o01 = np.arange(r0 + 1, dtype=np.int64)
        r1_lo, r1_hi = o01, o01 + kappa - r0
        if canonical:
            r1_lo = np.maximum(o01, max(r0, r1_floor))
            r1_hi = np.minimum(r1_hi, (bal_lo - r0) // 2)
        o01, r1 = _nest([o01], r1_lo, r1_hi + 1)
        o01, r1, o012 = _nest([o01, r1], np.zeros_like(o01), o01 + 1)
        o01, r1, o012, o02 = _nest([o01, r1, o012], o012, o012 + r0 - o01 + 1)
        # o12 is clipped to the values that leave r2 a nonempty range
        o12_lo = np.maximum(o012, bal_lo - kappa - o01 - o02 + o012)
        o12_hi = np.minimum(o012 + r1 - o01, bal_hi - r0 - r1 - o02 + o012)
        o01, r1, o012, o02, o12 = _nest([o01, r1, o012, o02], o12_lo, o12_hi + 1)
        lo = np.maximum(o02 + o12 - o012, bal_lo - r0 - r1)
        hi = np.minimum(kappa - r0 - r1 + o01 + o02 + o12 - o012, bal_hi - r0 - r1)
        o01, r1, o012, o02, o12, r2 = _nest([o01, r1, o012, o02, o12], lo, hi + 1)
        yield np.stack([np.full_like(r2, r0), r1, r2, o01, o02, o12, o012])


# field indices of each row permutation's image: rows (a, b, c) become rows
# (0, 1, 2), and the overlap of rows i and j sits at field 2 + i + j
_ROW_PERMS = np.array(
    [[a, b, c, 2 + a + b, 2 + a + c, 2 + b + c, 6] for a, b, c in itertools.permutations(range(3))]
)


def _orbit_union(kappa: int, vectors: np.ndarray) -> np.ndarray:
    """Every image of (7, n) vectors under the 12 census symmetries.

    The symmetries are the six row permutations, each with or without the
    swap of halves (:func:`_complement`); the census is invariant under
    them, and each maps valid vectors to valid vectors.  Returns the
    distinct images as (m, 7) rows, sorted as :class:`OverlapVector` sorts.
    """
    both = np.stack([vectors, np.stack(_complement(kappa, *vectors))])
    images = both[:, _ROW_PERMS]  # (2, 6, 7, n)
    return np.unique(images.transpose(0, 1, 3, 2).reshape(-1, 7), axis=0)


def _chunked(slabs: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """Regroup (7, n) slabs into (7, m) chunks of at most ``size`` vectors."""
    held: list[np.ndarray] = []
    room = size
    for slab in slabs:
        while slab.shape[1]:
            part, slab = slab[:, :room], slab[:, room:]
            held.append(part)
            room -= part.shape[1]
            if not room:
                yield np.concatenate(held, axis=1)
                held, room = [], size
    if held:
        yield np.concatenate(held, axis=1)


def enumerate_valid_overlaps(kappa: int) -> Iterator[OverlapVector]:
    """Yield every valid overlap vector exactly once.

    Vectors come in the order of a loop nest over r0, o01, r1, o012, o02,
    o12, r2, outermost first.
    """
    for slab in _overlap_slabs(kappa):
        for row in slab.T.tolist():
            yield OverlapVector(*row)


@dataclass(frozen=True)
class OOSolution:
    """Outcome of the optimal-overlap search."""

    f_star: int
    optima: tuple[OverlapVector, ...]
    kappa: int
    L: int

    @property
    def alpha(self) -> int:
        return len(self.optima)

    @property
    def n_choices(self) -> int:
        """Total number of masks realizing any optimal vector."""
        return sum(count_partition_choices(v, self.kappa) for v in self.optima)


def solve_optimal_overlap(kappa: int, L: int) -> OOSolution:
    """Minimize the protograph 6-cycle count over all valid overlap vectors.

    The census is invariant under the six row permutations and the swap of
    halves, so only the canonical vectors are scored, in chunks of at most
    ``SOLVE_VECTORS``: the census terms run on a chunk's int64 columns and
    their complements.  Every canonical vector reaching the minimum is
    expanded to its orbit.  Raises when L < 2, or when L times the largest
    Fs + Fd could leave the int64 range.  Returns the minimum and every
    minimizer, as Python ints, sorted lexicographically.
    """
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    _check_coupling_length(L)
    best = None
    optima: list[np.ndarray] = []
    for chunk in _chunked(_overlap_slabs(kappa, canonical=True), SOLVE_VECTORS):
        single, cross = _census_terms(kappa, chunk, _complement(kappa, *chunk))
        fs, fd = sum(single), sum(cross)
        _check_exact_range(L, int((fs + fd).max()))
        f = L * fs + (L - 1) * fd
        low = int(f.min())
        if best is None or low < best:
            best, optima = low, []
        if low == best:
            optima.append(chunk[:, f == low])
    rows = _orbit_union(kappa, np.concatenate(optima, axis=1)).tolist()
    vectors = tuple(OverlapVector(*row) for row in rows)
    return OOSolution(f_star=best, optima=vectors, kappa=kappa, L=L)


def pattern_counts(vector: OverlapVector, kappa: int) -> dict[tuple[int, int, int], int]:
    """Column-pattern multiset of any mask realizing the vector.

    A pattern is the mask column read downward (0 = H0); e.g. (0, 0, 1) are
    the columns counted by o01 but not o012.  The eight patterns are the
    regions rows 0, 1 and 2 carve the columns into.
    """
    v = vector
    counts = {
        (0, 0, 0): v.o012,
        (0, 0, 1): v.o01 - v.o012,
        (0, 1, 0): v.o02 - v.o012,
        (1, 0, 0): v.o12 - v.o012,
        (0, 1, 1): v.r0 - v.o01 - v.o02 + v.o012,
        (1, 0, 1): v.r1 - v.o01 - v.o12 + v.o012,
        (1, 1, 0): v.r2 - v.o02 - v.o12 + v.o012,
    }
    counts[(1, 1, 1)] = kappa - sum(counts.values())
    if any(c < 0 for c in counts.values()):
        raise ValueError(f"vector {v.as_list()} is not realizable at kappa={kappa}")
    return counts


def _multinomial(counts: Iterable[int]) -> int:
    """Ways to split sum(counts) labelled columns into classes of these sizes."""
    out, total = 1, 0
    for c in counts:
        total += c
        out *= math.comb(total, c)
    return out


def count_partition_choices(vector: OverlapVector, kappa: int) -> int:
    """Number of masks realizing the vector: the ways to deal the kappa
    columns out to its column patterns (:func:`pattern_counts`)."""
    return _multinomial(pattern_counts(vector, kappa).values())


def realize_mask(vector: OverlapVector, kappa: int, seed: int) -> PartitionMask:
    """Construct a mask whose H0 rows have exactly the given overlaps.

    Columns are chosen with a seeded RNG region by region: row 0 freely, row 1
    split against row 0, row 2 split against the four regions of rows 0/1.
    """
    vector.validate(kappa)
    v = vector
    rng = random.Random(seed)
    cols = list(range(kappa))
    row0 = set(rng.sample(cols, v.r0))
    rest0 = [c for c in cols if c not in row0]
    in01 = set(rng.sample(sorted(row0), v.o01))
    row1 = in01 | set(rng.sample(rest0, v.r1 - v.o01))
    counts = pattern_counts(vector, kappa)
    row2 = set()
    # row 2's H0 columns in each region of rows 0 and 1: pattern (*bits, 0)
    for bits, region in (((0, 0), row0 & row1), ((0, 1), row0 - row1), ((1, 0), row1 - row0),
                         ((1, 1), set(cols) - row0 - row1)):
        row2 |= set(rng.sample(sorted(region), counts[(*bits, 0)]))
    return PartitionMask.from_h0_support(3, kappa, [row0, row1, row2])
