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
degenerate choices.

Minimizing F over all valid overlap vectors (subject to a balance constraint
on r0+r1+r2) yields the optimal-overlap partitioning; a counting identity
gives the number of masks realizing any given vector.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .qc import PartitionMask

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
    "realize_mask",
    "measure_overlaps",
]

MAX_KAPPA = 64


class OverlapConstraintError(ValueError):
    """An overlap vector violates one of its validity chains."""


def _pos(x: int) -> int:
    return x if x > 0 else 0


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=1 << 16)
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


@lru_cache(maxsize=1 << 16)
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


@lru_cache(maxsize=1 << 16)
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

    @classmethod
    def from_seq(cls, seq: Sequence[int]) -> "OverlapVector":
        if len(seq) != 7:
            raise ValueError("overlap vector needs exactly 7 entries")
        return cls(*(int(x) for x in seq))

    def complement(self, kappa: int) -> "OverlapVector":
        """The same quantities measured on H1 instead of H0."""
        return OverlapVector(
            r0=kappa - self.r0,
            r1=kappa - self.r1,
            r2=kappa - self.r2,
            o01=kappa - self.r0 - self.r1 + self.o01,
            o02=kappa - self.r0 - self.r2 + self.o02,
            o12=kappa - self.r1 - self.r2 + self.o12,
            o012=kappa
            - (self.r0 + self.r1 + self.r2)
            + (self.o01 + self.o02 + self.o12)
            - self.o012,
        )

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


def cycle6_census(vector: OverlapVector, kappa: int, L: int) -> CycleCensus:
    """Closed-form 6-cycle census of the coupled protograph.

    Single-replica and two-replica components are evaluated once with the H0
    parameters and once with their complements.  Raises when the vector
    violates a validity chain, naming the chain.
    """
    vector.validate(kappa)
    comp = vector.complement(kappa)
    v, w = vector, comp
    single = (
        count_cycles_same_half(v.o01, v.o02, v.o12, v.o012),
        count_cycles_same_half(w.o01, w.o02, w.o12, w.o012),
        count_cycles_split_half(v.r0, v.r1, v.r2, v.o01, v.o02, v.o12, v.o012),
        count_cycles_split_half(w.r0, w.r1, w.r2, w.o01, w.o02, w.o12, w.o012),
    )
    cross = (
        count_cycles_two_replica_band(kappa, v.r0, v.r1, v.r2, v.o01, v.o02, v.o12, v.o012),
        count_cycles_two_replica_band(kappa, w.r0, w.r1, w.r2, w.o01, w.o02, w.o12, w.o012),
        count_cycles_two_replica_corner(v.r0, v.r1, v.r2, v.o01, v.o02, v.o12, v.o012),
        count_cycles_two_replica_corner(w.r0, w.r1, w.r2, w.o01, w.o02, w.o12, w.o012),
    )
    return CycleCensus(single=single, cross=cross, L=L)


def enumerate_valid_overlaps(kappa: int) -> Iterator[OverlapVector]:
    """Yield every valid overlap vector exactly once.

    Parameters are nested so each loop bound prunes using the values already
    fixed; the balance constraint folds into the innermost range.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if kappa > MAX_KAPPA:
        raise ValueError(f"kappa above {MAX_KAPPA} not supported")
    bal_lo = (3 * kappa) // 2
    bal_hi = -((-3 * kappa) // 2)
    for r0 in range(kappa + 1):
        for o01 in range(r0 + 1):
            for r1 in range(o01, kappa - r0 + o01 + 1):
                for o012 in range(o01 + 1):
                    for o02 in range(o012, r0 - o01 + o012 + 1):
                        for o12 in range(o012, r1 - o01 + o012 + 1):
                            lo = max(o02 + o12 - o012, bal_lo - r0 - r1)
                            hi = min(
                                kappa - r0 - r1 + o01 + o02 + o12 - o012,
                                bal_hi - r0 - r1,
                            )
                            for r2 in range(lo, hi + 1):
                                yield OverlapVector(r0, r1, r2, o01, o02, o12, o012)


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

    Returns the minimum and every minimizer, sorted lexicographically.
    """
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    best = None
    optima: list[OverlapVector] = []
    for vec in enumerate_valid_overlaps(kappa):
        f = cycle6_census(vec, kappa, L).total
        if best is None or f < best:
            best = f
            optima = [vec]
        elif f == best:
            optima.append(vec)
    optima.sort()
    return OOSolution(f_star=best, optima=tuple(optima), kappa=kappa, L=L)


def count_partition_choices(vector: OverlapVector, kappa: int) -> int:
    """Number of masks realizing the vector.

    Product of seven binomials: place row 0's H0 columns, then row 1's split
    against row 0, then row 2's split against the four regions carved out by
    rows 0 and 1.
    """
    v = vector
    return (
        math.comb(kappa, v.r0)
        * math.comb(v.r0, v.o01)
        * math.comb(kappa - v.r0, v.r1 - v.o01)
        * math.comb(v.o01, v.o012)
        * math.comb(v.r0 - v.o01, v.o02 - v.o012)
        * math.comb(v.r1 - v.o01, v.o12 - v.o012)
        * math.comb(kappa - v.r0 - v.r1 + v.o01, v.r2 - v.o02 - v.o12 + v.o012)
    )


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
    both = sorted(row0 & row1)
    only0 = sorted(row0 - row1)
    only1 = sorted(row1 - row0)
    neither = sorted(set(cols) - row0 - row1)
    row2 = set(rng.sample(both, v.o012))
    row2 |= set(rng.sample(only0, v.o02 - v.o012))
    row2 |= set(rng.sample(only1, v.o12 - v.o012))
    row2 |= set(rng.sample(neither, v.r2 - v.o02 - v.o12 + v.o012))
    return PartitionMask.from_h0_support(3, kappa, [row0, row1, row2])


def measure_overlaps(mask: PartitionMask) -> OverlapVector:
    """Read the overlap vector off a gamma=3 mask."""
    if mask.gamma != 3:
        raise ValueError("overlap vectors are defined for gamma = 3")
    rows = [set(j for j in range(mask.kappa) if mask.assign[i][j] == 0) for i in range(3)]
    return OverlapVector(
        r0=len(rows[0]),
        r1=len(rows[1]),
        r2=len(rows[2]),
        o01=len(rows[0] & rows[1]),
        o02=len(rows[0] & rows[2]),
        o12=len(rows[1] & rows[2]),
        o012=len(rows[0] & rows[1] & rows[2]),
    )
