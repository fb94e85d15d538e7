"""Cutting-vector and minimum-overlap partitioning baselines.

Both act on an array-based block code and are scored by the lifted
(3,3,3,0) count at coupling length L, so the optimal-overlap pipeline can be
compared against them on equal footing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .cycles import union_census
from .overlap import OverlapVector, _multinomial, enumerate_valid_overlaps, pattern_counts
from .qc import PartitionMask, ProtoMatrix

__all__ = [
    "cv_mask",
    "cv_exhaustive_best",
    "mo_admissible_vectors",
    "pattern_counts",
    "MoSearchResult",
    "mo_search",
    "mo_best",
]


def cv_mask(zeta: Sequence[int], kappa: int) -> PartitionMask:
    """Cutting-vector split: circulant (i, j) goes to H0 iff j < zeta[i]."""
    if list(zeta) != sorted(zeta):
        raise ValueError(f"cutting vector must be ascending, got {list(zeta)}")
    if zeta[-1] > kappa or zeta[0] < 0:
        raise ValueError("cutting vector entries must lie in [0, kappa]")
    return PartitionMask(
        tuple(tuple(0 if j < zeta[i] else 1 for j in range(kappa)) for i in range(len(zeta)))
    )


def cv_exhaustive_best(proto: ProtoMatrix, L: int) -> tuple[tuple[int, ...], int]:
    """Best ascending cutting vector by exhaustive search.

    Returns (zeta, lifted (3,3,3,0) count).  Ties break toward the
    lexicographically smallest vector.  All C(kappa+3, 3) masks are scored in
    one batch against the census table of the union window and ranked in
    numpy (:meth:`CensusTable.best`); only the winner's count is a Python int.
    """
    if proto.gamma != 3:
        raise ValueError("baselines are defined for column weight 3")
    # the ascending vectors in lexicographic order
    zetas = np.indices((proto.kappa + 1,) * 3).reshape(3, -1).T
    zetas = zetas[(zetas[:, 0] <= zetas[:, 1]) & (zetas[:, 1] <= zetas[:, 2])]
    # circulant (i, j) goes to H1 iff j >= zeta[i], as in cv_mask
    grids = np.arange(proto.kappa) >= zetas[:, :, None]
    best, count = union_census(proto).best(grids, L)
    return tuple(zetas[best].tolist()), count


def mo_admissible_vectors(kappa: int) -> list[OverlapVector]:
    """Overlap vectors passing the minimum-overlap admissibility rule.

    Balanced split (inherited from the vector validity chains), per-row
    populations of both halves within floor(kappa/2) +/- 1, and minimal
    (max, total) pairwise overlap across the six row pairs of both halves.
    Never empty: rows (m, m, m) at kappa = 2m and (m, m, m + 1) at kappa =
    2m + 1 pass the population rule.
    """
    lo, hi = kappa // 2 - 1, kappa // 2 + 1
    scored = []
    for v in enumerate_valid_overlaps(kappa):
        rows = (v.r0, v.r1, v.r2)
        if not all(lo <= r <= hi and lo <= kappa - r <= hi for r in rows):
            continue
        c = v.complement(kappa)
        ovl = (v.o01, v.o02, v.o12, c.o01, c.o02, c.o12)
        scored.append(((max(ovl), sum(ovl)), v))
    best = min(s for s, _ in scored)
    return [v for s, v in scored if s == best]


PATTERNS = tuple(itertools.product((0, 1), repeat=3))

# masks drawn from the search's stream per call of the batched census
MO_CHUNK = 1024


def _arrangements_from_counts(
    counts: dict, kappa: int, fixed: dict[int, tuple[int, int, int]]
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Column patterns, one per column, of every mask with these pattern counts."""
    remaining = dict(counts)
    for pat in fixed.values():
        remaining[pat] -= 1
    cols: list = [fixed.get(c) for c in range(kappa)]
    classes = [(pat, remaining[pat]) for pat in PATTERNS if remaining[pat] > 0]

    def rec(idx: int, pool: tuple):
        pat, cnt = classes[idx]
        if idx == len(classes) - 1:
            # last class takes everything left
            for c in pool:
                cols[c] = pat
            yield tuple(cols)
            return
        for chosen in itertools.combinations(pool, cnt):
            for c in chosen:
                cols[c] = pat
            yield from rec(idx + 1, tuple(c for c in pool if c not in chosen))

    if classes:
        yield from rec(0, tuple(c for c in range(kappa) if c not in fixed))
    else:
        yield tuple(cols)


def _mask_of(arrangement: Sequence[tuple[int, int, int]]) -> PartitionMask:
    return PartitionMask(tuple(zip(*arrangement)))


def _constrained_mask_count(counts: dict, fixed_patterns: Sequence[tuple]) -> int:
    remaining = dict(counts)
    for pat in fixed_patterns:
        remaining[pat] -= 1
    return _multinomial(remaining.values())


def _symmetry_anchors(counts: dict) -> Optional[tuple[tuple, tuple]]:
    """Two patterns to pin at columns 0 and 1, minimizing the orbit overcount.

    Array-based powers are invariant under affine column relabelings
    j -> a*j + b, which act sharply 2-transitively, so every relabeling orbit
    contains a mask carrying any chosen (ordered) pattern pair at columns
    (0, 1).  Pinning the rarest pair shrinks the search the most.
    """
    nonempty = [(pat, c) for pat, c in sorted(counts.items()) if c > 0]
    if len(nonempty) < 2 and (not nonempty or nonempty[0][1] < 2):
        return None
    best = None
    for (pa, ca), (pb, cb) in itertools.permutations(nonempty, 2):
        key = (ca * cb, pa, pb)
        if best is None or key < best:
            best = key
    for pa, ca in nonempty:
        if ca >= 2:
            key = (ca * (ca - 1), pa, pa)
            if best is None or key < best:
                best = key
    return best[1], best[2]


@dataclass(frozen=True)
class MoSearchResult:
    mask: PartitionMask
    count: int
    exhaustive: bool
    masks_scored: int


def mo_search(
    proto: ProtoMatrix,
    L: int,
    max_masks: Optional[int] = None,
    seed: int = 0,
) -> MoSearchResult:
    """Minimum-overlap search over all admissible vectors.

    With array-based powers the affine column symmetry cuts each vector's
    realization space by up to p(p-1) without losing any census value.  When
    the reduced space still exceeds ``max_masks`` the search falls back to a
    seeded uniform sample of pattern shuffles and the result is flagged
    non-exhaustive.  Masks stream in chunks against one census table of the
    union window, each chunk ranked in numpy (:meth:`CensusTable.best`); the
    first mask with the least count wins.
    """
    if proto.gamma != 3:
        raise ValueError("baselines are defined for column weight 3")
    kappa = proto.kappa
    ab = tuple(tuple((i * j) % proto.p for j in range(kappa)) for i in range(3))
    symmetric = kappa == proto.p and proto.powers == ab
    plans = []
    total = 0
    for vec in mo_admissible_vectors(kappa):
        counts = pattern_counts(vec, kappa)
        anchors = _symmetry_anchors(counts) if symmetric else None
        if anchors is not None:
            n = _constrained_mask_count(counts, anchors)
            fixed = {0: anchors[0], 1: anchors[1]}
        else:
            n = _constrained_mask_count(counts, ())
            fixed = {}
        plans.append((vec, counts, fixed, n))
        total += n

    exhaustive = max_masks is None or total <= max_masks
    if exhaustive:
        arrangements = itertools.chain.from_iterable(
            _arrangements_from_counts(counts, kappa, fixed) for _, counts, fixed, _ in plans
        )
    else:
        arrangements = _sampled_arrangements(plans, max_masks, seed)

    table = union_census(proto)
    best: Optional[tuple[int, tuple]] = None
    scored = 0
    while chunk := list(itertools.islice(arrangements, MO_CHUNK)):
        # (mask, column, row) patterns -> (mask, row, column) grids
        i, count = table.best(np.array(chunk, dtype=np.uint8).transpose(0, 2, 1), L)
        if best is None or count < best[0]:
            best = (count, chunk[i])
        scored += len(chunk)
    return MoSearchResult(_mask_of(best[1]), best[0], exhaustive=exhaustive, masks_scored=scored)


def _sampled_arrangements(
    plans: list, max_masks: int, seed: int
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Seeded uniform pattern shuffles, about ``max_masks`` over all vectors.

    Each shuffle is repaired to carry the vector's anchor patterns at their
    pinned columns; a shuffle that cannot be repaired is skipped.
    """
    rng = random.Random(seed)
    per_vec = max(1, max_masks // len(plans))
    for _, counts, fixed, _ in plans:
        pool = []
        for pat, c in counts.items():
            pool.extend([pat] * c)
        for _ in range(per_vec):
            rng.shuffle(pool)
            arrangement = list(pool)
            ok = True
            for col, pat in fixed.items():
                if arrangement[col] != pat:
                    try:
                        swap = next(
                            i for i, q in enumerate(arrangement)
                            if q == pat and i not in fixed
                        )
                    except StopIteration:
                        ok = False
                        break
                    arrangement[col], arrangement[swap] = arrangement[swap], arrangement[col]
            if ok:
                yield tuple(arrangement)


def mo_best(proto: ProtoMatrix, L: int) -> tuple[PartitionMask, int]:
    """Best minimum-overlap mask by lifted (3,3,3,0) count (exhaustive)."""
    res = mo_search(proto, L)
    return res.mask, res.count
