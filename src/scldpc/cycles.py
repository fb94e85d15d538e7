"""Short-cycle enumeration for protographs and lifted QC codes.

A cycle through circulant positions lifts to p same-length cycles exactly
when its alternating power sum vanishes mod p; otherwise it lifts to p/beta
cycles that are beta times longer.  Because every cycle of length 4 or 6 in a
memory-1 coupled protograph spans at most two consecutive replicas, all
counting happens on a two-replica window with multiplicities (L, L-1) rather
than on the full L-long chain.

One numpy enumerator serves every consumer: the census and girth test, the
absorbing-set scan's seeds (the active window 6-cycles of a coupled code,
every 6-cycle of a hand-built Tanner graph), and the optimizer's window.
From a 0/1 incidence it lists the row pairs sharing columns, then expands row
triples, (triple, a, b) pairs and the third column c in bounded chunks; given
the powers, c comes from a sorted join on the power residue, so only active
cycles are built.  A cycle within replica 2 repeats one within replica 1, so
every consumer keeps only the cycles whose least column lies in replica 1
(:func:`_replica1`).  The optimizer's window stores each kept 4- and 6-cycle
once, as the circulants it visits in walk order.

The (3,3,3,0) census of many masks has one path, :class:`CensusTable`: the
active window 6-cycles grouped by the at most six circulants they visit,
each group holding its cycle counts per H0/H1 pattern of those circulants.
A mask is scored by gathering its bits at every group and summing the counts
they look up.  A partition search builds the table once on the union window,
where every circulant may sit in H0 or H1: at kappa = 17 its 5 440 active
cycles fall into 272 groups; the search keeps the first mask of least
lifted count (:meth:`CensusTable.best`).  A single mask counts its own
window directly.

On an array-based protograph (kappa = p) the union window has a kappa-fold
symmetry: shifting every column one place within its replica maps active
cycles onto active cycles (:func:`_shift_order` tests when it does).  A
cycle's column a, the one its two lowest rows share, moves under every
nonzero shift, so each orbit has kappa members and exactly one with a at
offset 0.  The enumerator then lists only those representatives, and the
table is built from theirs by rotating its supports; the union-window
4-cycle test lists the 4-cycles whose smaller column sits at offset 0, which
meet every orbit.  A single mask's window has the same symmetry when each of
its rows sits wholly in H0 or wholly in H1 (the uncoupled all-H0 mask among
them): its census counts the representatives and multiplies by kappa.  Every
other window takes the same code with no shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .qc import PartitionMask, ProtoMatrix, SCCode, _check_coupling_length, _check_shapes

__all__ = [
    "TwoReplicaWindow",
    "build_window",
    "CensusTable",
    "union_census",
    "census_active_counts",
    "count_ugast_3330",
    "count_ugast_3330_for",
    "girth_check",
]

# (r1, r2, r3, a, b, c) -> visiting order (r1,a) (r1,b) (r3,b) (r3,c) (r2,c) (r2,a)
SIX_ROWS, SIX_COLS = [0, 0, 2, 2, 1, 1], [3, 4, 4, 5, 5, 3]
# (r1, r2, a, b) -> visiting order (r1,a) (r1,b) (r2,b) (r2,a)
FOUR_ROWS, FOUR_COLS = [0, 0, 1, 1], [2, 3, 3, 2]
# compare-exchange steps that sort 4 and 6 values
SORTING_NETWORKS = {
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    6: ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5), (1, 2), (3, 4)),
}

# cells one enumeration step holds: (row pair, row) or (triple, a, b) cells
BUILD_CELLS = 1 << 11
# mask-by-group cells scored at once
SCORE_CELLS = 1 << 14

GIRTH_4 = "(3,3,3,0) counting requires girth at least 6, this code has girth 4"


def _spans(weights: np.ndarray) -> Iterator[slice]:
    """Consecutive runs whose weights sum to at most BUILD_CELLS, or one item."""
    ends, lo = np.cumsum(weights), 0
    while lo < len(ends):
        hi = int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + BUILD_CELLS, "right"))
        yield slice(lo, max(hi, lo + 1))
        lo = max(hi, lo + 1)


def _expand(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rank) of every cell when item i owns ``lens[i]`` consecutive cells."""
    owner = np.repeat(np.arange(len(lens)), lens)
    return owner, np.arange(len(owner)) - (np.cumsum(lens) - lens)[owner]


def _equal_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs lo < hi of the equal entries of an ascending array."""
    lo, hi, gap = [np.empty(0, np.intp)], [np.empty(0, np.intp)], 1
    while (same := np.flatnonzero(keys[gap:] == keys[:-gap])).size:
        lo.append(same)
        hi.append(same + gap)
        gap += 1
    return np.concatenate(lo), np.concatenate(hi)


def _row_pairs(inc: np.ndarray, powers=None) -> tuple[np.ndarray, ...]:
    """Row pairs r1 < r2 that share a column, with their shared columns.

    Returns the pair keys ``r1 * n_rows + r2`` ascending, CSR pointers, the
    shared columns x, ascending within each pair, and their residues
    F[r1, x] - F[r2, x] mod p under ``powers`` = (F, p) (all 0 without).
    """
    cols, rows = np.nonzero(inc.T)
    lo, hi = _equal_pairs(cols)
    keys, shared = rows[lo] * inc.shape[0] + rows[hi], cols[lo]
    res = np.zeros_like(shared)
    if powers is not None:
        f, p = powers
        res = (f[rows[lo], shared] - f[rows[hi], shared]) % p
    order = np.argsort(keys * inc.shape[1] + shared, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[first], np.append(first, len(keys)), shared[order], res[order]


def _offset0(pairs: tuple, s: int) -> tuple:
    """:func:`_row_pairs` keeping only the shared columns x with x mod s = 0."""
    if s == 1:
        return pairs
    keys, ptr, shared, res = pairs
    keep = shared % s == 0
    return keys, np.concatenate(([0], np.cumsum(keep)))[ptr], shared[keep], res[keep]


def _shift_order(proto: ProtoMatrix, inc: np.ndarray) -> int:
    """kappa when shifting every window column one place within its replica
    maps the active cycles of ``inc`` onto active cycles, else 1.

    It does when each incidence row is constant within a replica, so every
    position stays in the window, and each power row is a cyclic arithmetic
    progression mod p (f[i, j + 1 mod kappa] - f[i, j] = d_i for every j), so
    each row's two visits add d_i and take it away again.  Array-based grids
    with kappa = p are such; with kappa < p their rows wrap off the progression.
    """
    k = proto.kappa
    blocks = inc.reshape(len(inc), 2, k)
    if not (blocks == blocks[:, :, :1]).all():
        return 1
    f = np.asarray(proto.powers, dtype=np.int64)
    steps = np.diff(f, axis=1, append=f[:, :1]) % proto.p
    return k if (steps == steps[:, :1]).all() else 1


def _six_cycle_chunks(inc: np.ndarray, powers=None, s: int = 1) -> Iterator[np.ndarray]:
    """Every 6-cycle of a 0/1 incidence once, in chunks of (r1, r2, r3, a, b, c) rows.

    The cycle visits (r1,a) (r1,b) (r3,b) (r3,c) (r2,c) (r2,a): a is shared
    by rows (r1,r2), b by (r1,r3), c by (r2,r3), all distinct, so each cycle
    appears once.  Rows come ordered by (r1, r2, r3, a, b, c).  With
    ``powers`` = (F, p), F the power at every incidence cell, only the active
    cycles are listed: those whose alternating power sum vanishes mod p.
    With ``s`` > 1 only the cycles with a mod s = 0 are listed.
    """
    n_rows, p = inc.shape[0], 1 if powers is None else powers[1]
    pairs = _row_pairs(inc, powers)
    a_pairs = _offset0(pairs, s)
    keys, size, a_size = pairs[0], np.diff(pairs[1]), np.diff(a_pairs[1])
    r1, r2 = np.divmod(keys, n_rows)
    adj = np.zeros((n_rows, n_rows), dtype=bool)
    adj[r1, r2] = True
    for run in _spans(np.full(len(keys), n_rows)):
        # row triples (r1, r2, r3), ascending, as their three pair ids
        q12, r3 = np.nonzero(adj[r1[run]] & adj[r2[run]])
        q12 += run.start
        q13 = np.searchsorted(keys, r1[q12] * n_rows + r3)
        q23 = np.searchsorted(keys, r2[q12] * n_rows + r3)
        for part in _spans(a_size[q12] * size[q13]):
            yield _six_run(pairs, a_pairs, n_rows, p, q12[part], q13[part], q23[part])


def _six_run(pairs: tuple, a_pairs: tuple, n_rows: int, p: int, q12, q13, q23) -> np.ndarray:
    """The 6-cycles of the row triples with pair ids (q12, q13, q23), in order,
    their column a drawn from ``a_pairs``."""
    keys, ptr, shared, res = pairs
    a_ptr, a_shared, a_res = a_pairs[1:]
    size, a_size = np.diff(ptr), np.diff(a_ptr)
    r1, r2 = np.divmod(keys[q12], n_rows)
    r3 = keys[q13] % n_rows
    # (triple, a, b), a ascending, then b
    n13 = size[q13]
    t, rank = _expand(a_size[q12] * n13)
    ia, ib = a_ptr[q12][t] + rank // n13[t], ptr[q13][t] + rank % n13[t]
    a, b = a_shared[ia], shared[ib]
    keep = a != b
    t, a, b = t[keep], a[keep], b[keep]
    # each triple's c by residue, ascending within one: the cycle's power
    # sum is res(a) - res(b) + res(c)
    u, rank = _expand(size[q23])
    ic = ptr[q23][u] + rank
    ckey = u * p + res[ic]
    order = np.argsort(ckey, kind="stable")
    ckey, ic = ckey[order], ic[order]
    want = t * p + (res[ib[keep]] - a_res[ia[keep]]) % p
    lo = np.searchsorted(ckey, want)
    j, rank = _expand(np.searchsorted(ckey, want, "right") - lo)
    a, b, c = a[j], b[j], shared[ic[lo[j] + rank]]
    keep = (c != a) & (c != b)
    t = t[j[keep]]
    return np.stack([r1[t], r2[t], r3[t], a[keep], b[keep], c[keep]], axis=1)


def _six_cycle_array(inc: np.ndarray, powers=None) -> np.ndarray:
    """The rows of :func:`_six_cycle_chunks` in one array."""
    return np.concatenate([np.empty((0, 6), dtype=np.intp), *_six_cycle_chunks(inc, powers)])


def _four_cycle_array(inc: np.ndarray, powers=None, s: int = 1) -> np.ndarray:
    """Every 4-cycle once, as (r1, r2, a, b) rows with r1<r2 and a<b shared.

    Rows come ordered by (r1, r2, a, b); ``powers`` keeps the active ones, as
    in :func:`_six_cycle_chunks`, and ``s`` > 1 those with a mod s = 0.
    """
    keys, ptr, shared, res = _row_pairs(inc, powers)
    a_ptr, a_shared, a_res = _offset0((keys, ptr, shared, res), s)[1:]
    size, a_size = np.diff(ptr), np.diff(a_ptr)
    out = [np.empty((0, 4), dtype=np.intp)]
    for run in _spans(a_size * size):
        q, rank = _expand(a_size[run] * size[run])
        ia, ib = np.divmod(rank, size[run][q])
        ia, ib = ia + a_ptr[run][q], ib + ptr[run][q]
        a, b = a_shared[ia], shared[ib]
        # a < b, and the power sum res(a) - res(b) vanishes
        keep = (a < b) & (a_res[ia] == res[ib])
        r1, r2 = np.divmod(keys[run][q[keep]], inc.shape[0])
        out.append(np.stack([r1, r2, a[keep], b[keep]], axis=1))
    return np.concatenate(out)


def _window_incidence(h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """The 3*gamma window rows, block-major, over 2*kappa columns.

    ``h0`` and ``h1`` (gamma, kappa) mark the circulants that may sit in H0
    and in H1: row (b, i) holds replica t's column t*kappa + j when
    circulant (i, j) may sit in H_{b-t}.
    """
    g, k = h0.shape
    inc = np.zeros((3 * g, 2 * k), dtype=h0.dtype)
    inc[:g, :k] = inc[g : 2 * g, k:] = h0
    inc[g : 2 * g, :k] = inc[2 * g :, k:] = h1
    return inc


def _mask_incidence(mask: PartitionMask) -> np.ndarray:
    h1 = np.asarray(mask.assign, dtype=bool)
    return _window_incidence(~h1, h1)


def _window_powers(proto: ProtoMatrix) -> tuple[np.ndarray, int]:
    """(F, p) with F[r, c] = f[r mod gamma, c mod kappa] over the window."""
    return np.tile(np.asarray(proto.powers, dtype=np.int64), (3, 2)), proto.p


def _replica1(cycles: np.ndarray, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """Which cycles to keep, those whose least column lies in replica 1, and
    which kept ones reach replica 2, as two masks over the rows.

    ``cycles`` holds (rows..., columns...) rows, as the enumerators list
    them.  A cycle within replica 2 is one within replica 1 shifted by one
    replica, with the same circulants and conditions, so it is dropped.
    """
    # column by column: on these short rows numpy's row reductions take
    # several times as long, and masks spare the census a copy of the rows
    half = cycles.shape[1] // 2
    first = last = cycles[:, half]
    for i in range(half + 1, 2 * half):
        first, last = np.minimum(first, cycles[:, i]), np.maximum(last, cycles[:, i])
    kept = first < kappa
    return kept, kept & (last >= kappa)


class TwoReplicaWindow:
    """The cycles of the two-replica coupled protograph, for the optimizer.

    Rows are indexed (block, local) with 3 blocks of gamma rows; columns run
    over 2*kappa, the first kappa belonging to replica 1.  Only the cycles
    whose least column lies in replica 1 are kept (:func:`_replica1`); each
    is stored once, as the circulants it visits:

      ids6, ids4:  (n, 6) and (n, 4) circulant ids in walk order, the
                   alternating sum taking them +, -, +, ...
      dual6:       whether each 6-cycle spans both replicas

    The optimizer indexes these cycles itself, as one cycle set.  Circulants
    are numbered row-major, e = row * kappa + col, so position (r, c) is
    circulant (r mod gamma) * kappa + c mod kappa.  A cycle visits each
    circulant at most once (``scldpc.cpo._State`` gives the proof), so every
    alternating-sum coefficient is +-1.
    """

    def __init__(self, proto: ProtoMatrix, mask: PartitionMask):
        _check_shapes(proto, mask)
        g, k = proto.gamma, proto.kappa
        self.p = proto.p
        self.n_entries = g * k
        inc = _mask_incidence(mask)
        six, four = _six_cycle_array(inc), _four_cycle_array(inc)
        kept, dual = _replica1(six, k)
        six, self.dual6 = six[kept], dual[kept]
        four = four[_replica1(four, k)[0]]
        self.ids6 = six[:, SIX_ROWS] % g * k + six[:, SIX_COLS] % k
        self.ids4 = four[:, FOUR_ROWS] % g * k + four[:, FOUR_COLS] % k


def build_window(proto: ProtoMatrix, mask: PartitionMask) -> TwoReplicaWindow:
    return TwoReplicaWindow(proto, mask)


def _sorted(needs: list) -> list:
    """The arrays of ``needs`` sorted elementwise across them, in place."""
    # numpy sorts many short rows slowly; a sorting network does not
    for i, j in SORTING_NETWORKS[len(needs)]:
        needs[i], needs[j] = np.minimum(needs[i], needs[j]), np.maximum(needs[i], needs[j])
    return needs


def _key(needs: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The circulants of six sorted ``needs`` arrays of 2e + side values as
    one base-n number, and their H0/H1 pattern."""
    key, pattern = 0, 0
    for i in range(6):
        key = key * n + (needs[i] >> 1)
        pattern = pattern + ((needs[i] & 1) << i)
    return key, pattern


def _group(key: np.ndarray, pattern: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(support, cell): the distinct keys ascending as rows of six circulants,
    and each item's ``64 * (support row) + pattern``."""
    order = np.argsort(key, kind="stable")
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[order[1:]] != key[order[:-1]]
    cell = np.empty(len(key), dtype=np.int64)
    cell[order] = 64 * (np.cumsum(new) - 1)
    cell += pattern
    support, key = np.empty((np.count_nonzero(new), 6), dtype=np.int64), key[order[new]]
    for i in range(5, -1, -1):
        key, support[:, i] = np.divmod(key, n)
    return support, cell


def _counts(single: np.ndarray, dual: np.ndarray, n_groups: int) -> np.ndarray:
    """Packed counts of the cells listed once per single-replica and once per
    two-replica cycle."""
    counts = np.bincount(dual, minlength=64 * n_groups)
    counts <<= 32
    counts |= np.bincount(single, minlength=len(counts))
    return counts


def _conditions(cycles: np.ndarray, rows: list, cols: list, gamma: int, kappa: int):
    """(needs, exists): what each window cycle needs of the mask.

    The cycles visit the positions (cycles[:, rows[i]], cycles[:, cols[i]]).
    Position (r, c) is circulant e = (r mod gamma) * kappa + c mod kappa,
    which must sit in H_s, s = r // gamma - c // kappa.  ``needs`` holds
    2e + s per position, one array each, ascending across them for every
    cycle.  A cycle that needs one circulant on both sides never exists.
    """
    r, c = np.arange(3 * gamma)[:, None], np.arange(2 * kappa)
    table = (r % gamma * kappa + c % kappa) * 2 + r // gamma - c // kappa
    needs = _sorted([table[cycles[:, i], cycles[:, j]] for i, j in zip(rows, cols)])
    # neighbours equal but for the side bit
    clash = np.zeros(len(cycles), dtype=bool)
    for lo, hi in zip(needs, needs[1:]):
        clash |= (lo ^ hi) == 1
    return needs, ~clash


@dataclass(frozen=True)
class CensusTable:
    """Active window 6-cycles grouped by the circulants they need.

    Whether a window cycle is active reads only the powers, so it does not
    depend on the mask; the mask decides whether the cycle exists.  Its
    entry in window row block b and replica t is circulant (row mod gamma,
    col mod kappa), which must sit in H_{b-t}.  A group is the ascending
    circulant ids (e = row * kappa + col) of its cycles' six entries, a
    circulant met twice listed twice: one row of ``support``.  Entry
    ``64 * g + x`` of ``counts`` counts group g's cycles that need
    support[g, i] in H_{bit i of x}: single-replica ones in the low 32 bits,
    two-replica ones above.  Single-replica cycles come as R1/R2 mirror
    pairs with one condition, so only the R1 cycle is kept.

    Where the window is shift-symmetric (:func:`_shift_order`), the
    representatives' table is expanded by the kappa column shifts: a shift
    keeps whether a cycle is active, kept and two-replica, and rotates the
    circulants it needs within their rows, so the shifted cells, re-sorted
    with their side bits and merged where supports meet, are the full
    table's cells exactly.
    """

    gamma: int
    kappa: int
    p: int
    support: np.ndarray
    counts: np.ndarray

    @classmethod
    def of_window(cls, proto: ProtoMatrix, inc: np.ndarray) -> "CensusTable":
        """Table of the active 6-cycles of window incidence ``inc``, built on
        column-shift orbit representatives where the window allows.

        Unchecked: its counts are (3,3,3,0) counts only where no 4-cycle is
        active.
        """
        g, k, n = proto.gamma, proto.kappa, proto.gamma * proto.kappa
        if n**6 >= 1 << 63:
            raise ValueError("the census needs gamma * kappa < 1449")
        s = _shift_order(proto, inc)
        parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, bool))]
        for six in _six_cycle_chunks(inc, _window_powers(proto), s):
            kept, dual = _replica1(six, k)
            needs, exists = _conditions(six, SIX_ROWS, SIX_COLS, g, k)
            exists &= kept
            key, pattern = _key(needs, n)
            parts.append((key[exists], pattern[exists], dual[exists]))
        key, pattern, dual = map(np.concatenate, zip(*parts))
        support, cell = _group(key, pattern, n)
        counts = _counts(cell[~dual], cell[dual], len(support))
        if s > 1:
            # the table of every shift: rotate each nonzero cell's
            # circulants by 0..s-1 columns within their row, re-sort the
            # 2e + side values, and merge equal supports
            cell = np.flatnonzero(counts)
            group, pattern = np.divmod(cell, 64)
            step = np.arange(s)[:, None]
            needs = []
            for i in range(6):
                e = support[group, i]
                col = e % k
                needs.append(((e - col + (col + step) % k) * 2 + (pattern >> i & 1)).ravel())
            support, rotated = _group(*_key(_sorted(needs), n), n)
            many = np.tile(counts[cell], s)
            single, dual = np.repeat(rotated, many & 0xFFFFFFFF), np.repeat(rotated, many >> 32)
            counts = _counts(single, dual, len(support))
        return cls(g, k, proto.p, support, counts)

    def active_counts(self, assign) -> np.ndarray:
        """(n, 2) per-replica and two-replica active counts of n masks.

        ``assign`` holds the masks' 0/1 grids, shape (n, gamma, kappa); a
        grid of any other shape is refused.
        """
        grids = np.asarray(assign, dtype=np.uint8)
        if grids.shape[-2:] != (self.gamma, self.kappa):
            raise ValueError(
                f"mask grids must be {self.gamma} x {self.kappa}, got shape {grids.shape}"
            )
        # a row per circulant, so each group's gather copies whole rows
        grids = np.ascontiguousarray(grids.reshape(-1, self.gamma * self.kappa).T)
        out = np.empty((grids.shape[1], 2), dtype=np.int64)
        base = 64 * np.arange(len(self.support))[:, None]
        step = max(1, SCORE_CELLS // max(1, len(self.support)))
        for lo in range(0, grids.shape[1], step):
            x = grids[:, lo : lo + step]
            pattern = x[self.support[:, 0]]
            for i in range(1, 6):
                pattern |= x[self.support[:, i]] << i
            total = self.counts[base + pattern].sum(axis=0)
            out[lo : lo + step, 0], out[lo : lo + step, 1] = total & 0xFFFFFFFF, total >> 32
        return out

    def best(self, assign, L: int) -> tuple[int, int]:
        """(index, lifted count) of the first of n masks with the least
        lifted count p * (L * fs + (L-1) * fd), formed as a Python int.

        With t = fs + fd that count is p * (L * t - fd).  The masks are
        ranked by the int64 key min(L, M + 1) * t - fd, M the largest fd
        among them: it is the count over p while L <= M + 1, and beyond, a
        smaller t wins at either multiplier since it outweighs any fd gap of
        at most M, while equal t leave fd alone to decide.  So the key
        orders and ties the masks as the count does at every L.
        """
        _check_coupling_length(L)
        counts = self.active_counts(assign)
        total, dual = counts.sum(axis=1), counts[:, 1]
        i = int(np.argmin(min(L, int(dual.max()) + 1) * total - dual))
        fs, fd = counts[i].tolist()
        return i, (L * fs + (L - 1) * fd) * self.p


def _has_active_4cycle(proto: ProtoMatrix, inc: np.ndarray) -> bool:
    """Whether some mask realizes a window 4-cycle that survives the lift.

    In one mask's own window every cycle is realized.  On a shift-symmetric
    window only the 4-cycles whose smaller column sits at offset 0 are
    tested: shifting it there keeps it below the other, so every orbit has
    one.
    """
    four = _four_cycle_array(inc, _window_powers(proto), _shift_order(proto, inc))
    return bool(_conditions(four, FOUR_ROWS, FOUR_COLS, proto.gamma, proto.kappa)[1].any())


def union_census(proto: ProtoMatrix) -> CensusTable:
    """Census table valid for every mask of the protograph's shape.

    A protograph on which some mask realizes an active 4-cycle is refused.
    On an array-based protograph (kappa = p), or any whose power rows are
    cyclic progressions mod p, both the 4-cycle test and the table work on
    column-shift orbit representatives, with identical results.
    """
    every = np.ones((proto.gamma, proto.kappa), dtype=bool)
    inc = _window_incidence(every, every)
    if _has_active_4cycle(proto, inc):
        raise ValueError(GIRTH_4)
    return CensusTable.of_window(proto, inc)


def census_active_counts(proto: ProtoMatrix, mask: PartitionMask) -> tuple[int, int]:
    """(per-replica, two-replica) active 6-cycle counts of the mask's window.

    A single-replica cycle counts once for its R1/R2 mirror pair.  A
    shift-symmetric window (:func:`_shift_order` = s > 1) is counted on the
    cycles with column a at offset 0: each orbit has s members, exactly one
    of them such, and a within-replica shift keeps which replicas a cycle
    reaches, so s times their counts are the window's.  A mask whose shape
    differs from the protograph's is refused.
    """
    _check_shapes(proto, mask)
    inc = _mask_incidence(mask)
    s = _shift_order(proto, inc)
    n_kept, n_dual = 0, 0
    for six in _six_cycle_chunks(inc, _window_powers(proto), s):
        kept, dual = _replica1(six, proto.kappa)
        n_kept += int(np.count_nonzero(kept))
        n_dual += int(np.count_nonzero(dual))
    return s * (n_kept - n_dual), s * n_dual


def count_ugast_3330_for(proto: ProtoMatrix, mask: PartitionMask, L: int) -> int:
    """p times the active window 6-cycles weighted (L, L-1).

    Unchecked: equals the (3,3,3,0) count only when no 4-cycle is active.
    Raises when L < 2 or the mask's shape differs from the protograph's.
    """
    _check_coupling_length(L)
    fs, fd = census_active_counts(proto, mask)
    return (L * fs + (L - 1) * fd) * proto.p


def count_ugast_3330(code: SCCode) -> int:
    """Number of (3, 3, 3, 0) unlabeled absorbing sets in the lifted graph.

    For codes of girth at least 6 (the only kind the optimizers produce)
    these are exactly the lifted 6-cycles, counted as p times the active
    window cycles weighted (L, L-1); the full lifted graph is never walked.
    Codes with an active 4-cycle are refused.
    """
    if code.gamma != 3:
        raise ValueError("(3,3,3,0) counting requires column weight 3")
    if _has_active_4cycle(code.proto, _mask_incidence(code.mask)):
        raise ValueError(GIRTH_4)
    return count_ugast_3330_for(code.proto, code.mask, code.L)


def girth_check(code: SCCode) -> float:
    """4 if the lift has an active 4-cycle, else 6 if an active 6-cycle, else inf."""
    if _has_active_4cycle(code.proto, _mask_incidence(code.mask)):
        return 4
    if any(census_active_counts(code.proto, code.mask)):
        return 6
    return math.inf
