"""General absorbing sets of type two: detection, budgets, and removal.

A subset of variable nodes with nonzero GF(q) values is absorbing when every
unsatisfied check it touches has degree at most 2 and every variable node
sees strictly more satisfied than unsatisfied checks.  Whether some value
assignment achieves this is decided here by an exhaustive scan over the
lexicographic table of nonzero assignments, vectorized over the assignment
axis and over many weightings of one check structure at once.  The check
conditions are homogeneous and linear, so scaling an assignment by a nonzero
constant changes neither its validity nor its unsatisfied count b; the scan
and removal therefore read only the (q-1)^(a-1) assignments with x_0 = 1,
which hold the lexicographically first witness of every b.  That oracle is
exact and replaces null-space machinery for the sizes this library targets:
it refuses more than 2^20 assignments (a <= 12 at q = 4, a <= 7 at q = 8,
a <= 5 at q = 16), counted over all (q-1)^a, before allocating anything.

Candidates in a code are found by growing variable-node subsets outward from
6-cycles: for a coupled code, the active window 6-cycles that the census
counts, lifted in numpy; for a hand-built graph, those of its own incidence.
Shifting every offset by one inside every circulant maps the lifted graph
onto itself, so one subset per shift orbit is grown, one level of subsets
per size as numpy arrays.  A target is a GAST label (a, b, d1, d2, d3).
Growth does not depend on the weights: it keys on (a, d1, d2, d3) and emits
the label-matched orbits, expanded to their distinct translates, into a
family of arrays with one group per check-structure shape (a structure of
up to CANON_MAX_A nodes is relabelled once to a canonical node order).  A
test of the family gathers the weights from the label bytes once, over the
code's own field GF(2^field_lam) (an unlabeled code has no weights and is
not tested), decides each group in one oracle pass, which asks for a
witness with exactly b unsatisfied checks, and returns a hit table: group,
translate, matched target and witness.

Removal works on edges of degree-2 checks only.  When the unsatisfied checks
are exactly the degree-1 checks, the number of weight changes needed has a
closed-form topological bound and the minimum-cardinality candidate sets can
be enumerated outright; otherwise a brute-force candidate stream is used.
Streams are cached per literal structure as (edge, rank) templates, which
the label bytes fill in.  All hits are removed together on the table, in
rounds that score every open hit's next candidates with one oracle pass per
shape.  The design flow and the command-line removal read the table alone;
instance objects are built only where :func:`gast_scan` returns them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .cycles import _expand, _four_cycle_array, _has_active_4cycle, _mask_incidence, _replica1
from .cycles import _six_cycle_array, _window_powers
from .gf import FieldGF
from .qc import SCCode, TannerEdges, _check_labels, _check_weights

__all__ = [
    "UgastTopology",
    "GastInstance",
    "RemovalBudget",
    "RawTanner",
    "is_gast",
    "removal_budget",
    "count_candidate_sets",
    "enumerate_candidate_sets",
    "gast_scan",
]

# largest (q-1)^a the oracle scans; a = 10 at q = 8 would be 282 M rows
MAX_ORACLE_ASSIGNMENTS = 2**20
# weight rows x assignments scanned in one oracle pass
ORACLE_BATCH_ROWS = MAX_ORACLE_ASSIGNMENTS
# largest change set the brute-force removal stream tries
MAX_CHANGES = 2
# subset x row-degree cells one chunk of scan growth holds
GROW_CELLS = 1 << 16
# largest subset whose check structures are brought to a canonical node
# order, by trying all a! orders
CANON_MAX_A = 6
# most hits gast_scan and `scldpc gast remove` report one by one
MAX_SCAN_INSTANCES = 1 << 18


@functools.lru_cache(maxsize=1024)
def _check_shape(gamma: int, a: int, shared_cns: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Each node's shared-check degree, after refusing shared checks a
    topology cannot have; a scan builds the same few shapes thousands of
    times, so each is checked and counted once."""
    deg = [0] * a
    for cn in shared_cns:
        if len(cn) < 2:
            raise ValueError("shared checks must have degree >= 2")
        if len(set(cn)) != len(cn):
            raise ValueError("a check cannot touch the same variable node twice")
        if any(not 0 <= v < a for v in cn):
            raise ValueError("check neighbor index out of range")
        for v in cn:
            deg[v] += 1
    if any(d > gamma for d in deg):
        raise ValueError(
            "shared-check degrees exceed gamma for some variable node"
        )
    return tuple(deg)


@dataclass(frozen=True)
class UgastTopology:
    """Unlabeled candidate topology over ``a`` variable nodes.

    ``shared_cns`` lists, per check of degree >= 2, the indices of the
    variable nodes it touches.  Degree-1 checks are implicit: each variable
    node has ``gamma`` checks in total, so whatever is not shared hangs off
    the node as degree-1 checks.  ``vn_ids`` / ``cn_ids`` tie the topology to
    lifted matrix columns/rows when it was extracted from a code.
    """

    gamma: int
    a: int
    shared_cns: tuple[tuple[int, ...], ...]
    vn_ids: Optional[tuple[int, ...]] = None
    cn_ids: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        _check_shape(self.gamma, self.a, tuple(map(tuple, self.shared_cns)))

    @property
    def shared_deg_per_vn(self) -> tuple[int, ...]:
        return _check_shape(self.gamma, self.a, tuple(map(tuple, self.shared_cns)))

    @property
    def deg1_per_vn(self) -> tuple[int, ...]:
        return tuple(self.gamma - d for d in self.shared_deg_per_vn)

    @property
    def d1(self) -> int:
        return sum(self.deg1_per_vn)

    @property
    def d2(self) -> int:
        return sum(1 for cn in self.shared_cns if len(cn) == 2)

    @property
    def d3(self) -> int:
        return sum(1 for cn in self.shared_cns if len(cn) > 2)

    @property
    def label(self) -> tuple[int, int, int, int]:
        """(a, d1, d2, d3)."""
        return (self.a, self.d1, self.d2, self.d3)

    def is_ugast(self) -> bool:
        """Degree condition d2 > d3 plus the per-node majority condition."""
        if not self.d2 > self.d3:
            return False
        half = self.gamma / 2
        return all(d > half for d in self.shared_deg_per_vn)


@dataclass(frozen=True)
class GastInstance:
    """A topology with concrete edge weights and, when known, a witness.

    ``weights[(c, v)]`` is the GF(q) weight on the edge between shared check
    c and variable node v.  ``b`` is the unsatisfied-check count of the
    witness assignment.
    """

    topology: UgastTopology
    weights: dict
    b: Optional[int] = None
    witness: Optional[tuple[int, ...]] = None

    @property
    def label(self) -> tuple[int, int, int, int, int]:
        """(a, b, d1, d2, d3); b falls back to d1 when no witness is known."""
        a, d1, d2, d3 = self.topology.label
        return (a, self.b if self.b is not None else d1, d1, d2, d3)


@functools.lru_cache(maxsize=8)
def _assignments(a: int, q: int) -> np.ndarray:
    """All (q-1)^a nonzero assignments, lexicographic, shape (N, a)."""
    grids = np.meshgrid(*([np.arange(1, q, dtype=np.uint8)] * a), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@functools.lru_cache(maxsize=8)
def _flat_mul_table(field: FieldGF) -> np.ndarray:
    """The field's multiplication table, flat: entry w * q + x holds w * x."""
    return np.asarray(field.mul_table_rows(), dtype=np.uint8).ravel()


def _assignment_count(a: int, q: int) -> int:
    """(q-1)^a, refused above MAX_ORACLE_ASSIGNMENTS before anything is built."""
    n = (q - 1) ** a
    if n > MAX_ORACLE_ASSIGNMENTS:
        raise ValueError(
            f"oracle would scan (q-1)^a = {q - 1}^{a} = {n} "
            f"assignments, limit is {MAX_ORACLE_ASSIGNMENTS}"
        )
    return n


def _edge_ends(checks: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """(node, check) of every edge, edges numbered check by check."""
    return (
        [i for members in checks for i in members],
        [c for c, members in enumerate(checks) for _ in members],
    )


def _oracle_pass(
    gamma: int,
    checks: Sequence[Sequence[int]],
    weights: np.ndarray,
    perm: np.ndarray,
    field: FieldGF,
    rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(valid, unsatisfied totals incl. degree-1), each (translates, rows).

    ``checks`` lists the nodes of each shared check; edges are numbered
    check by check in that order, and ``weights`` is (translates, edges).
    ``perm[t, i]`` is the column of the assignment table that node i of
    translate t reads, so the table stays lexicographic in each
    translate's own node order.  The first ``rows`` rows of the table are
    scanned.
    """
    m, a = perm.shape
    nodes, _ = _edge_ends(checks)
    # every edge's weight times its node's value: (edges, translates, rows);
    # a q <= 256 table index w * q + x fits 16 bits
    values = _assignments(a, field.q)[:rows].T[perm.T[nodes]]
    products = _flat_mul_table(field)[weights.T[:, :, None].astype(np.uint16) * field.q + values]
    good = np.empty((len(checks),) + values.shape[1:], dtype=bool)
    e = 0
    for c, members in enumerate(checks):
        np.equal(np.bitwise_xor.reduce(products[e : e + len(members)], axis=0), 0, out=good[c])
        e += len(members)
    ok = good[[c for c, members in enumerate(checks) if len(members) > 2]].all(axis=0)
    # satisfied > unsatisfied + hanging at a node of gamma checks
    for i in range(a):
        mine = [c for c, members in enumerate(checks) if i in members]
        ok &= 2 * good[mine].sum(axis=0, dtype=np.int8) > gamma
    return ok, gamma * a - e + len(checks) - good.sum(axis=0)


def _first_witnesses(
    gamma: int,
    checks: Sequence[Sequence[int]],
    weights: np.ndarray,
    perm: np.ndarray,
    field: FieldGF,
    bs: Optional[Sequence[int]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per translate, the index into ``bs`` of the first b that has a witness
    (-1 for none) and that witness's row of the assignment table.

    The other arguments are those of :func:`_oracle_pass`; with ``bs`` None
    any valid assignment counts, as index 0.  Only the first (q-1)^(a-1)
    rows, those with x_0 = 1, are scanned.  That is exact: the check
    conditions are homogeneous and linear, so scaling an assignment by a
    nonzero constant keeps it valid with the same b, and the
    lexicographically first valid assignment of each b has x_0 = 1.  The
    refusal still counts all (q-1)^a assignments.  Translates x rows are
    scanned in batches of at most ``ORACLE_BATCH_ROWS``.
    """
    m, a = perm.shape
    _assignment_count(a, field.q)
    rows = (field.q - 1) ** (a - 1)
    won = np.full(m, -1)
    first = np.zeros(m, dtype=np.int64)
    step = max(1, ORACLE_BATCH_ROWS // rows)
    for lo in range(0, m, step):
        ok, b = _oracle_pass(gamma, checks, weights[lo : lo + step], perm[lo : lo + step], field, rows)
        # views: writing them writes won and first
        won_part, first_part = won[lo : lo + step], first[lo : lo + step]
        for i, bt in enumerate([None] if bs is None else bs):
            match = ok if bt is None else ok & (b == bt)
            new = (won_part < 0) & match.any(axis=1)
            first_part[new] = match.argmax(axis=1)[new]
            won_part[new] = i
    return won, first


def _edge_weights(topology: UgastTopology, weights: dict, field: FieldGF) -> np.ndarray:
    """The topology's edge weights as a (1, edges) array, edges check by
    check; every edge must have one, a nonzero field element."""
    try:
        edge_weights = [[weights[(c, v)] for c, cn in enumerate(topology.shared_cns) for v in cn]]
    except KeyError as missing:
        raise ValueError(f"no weight given for the (check, node) edge {missing.args[0]}") from None
    _check_weights(edge_weights, field.q)
    return np.array(edge_weights, dtype=np.uint8)


def is_gast(
    topology: UgastTopology, weights: dict, field: FieldGF
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive absorbing-set check; returns the first witness found.

    A topology failing d2 > d3 or the majority condition is rejected before
    any scan.  Witness order is lexicographic over assignments, so results
    are deterministic; only the assignments with x_0 = 1 are scanned, which
    holds that first witness (see :func:`_first_witnesses`).
    """
    if not topology.is_ugast():
        return False, None
    edge_weights = _edge_weights(topology, weights, field)
    won, first = _first_witnesses(
        topology.gamma, topology.shared_cns, edge_weights, np.arange(topology.a)[None], field
    )
    if won[0] < 0:
        return False, None
    return True, tuple(_assignments(topology.a, field.q)[first[0]].tolist())


@dataclass(frozen=True)
class RemovalBudget:
    """Topological removal parameters for instances with b = d1."""

    gamma: int
    g: int
    d1_vm: int
    a_vm: int
    n_co: int
    e_mu: int


def removal_budget(instance: GastInstance) -> RemovalBudget:
    """Budget for the closed-form candidate enumeration.

    Requires b = d1 (every unsatisfied check is a degree-1 check) and that
    each maximally-loaded variable node touches only checks of degree <= 2.
    """
    return _budget(instance.topology, instance.b in (None, instance.topology.d1))


def _budget(top: UgastTopology, b_is_d1: bool) -> RemovalBudget:
    """:func:`removal_budget` of an instance on ``top``."""
    if not b_is_d1:
        raise ValueError(
            "closed-form removal budget needs b = d1; use the generic remover"
        )
    g = (top.gamma - 1) // 2
    deg1 = top.deg1_per_vn
    d1_vm = max(deg1)
    vm_nodes = [v for v, d in enumerate(deg1) if d == d1_vm]
    for v in vm_nodes:
        for cn in top.shared_cns:
            if v in cn and len(cn) > 2:
                raise ValueError(
                    "maximally-loaded variable node touches a check of degree > 2; "
                    "use the generic remover"
                )
    vm_set = set(vm_nodes)
    n_co = sum(
        1
        for cn in top.shared_cns
        if len(cn) == 2 and cn[0] in vm_set and cn[1] in vm_set
    )
    return RemovalBudget(
        gamma=top.gamma,
        g=g,
        d1_vm=d1_vm,
        a_vm=len(vm_nodes),
        n_co=n_co,
        e_mu=g - d1_vm + 1,
    )


def count_candidate_sets(budget: RemovalBudget, q: int) -> int:
    """Number of minimum-cardinality candidate weight-change sets.

    General case: pick one maximally-loaded node, e_mu of its degree-2
    checks, one of 2 edges per check, and one of q-2 replacement weights per
    edge.  When a single change suffices, sets reachable from two such nodes
    through a shared check are counted once.
    """
    gamma = budget.gamma
    if budget.d1_vm != budget.g:
        return budget.a_vm * math.comb(gamma - budget.d1_vm, budget.e_mu) * (
            2 * (q - 2)
        ) ** budget.e_mu
    # single-change case: ceil((gamma+1)/2) degree-2 checks per loaded node
    return (budget.a_vm * ((gamma + 2) // 2) - budget.n_co) * 2 * (q - 2)


def _weight(rank, current):
    """The new weight of a change's ``rank``, its index among the nonzero
    weights other than the edge's ``current`` one."""
    return rank + 1 + (rank + 1 >= current)


def enumerate_candidate_sets(
    instance: GastInstance, field: FieldGF
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Candidate sets of (check, variable node, new weight), deduplicated.

    Every change targets an edge of a degree-2 check incident to some
    maximally-loaded variable node, no two changes in a set share a check,
    and new weights exclude zero and the current weight.  Yields exactly
    count_candidate_sets(removal_budget(instance), field.q) distinct sets,
    in deterministic order; an instance that :func:`removal_budget` refuses
    is refused here, on the call.
    """
    stream = _closed_candidates(instance.topology, removal_budget(instance), field.q)
    return (tuple((c, v, _weight(r, instance.weights[(c, v)])) for c, v, r in changes) for changes in stream)


def _closed_candidates(
    top: UgastTopology, budget: RemovalBudget, q: int
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """The sets of :func:`enumerate_candidate_sets` as (check, node, rank)
    changes (see :func:`_weight`), sorted by check."""
    seen: set = set()
    for v in [v for v, d in enumerate(top.deg1_per_vn) if d == budget.d1_vm]:
        cns = [c for c, cn in enumerate(top.shared_cns) if v in cn and len(cn) == 2]
        for chosen in itertools.combinations(cns, budget.e_mu):
            options = [[(c, u, r) for u in sorted(top.shared_cns[c]) for r in range(q - 2)] for c in chosen]
            for combo in itertools.product(*options):
                if frozenset(combo) not in seen:
                    seen.add(frozenset(combo))
                    yield tuple(sorted(combo))


def _generic_candidates(top: UgastTopology, q: int) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """All sets of up to MAX_CHANGES (check, node, rank) changes (see
    :func:`_weight`) on edges of distinct degree-2 checks, sorted by check."""
    edges = [(c, v) for c, cn in enumerate(top.shared_cns) if len(cn) == 2 for v in sorted(cn)]
    for size in range(1, MAX_CHANGES + 1):
        for edge_set in itertools.combinations(edges, size):
            if len({c for c, _ in edge_set}) == size:
                yield from itertools.product(*[[(c, v, r) for r in range(q - 2)] for c, v in edge_set])


@functools.lru_cache(maxsize=1024)
def _template(gamma: int, a: int, shared_cns: tuple, b_is_d1: bool, q: int) -> np.ndarray:
    """The candidate stream of an instance on the topology (gamma, a,
    shared_cns), as (sets, changes, 2) (edge, rank) pairs padded with -1:
    the closed-form stream when b = d1 and the budget assumptions hold,
    otherwise the generic one, of up to MAX_CHANGES changes.  Edges are
    numbered check by check as ``shared_cns`` lists them.  In ranks a stream
    does not depend on the weights.
    """
    top = UgastTopology(gamma, a, shared_cns)
    try:
        stream = _closed_candidates(top, _budget(top, b_is_d1), q)
    except ValueError:
        stream = _generic_candidates(top, q)
    index = {edge: e for e, edge in enumerate((c, v) for c, cn in enumerate(shared_cns) for v in cn)}
    sets = [[(index[c, v], r) for c, v, r in changes] for changes in stream]
    out = np.full((len(sets), max(map(len, sets), default=1), 2), -1)
    for i, changes in enumerate(sets):
        out[i, : len(changes)] = changes
    return out


def _remove_table(family: list[_Group], hits: _Hits, buf: np.ndarray,
                  field: FieldGF) -> tuple[np.ndarray, ...]:
    """Removal of every hit of a table, each a GAST on its own topology
    under the weights ``buf[edges]``; a hit whose matched target has b = d1
    takes the closed-form stream, any other the generic one.  Per hit: the
    stream row that removes it (-1 when its stream runs out) and the
    candidates tried; and the changes, as (hit, weight index, weight) rows,
    hit by hit and check by check.

    Each hit tries candidates in stream order, in rounds of its next 1, 2,
    4, ...; one oracle pass per shape scores a round over the assignments
    with x_0 = 1.  The outcomes are those of trying the candidates one at a
    time.
    """
    pick, tried = np.full(len(hits.group), -1), np.zeros(len(hits.group), dtype=np.int64)
    parts = [np.zeros((0, 3), dtype=np.int64)]
    for i, g in enumerate(family):
        at = np.flatnonzero(hits.group == i)
        if not at.size:
            continue
        a, n_checks, edges = g.perm.shape[1], len(g.checks), g.edges[hits.translate[at]]
        key, to_shape = _literal(g, hits.translate[at])
        generic = np.array([m[1] != m[2] for m in g.matching])[hits.target[at]]
        # a stream per literal structure and kind, one stack of them
        structures, which = _unique_rows(np.c_[generic, key], max(2, a * n_checks))
        templates = [_template(g.gamma, a, _shared(row[1:], a, n_checks), not row[0], field.q)
                     for row in structures.tolist()]
        lens = np.array([len(t) for t in templates])
        length, start = lens[which], (np.cumsum(lens) - lens)[which]
        stack = np.full((lens.sum(), max(t.shape[1] for t in templates), 2), -1)
        for t, lo in zip(templates, (np.cumsum(lens) - lens).tolist()):
            stack[lo : lo + len(t), : t.shape[1]] = t
        pos, won, pending = np.zeros(len(at), dtype=np.int64), np.full(len(at), -1), np.arange(len(at))
        while pending.size:
            size = pos[pending] + 1
            count = np.clip(length[pending] - pos[pending], 0, size)
            owner, k = _expand(count)
            h = pending[owner]
            # each set's changes, patched into its hit's weights
            rows, pairs = buf[edges[h]], stack[start[h] + pos[h] + k]
            r, j = np.nonzero(pairs[:, :, 0] >= 0)
            edge = to_shape[h[r], pairs[r, j, 0]]
            rows[r, edge] = _weight(pairs[r, j, 1], rows[r, edge])
            perm = np.broadcast_to(np.arange(a), (len(rows), a))
            still = _first_witnesses(g.gamma, g.checks, rows, perm, field)[0] >= 0
            # each open hit's first set under which no witness is left
            gone, first = np.unique(owner[~still], return_index=True)
            won[pending[gone]] = pos[pending[gone]] + k[~still][first]
            pos[pending] += count
            pending = pending[(won[pending] < 0) & (count == size)]
        pick[at] = won
        tried[at] = np.where(won < 0, length, won + 1)
        ok = np.flatnonzero(won >= 0)
        pairs = stack[start[ok] + won[ok]]
        h, j = np.nonzero(pairs[:, :, 0] >= 0)
        index = edges[ok[h], to_shape[ok[h], pairs[h, j, 0]]]
        parts.append(np.stack([at[ok[h]], index, _weight(pairs[h, j, 1], buf[index])], axis=1))
    changes = np.concatenate(parts)
    return pick, tried, changes[np.argsort(changes[:, 0], kind="stable")]


# -- scanning a lifted code ------------------------------------------------


class RawTanner:
    """A hand-built regular Tanner graph, usable by :func:`gast_scan`.

    ``col_adj`` lists the check rows of each variable column; every column
    must have exactly gamma distinct rows.  Optional ``labels`` holds one
    nonzero GF(2^field_lam) weight per edge as bytes, column by column with
    each column's rows ascending (the order of ``edges``), and is refused,
    as an SCCode's is, without ``field_lam``, at another length or with a
    weight outside the field.  Without labels the graph can be grown but
    not scanned for targets.  It has no lift, so its shift is the identity
    (p = 1).
    """

    p = 1

    def __init__(self, col_adj: Sequence[Sequence[int]], gamma: int,
                 labels: Optional[bytes] = None, field_lam: Optional[int] = None):
        for c, rows in enumerate(col_adj):
            if len(rows) != gamma or len(set(rows)) != gamma:
                raise ValueError(f"column {c} must touch exactly gamma distinct rows")
        rows = np.sort(np.array(col_adj, dtype=np.int64).reshape(len(col_adj), gamma), axis=1)
        _check_labels(labels, field_lam, rows.size)
        self.gamma = gamma
        self.edges = TannerEdges(rows, 1 + int(rows.max(initial=0)))
        self.labels, self.field_lam = labels, field_lam


def _shift(x, s: int, p: int):
    """sigma^s of lifted rows or columns: offset + s mod p inside each block."""
    return x - x % p + (x + s) % p


def _pack(rows: np.ndarray, n: int) -> np.ndarray:
    """Rows of ints below ``n`` as int64 words, shape (..., words), that
    compare as the rows do, lexicographically."""
    bits = max(1, (n - 1).bit_length())
    words = []
    for lo in range(0, rows.shape[-1], 63 // bits):
        word = np.zeros(rows.shape[:-1], dtype=np.int64)
        for i in range(lo, min(lo + 63 // bits, rows.shape[-1])):
            word = (word << bits) | rows[..., i]
        words.append(word)
    return np.stack(words, axis=-1)


def _unique_rows(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows`` (ints below ``n``) ascending, and the
    index among them of each row."""
    keys = _pack(rows, n)
    order = np.lexsort(keys.T[::-1])
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    which = np.empty(len(keys), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return rows[order[new]], which


def _canonical_rows(cols: np.ndarray, p: int, n: int) -> np.ndarray:
    """Per ascending row of ``cols`` (below ``n``), the smallest ascending
    row among its translates.  Its first entry is offset 0 of the row's
    lowest block, so only the shifts taking a member of that block, a prefix
    of the row, to offset 0 are tried."""
    if p == 1 or not len(cols):
        return cols
    tried = cols < cols[:, :1] - cols[:, :1] % p + p
    k = int(tried.sum(axis=1).max())
    moved = np.sort(_shift(cols[:, None, :], -cols[:, :k, None] % p, p), axis=2)
    keys, alive = _pack(moved, n), tried[:, :k]
    for j in range(keys.shape[2]):
        word = np.where(alive, keys[:, :, j], np.iinfo(np.int64).max)
        alive &= word == word.min(axis=1, keepdims=True)
    return moved[np.arange(len(cols)), alive.argmax(axis=1)]


def _6cycle_orbits(code) -> tuple[np.ndarray, bool]:
    """Canonical variable-node triples of the 6-cycles, one row per orbit,
    and whether the graph has a (lifted) 4-cycle.

    A RawTanner's cycles are enumerated on its own incidence.  An SCCode's
    are its active window 6-cycles, the ones the census counts, lifted at
    offset 0 of column a: the offsets of b and c follow the walk
    (r1,a) (r1,b) (r3,b) (r3,c).  A cycle within replica 2 mirrors one within
    replica 1, so only cycles whose least column lies in replica 1 are kept,
    each placed at L replica shifts (L - 1 when it spans two replicas); the
    other p - 1 offsets are its translates.
    """
    n = len(code.edges.rows)
    if not isinstance(code, SCCode):
        inc = np.zeros((code.edges.n_rows, n), dtype=bool)
        inc[code.edges.rows, np.arange(n)[:, None]] = True
        vns = np.sort(_six_cycle_array(inc)[:, 3:], axis=1)
        return _unique_rows(vns, n)[0], len(_four_cycle_array(inc)) > 0
    k, L = code.kappa, code.L
    inc, (f, p) = _mask_incidence(code.mask), _window_powers(code.proto)
    six = _six_cycle_array(inc, (f, p))
    kept, dual = _replica1(six, k)
    r1, _, r3, a, b, c = six[kept].T
    off_b = f[r1, a] - f[r1, b]
    cols = np.stack([a * p, b * p + off_b % p, c * p + (off_b + f[r3, b] - f[r3, c]) % p], axis=1)
    owner, shift = _expand(L - dual[kept])
    vns = np.sort(cols[owner] + (shift * k * p)[:, None], axis=1)
    return _unique_rows(_canonical_rows(vns, p, n), n)[0], _has_active_4cycle(code.proto, inc)


@functools.lru_cache(maxsize=1024)
def _canonical(a: int, checks: tuple[tuple[int, ...], ...]) -> tuple:
    """The check structure ``checks`` (node lists over nodes 0..a-1) in
    canonical form: relabelled by the first node order, in itertools order,
    whose check bit masks, sorted, are least, its checks listed by mask and
    their nodes ascending.  All a! orders are tried up to CANON_MAX_A nodes,
    above it the identity alone.  Also, per canonical node, check and edge
    (check by check), the node, check and edge of ``checks`` that it is."""
    orders = np.array(list(itertools.permutations(range(a)))) if a <= CANON_MAX_A else np.arange(a)[None]
    inc = np.zeros((len(checks), a), dtype=np.int64)
    for c, members in enumerate(checks):
        inc[c, list(members)] = 1
    masks = (1 << orders) @ inc.T
    best = np.lexsort(np.sort(masks, axis=1).T[::-1])[0] if checks else 0
    check, node = np.argsort(masks[best], kind="stable"), np.argsort(orders[best])
    out = tuple(tuple(sorted(orders[best][list(checks[c])].tolist())) for c in check.tolist())
    start = np.cumsum([0] + [len(members) for members in checks])
    edge = [start[c] + checks[c].index(node[i]) for c, members in zip(check.tolist(), out) for i in members]
    return out, node, check, np.array(edge, dtype=np.intp)


@dataclass(frozen=True)
class _Group:
    """The label-matched subsets of a scan that share one check-structure
    shape.

    ``checks`` lists the nodes of each shared check in the shape's canonical
    form (:func:`_canonical`), and ``matching`` the targets of their label in
    list order.  Per translate (one row each, in the order growth emits
    them): ``vn`` holds its columns ascending, ``perm[t, i]`` the position
    of canonical node i in ``vn[t]``, ``cn`` the row of each check, and
    ``edges`` the index of each edge, check by check, into the code's label
    bytes.  None of it depends on the weights.
    """

    gamma: int
    checks: tuple[tuple[int, ...], ...]
    matching: list[tuple]
    vn: np.ndarray
    perm: np.ndarray
    cn: np.ndarray
    edges: np.ndarray


def _emit(found: dict, code, matching: list, sub, hits, runs: tuple) -> None:
    """Add the representatives ``sub[hits]``, all of one label, to ``found``:
    per canonical check structure, the arrays of a :class:`_Group` for their
    distinct translates, read off the chunk's row-hit ``runs`` (see
    :func:`_grow_family`)."""
    at, hit, start, size, owner = runs
    p, gamma, n_rows, a = code.p, code.gamma, code.edges.n_rows, sub.shape[1]
    # each hit's shared checks, as node sets, ordered by node set, then row:
    # the node sets in that order are its check structure
    mine = np.zeros(len(sub), dtype=bool)
    mine[hits] = True
    runs = np.flatnonzero(mine[owner] & (size >= 2))
    cell, rank = _expand(size[runs])
    masks = np.add.reduceat(1 << at[start[runs][cell] + rank] % (a * gamma) // gamma,
                            np.cumsum(size[runs]) - size[runs])
    rows = hit[start[runs]] % n_rows
    order = np.argsort((masks * n_rows + rows).reshape(len(hits), -1), axis=1)
    runs, masks, rows = (np.take_along_axis(x.reshape(len(hits), -1), order, axis=1)
                         for x in (runs, masks, rows))
    shapes, which = _unique_rows(masks, 1 << a)
    by_shape = np.argsort(which, kind="stable")
    runs, rows, reps = runs[by_shape], rows[by_shape], sub[hits[by_shape]]
    # each edge, check by check, as node * gamma + its slot in the node's rows
    cell, rank = _expand(size[runs.ravel()])
    place = (at[start[runs.ravel()][cell] + rank] % (a * gamma)).reshape(len(hits), -1)
    shifts = np.arange(p)
    moved = _shift(reps[:, None, :], shifts[:, None], p)
    by_col = np.argsort(moved, axis=2)
    vn = np.take_along_axis(moved, by_col, axis=2)
    # the shifts fixing a set are the multiples of its period, which divides
    # p; the last column stands for the shift by p
    same = np.concatenate([(vn[:, 1:] == vn[:, :1]).all(axis=2), np.ones((len(reps), 1), bool)], axis=1)
    period = same.argmax(axis=1) + 1
    orbit, shift = np.nonzero(shifts < period[:, None])
    parts = (
        vn[orbit, shift],
        # node i of the representative is node perm[t, i] of translate t
        np.argsort(by_col[orbit, shift], axis=1),
        _shift(rows[orbit], shift[:, None], p),
        # a column's rows lie in distinct row blocks, so a shift keeps their
        # order and each edge its slot
        np.take_along_axis(moved[orbit, shift], place[orbit] // gamma, axis=1) * gamma
        + place[orbit] % gamma,
    )
    ends = np.cumsum(period)[np.searchsorted(which[by_shape], np.arange(len(shapes)), "right") - 1]
    for shape, lo, hi in zip(shapes.tolist(), [0] + ends[:-1].tolist(), ends.tolist()):
        # the structure in canonical form: its nodes, checks and edges reordered
        literal = tuple(tuple(i for i in range(a) if m >> i & 1) for m in shape)
        checks, node, check, edge = _canonical(a, literal)
        vn, perm, cn, edges = (x[lo:hi] for x in parts)
        for part, x in zip(found.setdefault(checks, (matching, [], [], [], []))[1:],
                           (vn, perm[:, node], cn[:, check], edges[:, edge])):
            part.append(x)


def _grow_family(code, targets: list[tuple]) -> list[_Group]:
    """The subsets of ``code`` whose label matches a target, grouped by check
    structure shape; ``targets`` is non-empty and checked.  See
    :func:`gast_scan`."""
    by_label: dict[tuple, list[tuple]] = {}
    for t in targets:
        by_label.setdefault(t[:1] + t[2:], []).append(t)
    # a subset larger than every target can never match
    a_max = max(t[0] for t in targets)
    gamma, p, edges = code.gamma, code.p, code.edges
    need_majority = math.floor(gamma / 2) + 1
    n_rows, n_cols = edges.n_rows, len(edges.rows)
    # the columns of every row, padded with column n_cols
    order, ptr = edges.row_order
    row_cols = np.full((n_rows, int(np.diff(ptr).max(initial=1))), n_cols)
    row_cols[_expand(np.diff(ptr))] = order // gamma
    # an added node lowers d1 by at most gamma: reach[a] is the largest d1
    # of a size-a subset from which a larger target is reachable
    reach = [max((t[-3] + gamma * (t[0] - a) for t in targets if t[0] > a), default=-1)
             for a in range(a_max + 2)]

    level, has4 = _6cycle_orbits(code)
    convert_bound = gamma if has4 else 1
    # per check structure: its targets and the parts of its group's arrays
    found: dict[tuple, tuple[list, ...]] = {}
    for a in range(3, a_max + 1):
        w = a * gamma
        # a set of a_max nodes is never grown, so the last node's shared
        # degree is final and must already reach the majority
        floor = need_majority if a + 1 == a_max else 1
        # a child is kept only with a d1 of a target of its size, or in reach
        wanted = np.arange(w + gamma + 1) <= reach[a + 1]
        wanted[[t[1] for t in by_label if t[0] == a + 1 and t[1] <= w + gamma]] = True
        children = []
        step = max(1, GROW_CELLS // (w * row_cols.shape[1]))
        for sub in (level[lo : lo + step] for lo in range(0, len(level), step)):
            n = len(sub)
            # row hits: runs of equal (subset, row) keys, in sorted order
            keys = (np.arange(n)[:, None] * n_rows + edges.rows[sub].reshape(n, w)).ravel()
            at = np.argsort(keys, kind="stable")
            hit = keys[at]
            start = np.flatnonzero(np.concatenate(([True], hit[1:] != hit[:-1])))
            size = np.diff(np.append(start, len(hit)))
            owner = hit[start] // n_rows
            mult = np.empty(len(keys), dtype=np.int64)
            mult[at] = np.repeat(size, size)
            deg_in = (mult >= 2).reshape(n, a, gamma).sum(axis=2)
            least, d1 = deg_in.min(axis=1), w - deg_in.sum(axis=1)
            d2 = np.bincount(owner[size == 2], minlength=n)
            d3 = np.bincount(owner[size > 2], minlength=n)
            ugast = (d2 > d3) & (least >= need_majority)
            for label, matching in by_label.items():
                if label[0] != a:
                    continue
                hits = np.flatnonzero(ugast & (d1 == label[1]) & (d2 == label[2]) & (d3 == label[3]))
                if hits.size:
                    _emit(found, code, matching, sub, hits, (at, hit, start, size, owner))
            if a == a_max:
                continue
            # each node needs need_majority shared checks; an added node can
            # convert at most convert_bound hanging checks of any existing node
            runs = np.flatnonzero(
                ((need_majority - least <= (a_max - a) * convert_bound) & (d1 <= reach[a]))[owner]
            )
            # a (subset, candidate) pair per row of the subset the candidate
            # lies on, doubled, plus 1 where the row is a hanging check
            pairs = owner[runs, None] * (n_cols + 1) + row_cols[hit[start[runs]] % n_rows]
            pairs = np.sort((pairs * 2 + (size[runs, None] == 1)).ravel())
            first = np.flatnonzero(np.concatenate(([True], pairs[1:] >> 1 != pairs[:-1] >> 1)))
            # the candidate's shared degree, then the child's d1
            shared = np.diff(np.append(first, len(pairs)))
            first, shared = first[shared >= floor], shared[shared >= floor]
            hanging = np.concatenate(([0], np.cumsum(pairs & 1)))
            s, c = np.divmod(pairs[first] >> 1, n_cols + 1)
            child_d1 = d1[s] + gamma - shared - hanging[first + shared] + hanging[first]
            keep = (c < n_cols) & wanted.take(child_d1, mode="clip")
            s, c = s[keep], c[keep]
            fresh = ~(sub[s] == c[:, None]).any(axis=1)
            child = np.sort(np.concatenate([sub[s[fresh]], c[fresh, None]], axis=1), axis=1)
            children.append(_canonical_rows(child, p, n_cols))
        if a == a_max or not children:
            break
        level = _unique_rows(np.concatenate(children), n_cols)[0]
    return [_Group(gamma, checks, matching, *map(np.concatenate, parts))
            for checks, (matching, *parts) in found.items()]


class _Hits(NamedTuple):
    """The hit table of a family test, one entry per hit, by ``vn_ids``: its
    group in the family, its translate there, the index in the group's
    ``matching`` of the target it matched, and its witness row of the
    assignment table."""

    group: np.ndarray
    translate: np.ndarray
    target: np.ndarray
    first: np.ndarray


def _weight_bytes(code) -> np.ndarray:
    """The labelled code's edge weights as a uint8 buffer in edge order."""
    return np.frombuffer(code.labels, dtype=np.uint8)


def _test_family(family: list[_Group], code, field: FieldGF) -> _Hits:
    """The hits of a grown family under the edge weights of ``code``, over
    its field ``field``.

    Per group, the weights are gathered once and one oracle pass decides
    the group's targets, in list order, for every translate.
    """
    buf = _weight_bytes(code)
    parts = [[np.zeros(0, dtype=np.int64)] * 4]
    for i, g in enumerate(family):
        won, first = _first_witnesses(g.gamma, g.checks, buf[g.edges], g.perm, field, [t[1] for t in g.matching])
        t = np.flatnonzero(won >= 0)
        parts.append([np.full(len(t), i), t, won[t], first[t]])
    hits = _Hits(*map(np.concatenate, zip(*parts)))
    # by vn_ids, padded with -1: a tuple ranks before the longer ones it begins
    vn = np.full((len(hits.group), max((g.vn.shape[1] for g in family), default=1)), -1)
    for i, g in enumerate(family):
        vn[hits.group == i, : g.vn.shape[1]] = g.vn[hits.translate[hits.group == i]]
    return _Hits(*(x[np.lexsort(vn.T[::-1])] for x in hits))


def _literal(g: _Group, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per translate ``t`` of ``g``, its own structure, with checks in
    ascending row order and nodes in ascending column order: check * a +
    node of each edge, in that order, and the edge of ``g`` each edge is."""
    nodes, owners = _edge_ends(g.checks)
    a = g.perm.shape[1]
    key = np.argsort(np.argsort(g.cn[t], axis=1), axis=1)[:, owners] * a + g.perm[t][:, nodes]
    order = np.argsort(key, axis=1)
    return np.take_along_axis(key, order, axis=1), order


def _shared(key: list[int], a: int, n_checks: int) -> tuple[tuple[int, ...], ...]:
    """The shared checks of a structure given as check * a + node per edge."""
    shared: list[list[int]] = [[] for _ in range(n_checks)]
    for x in key:
        shared[x // a].append(x % a)
    return tuple(map(tuple, shared))


def _instances(family: list[_Group], hits: _Hits, code) -> list[GastInstance]:
    """The hits as :class:`GastInstance` objects, in table order, under the
    edge weights of ``code``."""
    out: list = [None] * len(hits.group)
    for i, g in enumerate(family):
        at = np.flatnonzero(hits.group == i)
        t, a = hits.translate[at], g.vn.shape[1]
        key, order = _literal(g, t)
        weights = np.take_along_axis(_weight_bytes(code)[g.edges[t]], order, 1)
        witness = _assignments(a, 1 << code.field_lam)[hits.first[at]].tolist()
        vn, cn = g.vn[t].tolist(), np.sort(g.cn[t], axis=1).tolist()
        for h, (k, w, m) in enumerate(zip(key.tolist(), weights.tolist(), hits.target[at].tolist())):
            top = UgastTopology(g.gamma, a, _shared(k, a, len(g.checks)), tuple(vn[h]), tuple(cn[h]))
            edge_weights = dict(zip(((x // a, x % a) for x in k), w))
            out[at[h]] = GastInstance(top, edge_weights, g.matching[m][1], tuple(witness[h]))
    return out


def _remove_hits(code, family: list[_Group], hits: _Hits) -> tuple[np.ndarray, np.ndarray]:
    """Removal of every hit of a scan table, each on its own topology under
    the weights of the labelled ``code`` and over its field: per hit,
    whether it was removed, and the changes as lifted [hit, row, col,
    weight] rows, in table order and each hit's check by check."""
    pick, _, changes = _remove_table(family, hits, _weight_bytes(code), FieldGF(code.field_lam))
    index = changes[:, 1]
    rows = code.edges.rows.ravel()[index]
    return pick >= 0, np.stack([changes[:, 0], rows, index // code.gamma, changes[:, 2]], axis=1)


def _check_targets(targets: Sequence[tuple]) -> list[tuple]:
    """The targets as tuples; each must be 5 non-negative ints (a, b, d1,
    d2, d3) with a >= 3."""
    targets = [tuple(t) for t in targets]
    for t in targets:
        if len(t) != 5:
            raise ValueError(f"targets must be 5-tuples (a, b, d1, d2, d3), got {t}")
        if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in t):
            raise ValueError(f"target entries must be non-negative integers, got {t}")
        if t[0] < 3:
            raise ValueError(f"target size a must be >= 3, scan subsets grow from 6-cycles, got {t}")
    return targets


def gast_scan(code, targets: Sequence[tuple]) -> list[GastInstance]:
    """Find absorbing-set instances matching the target labels.

    ``code`` is an SCCode or a RawTanner, read through its edge array, and
    its weights are read over its own field, GF(2^field_lam).  The
    lifted graph is invariant under the shift sigma that adds 1 mod p to the
    offset of every row and column inside its circulant block, and so are
    pruning and every label; a RawTanner has p = 1.  So only one subset per
    sigma-orbit is grown: the smallest of its translates as a sorted row.

    Growth runs by levels, one numpy pass per subset size a, from the
    6-cycle orbits up to a_max nodes, the largest target size (a larger
    subset can never match).  A level's children add a node that shares a
    check with the subset; they are put into canonical form and
    deduplicated.  Each subset's label (a, d1, d2,
    d3), d2 > d3 and the majority condition are read off sorted row hits.
    A subset is grown only while the majority condition is reachable within
    the remaining additions and, since an added node lowers d1 by at most
    gamma, while some larger target T has d1 - gamma (a_T - a) <= d1_T; a
    child of neither a target's d1 nor such a reach is dropped.  A node that
    completes a subset of a_max nodes must share floor(gamma/2)+1 checks
    with it: that set is never grown, so the node's shared degree is final.

    Growth does not read the weights.  It emits every subset whose label
    matches a target, expanded to its distinct translates, into a family of
    arrays per check structure.  The test gathers the family's weights from
    the label bytes once.  A target (a, b, d1, d2, d3) matches a subset of
    label (a, d1, d2, d3) that has an oracle witness with exactly b
    unsatisfied checks; the targets of a check structure are decided for
    every translate in one oracle pass, over the assignments with x_0 = 1.
    Per translate the first target in list order wins, and the witness is
    the lexicographically first valid assignment in the translate's own
    sorted ``vn_ids`` order.  A target that is not a 5-tuple of
    non-negative ints, a target with a < 3, and a non-empty target list on
    an unlabeled code, are refused before growth; a scan of more than
    MAX_SCAN_INSTANCES hits is refused after the test, before any object is
    built.
    """
    family, hits = _bounded_table(code, targets)
    return _instances(family, hits, code)


def _bounded_table(code, targets: Sequence[tuple]) -> tuple[list[_Group], _Hits]:
    """:func:`_scan_table`, refused above MAX_SCAN_INSTANCES hits: the scan
    and removal that give a result per hit go through here."""
    family, hits = _scan_table(code, targets)
    if len(hits.group) > MAX_SCAN_INSTANCES:
        raise ValueError(
            f"scan found {len(hits.group)} hits, more than the {MAX_SCAN_INSTANCES} "
            "it reports one by one; narrow the targets"
        )
    return family, hits


def _scan_table(code, targets: Sequence[tuple]) -> tuple[list[_Group], _Hits]:
    """The grown family and its hit table, with :func:`gast_scan`'s checks."""
    targets = _check_targets(targets)
    if not targets:
        return [], _Hits(*[np.zeros(0, dtype=np.int64)] * 4)
    if code.labels is None:
        raise ValueError("a non-empty target list needs a labelled code")
    family = _grow_family(code, targets)
    return family, _test_family(family, code, FieldGF(code.field_lam))
