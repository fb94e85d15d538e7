"""General absorbing sets of type two: detection, budgets, and removal.

A subset of variable nodes with nonzero GF(q) values is absorbing when every
unsatisfied check it touches has degree at most 2 and every variable node
sees strictly more satisfied than unsatisfied checks.  Whether some value
assignment achieves this is decided here by an exhaustive scan over
(q-1)^a assignments, vectorized over the assignment axis and, in the scan,
over the translates of a subset under the lift shift.  That oracle is
exact and replaces null-space machinery for the sizes this library targets:
it refuses more than 2^20 assignments (a <= 12 at q = 4, a <= 7 at q = 8,
a <= 5 at q = 16) before allocating anything.

Candidates in a code are found by growing variable-node subsets outward from
6-cycles.  The seeds come from the cycle enumerator of :mod:`scldpc.cycles`:
for a coupled code, the active window 6-cycles that the census counts,
lifted in numpy; for a hand-built graph, the 6-cycles of its own incidence.
Shifting every offset by one inside every circulant maps the lifted graph
onto itself, so one subset per shift orbit is grown.  The last node of a
full-size subset is added only if it already shares a majority of its
checks with the subset, and each subset's label is read off its row hits.
Only an orbit whose label matches a target is expanded to its distinct
translates; their weights are gathered from the label bytes once, all of
them are tested in one batched oracle pass, and each hit reads its topology
and weights off that gather.

Removal works on edges of degree-2 checks only.  When the unsatisfied checks
are exactly the degree-1 checks, the number of weight changes needed has a
closed-form topological bound and the minimum-cardinality candidate sets can
be enumerated outright; otherwise a brute-force candidate stream is used.
Removal returns lifted (row, col, weight) changes; a caller collects them and
writes the code once.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .cycles import _expand, _four_cycle_array, _has_active_4cycle, _mask_incidence, _replica1
from .cycles import _six_cycle_array, _window_powers
from .gf import FieldGF
from .qc import SCCode, TannerEdges

__all__ = [
    "UgastTopology",
    "GastInstance",
    "RemovalBudget",
    "RawTanner",
    "is_gast",
    "gast_witnesses",
    "removal_budget",
    "count_candidate_sets",
    "enumerate_candidate_sets",
    "remove_gast",
    "remove_gast_weights",
    "RemovalOutcome",
    "gast_scan",
]

# largest (q-1)^a the oracle scans; a = 10 at q = 8 would be 282 M rows
MAX_ORACLE_ASSIGNMENTS = 2**20
# translates x assignments scanned at once when the scan tests an orbit
ORACLE_BATCH_ROWS = MAX_ORACLE_ASSIGNMENTS
# largest change set the brute-force removal stream tries
MAX_CHANGES = 2


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
        for cn in self.shared_cns:
            if len(cn) < 2:
                raise ValueError("shared checks must have degree >= 2")
            if len(set(cn)) != len(cn):
                raise ValueError("a check cannot touch the same variable node twice")
            if any(not 0 <= v < self.a for v in cn):
                raise ValueError("check neighbor index out of range")
        if any(d < 0 for d in self.deg1_per_vn):
            raise ValueError(
                "shared-check degrees exceed gamma for some variable node"
            )

    @property
    def shared_deg_per_vn(self) -> tuple[int, ...]:
        deg = [0] * self.a
        for cn in self.shared_cns:
            for v in cn:
                deg[v] += 1
        return tuple(deg)

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

    def with_weights(self, overrides: dict) -> "GastInstance":
        merged = dict(self.weights)
        merged.update(overrides)
        return replace(self, weights=merged, b=None, witness=None)


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


def _oracle_pass(
    gamma: int,
    checks: list[list[int]],
    weights: np.ndarray,
    perm: np.ndarray,
    field: FieldGF,
) -> tuple[np.ndarray, np.ndarray]:
    """(valid, unsatisfied totals incl. degree-1), each (translates, assignments).

    ``checks`` lists the nodes of each shared check; edges are numbered
    check by check in that order, and ``weights`` is (translates, edges).
    ``perm[t, i]`` is the column of the assignment table that node i of
    translate t reads, so the table stays lexicographic in each
    translate's own node order.
    """
    m, a = perm.shape
    nodes = [i for members in checks for i in members]
    # every edge's weight times its node's value: (edges, translates, assignments);
    # a q <= 256 table index w * q + x fits 16 bits
    values = _assignments(a, field.q).T[perm.T[nodes]]
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


def gast_witnesses(
    topology: UgastTopology, weights: dict, field: FieldGF
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(assignment matrix, valid mask, unsatisfied totals) of the full scan."""
    _assignment_count(topology.a, field.q)
    for w in weights.values():
        if not 0 < w < field.q:
            raise ValueError(f"edge weight {w} out of GF({field.q}) nonzero range")
    cns = topology.shared_cns
    edge_weights = [[weights[(c, v)] for c, cn in enumerate(cns) for v in cn]]
    ok, b = _oracle_pass(
        topology.gamma,
        [list(cn) for cn in cns],
        np.array(edge_weights, dtype=np.uint8),
        np.arange(topology.a)[None],
        field,
    )
    return _assignments(topology.a, field.q), ok[0], b[0]


def is_gast(
    topology: UgastTopology, weights: dict, field: FieldGF
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive absorbing-set check; returns the first witness found.

    A topology failing d2 > d3 or the majority condition is rejected before
    any scan.  Witness order is lexicographic over assignments, so results
    are deterministic.
    """
    if not topology.is_ugast():
        return False, None
    vals, ok, _ = gast_witnesses(topology, weights, field)
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        return False, None
    return True, tuple(int(x) for x in vals[idx[0]])


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
    top = instance.topology
    b = instance.b if instance.b is not None else top.d1
    if b != top.d1:
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


def enumerate_candidate_sets(
    instance: GastInstance, budget: RemovalBudget, field: FieldGF
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Candidate sets of (check, variable node, new weight), deduplicated.

    Every change targets an edge of a degree-2 check incident to some
    maximally-loaded variable node, no two changes in a set share a check,
    and new weights exclude zero and the current weight.  Yields exactly
    count_candidate_sets(...) distinct sets, in deterministic order.
    """
    top = instance.topology
    vm_nodes = [v for v, d in enumerate(top.deg1_per_vn) if d == budget.d1_vm]
    seen: set = set()
    for v in vm_nodes:
        cns = [
            c
            for c, cn in enumerate(top.shared_cns)
            if v in cn and len(cn) == 2
        ]
        for chosen in itertools.combinations(cns, budget.e_mu):
            edge_options = []
            for c in chosen:
                opts = []
                for u in sorted(top.shared_cns[c]):
                    cur = instance.weights[(c, u)]
                    for w in field.nonzero_elements():
                        if w != cur:
                            opts.append((c, u, w))
                edge_options.append(opts)
            for combo in itertools.product(*edge_options):
                key = frozenset(combo)
                if key in seen:
                    continue
                seen.add(key)
                yield tuple(sorted(combo))


@dataclass(frozen=True)
class RemovalOutcome:
    success: bool
    changes: Optional[tuple[tuple[int, int, int], ...]]
    instance: GastInstance
    tried: int = 0


def _generic_candidates(
    instance: GastInstance, field: FieldGF
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """All change sets on degree-2 check edges of up to MAX_CHANGES changes."""
    top = instance.topology
    edges = [
        (c, v)
        for c, cn in enumerate(top.shared_cns)
        if len(cn) == 2
        for v in sorted(cn)
    ]
    for size in range(1, MAX_CHANGES + 1):
        for edge_set in itertools.combinations(edges, size):
            if len({c for c, _ in edge_set}) != size:
                continue
            pools = []
            for c, v in edge_set:
                cur = instance.weights[(c, v)]
                pools.append([(c, v, w) for w in field.nonzero_elements() if w != cur])
            for combo in itertools.product(*pools):
                yield tuple(sorted(combo))


def remove_gast_weights(instance: GastInstance, field: FieldGF) -> RemovalOutcome:
    """Remove the absorbing set by reweighting edges of the instance alone.

    An instance without a witness is first checked with the oracle, and one
    that is no absorbing set succeeds with no changes.  An instance that
    carries a witness, as every instance from :func:`gast_scan` does, is
    taken as proven: ``GastInstance.with_weights`` clears the witness, so a
    witness always belongs to the instance's current weights.

    Tries candidates in stream order and returns the first set under which
    the oracle finds no witness on the same topology.  Uses the closed-form
    stream when b = d1 and the budget assumptions hold, otherwise the generic
    brute-force stream.
    """
    if instance.witness is None and not is_gast(instance.topology, instance.weights, field)[0]:
        return RemovalOutcome(success=True, changes=(), instance=instance)
    stream: Iterator[tuple[tuple[int, int, int], ...]]
    try:
        budget = removal_budget(instance)
        stream = enumerate_candidate_sets(instance, budget, field)
    except ValueError:
        stream = _generic_candidates(instance, field)
    tried = 0
    for changes in stream:
        tried += 1
        candidate = instance.with_weights({(c, v): w for c, v, w in changes})
        still, _ = is_gast(candidate.topology, candidate.weights, field)
        if not still:
            return RemovalOutcome(
                success=True, changes=changes, instance=candidate, tried=tried
            )
    return RemovalOutcome(success=False, changes=None, instance=instance, tried=tried)


def remove_gast(
    instance: GastInstance, field: FieldGF
) -> tuple[RemovalOutcome, list[tuple[int, int, int]]]:
    """Config-level removal lifted to the code's coordinates.

    The instance must carry lifted row/column ids.  Returns the outcome and
    its changes as lifted (row, col, weight) triples, empty when nothing
    changes; :func:`scldpc.qc.apply_edge_changes` writes them into a code.
    """
    top = instance.topology
    if top.vn_ids is None or top.cn_ids is None:
        raise ValueError("instance is not tied to lifted code coordinates")
    outcome = remove_gast_weights(instance, field)
    lifted = [(top.cn_ids[c], top.vn_ids[v], w) for c, v, w in outcome.changes or ()]
    return outcome, lifted


# -- scanning a lifted code ------------------------------------------------


class RawTanner:
    """A hand-built regular Tanner graph, usable by :func:`gast_scan`.

    ``col_adj`` lists the check rows of each variable column; every column
    must have exactly gamma distinct rows.  Optional ``labels`` holds one
    weight per edge as bytes, column by column with each column's rows
    ascending (the order of ``edges``); without it every weight is 1.  The
    graph has no lift, so its shift is the identity (p = 1).
    """

    p = 1
    field_lam = None

    def __init__(self, col_adj: Sequence[Sequence[int]], gamma: int,
                 labels: Optional[bytes] = None):
        for c, rows in enumerate(col_adj):
            if len(rows) != gamma or len(set(rows)) != gamma:
                raise ValueError(f"column {c} must touch exactly gamma distinct rows")
        rows = np.sort(np.array(col_adj, dtype=np.int64).reshape(len(col_adj), gamma), axis=1)
        self.gamma = gamma
        self.edges = TannerEdges(rows, 1 + int(rows.max(initial=0)))
        self.labels = labels


def _shift(x, s: int, p: int):
    """sigma^s of lifted rows or columns: offset + s mod p inside each block."""
    return x - x % p + (x + s) % p


def _canonical(cols: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The smallest sorted tuple among the translates of ascending ``cols``.

    Its first entry is offset 0 of the lowest block the set touches, so only
    the shifts that take a member of that block to offset 0 are tried.
    """
    if p == 1:
        return cols
    end = cols[0] - cols[0] % p + p
    best = None
    for c in cols:
        if c >= end:
            break
        t = tuple(sorted([_shift(x, -c % p, p) for x in cols]))
        if best is None or t < best:
            best = t
    return best


def _6cycle_orbits(code) -> tuple[set[tuple[int, ...]], bool]:
    """Canonical variable-node triples of the 6-cycles, one per orbit, and
    whether the graph has a (lifted) 4-cycle.

    A RawTanner's cycles are enumerated on its own incidence.  An SCCode's
    are its active window 6-cycles, the ones the census counts, lifted at
    offset 0 of column a: the offsets of b and c follow the walk
    (r1,a) (r1,b) (r3,b) (r3,c).  A cycle within replica 2 mirrors one within
    replica 1, so only cycles whose least column lies in replica 1 are kept,
    each placed at L replica shifts (L - 1 when it spans two replicas); the
    other p - 1 offsets are its translates.
    """
    if not isinstance(code, SCCode):
        inc = np.zeros((code.edges.n_rows, len(code.edges.rows)), dtype=bool)
        inc[code.edges.rows, np.arange(len(code.edges.rows))[:, None]] = True
        vns = np.sort(_six_cycle_array(inc)[:, 3:], axis=1)
        return set(map(tuple, vns.tolist())), len(_four_cycle_array(inc)) > 0
    k, L = code.kappa, code.L
    inc, (f, p) = _mask_incidence(code.mask), _window_powers(code.proto)
    six = _six_cycle_array(inc, (f, p))
    kept, dual = _replica1(six, k)
    r1, _, r3, a, b, c = six[kept].T
    off_b = f[r1, a] - f[r1, b]
    cols = np.stack([a * p, b * p + off_b % p, c * p + (off_b + f[r3, b] - f[r3, c]) % p], axis=1)
    owner, shift = _expand(L - dual[kept])
    vns = np.sort(cols[owner] + (shift * k * p)[:, None], axis=1)
    seeds = {_canonical(t, p) for t in map(tuple, vns.tolist())}
    return seeds, _has_active_4cycle(code.proto, inc)


def _orbit_witnesses(
    gamma: int,
    checks: list[list[int]],
    weights: np.ndarray,
    perm: np.ndarray,
    field: FieldGF,
    bs: Sequence[int],
) -> list[Optional[tuple[int, tuple[int, ...]]]]:
    """Per translate, (b, witness) of the first b in ``bs`` that has a witness.

    The arguments are those of :func:`_oracle_pass`.  Translates x
    assignments are scanned in batches of at most ``ORACLE_BATCH_ROWS``
    rows.
    """
    m, a = perm.shape
    n = _assignment_count(a, field.q)
    vals = _assignments(a, field.q)
    out: list = []
    step = max(1, ORACLE_BATCH_ROWS // n)
    for lo in range(0, m, step):
        ok, b = _oracle_pass(gamma, checks, weights[lo : lo + step], perm[lo : lo + step], field)
        found: list = [None] * len(ok)
        for bt in bs:
            match = ok & (b == bt)
            first = match.argmax(axis=1)
            for t in np.flatnonzero(match.any(axis=1)).tolist():
                if found[t] is None:
                    found[t] = (bt, tuple(vals[first[t]].tolist()))
        out += found
    return out


def _orbit_instances(
    code,
    rep: tuple[int, ...],
    row_members: dict[int, list[int]],
    matching: list[tuple],
    field: Optional[FieldGF],
) -> list[GastInstance]:
    """The instances among the distinct translates of a label-matched subset.

    The translates' edge weights are gathered from the code's labels once
    (all ones on an unlabelled graph); the oracle tests that array and each
    hit's instance reads its weights from it.  Per translate, the first
    target of ``matching`` (in list order) that holds wins.  A 4-entry
    target holds for every translate; the 5-entry targets before it are
    decided for all translates in one oracle pass.
    """
    p, gamma = code.p, code.gamma
    shared = sorted((r, ms) for r, ms in row_members.items() if len(ms) >= 2)
    cols = np.array(rep)
    moved = _shift(cols, np.arange(p)[:, None], p)
    order = np.argsort(moved, axis=1)
    vn = np.take_along_axis(moved, order, axis=1)
    # the shifts fixing the set are the multiples of its period, which divides p
    same = (vn[1:] == vn[0]).all(axis=1)
    shifts = np.arange(1 + int(same.argmax()) if same.any() else p)[:, None]
    index = {v: i for i, v in enumerate(rep)}
    checks = [[index[v] for v in ms] for _, ms in shared]
    e_cols = _shift(np.array([v for _, ms in shared for v in ms]), shifts, p)
    if code.labels is None:
        weights = np.ones(e_cols.shape, dtype=np.uint8)
    else:
        e_rows = _shift(np.array([r for r, ms in shared for _ in ms]), shifts, p)
        k = (code.edges.rows[e_cols] == e_rows[..., None]).argmax(axis=2)
        weights = np.frombuffer(code.labels, dtype=np.uint8)[e_cols * gamma + k]
    # node i of the representative is node perm[t, i] of translate t
    perm = np.argsort(order[: len(shifts)], axis=1)
    lead = list(itertools.takewhile(lambda t: len(t) == 5, matching))
    witnesses: list = [None] * len(shifts)
    if lead:
        witnesses = _orbit_witnesses(gamma, checks, weights, perm, field, [t[1] for t in lead])
    # each translate's checks in ascending row order
    rows = _shift(np.array([r for r, _ in shared]), shifts, p)
    row_order = np.argsort(rows, axis=1)
    cn_ids = np.take_along_axis(rows, row_order, axis=1)
    starts = np.cumsum([0] + [len(ms) for ms in checks]).tolist()
    out = []
    for t, hit in enumerate(witnesses):
        if hit is None and len(lead) == len(matching):
            continue
        node, w = perm[t].tolist(), weights[t].tolist()
        shared_cns, edge_weights = [], {}
        for c, j in enumerate(row_order[t].tolist()):
            edges = sorted((node[i], w[e]) for e, i in enumerate(checks[j], starts[j]))
            shared_cns.append(tuple(v for v, _ in edges))
            edge_weights.update(((c, v), x) for v, x in edges)
        top = UgastTopology(
            gamma=gamma,
            a=len(rep),
            shared_cns=tuple(shared_cns),
            vn_ids=tuple(vn[t].tolist()),
            cn_ids=tuple(cn_ids[t].tolist()),
        )
        inst = GastInstance(topology=top, weights=edge_weights)
        if hit is not None:
            inst = replace(inst, b=int(hit[0]), witness=hit[1])
        out.append(inst)
    return out


def _check_targets(targets: Sequence[tuple], a_max: int) -> list[tuple]:
    """The targets as tuples; each must be 4 or 5 non-negative ints, a >= 3,
    and the subset size bound ``a_max`` at least 3."""
    if a_max < 3:
        raise ValueError(f"a_max must be >= 3, scan subsets grow from 6-cycles, got {a_max}")
    targets = [tuple(t) for t in targets]
    if any(len(t) not in (4, 5) for t in targets):
        raise ValueError("targets must be 4-tuples (UGAST) or 5-tuples (GAST)")
    for t in targets:
        if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in t):
            raise ValueError(f"target entries must be non-negative integers, got {t}")
        if t[0] < 3:
            raise ValueError(f"target size a must be >= 3, scan subsets grow from 6-cycles, got {t}")
    return targets


def gast_scan(
    code,
    field: Optional[FieldGF],
    targets: Sequence[tuple],
    a_max: int = 8,
) -> list[GastInstance]:
    """Find absorbing-set instances matching the target labels.

    ``code`` is an SCCode or a RawTanner; both are read through their edge
    array, taken once as Python lists.  The lifted graph is invariant under
    the shift sigma that adds 1 mod p to the offset of every row and column
    inside its circulant block, and so are pruning, the majority floor and
    every label; a RawTanner has p = 1.  So only one subset per sigma-orbit
    is grown: the canonical one, the smallest of its translates as a sorted
    tuple.

    Subsets grow outward from the 6-cycle orbits by adding variable nodes
    that share a check with the current set, up to ``a_max`` nodes, an
    upper bound clamped to the largest target size (a larger subset can
    never match), and each child is put into canonical form before it is
    looked up among the subsets already seen.  Growth is pruned once the
    per-node majority condition is unreachable within the remaining
    additions.  A node that would complete a subset of that size is added
    only if it shares at least floor(gamma/2)+1 checks with the subset: that
    set is never grown, so the node's shared degree is final, and a set
    failing it can never be an absorbing set.

    Each subset's label (a, d1, d2, d3), d2 > d3 and the majority condition
    are read off its row hits in one pass.  A subset whose label matches a
    target is expanded to its distinct translates.  4-entry targets
    (a, d1, d2, d3) match topologies only; 5-entry targets (a, b, d1, d2, d3)
    additionally require an oracle witness with exactly b unsatisfied
    checks, which needs a field, and are decided for all translates in one
    batched oracle pass over the weights gathered from the label bytes.  Per
    translate the first target in list order wins, and the witness is the
    lexicographically first valid assignment in the translate's own sorted
    ``vn_ids`` order.  Instances are built only for hits, read off the
    representative's checks and the gathered weights.  A target entry that
    is not a non-negative int, a target with a < 3 or an ``a_max`` below 3
    (no subset grown from a 6-cycle is that small), and a labelled code
    whose field differs from ``field``, are refused.
    """
    targets = _check_targets(targets, a_max)
    if not targets:
        return []
    if any(len(t) == 5 for t in targets) and field is None:
        raise ValueError("5-entry targets need a field for the oracle")
    if code.labels is not None and field is not None:
        if code.field_lam is not None and code.field_lam != field.lam:
            raise ValueError(
                f"code is labelled over GF({1 << code.field_lam}), "
                f"the scan field is GF({field.q})"
            )
        labels = np.frombuffer(code.labels, dtype=np.uint8)
        bad = labels[(labels == 0) | (labels >= field.q)]
        if bad.size:
            raise ValueError(f"edge weight {bad[0]} out of GF({field.q}) nonzero range")
    by_label: dict[tuple, list[tuple]] = {}
    for t in targets:
        by_label.setdefault(t if len(t) == 4 else t[:1] + t[2:], []).append(t)
    # a subset larger than every target can never match
    a_max = min(a_max, max(t[0] for t in targets))
    gamma, p = code.gamma, code.p
    need_majority = math.floor(gamma / 2) + 1

    seeds, has4 = _6cycle_orbits(code)
    convert_bound = gamma if has4 else 1

    results: list[GastInstance] = []
    queue: list[tuple[int, ...]] = sorted(seeds)
    visited = set(queue)

    rows_of = code.edges.columns
    cols_of = code.edges.row_lists

    head = 0
    while head < len(queue):
        subset = queue[head]
        head += 1
        a = len(subset)
        row_members: dict[int, list[int]] = {}
        for v in subset:
            for r in rows_of[v]:
                row_members.setdefault(r, []).append(v)
        deg_in = dict.fromkeys(subset, 0)
        d2 = d3 = 0
        for members in row_members.values():
            if len(members) >= 2:
                if len(members) == 2:
                    d2 += 1
                else:
                    d3 += 1
                for v in members:
                    deg_in[v] += 1
        least = min(deg_in.values())
        if d2 > d3 and least >= need_majority:
            matching = by_label.get((a, a * gamma - sum(deg_in.values()), d2, d3))
            if matching:
                results += _orbit_instances(code, subset, row_members, matching, field)
        if a >= a_max:
            continue
        remaining = a_max - a
        # each node needs >= need_majority shared checks; an added node can
        # convert at most convert_bound hanging checks of any existing node
        if need_majority - least > remaining * convert_bound:
            continue
        # a candidate's shared degree is the number of its rows that hold a
        # member; a set of a_max nodes is never grown, so for the last node
        # that degree is final and must already reach the majority
        shared_with = Counter(itertools.chain.from_iterable(map(cols_of.__getitem__, row_members)))
        floor = need_majority if remaining == 1 else 1
        for c, n in shared_with.items():
            if n >= floor and c not in deg_in:
                nxt = _canonical(tuple(sorted(subset + (c,))), p)
                if nxt not in visited:
                    visited.add(nxt)
                    queue.append(nxt)
    results.sort(key=lambda inst: inst.topology.vn_ids)
    return results
