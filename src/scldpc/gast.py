"""General absorbing sets of type two: detection, budgets, and removal.

A subset of variable nodes with nonzero GF(q) values is absorbing when every
unsatisfied check it touches has degree at most 2 and every variable node
sees strictly more satisfied than unsatisfied checks.  Whether some value
assignment achieves this is decided here by an exhaustive scan over
(q-1)^a assignments, vectorized over the assignment axis.  That oracle is
exact and replaces null-space machinery for the sizes this library targets:
it refuses more than 2^20 assignments (a <= 12 at q = 4, a <= 7 at q = 8,
a <= 5 at q = 16) before allocating anything.

Candidates in a code are found by growing variable-node subsets outward from
6-cycles.  The last node of a full-size subset is added only if it already
shares a majority of its checks with the subset, and each subset's label is
read off its row hits, so a topology is built, and the oracle run, only for
subsets whose label matches a target.

Removal works on edges of degree-2 checks only.  When the unsatisfied checks
are exactly the degree-1 checks, the number of weight changes needed has a
closed-form topological bound and the minimum-cardinality candidate sets can
be enumerated outright; otherwise a brute-force candidate stream is used.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .cycles import SPAN_R1, SPAN_R2, _four_cycles, _six_cycles, build_window, girth_check
from .gf import FieldGF
from .qc import SCCode, TannerEdges, TannerGraph, apply_edge_changes

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
    "lifted_6cycle_vn_sets",
]

# largest (q-1)^a the oracle scans; a = 10 at q = 8 would be 282 M rows
MAX_ORACLE_ASSIGNMENTS = 2**20
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


class _Oracle:
    """Vectorized satisfiability scan for one topology over one field."""

    def __init__(self, topology: UgastTopology, field: FieldGF):
        n = (field.q - 1) ** topology.a
        if n > MAX_ORACLE_ASSIGNMENTS:
            raise ValueError(
                f"oracle would scan (q-1)^a = {field.q - 1}^{topology.a} = {n} "
                f"assignments, limit is {MAX_ORACLE_ASSIGNMENTS}"
            )
        self.top = topology
        self.field = field
        self.mul = np.asarray(field.mul_table_rows(), dtype=np.uint8)
        self.vals = _assignments(topology.a, field.q)
        n_cns = len(topology.shared_cns)
        self.inc = np.zeros((n_cns, topology.a), dtype=np.uint8)
        for c, cn in enumerate(topology.shared_cns):
            for v in cn:
                self.inc[c, v] = 1
        self.deg3_cols = np.array(
            [c for c, cn in enumerate(topology.shared_cns) if len(cn) > 2], dtype=np.int64
        )
        self.d1_per_vn = np.array(topology.deg1_per_vn, dtype=np.int64)

    def _syndromes(self, weights: dict) -> np.ndarray:
        """(N, n_cns) check sums over all assignments."""
        n = self.vals.shape[0]
        syn = np.zeros((n, len(self.top.shared_cns)), dtype=np.uint8)
        for c, cn in enumerate(self.top.shared_cns):
            acc = np.zeros(n, dtype=np.uint8)
            for v in cn:
                w = weights[(c, v)]
                acc ^= self.mul[w][self.vals[:, v]]
            syn[:, c] = acc
        return syn

    def scan(self, weights: dict) -> tuple[np.ndarray, np.ndarray]:
        """(valid mask over assignments, unsatisfied-check totals incl. degree-1)."""
        for (c, v), w in weights.items():
            if not 0 < w < self.field.q:
                raise ValueError(f"edge weight {w} out of GF({self.field.q}) nonzero range")
        unsat = self._syndromes(weights) != 0
        ok = np.ones(unsat.shape[0], dtype=bool)
        if self.deg3_cols.size:
            ok &= ~unsat[:, self.deg3_cols].any(axis=1)
        sat_counts = (~unsat).astype(np.int64) @ self.inc
        unsat_counts = unsat.astype(np.int64) @ self.inc + self.d1_per_vn
        ok &= (sat_counts > unsat_counts).all(axis=1)
        b_totals = unsat.sum(axis=1) + int(self.d1_per_vn.sum())
        return ok, b_totals


def gast_witnesses(
    topology: UgastTopology, weights: dict, field: FieldGF
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(assignment matrix, valid mask, unsatisfied totals) of the full scan."""
    oracle = _Oracle(topology, field)
    ok, b_totals = oracle.scan(weights)
    return oracle.vals, ok, b_totals


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

    Tries candidates in stream order and returns the first set under which
    the oracle finds no witness on the same topology.  Uses the closed-form
    stream when b = d1 and the budget assumptions hold, otherwise the generic
    brute-force stream.
    """
    ok, _ = is_gast(instance.topology, instance.weights, field)
    if not ok:
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
    code: SCCode, instance: GastInstance, field: FieldGF
) -> tuple[RemovalOutcome, SCCode]:
    """Config-level removal applied back to the lifted code's edge weights.

    The instance must carry lifted row/column ids.  Returns the outcome and
    the (possibly unchanged) code.
    """
    top = instance.topology
    if top.vn_ids is None or top.cn_ids is None:
        raise ValueError("instance is not tied to lifted code coordinates")
    outcome = remove_gast_weights(instance, field)
    if not outcome.success or not outcome.changes:
        return outcome, code
    lifted = [
        (top.cn_ids[c], top.vn_ids[v], w) for c, v, w in outcome.changes
    ]
    return outcome, apply_edge_changes(code, lifted)


# -- scanning a lifted code ------------------------------------------------


class RawTanner(TannerGraph):
    """A hand-built regular Tanner graph, usable by :func:`gast_scan`.

    ``col_adj`` lists the check rows of each variable column; every column
    must have exactly gamma distinct rows.  Optional ``labels`` holds one
    weight per edge as bytes, column by column with each column's rows
    ascending (the order of ``edges``); without it every weight is 1.
    """

    def __init__(self, col_adj: Sequence[Sequence[int]], gamma: int,
                 labels: Optional[bytes] = None):
        for c, rows in enumerate(col_adj):
            if len(rows) != gamma or len(set(rows)) != gamma:
                raise ValueError(f"column {c} must touch exactly gamma distinct rows")
        rows = np.sort(np.array(col_adj, dtype=np.int64).reshape(len(col_adj), gamma), axis=1)
        self.gamma = gamma
        self.edges = TannerEdges(rows, 1 + int(rows.max(initial=0)))
        self.labels = labels


def lifted_6cycle_vn_sets(code: SCCode) -> list[tuple[int, ...]]:
    """Variable-node triples of every 6-cycle in the lifted graph.

    Active window cycles are expanded across replica shifts (L for
    one-replica spans, L-1 for two-replica) and across the p lift offsets;
    the full lifted graph is never searched.
    """
    win = build_window(code.proto, code.mask)
    flat = win.flat_powers(code.proto.powers)
    act = win.balances6(flat) == 0
    g, k, p, L = code.gamma, code.kappa, code.p, code.L
    powers = code.proto.powers
    out: set[tuple[int, ...]] = set()
    for idx in np.flatnonzero(act):
        span = int(win.span6[idx])
        if span == SPAN_R2:
            continue  # mirror of an R1 cycle under replica shift
        pr = win.pos6_rows[idx]
        pc = win.pos6_cols[idx]
        shifts = range(L) if span == SPAN_R1 else range(L - 1)
        # walk the cycle once symbolically: v_{e+1} = v_e + f(pos_2e) - f(pos_2e+1)
        deltas = []
        for e in range(3):
            r_a, c_a = int(pr[2 * e]), int(pc[2 * e])
            r_b, c_b = int(pr[2 * e + 1]), int(pc[2 * e + 1])
            deltas.append(powers[r_a % g][c_a % k] - powers[r_b % g][c_b % k])
        cols = [int(pc[0]), int(pc[1]), int(pc[3])]  # distinct column positions
        for r in shifts:
            groups = [r + c // k for c in cols]
            for s in range(p):
                # lift offsets of the three variable nodes along the walk
                v0 = s
                v1 = (s + deltas[0]) % p
                v2 = (v1 + deltas[1]) % p
                offs = [v0, v1, v2]
                vns = tuple(
                    sorted(
                        (groups[t] * k + cols[t] % k) * p + offs[t] for t in range(3)
                    )
                )
                out.add(vns)
    return sorted(out)


def _topology_from_rows(
    gamma: int, subset: frozenset, row_members: dict[int, list[int]]
) -> UgastTopology:
    """Topology of a column subset from its row hits (row -> member columns)."""
    vn_ids = tuple(sorted(subset))
    index = {c: i for i, c in enumerate(vn_ids)}
    shared = sorted((r, ms) for r, ms in row_members.items() if len(ms) >= 2)
    return UgastTopology(
        gamma=gamma,
        a=len(vn_ids),
        shared_cns=tuple(tuple(sorted(index[v] for v in ms)) for _, ms in shared),
        vn_ids=vn_ids,
        cn_ids=tuple(r for r, _ in shared),
    )


def _instance_from_topology(code: SCCode, top: UgastTopology) -> GastInstance:
    weights = {}
    for c, cn in enumerate(top.shared_cns):
        for v in cn:
            weights[(c, v)] = code.weight_of(top.cn_ids[c], top.vn_ids[v])
    return GastInstance(topology=top, weights=weights)


def gast_scan(
    code,
    field: Optional[FieldGF],
    targets: Sequence[tuple],
    a_max: int = 8,
) -> list[GastInstance]:
    """Find absorbing-set instances matching the target labels.

    ``code`` is an SCCode or a RawTanner; both are read through their edge
    array, taken once as Python lists.  Subsets grow outward from 6-cycle
    seeds by adding variable nodes that share a check with the current set,
    up to ``a_max`` nodes, an upper bound clamped to the largest target size
    (a larger subset can never match).  Growth is pruned once the per-node
    majority condition is unreachable within the remaining additions.  A
    node that would complete a subset of that size is added only if it
    shares at least floor(gamma/2)+1 checks with the subset: that set is
    never grown, so the node's shared degree is final, and a set failing it
    can never be an absorbing set.

    Each subset's label (a, d1, d2, d3), d2 > d3 and the majority condition
    are read off its row hits in one pass; the topology is built, and the
    oracle run, only when the label matches a target.  4-entry targets
    (a, d1, d2, d3) match topologies only; 5-entry targets (a, b, d1, d2, d3)
    additionally require an oracle witness with exactly b unsatisfied
    checks, which needs a labeled code and a field.
    """
    targets = [tuple(t) for t in targets]
    if not targets:
        return []
    if any(len(t) not in (4, 5) for t in targets):
        raise ValueError("targets must be 4-tuples (UGAST) or 5-tuples (GAST)")
    need_oracle = any(len(t) == 5 for t in targets)
    if need_oracle and field is None:
        raise ValueError("5-entry targets need a field for the oracle")
    # a subset larger than every target can never match
    a_max = min(a_max, max(t[0] for t in targets))
    need_majority = math.floor(code.gamma / 2) + 1

    if isinstance(code, SCCode):
        seeds = lifted_6cycle_vn_sets(code)
        convert_bound = 1 if girth_check(code) >= 6 else code.gamma
    else:
        rows = [set(cols) for cols in code.edges.row_lists if cols]
        seeds = sorted({tuple(sorted(cyc[3:])) for cyc in _six_cycles(rows)})
        convert_bound = 1 if next(_four_cycles(rows), None) is None else code.gamma

    results: list[GastInstance] = []
    visited: set[frozenset] = set()
    queue: list[frozenset] = []
    for s in seeds:
        fs = frozenset(s)
        if fs not in visited:
            visited.add(fs)
            queue.append(fs)

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
            label = (a, a * code.gamma - sum(deg_in.values()), d2, d3)
            inst = None
            for t in targets:
                if (t if len(t) == 4 else t[:1] + t[2:]) != label:
                    continue
                if inst is None:
                    top = _topology_from_rows(code.gamma, subset, row_members)
                    inst = _instance_from_topology(code, top)
                if len(t) == 4:
                    results.append(inst)
                    break
                vals, ok, b_tot = gast_witnesses(top, inst.weights, field)
                hits = np.flatnonzero(ok & (b_tot == t[1]))
                if hits.size:
                    w = tuple(int(x) for x in vals[hits[0]])
                    results.append(replace(inst, b=int(t[1]), witness=w))
                    break
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
        for c in sorted(c for c, n in shared_with.items() if n >= floor and c not in subset):
            nxt = subset | {c}
            if nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
    results.sort(key=lambda inst: inst.topology.vn_ids)
    return results
