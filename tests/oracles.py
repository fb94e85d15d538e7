"""Independent reference implementations used only to check the library.

Everything here is deliberately naive: DFS walks, exhaustive filters, dense
matrices, nested loops.  None of it shares code with the library paths under
test, with three exceptions.  The overlap-solver references score vectors one
at a time with the scalar ``cycle6_census``, whose formulas the DFS counts pin
on their own, so they check the solver's enumeration and selection;
``serial_solve_optimal_overlap`` scores the library's full enumeration with
its census terms, so it checks the solver's symmetry reduction.
``full_census_table`` tallies every cycle the library's enumerator lists
in full, one at a time, so it checks the census table's build on shift-orbit
representatives.  ``enumerate_cycles`` runs the set-based row-triple loops
kept here as the reference for that enumerator; the DFS counts pin them.
``EntryCycles`` is the optimizer's earlier per-circulant and per-pair cycle
index, built one cycle kind at a time with sorts of its own; it is the
reference for the index the optimizer builds over one cycle set, and
``compress_loads`` tallies the active 6-cycles' visits one by one, the
reference for the circulant loads it reads off its move table.
``python_best`` ranks a census table's masks by their lifted counts as
Python ints, the reference for the partition searches' ranking in numpy.

The section after the references holds helpers that only the tests use: a
cycle object with its window tag, the per-circulant census, the window
4-cycle test, the mask generator of one overlap vector, the row lists of an
edge array, the library oracle's full assignment scan, the instance-list
removal (``remove_gasts`` with its ``RemovalOutcome`` and ``with_weights``: a
test-only reference that runs the library's removal table on instance
objects, where the library removes on its scan's hit table) and its
one-instance forms, and the absorbing-set scan's 6-cycle seeds expanded
over their translates.  The window helpers
read :class:`ReferenceWindow`, not the optimizer's window.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from scldpc import cycles
from scldpc.baselines import _arrangements_from_counts, _mask_of, pattern_counts
from scldpc.cpo import PAIR_SAMPLES, TOP_B, CpoResult
from scldpc.cycles import CensusTable, _equal_pairs
from scldpc.gast import GastInstance, _6cycle_orbits, _shift
from scldpc.overlap import (
    OOSolution,
    OverlapVector,
    _census_terms,
    _check_exact_range,
    _complement,
    _overlap_slabs,
    cycle6_census,
)
from scldpc.qc import PartitionMask, _check_coupling_length


@dataclass(frozen=True)
class ProtoCycle:
    """A simple cycle given by its entry positions in visiting order.

    Entries alternate: consecutive positions share a row, then a column, and
    the last shares a column with the first.  ``span`` is 1 or 2 for cycles of
    a coupled protograph (replicas touched), None for generic matrices.
    ``case`` tags window cycles by check/variable placement (s0..s3, d0..d3).
    """

    entries: tuple[tuple[int, int], ...]
    span: Optional[int] = None
    case: Optional[str] = None

    @property
    def length(self) -> int:
        return len(self.entries)


def dfs_count_cycles(matrix, length: int) -> int:
    """Count simple cycles with `length` edges in a bipartite 0/1 matrix.

    Nodes are rows then columns; a DFS from each start node only visits
    larger-numbered nodes, and each cycle is found once per direction.
    """
    arr = np.asarray(matrix)
    m, n = arr.shape
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for r in range(m):
        for c in np.flatnonzero(arr[r]):
            adj[r].append(m + int(c))
            adj[m + int(c)].append(r)
    count = 0

    def walk(start: int, node: int, depth: int, visited: set) -> None:
        nonlocal count
        for nxt in adj[node]:
            if nxt == start and depth == length - 1:
                count += 1
            elif nxt > start and nxt not in visited and depth < length - 1:
                visited.add(nxt)
                walk(start, nxt, depth + 1, visited)
                visited.remove(nxt)

    for s in range(m + n):
        walk(s, s, 0, {s})
    assert count % 2 == 0
    return count // 2


def dfs_cycle_edge_sets(matrix, length: int) -> set[frozenset]:
    """Edge sets of all simple cycles (rows 0..m-1, cols offset by m).

    Distinct cycles can share all their nodes (a 3x3 biclique has six
    hexagons on one node set), so cycles are identified by their edges.
    """
    arr = np.asarray(matrix)
    m, n = arr.shape
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for r in range(m):
        for c in np.flatnonzero(arr[r]):
            adj[r].append(m + int(c))
            adj[m + int(c)].append(r)
    found: set[frozenset] = set()

    def walk(start: int, node: int, depth: int, visited: list) -> None:
        for nxt in adj[node]:
            if nxt == start and depth == length - 1:
                edges = {
                    frozenset((visited[i], visited[(i + 1) % len(visited)]))
                    for i in range(len(visited))
                }
                found.add(frozenset(edges))
            elif nxt > start and nxt not in visited and depth < length - 1:
                visited.append(nxt)
                walk(start, nxt, depth + 1, visited)
                visited.pop()

    for s in range(m + n):
        walk(s, s, 0, [s])
    return found


def row_triples(rows) -> Iterator[tuple]:
    """Row triples r1<r2<r3 whose pairwise column overlaps are all nonempty.

    Yields (r1, r2, r3, s12, s13, s23) with sij = rows[ri] & rows[rj].
    """
    for r1, r2, r3 in itertools.combinations(range(len(rows)), 3):
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


def six_cycles(rows) -> Iterator[tuple[int, ...]]:
    """Every 6-cycle of the row sets once, as (r1, r2, r3, a, b, c).

    The cycle visits (r1,a) (r1,b) (r3,b) (r3,c) (r2,c) (r2,a): a is shared
    by rows (r1,r2), b by (r1,r3), c by (r2,r3), all distinct.
    """
    for r1, r2, r3, s12, s13, s23 in row_triples(rows):
        for a in sorted(s12):
            for b in sorted(s13):
                if b == a:
                    continue
                for c in sorted(s23):
                    if c != a and c != b:
                        yield r1, r2, r3, a, b, c


def four_cycles(rows) -> Iterator[tuple[int, ...]]:
    """Every 4-cycle of the row sets once, as (r1, r2, a, b) with r1<r2 and a<b shared."""
    for r1, r2 in itertools.combinations(range(len(rows)), 2):
        for a, b in itertools.combinations(sorted(rows[r1] & rows[r2]), 2):
            yield r1, r2, a, b


def enumerate_cycles(matrix, length: int) -> list[ProtoCycle]:
    """Every simple cycle of the requested length (4 or 6), each once."""
    arr = np.asarray(matrix)
    rows = [set(np.flatnonzero(arr[r]).tolist()) for r in range(arr.shape[0])]
    if length == 4:
        return [
            ProtoCycle(entries=((r1, a), (r1, b), (r2, b), (r2, a)))
            for r1, r2, a, b in four_cycles(rows)
        ]
    if length == 6:
        return [
            ProtoCycle(entries=((r1, a), (r1, b), (r3, b), (r3, c), (r2, c), (r2, a)))
            for r1, r2, r3, a, b, c in six_cycles(rows)
        ]
    raise ValueError(f"unsupported cycle length {length}")


def lift_count(cycle: ProtoCycle, proto) -> tuple[bool, int]:
    """How the cycle lifts: (active, beta).

    The balance is the alternating sum of circulant powers along the cycle,
    mod p.  Active cycles (balance 0) lift to p cycles of the same length and
    beta is 1.  Otherwise the lifted walk closes only after beta >= 2
    traversals, giving p/beta cycles of beta times the length; beta divides p.
    """
    d = 0
    for idx, (r, c) in enumerate(cycle.entries):
        f = proto.powers[r % proto.gamma][c % proto.kappa]
        d += f if idx % 2 == 0 else -f
    d %= proto.p
    if d == 0:
        return True, 1
    return False, proto.p // math.gcd(proto.p, d)


def measure_overlaps(mask) -> OverlapVector:
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


def naive_overlap_filter(kappa: int) -> list[tuple[int, ...]]:
    """All 7-tuples passing the validity chains, by brute-force filtering."""
    out = []
    lo = (3 * kappa) // 2
    hi = -((-3 * kappa) // 2)
    rng = range(kappa + 1)
    for r0, r1, r2, o01, o02, o12, o012 in itertools.product(rng, repeat=7):
        if not o01 <= r0:
            continue
        if not (o01 <= r1 <= kappa - r0 + o01):
            continue
        if not o012 <= o01:
            continue
        if not (o012 <= o02 <= r0 - o01 + o012):
            continue
        if not (o012 <= o12 <= r1 - o01 + o012):
            continue
        if not (o02 + o12 - o012 <= r2 <= kappa - r0 - r1 + o01 + o02 + o12 - o012):
            continue
        if not (lo <= r0 + r1 + r2 <= hi):
            continue
        out.append((r0, r1, r2, o01, o02, o12, o012))
    return out


def loop_valid_overlaps(kappa: int):
    """Valid overlap 7-tuples from a nested loop, in the solver's vector order.

    Each loop bound prunes with the parameters already fixed; the balance
    constraint folds into the innermost range.
    """
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
                                yield (r0, r1, r2, o01, o02, o12, o012)


def scalar_optima(vectors, kappa: int, L: int) -> tuple[int, list[tuple[int, ...]]]:
    """Minimum census total over 7-tuples, one scalar census each, and its sorted minimizers."""
    totals = {tuple(v): cycle6_census(OverlapVector(*v), kappa, L).total for v in vectors}
    best = min(totals.values())
    return best, sorted(v for v, f in totals.items() if f == best)


def naive_solve_overlap(kappa: int, L: int) -> tuple[int, list[tuple[int, ...]]]:
    """Optimal-overlap minimum and optima over every vector of the brute-force filter."""
    return scalar_optima(naive_overlap_filter(kappa), kappa, L)


def serial_solve_optimal_overlap(kappa: int, L: int) -> OOSolution:
    """The optimal-overlap solve over every valid vector, one r0 slab per numpy pass.

    No symmetry is used: each slab's int64 columns and their complements go
    through the census terms, and every vector reaching the running minimum
    is kept.
    """
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    _check_coupling_length(L)
    best = None
    optima: list[list[int]] = []
    for slab in _overlap_slabs(kappa):
        single, cross = _census_terms(kappa, slab, _complement(kappa, *slab))
        fs, fd = sum(single), sum(cross)
        _check_exact_range(L, int((fs + fd).max()))
        f = L * fs + (L - 1) * fd
        low = int(f.min())
        if best is None or low < best:
            best, optima = low, []
        if low == best:
            optima.extend(slab[:, np.flatnonzero(f == low)].T.tolist())
    vectors = tuple(sorted(OverlapVector(*row) for row in optima))
    return OOSolution(f_star=best, optima=vectors, kappa=kappa, L=L)


def build_lifted_dense(gamma: int, kappa: int, p: int, powers, mask, L: int):
    """Dense lifted coupled matrix from first principles.

    Circulant sigma^f has its column-v one at row (v + f) mod p; replica r
    puts H0 at block-row r and H1 at block-row r+1.
    """
    H = np.zeros(((L + 1) * gamma * p, L * kappa * p), dtype=np.int8)
    for r in range(L):
        for i in range(gamma):
            for j in range(kappa):
                blk_row = (r + mask[i][j]) * gamma + i
                f = powers[i][j]
                for v in range(p):
                    H[blk_row * p + (v + f) % p, (r * kappa + j) * p + v] = 1
    return H


def gf_log_tables(lam: int, poly: int) -> tuple[list[int], list[int]]:
    """Exp/log tables built by repeated shift-and-reduce multiplication by x."""
    q = 1 << lam
    exp = [1] * (q - 1)
    for i in range(1, q - 1):
        e = exp[i - 1] << 1
        if e & q:
            e ^= poly
        exp[i] = e & (q - 1)
    log = [0] * q
    for i, e in enumerate(exp):
        log[e] = i
    return exp, log


def gf_mul_via_logs(a: int, b: int, exp: list[int], log: list[int], q: int) -> int:
    if a == 0 or b == 0:
        return 0
    return exp[(log[a] + log[b]) % (q - 1)]


def all_ugast_labels(gamma: int, a_max: int) -> list[tuple[int, int, int, int]]:
    """Every (a, d1, d2, d3) with d2 > d3 that a subset of 3..a_max can have."""
    out = []
    for a in range(3, a_max + 1):
        for d1 in range(a * gamma + 1):
            for d3 in range(a * gamma // 3 + 1):
                for d2 in range(d3 + 1, a * gamma // 2 + 1):
                    out.append((a, d1, d2, d3))
    return out


def naive_ugast_subsets(col_adj, gamma: int, labels, a_max: int) -> set[tuple[int, ...]]:
    """Every column subset an absorbing-set scan should report, by brute force.

    A subset of 3..a_max columns qualifies when it is connected through
    shared checks, contains the three columns of some 6-cycle, has more
    degree-2 than degree->2 shared checks, gives every column more than
    gamma/2 shared checks, and has its (a, d1, d2, d3) in ``labels``.
    """
    rows = [set(r) for r in col_adj]
    wanted = {tuple(t) for t in labels}

    def connected(cols) -> bool:
        seen, todo = {cols[0]}, [cols[0]]
        while todo:
            u = todo.pop()
            for v in cols:
                if v not in seen and rows[u] & rows[v]:
                    seen.add(v)
                    todo.append(v)
        return len(seen) == len(cols)

    def has_hexagon(cols) -> bool:
        for x, y, z in itertools.combinations(cols, 3):
            for r1 in rows[x] & rows[y]:
                for r2 in rows[y] & rows[z]:
                    for r3 in rows[x] & rows[z]:
                        if len({r1, r2, r3}) == 3:
                            return True
        return False

    out = set()
    for a in range(3, a_max + 1):
        for cols in itertools.combinations(range(len(rows)), a):
            hits: dict[int, int] = {}
            for c in cols:
                for r in rows[c]:
                    hits[r] = hits.get(r, 0) + 1
            shared = [n for n in hits.values() if n >= 2]
            d2 = shared.count(2)
            d3 = len(shared) - d2
            degs = [sum(1 for r in rows[c] if hits[r] >= 2) for c in cols]
            d1 = sum(gamma - d for d in degs)
            if not d2 > d3 or any(2 * d <= gamma for d in degs):
                continue
            if (a, d1, d2, d3) not in wanted:
                continue
            if connected(cols) and has_hexagon(cols):
                out.add(cols)
    return out


def naive_column_rows(code, c: int) -> list[int]:
    """Lifted rows of column c by the coupling formula, one circulant at a time.

    Column (r*kappa + j)*p + v meets, for each row group i, the row
    ((r + mask[i][j])*gamma + i)*p + (v + f[i][j]) mod p.
    """
    g, k, p = code.gamma, code.kappa, code.p
    r, rem = divmod(c, k * p)
    j, v = divmod(rem, p)
    rows = []
    for i in range(g):
        blk = (r + code.mask.assign[i][j]) * g + i
        rows.append(blk * p + (v + code.proto.powers[i][j]) % p)
    return sorted(rows)


def serial_label_edges(code, field, seed: int):
    """One ``randrange(1, q)`` per lifted entry, in column-major order."""
    if field.q < 4:
        raise ValueError("edge labeling requires q >= 4")
    rng = random.Random(seed)
    labels = bytes(rng.randrange(1, field.q) for _ in range(code.n_cols * code.gamma))
    return replace(code, labels=labels, field_lam=field.lam, label_seed=seed)


def serial_code_to_json(code) -> str:
    """``code_to_json`` by one ``json.dumps`` of a lexsorted label table."""
    labels = None
    if code.labels is not None:
        rows = code.edges.rows.ravel()
        cols = np.arange(rows.size) // code.gamma
        weights = np.frombuffer(code.labels, dtype=np.uint8)
        labels = np.stack((rows, cols, weights), axis=1)[np.lexsort((cols, rows))].tolist()
    payload = {
        "gamma": code.gamma,
        "kappa": code.kappa,
        "p": code.p,
        "L": code.L,
        "m": 1,
        "powers": [list(r) for r in code.proto.powers],
        "mask": [list(r) for r in code.mask.assign],
        "field_lam": code.field_lam,
        "label_seed": code.label_seed,
        "labels": labels,
    }
    return json.dumps(payload, sort_keys=True)


def serial_export_code_alist(code, out) -> None:
    """``export_code_alist`` one line at a time, rows gathered by a column loop."""
    columns = code.edges.rows.tolist()
    row_lists: list[list[int]] = [[] for _ in range(code.n_rows)]
    for c, rows in enumerate(columns):
        for r in rows:
            row_lists[r].append(c)
    row_degs = [len(cols) for cols in row_lists]
    out.write(f"{code.n_cols} {code.n_rows}\n")
    out.write(f"{code.gamma} {max(row_degs, default=0)}\n")
    out.write(" ".join([str(code.gamma)] * code.n_cols) + "\n")
    out.write(" ".join(map(str, row_degs)) + "\n")
    for rows in columns:
        out.write(" ".join(str(r + 1) for r in rows) + "\n")
    for cols in row_lists:
        out.write(" ".join(str(c + 1) for c in cols) + "\n")


def loop_census_active_counts(proto, mask) -> tuple[int, int]:
    """(per-replica, two-replica) active window 6-cycles, one cycle at a time.

    The window's rows are 3 blocks of gamma; row (b, i) holds replica t's
    column t*kappa + j when circulant (i, j) sits in H_{b-t}.  Every row
    triple and every distinct column triple shared pairwise along it is one
    6-cycle; it is active when its alternating power sum vanishes mod p, and
    single-replica cycles, which come in R1/R2 mirror pairs, are halved.
    """
    g, k, p = proto.gamma, proto.kappa, proto.p
    f = proto.powers
    rows = [
        {t * k + j for t in (0, 1) for j in range(k) if b - t == mask.assign[i][j]}
        for b in range(3)
        for i in range(g)
    ]
    singles = duals = 0
    for r1, r2, r3 in itertools.combinations(range(3 * g), 3):
        for a in rows[r1] & rows[r2]:
            for b in rows[r1] & rows[r3]:
                for c in rows[r2] & rows[r3]:
                    if len({a, b, c}) < 3:
                        continue
                    bal = (
                        f[r1 % g][a % k] - f[r1 % g][b % k] + f[r3 % g][b % k]
                        - f[r3 % g][c % k] + f[r2 % g][c % k] - f[r2 % g][a % k]
                    )
                    if bal % p == 0:
                        if max(a, b, c) < k or min(a, b, c) >= k:
                            singles += 1
                        else:
                            duals += 1
    assert singles % 2 == 0
    return singles // 2, duals


def lifted_counts(table: CensusTable, assign, L: int) -> list[int]:
    """p times the table's active counts weighted (L, L-1), one Python int
    per mask: the reference for the searches' ranking in numpy."""
    return [(L * s + (L - 1) * d) * table.p for s, d in table.active_counts(assign).tolist()]


def python_best(table: CensusTable, assign, L: int) -> tuple[int, int]:
    """(index, count) of the first mask of least :func:`lifted_counts`."""
    counts = lifted_counts(table, assign, L)
    i = min(range(len(counts)), key=counts.__getitem__)
    return i, counts[i]


def union_active_4cycles(proto) -> int:
    """Active 4-cycles of the union window that some mask realizes, one at a time.

    Union window row (b, i) holds every column of the replicas t = b - 1 and
    t = b that exist.  An entry in row block b and replica t needs its
    circulant in H_{b-t}, so a cycle whose entries need one circulant on both
    sides is realized by no mask.
    """
    g, k, p = proto.gamma, proto.kappa, proto.p
    f = proto.powers
    rows = [
        {t * k + j for t in (b - 1, b) if t in (0, 1) for j in range(k)}
        for b in range(3)
        for _ in range(g)
    ]
    count = 0
    for r1, r2, a, b in four_cycles(rows):
        entries = ((r1, a), (r1, b), (r2, b), (r2, a))
        bal = sum((-1) ** n * f[r % g][c % k] for n, (r, c) in enumerate(entries))
        sides: dict = {}
        realized = all(sides.setdefault((r % g, c % k), r // g - c // k) == r // g - c // k
                       for r, c in entries)
        count += realized and bal % p == 0
    return count



def full_census_table(proto, inc) -> CensusTable:
    """The census table of window incidence ``inc`` from every active 6-cycle.

    Each active cycle of the library enumerator, listed in full (no shift
    orbits), is kept when its least column lies in replica 1 and some mask
    realizes it; its six (circulant, side) needs, sorted, give its group and
    pattern, and the counts are tallied in a dict, one cycle at a time.
    """
    g, k = proto.gamma, proto.kappa
    tally: dict = {}
    for six in cycles._six_cycle_chunks(inc, cycles._window_powers(proto)):
        kept, dual = cycles._replica1(six, k)
        needs, exists = cycles._conditions(six, cycles.SIX_ROWS, cycles.SIX_COLS, g, k)
        rows = np.stack(needs, axis=1)[exists & kept].tolist()
        for row, two in zip(rows, dual[exists & kept].tolist()):
            pattern = sum((v & 1) << i for i, v in enumerate(row))
            cell = tally.setdefault(tuple(v >> 1 for v in row), [0] * 64)
            cell[pattern] += 1 << 32 if two else 1
    groups = sorted(tally)
    support = np.array(groups, dtype=np.int64).reshape(-1, 6)
    counts = np.array([c for grp in groups for c in tally[grp]], dtype=np.int64)
    return CensusTable(g, k, proto.p, support, counts)


SPAN_R1, SPAN_R2, SPAN_DUAL = 0, 1, 2


class ReferenceWindow:
    """Every cycle of the two-replica window, mirrors included, as dense tables.

    Row (b, i) of the 3*gamma window rows holds replica t's column
    t*kappa + j when circulant (i, j) sits in H_{b-t}; the cycles come from
    the set-based ``six_cycles`` and ``four_cycles`` over those rows.  Per
    cycle, in enumeration order:

      pos6_rows, pos6_cols: (n, 6) window positions in walk order
      ids6, ids4:           circulant ids (r mod gamma) * kappa + c mod kappa
                            of those positions, in walk order
      span6, span4:         SPAN_R1 / SPAN_R2 / SPAN_DUAL
      coef6, coef4:         (n, gamma*kappa) alternating-sum coefficients
      inc6:                 (n, gamma*kappa) visits per circulant
    """

    def __init__(self, proto, mask):
        g, k = proto.gamma, proto.kappa
        self.gamma, self.kappa, self.p, self.n_entries = g, k, proto.p, g * k
        rows = [
            {t * k + j for t in (0, 1) for j in range(k) if b - t == mask.assign[i][j]}
            for b in range(3)
            for i in range(g)
        ]
        six = np.array(list(six_cycles(rows)), dtype=np.int64).reshape(-1, 6)
        four = np.array(list(four_cycles(rows)), dtype=np.int64).reshape(-1, 4)
        self.pos6_rows, self.pos6_cols = six[:, [0, 0, 2, 2, 1, 1]], six[:, [3, 4, 4, 5, 5, 3]]
        pos4_rows, pos4_cols = four[:, [0, 0, 1, 1]], four[:, [2, 3, 3, 2]]
        self.ids6 = self.pos6_rows % g * k + self.pos6_cols % k
        self.ids4 = pos4_rows % g * k + pos4_cols % k
        self.span6, self.span4 = self._spans(self.pos6_cols), self._spans(pos4_cols)
        self.coef6, self.coef4 = self._coefs(self.ids6), self._coefs(self.ids4)
        self.inc6 = np.zeros_like(self.coef6)
        for n, row in enumerate(self.ids6.tolist()):
            for e in row:
                self.inc6[n, e] += 1

    def _coefs(self, ids: np.ndarray) -> np.ndarray:
        """Per cycle and circulant, the coefficient of the alternating sum."""
        coef = np.zeros((len(ids), self.n_entries), dtype=np.int64)
        for n, row in enumerate(ids.tolist()):
            for i, e in enumerate(row):
                coef[n, e] += (-1) ** i
        return coef

    def _spans(self, cols: np.ndarray) -> np.ndarray:
        span = np.full(len(cols), SPAN_DUAL)
        span[(cols < self.kappa).all(axis=1)] = SPAN_R1
        span[(cols >= self.kappa).all(axis=1)] = SPAN_R2
        return span

    def balances6(self, flat) -> np.ndarray:
        return self.coef6 @ np.ravel(flat) % self.p

    def balances4(self, flat) -> np.ndarray:
        return self.coef4 @ np.ravel(flat) % self.p


def serial_cpo_optimize(proto, mask, L: int, budget: int, seed: int, target: int = 0) -> CpoResult:
    """The circulant power optimizer scoring one candidate at a time.

    Every candidate move recomputes all balances of the reference window,
    mirrors included, from dense per-circulant coefficient rows, and the
    load ranking recounts every active cycle; the moves, their order, the
    rng draws, the evaluation count and the (f, sorted (row, col, power))
    tie-break define what the library's batched optimizer must reproduce.
    """
    g, k, p = proto.gamma, proto.kappa, proto.p
    window = ReferenceWindow(proto, mask)
    col4, col6 = window.coef4.T, window.coef6.T
    dual = window.span6 == SPAN_DUAL
    n_entries = g * k
    flat = np.asarray(proto.powers, dtype=np.int64).reshape(-1)
    b4, b6 = window.coef4 @ flat % p, window.coef6 @ flat % p
    if not b4.all():
        raise ValueError("initial powers activate a 4-cycle; cannot start")

    def score(b6) -> int:
        act = b6 == 0
        singles, duals = int(np.count_nonzero(act & ~dual)), int(np.count_nonzero(act & dual))
        return (L * (singles // 2) + (L - 1) * duals) * p

    def moved(b, cols, changes):
        for e, v in changes:
            b = (b + cols[e] * (v - int(flat[e]))) % p
        return b

    rng = random.Random(seed)
    f_sc = score(b6)
    best_flat, best_f, f_initial = flat.copy(), f_sc, f_sc
    trace = []
    evals = restarts = 0

    def best_of(moves):
        nonlocal evals
        best = None
        for changes in moves:
            if evals >= budget:
                break
            evals += 1
            if not moved(b4, col4, changes).all():
                continue
            f = score(moved(b6, col6, changes))
            if f < f_sc:
                key = tuple(sorted((e // k, e % k, v) for e, v in changes))
                if best is None or (f, key) < best[:2]:
                    best = (f, key, changes)
        return best

    def random_pairs(pool):
        for _ in range(PAIR_SAMPLES):
            e1, e2 = rng.sample(pool, 2)
            yield [(e1, rng.randrange(p)), (e2, rng.randrange(p))]

    def apply(changes):
        nonlocal b4, b6, f_sc
        b4, b6 = moved(b4, col4, changes), moved(b6, col6, changes)
        for e, v in changes:
            flat[e] = v
        f_sc = score(b6)

    while evals < budget and best_f > target:
        act = b6 == 0
        counts = (np.where(dual, 2, 1) * act) @ window.inc6
        order = sorted(range(n_entries), key=lambda e: (-counts[e], e))
        width = TOP_B
        accepted = False
        while width <= n_entries and not accepted and evals < budget:
            pool = order[:width]
            best_move = best_of([(e, v)] for e in pool for v in range(p) if v != flat[e])
            if best_move is None and len(pool) >= 2:
                best_move = best_of(random_pairs(pool))
            if best_move is not None:
                apply(best_move[2])
                if f_sc < best_f:
                    diff = tuple(
                        (e // k, e % k, int(flat[e]))
                        for e in range(n_entries)
                        if flat[e] != best_flat[e]
                    )
                    best_f, best_flat = f_sc, flat.copy()
                    trace.append((evals, diff, f_sc))
                accepted = True
            else:
                width += TOP_B
        if not accepted and evals < budget and best_f > target:
            restarts += 1
            for _ in range(1 + rng.randrange(2 * g)):
                e = rng.randrange(n_entries)
                values = [v for v in range(p) if v != flat[e]]
                rng.shuffle(values)
                for v in values:
                    evals += 1
                    if moved(b4, col4, [(e, v)]).all():
                        apply([(e, v)])
                        break

    powers = tuple(tuple(int(x) for x in best_flat[i * k : (i + 1) * k]) for i in range(g))
    return CpoResult(powers, best_f, f_initial, tuple(trace), evals, restarts)


def _csr(keys: np.ndarray, n_keys: int, cycles: np.ndarray, coefs: np.ndarray):
    """(ptr, cycles, coefs) grouped by key, each key's cycle ids ascending.

    Every (key, cycle) pair is listed once, so one sort of the packed key
    ``key * n_cycles + cycle`` gives the (key, cycle) order.
    """
    n_cycles = int(cycles.max(initial=-1)) + 1
    order = np.argsort(keys * n_cycles + cycles)
    ptr = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n_keys))))
    return ptr, cycles[order], coefs[order]


@dataclass(frozen=True)
class EntryCycles:
    """The window cycles whose balance a circulant's power moves (CSR), one
    cycle kind at a time: the reference for the optimizer's cycle indexes.

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
    def of(cls, ids: np.ndarray, n: int) -> "EntryCycles":
        """Per-circulant index of cycles given as the circulant ids (below
        ``n``) they visit in walk order, with signs +1, -1, ... along it."""
        m, width = ids.shape
        # by cycle, then circulant: a circulant met twice sums its signs
        cells = (np.arange(m)[:, None] * n + ids).ravel()
        order = np.argsort(cells, kind="stable")
        cells = cells[order]
        new = np.diff(cells, prepend=-1) != 0
        signs = np.tile([1, -1], m * width // 2)[order]
        coefs = np.bincount(np.cumsum(new) - 1, signs).astype(np.int16)
        kept = coefs != 0
        cycles, ents = np.divmod(cells[new][kept], n)
        return cls(*_csr(ents, n, cycles, coefs[kept]))

    def keys(self) -> np.ndarray:
        """The key of every listed cycle, in listing order."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr))

    def pairs(self) -> "EntryCycles":
        """Per-circulant-pair index of a per-circulant one."""
        n = len(self.ptr) - 1
        ents, cycles, coefs = self.keys(), self.cycles, self.coefs
        # by cycle, then circulant: a cycle's circulants sit next to each
        # other, ascending, at most six of them
        order = np.lexsort((ents, cycles))
        ents, cycles, coefs = ents[order], cycles[order], coefs[order]
        lo, hi = _equal_pairs(cycles)
        pair_coefs = np.stack([coefs[lo], coefs[hi]], axis=1)
        return EntryCycles(*_csr(ents[lo] * n + ents[hi], n * n, cycles[lo], pair_coefs))


def compress_loads(window, b6: np.ndarray) -> np.ndarray:
    """Each circulant's visits from the window's active 6-cycles, those of
    balance 0 in ``b6``, tallied visit by visit."""
    active = np.compress(b6 == 0, window.ids6, axis=0)
    return np.bincount(active.ravel(), minlength=window.n_entries)


def exhaustive_witnesses(topology, weights: dict, field):
    """(assignment matrix, valid mask, unsatisfied totals) of one topology.

    Every check sum over all (q-1)^a lexicographic assignments is built as
    an (N, checks) table, and the per-node satisfied and unsatisfied counts
    come from a matrix product with the check incidence.
    """
    q, a = field.q, topology.a
    mul = np.asarray(field.mul_table_rows(), dtype=np.uint8)
    vals = np.array(list(itertools.product(range(1, q), repeat=a)), dtype=np.uint8)
    cns = topology.shared_cns
    syn = np.zeros((vals.shape[0], len(cns)), dtype=np.uint8)
    inc = np.zeros((len(cns), a), dtype=np.int64)
    for c, cn in enumerate(cns):
        for v in cn:
            syn[:, c] ^= mul[weights[(c, v)]][vals[:, v]]
            inc[c, v] = 1
    unsat = syn != 0
    ok = ~unsat[:, [c for c, cn in enumerate(cns) if len(cn) > 2]].any(axis=1)
    d1 = np.array(topology.deg1_per_vn, dtype=np.int64)
    ok &= ((~unsat).astype(np.int64) @ inc > unsat.astype(np.int64) @ inc + d1).all(axis=1)
    return vals, ok, unsat.sum(axis=1) + int(d1.sum())


def serial_generic_candidates(instance, field):
    """Every change set of up to ``scldpc.gast.MAX_CHANGES`` changes on
    edges of distinct degree-2 checks, new weights in ascending order per
    edge, each set sorted: the library's generic stream, built from the
    weights themselves rather than from ranks."""
    from scldpc import gast

    top = instance.topology
    edges = [(c, v) for c, cn in enumerate(top.shared_cns) if len(cn) == 2 for v in sorted(cn)]
    for size in range(1, gast.MAX_CHANGES + 1):
        for edge_set in itertools.combinations(edges, size):
            if len({c for c, _ in edge_set}) != size:
                continue
            pools = []
            for c, v in edge_set:
                cur = instance.weights[(c, v)]
                pools.append([(c, v, w) for w in field.nonzero_elements() if w != cur])
            for combo in itertools.product(*pools):
                yield tuple(sorted(combo))


def _absorbing(instance, field) -> bool:
    """Whether the instance's weights hold a witness of some b, by the
    exhaustive scan; a topology that is no UGAST holds none."""
    top = instance.topology
    return top.is_ugast() and bool(exhaustive_witnesses(top, instance.weights, field)[1].any())


def serial_remove_gast_weights(instance, field):
    """Removal trying one candidate at a time: the reference for the
    library's batched removal (through ``remove_gasts``).

    An instance without a witness is first checked, and one that is no
    absorbing set succeeds with no changes.  Then every candidate of the
    closed-form stream (b = d1 and the budget assumptions hold) or of the
    generic one is checked on its own with ``exhaustive_witnesses``, and the
    first under which the topology has no witness wins.
    """
    from scldpc.gast import enumerate_candidate_sets

    if instance.witness is None and not _absorbing(instance, field):
        return RemovalOutcome(success=True, changes=(), instance=instance)
    try:
        stream = enumerate_candidate_sets(instance, field)
    except ValueError:
        stream = serial_generic_candidates(instance, field)
    tried = 0
    for changes in stream:
        tried += 1
        candidate = with_weights(instance, {(c, v): w for c, v, w in changes})
        if not _absorbing(candidate, field):
            return RemovalOutcome(success=True, changes=changes, instance=candidate, tried=tried)
    return RemovalOutcome(success=False, changes=None, instance=instance, tried=tried)


def serial_gast_scan(code, field, targets, a_max: int = 8) -> list:
    """The absorbing-set scan growing and matching every subset on its own.

    Seeds are the column triples of every 6-cycle, walked on the lifted
    graph's own adjacency; each subset reached is grown, labelled and, on a
    label match, tested target by target (in list order) with the
    per-topology oracle ``exhaustive_witnesses``, the first target that
    holds winning.  No lift symmetry is used.  The library's orbit scan must
    return exactly this list: subsets, checks, weights, b and witnesses.
    """
    from collections import Counter
    from dataclasses import replace

    from scldpc.gast import UgastTopology

    targets = [tuple(t) for t in targets]
    if not targets:
        return []
    a_max = min(a_max, max(t[0] for t in targets))
    gamma = code.gamma
    need_majority = gamma // 2 + 1
    rows_of = [[int(r) for r in rows] for rows in code.edges.rows]
    cols_of: list[list[int]] = [[] for _ in range(code.edges.n_rows)]
    for c, rows in enumerate(rows_of):
        for r in rows:
            cols_of[r].append(c)
    row_sets = [set(rows) for rows in rows_of]

    # a 4-cycle: two columns sharing two rows
    has4 = any(
        len(set(cols_of[r1]) & set(cols_of[r2])) >= 2
        for rows in rows_of
        for r1, r2 in itertools.combinations(rows, 2)
    )
    convert_bound = gamma if has4 else 1
    # a 6-cycle: columns x, y, z with x, y on r1, x, z on r2, and y, z on a third row
    seeds = set()
    for x, rows in enumerate(rows_of):
        for r1, r2 in itertools.permutations(rows, 2):
            for y in cols_of[r1]:
                for z in cols_of[r2]:
                    if len({x, y, z}) == 3 and (row_sets[y] & row_sets[z]) - {r1, r2}:
                        seeds.add(frozenset((x, y, z)))

    def weight(r: int, c: int) -> int:
        return code.labels[c * gamma + rows_of[c].index(r)]

    results = []
    visited = set(seeds)
    queue = sorted(seeds, key=sorted)
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
                d2 += len(members) == 2
                d3 += len(members) > 2
                for v in members:
                    deg_in[v] += 1
        least = min(deg_in.values())
        if d2 > d3 and least >= need_majority:
            label = (a, a * gamma - sum(deg_in.values()), d2, d3)
            inst = None
            for t in targets:
                if t[:1] + t[2:] != label:
                    continue
                if inst is None:
                    vn_ids = tuple(sorted(subset))
                    index = {c: i for i, c in enumerate(vn_ids)}
                    shared = sorted((r, ms) for r, ms in row_members.items() if len(ms) >= 2)
                    top = UgastTopology(
                        gamma=gamma,
                        a=a,
                        shared_cns=tuple(tuple(sorted(index[v] for v in ms)) for _, ms in shared),
                        vn_ids=vn_ids,
                        cn_ids=tuple(r for r, _ in shared),
                    )
                    weights = {
                        (c, v): weight(top.cn_ids[c], vn_ids[v])
                        for c, cn in enumerate(top.shared_cns)
                        for v in cn
                    }
                    inst = GastInstance(topology=top, weights=weights)
                vals, ok, b_tot = exhaustive_witnesses(top, weights, field)
                hits = np.flatnonzero(ok & (b_tot == t[1]))
                if hits.size:
                    witness = tuple(int(x) for x in vals[hits[0]])
                    results.append(replace(inst, b=int(t[1]), witness=witness))
                    break
        if a >= a_max:
            continue
        remaining = a_max - a
        if need_majority - least > remaining * convert_bound:
            continue
        shared_with = Counter(c for r in row_members for c in cols_of[r])
        floor = need_majority if remaining == 1 else 1
        for c in sorted(c for c, n in shared_with.items() if n >= floor and c not in subset):
            nxt = subset | {c}
            if nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
    results.sort(key=lambda inst: inst.topology.vn_ids)
    return results


# -- helpers only the tests use -----------------------------------------------


def row_lists(edges) -> list[list[int]]:
    """Columns of every row of a Tanner edge array, ascending, read off its
    row-major edge order."""
    order, ptr = edges.row_order
    cols = (order // edges.gamma).tolist()
    return [cols[a:b] for a, b in zip(ptr[:-1].tolist(), ptr[1:].tolist())]


def gast_witnesses(topology, weights: dict, field):
    """(assignment matrix, valid mask, unsatisfied totals) of the library
    oracle's full scan of one topology, every (q-1)^a assignment."""
    from scldpc.gast import _assignment_count, _assignments, _edge_weights, _oracle_pass

    n = _assignment_count(topology.a, field.q)
    ok, b = _oracle_pass(
        topology.gamma,
        topology.shared_cns,
        _edge_weights(topology, weights, field),
        np.arange(topology.a)[None],
        field,
        n,
    )
    return _assignments(topology.a, field.q), ok[0], b[0]


def with_weights(instance, overrides: dict):
    """``instance`` with the weights ``overrides`` sets; its b and witness
    are cleared, so a witness always belongs to an instance's weights."""
    return replace(instance, weights={**instance.weights, **overrides}, b=None, witness=None)


@dataclass(frozen=True)
class RemovalOutcome:
    success: bool
    changes: Optional[tuple[tuple[int, int, int], ...]]
    instance: GastInstance
    tried: int = 0

    def lifted_changes(self) -> list[tuple[int, int, int]]:
        """The changes as lifted (row, col, weight) triples, empty when nothing
        changes; :func:`scldpc.qc.apply_edge_changes` writes them into a code."""
        top = self.instance.topology
        if top.vn_ids is None or top.cn_ids is None:
            raise ValueError("instance is not tied to lifted code coordinates")
        return [(top.cn_ids[c], top.vn_ids[v], w) for c, v, w in self.changes or ()]


def remove_gasts(instances, field) -> list[RemovalOutcome]:
    """Remove each absorbing set by reweighting edges of its instance alone,
    on the library's removal table built from instance objects.

    An instance without a witness is first checked with
    ``exhaustive_witnesses``, and one that is no absorbing set succeeds
    with no changes and is not handed to the table.  An instance that
    carries a witness, as every instance from ``gast_scan`` does, is taken
    as proven.  Each instance tries candidates in stream order and succeeds
    with the first set under which the oracle finds no witness on the same
    topology; it fails once its stream is used up.  The instances become one
    hit table, a group per check-structure shape whose ``matching`` lists
    its instances' own labels (b falls back to d1), so each hit takes the
    stream of its label's b and the outcomes, ``tried`` included, are those
    of ``serial_remove_gast_weights``.
    """
    from scldpc.gast import _Group, _Hits, _canonical, _edge_weights, _remove_table

    # one buffer of every instance's weights, each instance's edges in its
    # own order; an instance is a translate of its shape's group, whose
    # perm and cn give each canonical node and check its own index, and
    # removal reads no vn
    edges = [[(c, v) for c, cn in enumerate(inst.topology.shared_cns) for v in cn] for inst in instances]
    buf = [w for inst in instances for w in _edge_weights(inst.topology, inst.weights, field)[0].tolist()]
    start = np.cumsum([0] + [len(own) for own in edges])
    gast = [inst.witness is not None or _absorbing(inst, field) for inst in instances]
    shapes: dict[tuple, list] = {}
    for h, inst in enumerate(instances):
        if not gast[h]:
            continue
        top = inst.topology
        checks, node, check, edge = _canonical(top.a, top.shared_cns)
        shapes.setdefault((top.gamma, top.a, checks), []).append((h, node, check, edge + start[h]))
    # a non-absorbing instance is in no group, so the table leaves it alone;
    # translate i of a group matched entry i of its matching
    family, group, translate = [], np.full(len(instances), -1), np.zeros(len(instances), np.int64)
    for i, ((gamma, _, checks), rows) in enumerate(shapes.items()):
        h, node, check, edge = map(np.array, zip(*rows))
        labels = [instances[x].label for x in h.tolist()]
        family.append(_Group(gamma, checks, labels, None, node, check, edge))
        group[h], translate[h] = i, np.arange(len(h))
    hits = _Hits(group, translate, translate, np.zeros(len(instances), np.int64))
    pick, tried, changes = _remove_table(family, hits, np.array(buf, dtype=np.uint8), field)
    flat, rows = [e for own in edges for e in own], changes.tolist()
    bounds = np.searchsorted(changes[:, 0], np.arange(len(instances) + 1)).tolist()
    outcomes = []
    for h, inst in enumerate(instances):
        mine = tuple((*flat[x], w) for _, x, w in rows[bounds[h] : bounds[h + 1]])
        new = with_weights(inst, {(c, v): w for c, v, w in mine}) if mine else inst
        ok = bool(pick[h] >= 0 or not gast[h])
        outcomes.append(RemovalOutcome(ok, mine if ok else None, new, int(tried[h])))
    return outcomes


def remove_gast_weights(instance, field):
    """The outcome of ``remove_gasts`` for one instance."""
    return remove_gasts([instance], field)[0]


def remove_gast(instance, field):
    """``remove_gast_weights`` and the outcome's lifted changes; the
    instance must carry lifted row and column ids."""
    top = instance.topology
    if top.vn_ids is None or top.cn_ids is None:
        raise ValueError("instance is not tied to lifted code coordinates")
    outcome = remove_gast_weights(instance, field)
    return outcome, outcome.lifted_changes()


def lifted_6cycle_vn_sets(code) -> list[tuple[int, ...]]:
    """Variable-node triples of every lifted 6-cycle: the scan's seed orbits,
    each expanded over the p lift offsets."""
    p = code.p
    return sorted(
        {
            tuple(sorted(_shift(c, s, p) for c in rep))
            for rep in _6cycle_orbits(code)[0].tolist()
            for s in range(p)
        }
    )


def proto_cycles6(window: ReferenceWindow) -> list[ProtoCycle]:
    """The window's 6-cycles as tagged objects, in window order."""
    out = []
    g = window.gamma
    k = window.kappa
    for idx in range(window.pos6_rows.shape[0]):
        pr = window.pos6_rows[idx]
        pc = window.pos6_cols[idx]
        span = int(window.span6[idx])
        blocks = [int(r) // g for r in set(pr.tolist())]
        if span != SPAN_DUAL:
            # the replica's H0 rows are block 0 (R1) or block 1 (R2)
            h0_block = 0 if span == SPAN_R1 else 1
            n_h0 = sum(1 for b in blocks if b == h0_block)
            case = {3: "s0", 2: "s2", 1: "s3", 0: "s1"}[n_h0]
        else:
            n_top = sum(1 for b in blocks if b == 0)
            n_bot = sum(1 for b in blocks if b == 2)
            if n_top == 1:
                case = "d_top"
            elif n_bot == 1:
                case = "d_bot"
            else:
                vns_r1 = len({c for c in pc.tolist() if c < k})
                case = "d_mid21" if vns_r1 == 2 else "d_mid12"
        out.append(
            ProtoCycle(
                entries=tuple((int(r), int(c)) for r, c in zip(pr, pc)),
                span=1 if span != SPAN_DUAL else 2,
                case=case,
            )
        )
    return out


def has_active_4cycle(window: ReferenceWindow, powers) -> bool:
    """Whether some window 4-cycle balances to 0 mod p under the powers."""
    return bool((window.balances4(powers) == 0).any())


def active_census(window: ReferenceWindow, powers) -> tuple[np.ndarray, int, int]:
    """Weighted active-cycle count per circulant, plus (Fa_s, Fa_d).

    Each active one-replica cycle adds 1 at every window position it visits,
    each active two-replica cycle adds 2; positions are folded onto their
    gamma x kappa circulants.
    """
    act = window.balances6(powers) == 0
    dual = window.span6 == SPAN_DUAL
    duals = int(np.count_nonzero(act & dual))
    singles = int(np.count_nonzero(act)) - duals
    counts = (np.where(dual, 2, 1) * act) @ window.inc6
    return counts.reshape(window.gamma, window.kappa), singles // 2, duals


def masks_for_vector(vector: OverlapVector, kappa: int) -> Iterator[PartitionMask]:
    """Every mask realizing the overlap vector, in deterministic order."""
    for arrangement in _arrangements_from_counts(pattern_counts(vector, kappa), kappa, {}):
        yield _mask_of(arrangement)
