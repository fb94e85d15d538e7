"""Circulant-based block codes, partitioning, and spatial coupling.

A block code is described by a gamma x kappa grid of p x p circulant
permutation matrices sigma^f, where sigma is the identity cyclically shifted
one unit to the left.  Partitioning splits the grid into two disjoint halves
H0/H1 (memory 1); coupling repeats [H0; H1] L times along a diagonal band,
giving a lifted binary matrix of size (L+1)*gamma*p x L*kappa*p.

Codes are immutable values.  The lifted matrix is stored as one edge array,
:class:`TannerEdges`: an (n_cols, gamma) array of check rows, ascending in
each column, built once in numpy from (powers, mask, L) and shared by every
labelled copy of the code.  Edge labels are bytes in the same column-major
order, and every reader (column and row adjacency, weights, JSON, alist)
goes through that array.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .gf import FieldGF, _check_field_degree
from .words import read_words

__all__ = [
    "ProtoMatrix",
    "PartitionMask",
    "SCCode",
    "TannerEdges",
    "build_ab_powers",
    "couple",
    "protograph_of",
    "label_edges",
    "apply_edge_changes",
    "code_to_json",
    "code_from_json",
]

# Guard against accidental huge constructions (number of lifted columns).
MAX_LIFTED_COLS = 2_000_000

# Mersenne Twister words drawn per chunk by label_edges (4 bytes each).
LABEL_WORDS = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_coupling_length(L: int) -> None:
    if L < 2:
        raise ValueError("coupling length L must be >= 2")


def _check_lifted_size(n_cols: int) -> None:
    if n_cols > MAX_LIFTED_COLS:
        raise ValueError(f"lifted code would have {n_cols} columns, limit is {MAX_LIFTED_COLS}")


def _check_shapes(proto: "ProtoMatrix", mask: "PartitionMask") -> None:
    if proto.gamma != mask.gamma or proto.kappa != mask.kappa:
        raise ValueError("protograph and mask shapes differ")


def _check_weights(weights, q: int) -> None:
    """Refuse any edge weight that is not a nonzero element of GF(q)."""
    weights = np.asarray(weights)
    bad = weights[(weights < 1) | (weights >= q)]
    if bad.size:
        raise ValueError(f"edge weight {bad[0]} outside 1..{q - 1}, the nonzero elements of GF({q})")


def _check_labels(labels: Optional[bytes], field_lam: Optional[int], n_edges: int) -> None:
    """Refuse labels without a field degree, that are not one weight per
    edge, or that hold a weight outside the field."""
    if labels is None:
        return
    if field_lam is None:
        raise ValueError("a labelled code needs field_lam")
    _check_field_degree(field_lam)
    if len(labels) != n_edges:
        raise ValueError(f"labels hold {len(labels)} weights, the code has {n_edges} edges")
    _check_weights(np.frombuffer(labels, dtype=np.uint8), 1 << field_lam)


def _freeze(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in r) for r in rows)


@dataclass(frozen=True)
class ProtoMatrix:
    """gamma x kappa grid of circulant powers (no zero circulants)."""

    gamma: int
    kappa: int
    p: int
    powers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "powers", _freeze(self.powers))
        if self.gamma < 1 or self.kappa < 1 or self.p < 1:
            raise ValueError("gamma, kappa, p must be positive")
        if len(self.powers) != self.gamma or any(len(r) != self.kappa for r in self.powers):
            raise ValueError("powers must be a gamma x kappa grid")
        for row in self.powers:
            for f in row:
                if not 0 <= f < self.p:
                    raise ValueError(f"circulant power {f} out of range [0, {self.p})")

    def with_powers(self, powers: Sequence[Sequence[int]]) -> "ProtoMatrix":
        return replace(self, powers=powers)


def build_ab_powers(gamma: int, p: int) -> ProtoMatrix:
    """Array-based power grid f[i][j] = i*j mod p with kappa = p, p prime.

    The resulting lifted block code has no cycles of length 4.
    """
    if not is_prime(p):
        raise ValueError(f"array-based construction requires a prime p, got {p}")
    if gamma > p:
        raise ValueError(f"gamma={gamma} exceeds p={p}")
    powers = tuple(tuple((i * j) % p for j in range(p)) for i in range(gamma))
    return ProtoMatrix(gamma=gamma, kappa=p, p=p, powers=powers)


@dataclass(frozen=True)
class PartitionMask:
    """Per-circulant assignment: 0 sends the circulant to H0, 1 to H1.

    Every circulant is assigned exactly once, so H0 + H1 = H by construction;
    ``assign`` must be a non-empty grid with rows of equal length.
    """

    assign: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.assign:
            for v in row:
                if v not in (0, 1):
                    raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "assign", _freeze(self.assign))
        widths = {len(r) for r in self.assign}
        if len(widths) != 1 or 0 in widths:
            raise ValueError("mask must be a non-empty grid with rows of equal length")

    @property
    def gamma(self) -> int:
        return len(self.assign)

    @property
    def kappa(self) -> int:
        return len(self.assign[0])

    @classmethod
    def all_h0(cls, gamma: int, kappa: int) -> "PartitionMask":
        """Everything in H0: coupling degenerates to L disjoint block codes."""
        return cls(tuple((0,) * kappa for _ in range(gamma)))

    @classmethod
    def from_h0_support(cls, gamma: int, kappa: int, h0_cols: Sequence[set]) -> "PartitionMask":
        """Build from per-row column sets that go to H0."""
        return cls(
            tuple(
                tuple(0 if j in h0_cols[i] else 1 for j in range(kappa)) for i in range(gamma)
            )
        )


class TannerEdges:
    """Edge array of a Tanner graph whose columns all have gamma check rows.

    ``rows`` is an (n_cols, gamma) integer array, ascending in each column;
    edge ``c * gamma + k`` joins column c to row ``rows[c, k]``, and edge
    labels are stored in that order.  The row-major (CSR) edge order is
    built once, on first use.
    """

    def __init__(self, rows: np.ndarray, n_rows: int):
        # shared by every labelled copy of a code, so never written
        rows.setflags(write=False)
        self.rows = rows
        self.n_rows = n_rows
        self.gamma = rows.shape[1]

    @functools.cached_property
    def row_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, ptr): edge ids sorted by row, then column, and row pointers.

        Row r holds the edges ``order[ptr[r]:ptr[r + 1]]``, columns ascending.
        """
        flat = self.rows.ravel()
        order = np.argsort(flat, kind="stable")
        ptr = np.concatenate(([0], np.bincount(flat, minlength=self.n_rows).cumsum()))
        return order, ptr

    def index(self, row: int, col: int) -> int:
        """Position of the edge (row, col) in the column-major edge order."""
        rows = self.rows[col].tolist() if 0 <= col < len(self.rows) else ()
        if row in rows:
            return col * self.gamma + rows.index(row)
        raise ValueError(f"({row}, {col}) is not a nonzero entry of the code")


@dataclass(frozen=True)
class SCCode:
    """A spatially-coupled code: partitioned block code repeated L times.

    ``labels`` holds one nonzero GF(q) weight per lifted edge, as bytes in
    the column-major order of ``edges``; it is None for unlabeled (binary)
    codes.  ``field_lam`` records the field degree and ``label_seed`` the
    RNG seed used for labeling, for reproducibility.  A code of more than
    MAX_LIFTED_COLS lifted columns is refused on construction, before its
    edge array is built, and so are labels without ``field_lam``, of another
    length than the edge count, or with a weight outside GF(2^field_lam).
    """

    proto: ProtoMatrix
    mask: PartitionMask
    L: int
    labels: Optional[bytes] = None
    field_lam: Optional[int] = None
    label_seed: Optional[int] = None

    def __post_init__(self):
        _check_coupling_length(self.L)
        _check_shapes(self.proto, self.mask)
        _check_lifted_size(self.n_cols)
        _check_labels(self.labels, self.field_lam, self.n_cols * self.gamma)

    @property
    def gamma(self) -> int:
        return self.proto.gamma

    @property
    def kappa(self) -> int:
        return self.proto.kappa

    @property
    def p(self) -> int:
        return self.proto.p

    @property
    def n_rows(self) -> int:
        return (self.L + 1) * self.gamma * self.p

    @property
    def n_cols(self) -> int:
        return self.L * self.kappa * self.p

    @functools.cached_property
    def edges(self) -> TannerEdges:
        """The lifted edge array, shared with every labelled copy of this code."""
        return _coupled_edges(self.proto, self.mask, self.L)

    def column_rows(self, c: int) -> list[int]:
        """Lifted row indices of the gamma ones in column c, ascending."""
        return self.edges.rows[c].tolist()


@functools.lru_cache(maxsize=4)
def _coupled_edges(proto: ProtoMatrix, mask: PartitionMask, L: int) -> TannerEdges:
    """Edge array of the coupled code; its labelled copies share one build.

    Column (r*kappa + j)*p + v meets, for each i, row
    ((r + mask[i][j])*gamma + i)*p + (v + f[i][j]) mod p.
    """
    g, k, p = proto.gamma, proto.kappa, proto.p
    f = np.array(proto.powers, dtype=np.int64).T[None, :, None, :]
    m = np.array(mask.assign, dtype=np.int64).T[None, :, None, :]
    r = np.arange(L)[:, None, None, None]
    v = np.arange(p)[None, None, :, None]
    rows = ((r + m) * g + np.arange(g)) * p + (v + f) % p
    return TannerEdges(np.sort(rows.reshape(L * k * p, g), axis=1), (L + 1) * g * p)


def couple(proto: ProtoMatrix, mask: PartitionMask, L: int) -> SCCode:
    """Couple the partitioned block code L times (memory 1)."""
    return SCCode(proto=proto, mask=mask, L=L)


def protograph_of(code: SCCode) -> SCCode:
    """The coupled binary protograph: same structure with p = 1."""
    proto1 = ProtoMatrix(
        gamma=code.gamma,
        kappa=code.kappa,
        p=1,
        powers=tuple((0,) * code.kappa for _ in range(code.gamma)),
    )
    return SCCode(proto=proto1, mask=code.mask, L=code.L)


def label_edges(code: SCCode, field: FieldGF, seed: int) -> SCCode:
    """Draw a nonzero GF(q) weight independently for every lifted entry.

    The weights are exactly those of one ``randrange(1, q)`` per entry from
    ``random.Random(seed)``, entries in column-major (edge) order.  They are
    taken from the generator in bulk (``words.read_words``):
    ``randrange(1, q)`` is 1 plus the top lambda bits of the first 32-bit
    Mersenne Twister word whose top bits are below q - 1.  Words are drawn
    at most ``LABEL_WORDS`` at a time; the words drawn past the last label
    are discarded with the generator, which is local.
    """
    if field.q < 4:
        raise ValueError("edge labeling requires q >= 4")
    n, q = code.n_cols * code.gamma, field.q
    rng = random.Random(seed)
    chunks, have = [], 0
    while have < n:
        # at worst (q = 4) three words in four are accepted
        m = min(LABEL_WORDS, (n - have) * 3 // 2 + 32)
        words = read_words(rng, m) >> (32 - field.lam)
        chunks.append((words[words < q - 1] + 1).astype(np.uint8))
        have += chunks[-1].size
    labels = np.concatenate(chunks)[:n].tobytes()
    return replace(code, labels=labels, field_lam=field.lam, label_seed=seed)


def _check_labelled(code: SCCode) -> None:
    """Refuse a code whose edge weights cannot be changed: it has none."""
    if code.labels is None:
        raise ValueError("cannot change edge weights of an unlabeled code")


def apply_edge_changes(
    code: SCCode, changes: Sequence[tuple[int, int, int]]
) -> SCCode:
    """Return a copy of the code with the listed (row, col, weight) replaced.

    Topology is unchanged; every target must be an existing nonzero entry and
    every new weight a nonzero element of the code's field.
    """
    _check_labelled(code)
    _check_weights([w for _, _, w in changes], 1 << code.field_lam)
    new_labels = bytearray(code.labels)
    for row, col, w in changes:
        new_labels[code.edges.index(row, col)] = w
    return replace(code, labels=bytes(new_labels))


def code_to_json(code: SCCode) -> str:
    """Serialize everything needed to rebuild the code bit-exactly.

    Labels are [row, col, weight] triples sorted by row, then column: the
    row-major edge order, written by one numpy decimal-text kernel
    (``_decimal_rows``) and spliced into the header.
    """
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
        "labels": None,
    }
    text = json.dumps(payload, sort_keys=True)
    if code.labels is None:
        return text
    edges = code.edges
    order, _ = edges.row_order
    weights = np.frombuffer(code.labels, dtype=np.uint8)
    table = np.stack((edges.rows.ravel()[order], order // edges.gamma, weights[order]), axis=1)
    # every other value is a number, a list or null, so the key occurs once
    head, tail = text.split('"labels": null')
    triples = _decimal_rows(table, (", ", ", ", "], ["))[: -len("], [")]
    return "".join((head, '"labels": [[', str(triples, "ascii"), "]]", tail))


def _decimal_rows(table: np.ndarray, after: Sequence[str]) -> np.ndarray:
    """Decimal text of an (n, f) table of non-negative ints, row after row.

    Field j of every row is followed by the fixed string ``after[j]``.  No
    Python object is made per value: each field is cut into digits at its
    own width, by repeated ``// 10`` in the narrowest unsigned dtype that
    holds the table, and digits and glue bytes are written column by column
    into an (n, width) byte array.  A leading-zero mask selects the bytes
    kept.  The text is returned as a writable uint8 array of ASCII codes;
    ``str(text, "ascii")`` decodes it without another copy.
    """
    n = table.shape[0]
    fields = np.ascontiguousarray(table.T, dtype=np.min_scalar_type(int(table.max(initial=0))))
    widths = [len(str(int(v.max(initial=0)))) for v in fields]
    cells = np.empty((n, sum(widths) + len("".join(after))), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    end = 0
    for v, width, glue in zip(fields, widths, after):
        end += width
        # right to left; a leading zero has only zeros left of it, so v is 0 there
        for k in range(end - 1, end - width, -1):
            high = v // 10
            cells[:, k] = v - high * 10 + ord("0")
            v = high
            keep[:, k - 1] = v > 0
        cells[:, end - width] = v + ord("0")
        for byte in glue.encode("ascii"):
            cells[:, end] = byte
            end += 1
    return cells[keep]


def code_from_json(text: str) -> SCCode:
    """Rebuild a code written by ``code_to_json``.

    Refuses, with a ``ValueError`` that names the problem, a document that
    is not a JSON object, a missing header key, a header value of the wrong
    type, a memory other than 1, a label list that does not hold exactly
    one label per nonzero entry (a wrong count, a repeated entry, or an
    entry off the code's edges), a label value that is not an integer (a
    float or a boolean), and a weight outside the field.
    """
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError(f"code file must hold a JSON object, got {type(d).__name__}")
    for key in ("gamma", "kappa", "p", "L", "powers", "mask"):
        if key not in d:
            raise ValueError(f"code file has no key {key!r}")
    for key in ("gamma", "kappa", "p", "L", "field_lam", "label_seed"):
        value = d.get(key)
        # an unlabelled code has null field_lam and label_seed
        if type(value) is not int and not (value is None and key in ("field_lam", "label_seed")):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    for key in ("powers", "mask"):
        rows = d[key]
        if not isinstance(rows, list) or any(
            not isinstance(r, list) or any(type(x) is not int for x in r) for r in rows
        ):
            raise ValueError(f"{key} must be a list of integer lists")
    if d.get("m", 1) != 1:
        raise ValueError("only memory m=1 coupling is supported")
    code = SCCode(
        proto=ProtoMatrix(gamma=d["gamma"], kappa=d["kappa"], p=d["p"], powers=d["powers"]),
        mask=PartitionMask(d["mask"]),
        L=d["L"],
        field_lam=d.get("field_lam"),
        label_seed=d.get("label_seed"),
    )
    if d.get("labels") is None:
        return code
    return replace(code, labels=_aligned_labels(code, d["labels"]))


def _aligned_labels(code: SCCode, entries: list) -> bytes:
    """Weights of a [row, col, weight] list in edge order, after checking it."""
    n = code.n_cols * code.gamma
    try:
        table = np.array(entries, dtype=np.int64).reshape(len(entries), 3)
    except OverflowError:
        raise ValueError("label list holds an integer outside the 64-bit range") from None
    except (TypeError, ValueError):
        raise ValueError("labels must be a list of [row, col, weight] integer triples") from None
    # numpy truncates a float and reads a boolean as 0 or 1
    if set(map(type, itertools.chain.from_iterable(entries))) - {int}:
        value = next(x for entry in entries for x in entry if type(x) is not int)
        raise ValueError(f"label list holds a non-integer value {json.dumps(value)}")
    pairs, first, counts = np.unique(table[:, :2], axis=0, return_index=True, return_counts=True)
    if len(pairs) != n:
        raise ValueError(f"label list holds {len(pairs)} distinct entries, the code has {n}")
    if counts.max() > 1:
        r, c = pairs[np.argmax(counts > 1)].tolist()
        raise ValueError(f"label list repeats entry ({r}, {c})")
    if code.field_lam is None:
        raise ValueError("a labelled code needs field_lam")
    weights = table[:, 2]
    _check_weights(weights, 1 << code.field_lam)
    # the pairs are distinct and as many as the edges, so they are the edge
    # set exactly when every one of them is an edge
    rows, cols = pairs[:, 0], pairs[:, 1]
    inside = (cols >= 0) & (cols < code.n_cols)
    hit = code.edges.rows[np.where(inside, cols, 0)] == rows[:, None]
    on_edge = inside & hit.any(axis=1)
    if not on_edge.all():
        r, c = pairs[np.argmin(on_edge)].tolist()
        raise ValueError(f"label at ({r}, {c}) is not a nonzero entry of the code")
    out = np.empty(n, dtype=np.uint8)
    out[cols * code.gamma + hit.argmax(axis=1)] = weights[first]
    return out.tobytes()
