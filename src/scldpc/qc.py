"""Circulant-based block codes, partitioning, and spatial coupling.

A block code is described by a gamma x kappa grid of p x p circulant
permutation matrices sigma^f, where sigma is the identity cyclically shifted
one unit to the left.  Partitioning splits the grid into two disjoint halves
H0/H1 (memory 1); coupling repeats [H0; H1] L times along a diagonal band,
giving a lifted binary matrix of size (L+1)*gamma*p x L*kappa*p.

Codes are immutable values.  The lifted matrix is never materialized densely;
columns are generated on demand from (powers, mask, L).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .gf import FieldGF

__all__ = [
    "ProtoMatrix",
    "PartitionMask",
    "SCCode",
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
        if self.gamma < 1 or self.kappa < 1 or self.p < 1:
            raise ValueError("gamma, kappa, p must be positive")
        if len(self.powers) != self.gamma or any(len(r) != self.kappa for r in self.powers):
            raise ValueError("powers must be a gamma x kappa grid")
        for row in self.powers:
            for f in row:
                if not 0 <= f < self.p:
                    raise ValueError(f"circulant power {f} out of range [0, {self.p})")

    def with_powers(self, powers: Sequence[Sequence[int]]) -> "ProtoMatrix":
        return replace(self, powers=_freeze(powers))


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

    Every circulant is assigned exactly once, so H0 + H1 = H by construction.
    """

    assign: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.assign:
            for v in row:
                if v not in (0, 1):
                    raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "assign", _freeze(self.assign))

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

    def h0_row_population(self, i: int) -> int:
        return self.assign[i].count(0)


@dataclass(frozen=True)
class SCCode:
    """A spatially-coupled code: partitioned block code repeated L times.

    ``labels`` maps lifted (row, col) entries to nonzero GF(q) weights; it is
    None for unlabeled (binary) codes.  ``field_lam`` records the field degree
    and ``label_seed`` the RNG seed used for labeling, for reproducibility.
    """

    proto: ProtoMatrix
    mask: PartitionMask
    L: int
    labels: Optional[dict] = None
    field_lam: Optional[int] = None
    label_seed: Optional[int] = None

    def __post_init__(self):
        _check_coupling_length(self.L)
        if self.mask.gamma != self.proto.gamma or self.mask.kappa != self.proto.kappa:
            raise ValueError("mask shape does not match protograph shape")

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

    def column_rows(self, c: int) -> list[int]:
        """Lifted row indices of the gamma ones in column c, ascending."""
        g, k, p = self.gamma, self.kappa, self.p
        r, rem = divmod(c, k * p)
        j, v = divmod(rem, p)
        rows = []
        for i in range(g):
            blk = (r + self.mask.assign[i][j]) * g + i
            rows.append(blk * p + (v + self.proto.powers[i][j]) % p)
        rows.sort()
        return rows

    def row_cols(self, r: int) -> set[int]:
        """Lifted column indices of the ones in row r."""
        g, k, p = self.gamma, self.kappa, self.p
        blk, u = divmod(r, p)
        br, i = divmod(blk, g)
        cols: set[int] = set()
        for rep in (br - 1, br):
            if not 0 <= rep < self.L:
                continue
            for j in range(k):
                if self.mask.assign[i][j] == br - rep:
                    cols.add((rep * k + j) * p + (u - self.proto.powers[i][j]) % p)
        return cols

    def weight_of(self, row: int, col: int) -> int:
        """Edge weight at a nonzero entry (1 for unlabeled codes).

        Raises ValueError when a labelled code has no label at the entry.
        """
        if self.labels is None:
            return 1
        try:
            return self.labels[(row, col)]
        except KeyError:
            raise ValueError(f"labelled code has no label at entry ({row}, {col})") from None

    def to_dense(self, binary: bool = True):
        """Dense numpy matrix; guarded, intended for small oracle checks."""
        import numpy as np

        if self.n_rows * self.n_cols > 1_000_000:
            raise ValueError("dense materialization refused above 10^6 cells")
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        for c in range(self.n_cols):
            for r in self.column_rows(c):
                out[r, c] = 1 if binary or self.labels is None else self.labels[(r, c)]
        return out


def couple(proto: ProtoMatrix, mask: PartitionMask, L: int) -> SCCode:
    """Couple the partitioned block code L times (memory 1)."""
    if L * proto.kappa * proto.p > MAX_LIFTED_COLS:
        raise ValueError(
            f"lifted code would have {L * proto.kappa * proto.p} columns, "
            f"limit is {MAX_LIFTED_COLS}"
        )
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

    Weights are drawn per entry rather than per circulant, which maximizes
    label diversity for later absorbing-set removal.  Deterministic given the
    seed: entries are visited in column-major order.
    """
    if field.q < 4:
        raise ValueError("edge labeling requires q >= 4")
    rng = random.Random(seed)
    labels = {}
    for c in range(code.n_cols):
        for r in code.column_rows(c):
            labels[(r, c)] = rng.randrange(1, field.q)
    return replace(code, labels=labels, field_lam=field.lam, label_seed=seed)


def apply_edge_changes(
    code: SCCode, changes: Sequence[tuple[int, int, int]]
) -> SCCode:
    """Return a copy of the code with the listed (row, col, weight) replaced.

    Topology is unchanged; every target must be an existing nonzero entry and
    every new weight must be nonzero.
    """
    if code.labels is None:
        raise ValueError("cannot change edge weights of an unlabeled code")
    new_labels = dict(code.labels)
    for row, col, w in changes:
        if (row, col) not in new_labels:
            raise ValueError(f"({row}, {col}) is not a nonzero entry of the code")
        if w == 0:
            raise ValueError("edge weights must be nonzero")
        new_labels[(row, col)] = int(w)
    return replace(code, labels=new_labels)


def code_to_json(code: SCCode) -> str:
    """Serialize everything needed to rebuild the code bit-exactly."""
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
        "labels": None
        if code.labels is None
        else [[r, c, w] for (r, c), w in sorted(code.labels.items())],
    }
    return json.dumps(payload, sort_keys=True)


def code_from_json(text: str) -> SCCode:
    """Rebuild a code written by ``code_to_json``.

    Refuses a memory other than 1, a label list that does not hold one label
    per nonzero entry, and a weight outside the field.
    """
    d = json.loads(text)
    if d.get("m", 1) != 1:
        raise ValueError("only memory m=1 coupling is supported")
    labels = d.get("labels")
    if labels is not None:
        labels = {(r, c): w for r, c, w in labels}
    code = SCCode(
        proto=ProtoMatrix(
            gamma=d["gamma"], kappa=d["kappa"], p=d["p"], powers=_freeze(d["powers"])
        ),
        mask=PartitionMask(_freeze(d["mask"])),
        L=d["L"],
        labels=labels,
        field_lam=d.get("field_lam"),
        label_seed=d.get("label_seed"),
    )
    if labels is None:
        return code
    # one pass: the entry count, then the weights; placement is checked
    # where a weight is read (SCCode.weight_of)
    if len(labels) != code.n_cols * code.gamma:
        raise ValueError(
            f"label list holds {len(labels)} distinct entries, "
            f"the code has {code.n_cols * code.gamma}"
        )
    if code.field_lam is None:
        raise ValueError("a labelled code needs field_lam")
    q = 1 << code.field_lam
    bad = [w for w in labels.values() if not 0 < w < q]
    if bad:
        raise ValueError(f"label weight {bad[0]} outside 1..{q - 1}")
    return code
