"""Arithmetic over GF(2^m) with precomputed lookup tables.

Field elements are integers in [0, 2^m - 1]; bit i of an element is the
coefficient of x^i in the polynomial basis.  Addition is XOR, multiplication
is carry-less polynomial multiplication reduced by the smallest irreducible
polynomial of degree m, so a field is fixed by m alone (as ``code.json``
records it).  Full multiplication and inverse tables are built at
construction, so fields are cheap to query and safe to share between threads
once built.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["FieldGF", "smallest_irreducible_poly"]

_MAX_LAMBDA = 8


def _polymul_nomod(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials (no reduction)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _polymod(a: int, mod: int) -> int:
    """Remainder of a modulo mod, both GF(2) polynomials, mod != 0."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _is_irreducible(poly: int) -> bool:
    """Exhaustive trial division by every lower-degree polynomial."""
    deg = poly.bit_length() - 1
    for d in range(2, (1 << (deg // 2 + 1))):
        if _polymod(poly, d) == 0:
            return False
    return True


_POLY_CACHE: dict[int, int] = {}


def smallest_irreducible_poly(degree: int) -> int:
    """Lexicographically smallest irreducible polynomial of the given degree.

    Returned as a bitmask including the leading x^degree term.  Fixing this
    choice makes edge labelings reproducible across runs and machines.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree not in _POLY_CACHE:
        for cand in range(1 << degree, 1 << (degree + 1)):
            if _is_irreducible(cand):
                _POLY_CACHE[degree] = cand
                break
    return _POLY_CACHE[degree]


def _check_field_degree(lam: int) -> None:
    if not 1 <= lam <= _MAX_LAMBDA:
        raise ValueError(f"field degree must be in [1, {_MAX_LAMBDA}], got {lam}")


class FieldGF:
    """The finite field GF(2^lam).

    Code design uses lam >= 2 (q >= 4); lam = 1 is allowed so that degenerate
    binary cases (no alternative nonzero weights) can be exercised.
    """

    def __init__(self, lam: int):
        _check_field_degree(lam)
        self.lam = lam
        self.q = 1 << lam
        self.poly = smallest_irreducible_poly(lam)
        self._build_tables()

    def _build_tables(self) -> None:
        q = self.q
        self._mul = [[0] * q for _ in range(q)]
        self._inv = [0] * q
        for a in range(q):
            for b in range(a, q):
                prod = _polymod(_polymul_nomod(a, b), self.poly)
                self._mul[a][b] = prod
                self._mul[b][a] = prod
        for a in range(1, q):
            self._inv[a] = self._mul[a].index(1)

    def _check(self, *elems: int) -> None:
        for e in elems:
            if not 0 <= e < self.q:
                raise ValueError(f"element {e} out of range for GF({self.q})")

    def add(self, a: int, b: int) -> int:
        """Characteristic-2 sum; add(a, a) == 0."""
        self._check(a, b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._inv[a]

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def mul_table_rows(self) -> list[list[int]]:
        """Copy of the full q x q multiplication table."""
        return [row[:] for row in self._mul]

    def __repr__(self) -> str:
        return f"FieldGF(lam={self.lam}, q={self.q}, poly=0b{self.poly:b})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldGF) and self.lam == other.lam

    def __hash__(self) -> int:
        return hash(self.lam)
