import itertools

import pytest
from hypothesis import given, strategies as st

from scldpc.gf import FieldGF, smallest_irreducible_poly

from oracles import gf_log_tables, gf_mul_via_logs


def test_default_polys_are_smallest_irreducible():
    # frozen values cross-checked by the trial-division test below
    assert smallest_irreducible_poly(2) == 0b111
    assert smallest_irreducible_poly(3) == 0b1011
    assert smallest_irreducible_poly(4) == 0b10011


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_default_poly_has_no_smaller_irreducible(lam):
    poly = smallest_irreducible_poly(lam)

    def divides(d, a):
        dm = d.bit_length() - 1
        while a.bit_length() - 1 >= dm and a:
            a ^= d << (a.bit_length() - 1 - dm)
        return a == 0

    def irreducible(cand):
        deg = cand.bit_length() - 1
        return not any(
            divides(d, cand) for d in range(2, 1 << (deg // 2 + 1)) if d.bit_length() >= 2
        )

    assert irreducible(poly)
    for cand in range(1 << lam, poly):
        assert not irreducible(cand)


def test_addition_is_self_inverse_and_identity():
    gf = FieldGF(2)
    for a in gf.elements():
        assert gf.add(a, a) == 0
        assert gf.add(0, a) == a


def test_gf4_addition_table():
    gf = FieldGF(2)
    # polynomial addition is coefficient-wise XOR: full 4x4 table
    expected = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    for a in range(4):
        for b in range(4):
            assert gf.add(a, b) == expected[a][b]
    assert gf.add(1, 2) == 3


def test_gf4_multiplication_against_log_tables():
    gf = FieldGF(2)
    exp, log = gf_log_tables(2, gf.poly)
    for a in range(4):
        for b in range(4):
            assert gf.mul(a, b) == gf_mul_via_logs(a, b, exp, log, 4)
    assert gf.mul(2, 2) == 3


def test_multiplicative_identity_and_zero():
    gf = FieldGF(3)
    for a in gf.elements():
        assert gf.mul(1, a) == a
        assert gf.mul(0, a) == 0


def test_inverses():
    for lam in (2, 3):
        gf = FieldGF(lam)
        for a in gf.nonzero_elements():
            assert gf.mul(a, gf.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            gf.inv(0)


def test_out_of_range_elements_rejected():
    gf = FieldGF(2)
    with pytest.raises(ValueError):
        gf.add(4, 1)
    with pytest.raises(ValueError):
        gf.mul(1, -1)


@pytest.mark.parametrize("lam", [2, 3])
def test_associativity_and_distributivity_exhaustive(lam):
    gf = FieldGF(lam)
    elems = list(gf.elements())
    for a, b, c in itertools.product(elems, repeat=3):
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


def test_nonzero_elements_form_cyclic_group():
    for lam in (2, 3, 4):
        gf = FieldGF(lam)
        orders = []
        for a in gf.nonzero_elements():
            x, order = a, 1
            while x != 1:
                x = gf.mul(x, a)
                order += 1
            orders.append(order)
            assert (gf.q - 1) % order == 0
        assert max(orders) == gf.q - 1  # a generator exists


_GF256 = FieldGF(8)


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_gf256_commutes_and_stays_in_range(a, b):
    prod = _GF256.mul(a, b)
    assert 0 <= prod < 256
    assert prod == _GF256.mul(b, a)


def test_rejects_bad_degrees_and_polys():
    with pytest.raises(ValueError):
        FieldGF(0)
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        smallest_irreducible_poly(0)
    with pytest.raises(ValueError):
        FieldGF(9)
