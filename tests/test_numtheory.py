import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcircuits import GcdFreeBasis, NotRepresentable, factorize, gcd_free_basis
from setcircuits.errors import BudgetExceeded
from setcircuits.numtheory import exponents_over_basis, primes_upto


def test_primes_upto_small():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_upto_counts():
    assert len(primes_upto(10_000)) == 1229


def test_primes_upto_budget():
    with pytest.raises(BudgetExceeded):
        primes_upto(10**7 + 1)


def _naive_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_matches_naive(n):
    assert factorize(n) == _naive_factor(n)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_budget_on_big_semiprime():
    p = 1_000_000_007
    with pytest.raises(BudgetExceeded):
        factorize(p * p, max_trial=10**4)


def test_factorize_one_is_empty():
    assert factorize(1) == {}


def test_gcd_free_basis_classic_example():
    basis = gcd_free_basis([6, 10, 15])
    assert sorted(basis.base) == [2, 3, 5]


def test_gcd_free_basis_degenerate_defaults():
    assert gcd_free_basis([]).base == (2,)
    assert gcd_free_basis([0, 1]).base == (2,)


@given(st.lists(st.integers(min_value=0, max_value=5000), max_size=8))
@settings(max_examples=150, deadline=None)
def test_gcd_free_basis_properties(nums):
    basis = gcd_free_basis(nums)
    base = basis.base
    assert all(x >= 2 for x in base)
    for i, x in enumerate(base):
        for y in base[i + 1 :]:
            assert math.gcd(x, y) == 1
    # every nonzero source is a product of powers of basis elements
    for n in nums:
        if n >= 1:
            exps = exponents_over_basis(n, basis)
            prod = 1
            for e, b in zip(exps, base):
                prod *= b**e
            assert prod == n


def test_exponents_over_basis_plain_tuple():
    assert exponents_over_basis(12, (4, 3)) == (1, 1)
    assert exponents_over_basis(1, (2, 5)) == (0, 0)


def test_exponents_not_representable():
    with pytest.raises(NotRepresentable):
        exponents_over_basis(7, (2, 3))
    with pytest.raises(NotRepresentable):
        exponents_over_basis(8, (4,))  # 8 = 4 * 2, leftover 2


def test_gcd_free_basis_validation():
    with pytest.raises(ValueError):
        GcdFreeBasis((2, 4))
    with pytest.raises(ValueError):
        GcdFreeBasis((1,))
