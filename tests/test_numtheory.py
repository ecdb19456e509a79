import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcircuits import GcdFreeBasis, NotRepresentable, factorize, gcd_free_basis
from setcircuits.errors import BudgetExceeded
from setcircuits.numtheory import MR_BOUND, exponents_over_basis, miller_rabin, primes_upto


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


def test_miller_rabin_matches_sieve_below_10_5():
    primes = set(primes_upto(10**5))
    assert [n for n in range(10**5) if miller_rabin(n)] == sorted(primes)
    assert all(miller_rabin(n) is False for n in range(10**5) if n not in primes)


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        2047,  # strong pseudoprime to base 2
        1_373_653,  # to bases 2, 3
        3_215_031_751,  # to bases 2, 3, 5, 7
        3_825_123_056_546_413_051,  # to bases 2 through 23
        318_665_857_834_031_151_167_461,  # to bases 2 through 37
    ],
)
def test_miller_rabin_finds_strong_pseudoprimes_composite(n):
    assert miller_rabin(n) is False


def test_miller_rabin_proves_nothing_from_its_bound_on():
    # MR_BOUND is itself a strong pseudoprime to all 13 bases
    assert miller_rabin(MR_BOUND) is None
    assert miller_rabin(2**89 - 1) is None  # a Mersenne prime
    assert miller_rabin(MR_BOUND - 2) is not None
    assert miller_rabin(2**61 - 1) is True


@given(st.integers(min_value=MR_BOUND, max_value=2**200))
@settings(max_examples=200, deadline=None)
def test_miller_rabin_never_declares_prime_past_its_bound(n):
    assert miller_rabin(n) is not True


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
