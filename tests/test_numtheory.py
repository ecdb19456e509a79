import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcircuits import GcdFreeBasis, NotRepresentable, factorize, gcd_free_basis
from setcircuits.errors import BudgetExceeded
from setcircuits.numtheory import (
    MR_BOUND,
    Certificate,
    _cube_root_test,
    certify,
    exponents_over_basis,
    is_prime,
    miller_rabin,
    primes_upto,
)


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


def _random_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if miller_rabin(n):
            return n


def test_factorize_splits_products_of_large_primes():
    # at least two prime factors past 10^6, beyond any trial division here
    rng = random.Random(40)
    for k in (2, 2, 2, 3, 3, 3):
        primes = [_random_prime(rng, 10**6, 2 ** rng.randint(21, 40)) for _ in range(k)]
        want = {}
        for p in primes:
            want[p] = want.get(p, 0) + 1
        assert factorize(math.prod(primes), steps=1 << 23) == want, primes


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_budget_on_big_semiprime():
    p = 1_000_000_007
    assert factorize(p * p) == {p: 2}
    with pytest.raises(BudgetExceeded) as info:
        factorize(p * p, steps=1 << 10)
    assert info.value.kind == "factor"


def test_factorize_one_is_empty():
    assert factorize(1) == {}


def test_miller_rabin_matches_sieve_below_10_5():
    primes = set(primes_upto(10**5))
    assert [n for n in range(10**5) if miller_rabin(n)] == sorted(primes)
    assert all(miller_rabin(n) is False for n in range(10**5) if n not in primes)


def check_certificate(cert: Certificate) -> bool:
    """Re-verify a primality certificate from scratch, sharing no code with
    the prover: F | n - 1 with every prime of F proved, the Pocklington base
    conditions, and F^2 > n or F^3 > n with the square test on n's base-F
    digits."""
    n = cert.n
    f = math.prod(q**e for q, e in cert.factors.items())
    if n < MR_BOUND or (n - 1) % f:
        return False
    for q in cert.factors:
        sub = cert.proofs.get(q)
        if q >= MR_BOUND:
            if sub is None or sub.n != q or not check_certificate(sub):
                return False
        elif miller_rabin(q) is not True:
            return False
        a = cert.bases.get(q)
        if a is None or pow(a, n - 1, n) != 1 or math.gcd(pow(a, (n - 1) // q, n) - 1, n) != 1:
            return False
    if f * f > n:
        return True
    if f**3 <= n:
        return False
    c2, c1 = divmod((n - 1) // f, f)
    disc = c1 * c1 - 4 * c2
    return disc < 0 or math.isqrt(disc) ** 2 != disc


def _nested_prime():
    """The least prime 2kQ + 1, Q = 2^89 - 1: its proof needs one for Q."""
    q = 2**89 - 1
    return next(2 * k * q + 1 for k in range(1, 200) if miller_rabin(2 * k * q + 1) is None)


CERTIFIED = [2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1, _nested_prime()]


@pytest.mark.parametrize("n", CERTIFIED, ids=lambda n: f"{n.bit_length()}bit")
def test_certificates_check(n):
    cert = certify(n)
    assert check_certificate(cert)
    assert is_prime(n) is True


def test_nested_certificate():
    cert = certify(_nested_prime())
    assert set(cert.proofs) == {2**89 - 1}


@pytest.mark.parametrize("n", [2**89 - 1, 2**127 - 1, _nested_prime()], ids=["89bit", "127bit", "nested"])
def test_checker_rejects_mutated_certificates(n):
    cert = certify(n)
    for q, a in cert.bases.items():  # a^q is a q-th power: a wrong base
        wrong = {**cert.bases, q: pow(a, q, n)}
        assert not check_certificate(Certificate(n, cert.factors, wrong, cert.proofs))
    for q in cert.factors:  # a prime of F without its base
        missing = {k: v for k, v in cert.bases.items() if k != q}
        assert not check_certificate(Certificate(n, cert.factors, missing, cert.proofs))
    factors = dict(cert.factors)
    while math.prod(q**e for q, e in factors.items()) ** 3 > n:
        del factors[max(factors)]
    assert not check_certificate(Certificate(n, factors, cert.bases, cert.proofs))
    for q, sub in cert.proofs.items():  # a nested proof with a wrong base
        bad = Certificate(q, sub.factors, {k: 1 for k in sub.bases}, sub.proofs)
        assert not check_certificate(Certificate(n, cert.factors, cert.bases, {q: bad}))


def _chernick(count):
    """Carmichael numbers (6k+1)(12k+1)(18k+1) past MR_BOUND: every base
    coprime to them passes the Fermat test."""
    out, k = [], 2**27
    while len(out) < count:
        k += 1
        if all(miller_rabin(m * k + 1) for m in (6, 12, 18)):
            out.append((6 * k + 1) * (12 * k + 1) * (18 * k + 1))
    return out


def test_certify_never_certifies_a_composite():
    rng = random.Random(45)
    p, q = (_random_prime(rng, 2**44, 2**45) for _ in range(2))
    for n in [p * q, p * p, MR_BOUND, *_chernick(3)]:
        assert n >= MR_BOUND
        assert certify(n) is None, n


def test_certify_refuses_where_no_base_below_1000_settles_a_prime():
    # a Chernick number, k = 14,730,421: the primes below 1000 of n - 1 are 2,
    # 3 and primes of 36k^2 + 11k + 1, and they alone give f^3 > n. For each
    # such q, lcm(p - 1 : p | n) = 36k divides (n - 1) / q, so every base a
    # has a^((n-1)/q) = 1 (mod n): no base settles q, and the proof is refused
    k = 14_730_421
    n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    assert n >= MR_BOUND
    with pytest.raises(BudgetExceeded, match="no Pocklington base below 1000") as e:
        certify(n)
    assert e.value.kind == "factor"
    assert is_prime(n) is False  # a Miller-Rabin base is a witness


def test_cube_root_test_tells_two_factor_composites_from_primes():
    # the premises: f | n - 1, f^3 > n >= f^2, and every prime of n is 1 mod f
    rng = random.Random(3)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 100:
        f = rng.randrange(10, 10**6)
        u, v = rng.randrange(1, 40), rng.randrange(1, 40)
        p, q = u * f + 1, v * f + 1
        if miller_rabin(p) and miller_rabin(q) and p * q < f**3:
            assert _cube_root_test(p * q, f) is False, (f, u, v)
            seen[False] += 1
        n = rng.randrange(f, f * f) * f + 1
        if miller_rabin(n):
            assert _cube_root_test(n, f) is True, (f, n)
            seen[True] += 1


def test_is_prime_matches_sieve_below_10_5():
    primes = set(primes_upto(10**5))
    assert [n for n in range(10**5) if is_prime(n)] == sorted(primes)


def test_is_prime_matches_miller_rabin_below_its_bound():
    rng = random.Random(2000)
    for _ in range(2000):
        n = rng.randrange(10**6, MR_BOUND)
        assert is_prime(n) is miller_rabin(n), n


@pytest.mark.parametrize("p", [61, 89, 107, 127, 67, 101, 103, 109])
def test_is_prime_on_mersenne_numbers(p):
    assert is_prime(2**p - 1) is (p in (61, 89, 107, 127))


def test_is_prime_never_true_on_mr_bound():
    # MR_BOUND is a strong pseudoprime to all 13 bases
    try:
        assert is_prime(MR_BOUND) is False
    except BudgetExceeded:
        pass


def test_is_prime_refuses_when_rho_cannot_reach_a_cube_root():
    # n - 1 = 2 q1 q2 with q1, q2 prime near 2^64: no part of n - 1 above 2 is
    # reachable, and n passes Miller-Rabin
    q1, q2 = 19_282_901_516_542_751_161, 18_788_459_943_534_510_863
    n = 2 * q1 * q2 + 1
    assert miller_rabin(q1) and miller_rabin(q2) and miller_rabin(n) is None
    with pytest.raises(BudgetExceeded) as info:
        is_prime(n)
    assert info.value.kind == "factor"
    with pytest.raises(BudgetExceeded):
        is_prime(2**107 - 1, steps=8)  # rho splits 6361 * 69431 off its n - 1


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
