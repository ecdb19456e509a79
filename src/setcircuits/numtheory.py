"""Number-theoretic helpers: factorization, primality, gcd-free bases, exponent vectors.

Primality: Miller-Rabin to 13 fixed bases decides every n below MR_BOUND.
Above it a witness still proves n composite, but a pass proves nothing, so
is_prime then builds a Certificate from a partly factored n - 1 (Pocklington,
with the Brillhart-Lehmer-Selfridge cube-root test). factorize divides out
the primes below 1000 and splits what is left with Pollard's rho in Brent's
form, every piece settled by is_prime. Both spend rho iterations from one
bound per top-level call and raise BudgetExceeded("factor") when it runs out,
so an unfinished proof is never an answer.

A gcd-free basis of a finite set of naturals is a set of pairwise coprime
numbers >= 2 such that every nonzero source number is a product of powers of
basis elements. The basis here is computed by pairwise gcd refinement; it is
not canonical (it need not consist of primes), but the exponent decomposition
over it is unique.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetExceeded


class NotRepresentable(ValueError):
    """A number has no exponent decomposition over the given basis."""


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve. Guarded at 10**7."""
    if n > 10**7:
        raise BudgetExceeded("primes", f"sieve limit {n} > 10**7")
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(2, n + 1) if sieve[i]]


# Sorenson and Webster (Math. Comp. 2017): the first 13 primes as Miller-Rabin
# bases decide primality for every n below MR_BOUND.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981

# the trial divisors, and the bases a Pocklington proof tries
SMALL_PRIMES = tuple(primes_upto(1000))
# rho iterations per top-level factorize or is_prime call, nested proofs
# included; all of them take about 80 ms on a 128-bit number (Xeon, Python 3.11)
RHO_STEPS = 1 << 17


def miller_rabin(n: int) -> bool | None:
    """Strong-probable-prime test of n >= 0 to the bases MR_BASES.

    True: n is prime (n < MR_BOUND passed every base). False: n is composite
    (n < 2, or a base is a witness). None: n >= MR_BOUND passed every base,
    which proves nothing.
    """
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True if n < MR_BOUND else None


class _Steps:
    """The rho iterations left to one top-level call."""

    def __init__(self, steps: int):
        self.left = steps

    def spend(self, k: int, n: int):
        self.left -= k
        if self.left < 0:
            raise BudgetExceeded("factor", f"rho step bound reached while splitting {n}")


def _rho(n: int, steps: _Steps) -> int:
    """A proper factor of the composite n, which has no prime factor below
    1000, by Pollard's rho with Brent's cycle finding (BIT 20, 1980)."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            steps.spend(r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, batch = y, min(128, r - k)
                steps.spend(batch, n)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch holds the factor: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


class Certificate(NamedTuple):  # a NamedTuple: a dataclass costs 1 ms at import
    """A proof that n >= MR_BOUND is prime from a factored part F of n - 1
    (Brillhart, Lehmer and Selfridge, Math. Comp. 29, 1975).

    F = prod(q ** e for q, e in factors.items()) divides n - 1, and for each
    prime q of F the base a = bases[q] has a^(n-1) = 1 (mod n) and
    gcd(a^((n-1)/q) - 1, n) = 1. Then every prime p | n has p = 1 (mod F).
    F^2 > n makes n prime. If only F^3 > n, a composite n is (uF+1)(vF+1)
    with uv = c2 and u + v = c1 < F, where n = c2 F^2 + c1 F + 1 and
    0 <= c1 < F; so n is prime iff c1^2 - 4 c2 is not a square (Crandall and
    Pomerance, Theorem 4.1.5). Each q >= MR_BOUND has its own certificate in
    proofs; each smaller q is prime by miller_rabin.
    """

    n: int
    factors: dict[int, int]
    bases: dict[int, int]
    proofs: dict[int, Certificate]


def _prime_piece(d: int, proofs: dict[int, Certificate], steps: _Steps) -> bool:
    """Whether d is prime; a proof it needs goes into proofs."""
    mr = miller_rabin(d)
    if mr is not None:
        return mr
    cert = _certify(d, steps)
    if cert is not None:
        proofs[d] = cert
    return cert is not None


def _certify(n: int, steps: _Steps) -> Certificate | None:
    """A Certificate for n >= MR_BOUND, or None when the proof finds n
    composite."""
    rest, factors = n - 1, {}
    for p in SMALL_PRIMES:
        while rest % p == 0:
            rest //= p
            factors[p] = factors.get(p, 0) + 1
    f = (n - 1) // rest
    proofs: dict[int, Certificate] = {}
    todo = [rest] if rest > 1 else []
    while f**3 <= n:  # so todo is not empty: f = n - 1 would do
        d = min(todo)
        todo.remove(d)
        if _prime_piece(d, proofs, steps):
            factors[d] = factors.get(d, 0) + 1
            f *= d
        else:
            g = _rho(d, steps)
            todo += [g, d // g]
    bases: dict[int, int] = {}
    for a in SMALL_PRIMES:
        if len(bases) == len(factors):
            break
        if pow(a, n - 1, n) != 1:
            return None
        for q in factors.keys() - bases.keys():
            g = math.gcd(pow(a, (n - 1) // q, n) - 1, n)
            if g == 1:
                bases[q] = a
            elif g != n:
                return None
    if len(bases) < len(factors):
        raise BudgetExceeded("factor", f"no Pocklington base below 1000 for {n}")
    if not _cube_root_test(n, f):
        return None
    return Certificate(n=n, factors=factors, bases=bases, proofs=proofs)


def _cube_root_test(n: int, f: int) -> bool:
    """Whether n is prime, given f | n - 1, f^3 > n and p = 1 (mod f) for
    every prime p | n (the argument is in Certificate)."""
    if f * f > n:
        return True
    c2, c1 = divmod((n - 1) // f, f)
    disc = c1 * c1 - 4 * c2
    return disc < 0 or math.isqrt(disc) ** 2 != disc


def certify(n: int, steps: int = RHO_STEPS) -> Certificate | None:
    """A Certificate that n >= MR_BOUND is prime, or None if the proof finds
    n composite. Runs without the Miller-Rabin pre-test is_prime makes.

    Raises BudgetExceeded("factor") when the steps run out first.
    """
    if n < MR_BOUND:
        raise ValueError(f"certify needs n >= MR_BOUND, got {n}")
    return _certify(n, _Steps(steps))


def is_prime(n: int, steps: int = RHO_STEPS) -> bool:
    """Whether n >= 0 is prime. Below MR_BOUND this is miller_rabin's answer;
    above it a witness proves n composite, and only a Certificate proves it
    prime.

    Raises BudgetExceeded("factor") when the steps run out first.
    """
    return _prime_piece(n, {}, _Steps(steps))


def factorize(n: int, steps: int = RHO_STEPS) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1.

    Trial division by the primes below 1000, then Brent's rho on the cofactor
    and its pieces, each settled by is_prime. Raises BudgetExceeded("factor")
    when the steps run out first.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    rest = n
    for p in SMALL_PRIMES:
        if p * p > rest:
            break
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    budget = _Steps(steps)
    todo = [rest] if rest > 1 else []
    while todo:
        d = todo.pop()
        if _prime_piece(d, {}, budget):
            out[d] = out.get(d, 0) + 1
        else:
            g = _rho(d, budget)
            todo += [g, d // g]
    return out


@dataclass(frozen=True)
class GcdFreeBasis:
    """Pairwise coprime base elements."""

    base: tuple[int, ...]

    def __post_init__(self):
        for i, x in enumerate(self.base):
            if x < 2:
                raise ValueError(f"basis element {x} < 2")
            for y in self.base[i + 1 :]:
                if math.gcd(x, y) != 1:
                    raise ValueError(f"basis elements {x}, {y} share a factor")


def gcd_free_basis(nums: list[int] | tuple[int, ...]) -> GcdFreeBasis:
    """Pairwise-coprime basis covering every source >= 2 (0s and 1s contribute nothing).

    Pairwise refinement: while two elements x, y share g = gcd(x, y) > 1,
    replace them by {g, x/g, y/g} minus 1s. The element product strictly
    drops each round, so this terminates, and every source stays a product
    of powers of current elements throughout.

    Degenerate case: if no source is >= 2, the basis falls back to (2,) so a
    basis always exists (every representable number is then 1, exponent 0).
    """
    work = sorted({n for n in nums if n >= 2})
    done = False
    while not done:
        done = True
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                g = math.gcd(work[i], work[j])
                if g > 1:
                    x, y = work[i], work[j]
                    repl = {g, x // g, y // g} - {1}
                    work = sorted((set(work) - {x, y}) | repl)
                    done = False
                    break
            if not done:
                break
    if not work:
        work = [2]
    return GcdFreeBasis(base=tuple(work))


def divide_out(n: int, base: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(d, rest) with n == prod(base[i] ** d[i]) * rest and no base element
    dividing rest; n >= 1."""
    rest = n
    out = []
    for q in base:
        e = 0
        while rest % q == 0:
            rest //= q
            e += 1
        out.append(e)
    return tuple(out), rest


def exponents_over_basis(n: int, basis: GcdFreeBasis | tuple[int, ...]) -> tuple[int, ...]:
    """The exponent vector d with n == prod(base[i] ** d[i]); n >= 1.

    Raises NotRepresentable if a cofactor remains after dividing out every
    basis element.
    """
    if n < 1:
        raise ValueError(f"exponent decomposition needs n >= 1, got {n}")
    base = basis.base if isinstance(basis, GcdFreeBasis) else basis
    out, rest = divide_out(n, base)
    if rest != 1:
        raise NotRepresentable(f"{n} leaves cofactor {rest} over basis {base}")
    return out
