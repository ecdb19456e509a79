"""Number-theoretic helpers: factorization, primality, gcd-free bases, exponent vectors.

A gcd-free basis of a finite set of naturals is a set of pairwise coprime
numbers >= 2 such that every nonzero source number is a product of powers of
basis elements. The basis here is computed by pairwise gcd refinement; it is
not canonical (it need not consist of primes), but the exponent decomposition
over it is unique.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def factorize(n: int, max_trial: int = 10**6) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1 by bounded trial division.

    Raises BudgetExceeded if a cofactor survives all trial divisors up to
    max_trial and cannot be certified prime.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    rest = n
    d = 2
    while d <= max_trial and d * d <= rest:
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        if math.isqrt(rest) > max_trial:
            raise BudgetExceeded("factor", f"cofactor {rest} beyond trial bound {max_trial}")
        out[rest] = out.get(rest, 0) + 1
    return out


# Sorenson and Webster (Math. Comp. 2017): the first 13 primes as Miller-Rabin
# bases decide primality for every n below MR_BOUND.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


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
