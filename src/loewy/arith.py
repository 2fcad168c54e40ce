"""Exact integer arithmetic: the one resolver of the parameters (q, n, e, z)
and the decimal codec of e, multiplicative orders, cyclic powers and
subgroups of the unit group, factorization and the standard arithmetic
functions, cyclotomic values, and primality predicates.

Everything works on plain Python ints (arbitrary precision) and never touches
floating point.
"""

from __future__ import annotations

import re
from decimal import Decimal
from math import gcd, isqrt

from .errors import CapacityError, DomainError

# Trial division bound; beyond it only a prime cofactor is accepted.
_TRIAL_LIMIT = 10**7

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24 (in
# particular for every 64-bit input).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_GUARD = 1 << 64

# The most bits of q^n formed in full (q^n has at least n*(bit_length(q) - 1)
# of them).  e = (q^n - 1)/z is printed in decimal, which takes about 2 s at
# this size; the scans up to z = 10000 stay below 2^18 bits.
POWER_CAPACITY_BITS = 1 << 20

# The grammar int(text, 10) reads: Unicode digits in groups joined by single
# underscores, an optional sign, surrounding whitespace.
_DECIMAL_INT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def full_power(q: int, n: int) -> int:
    """q^n in full, for q >= 2 and n >= 1; refused (CapacityError) above
    POWER_CAPACITY_BITS bits, before it is formed."""
    if n * (q.bit_length() - 1) > POWER_CAPACITY_BITS:
        raise CapacityError(
            f"q^n has more than {POWER_CAPACITY_BITS} bits, the most this "
            "package forms in full"
        )
    return q**n


def resolve_z(q: int, n: int, *, e: int | None = None,
              z: int | None = None) -> int:
    """z = (q^n - 1)/e for A(q, n, e) = A[q, n, z], from e or z or both:
    the one check that the parameters are consistent.  z alone is tested
    with q^n = 1 mod z, without forming q^n; e alone is tested the same
    way before z = (q^n - 1)/e is formed.  e, z and q^n - 1 can be of any
    size, so no message prints them."""
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if e is None and z is None:
        raise DomainError("one of e, z is required")
    if e is not None and z is not None and z * e != full_power(q, n) - 1:
        raise DomainError(f"inconsistent: z*e is not q^n - 1 (q={q}, n={n})")
    if z is None:
        if e < 1 or pow(q, n, e) != 1 % e:
            raise DomainError(f"e does not divide q^n - 1 (q={q}, n={n})")
        return (full_power(q, n) - 1) // e
    if z < 1:
        raise DomainError("z must be >= 1")
    if pow(q, n, z) != 1 % z:
        raise DomainError(f"q^n is not 1 modulo z (q={q}, n={n})")
    return z


def format_decimal(x: int) -> str:
    """The decimal digits of x at any length; str(x) refuses beyond 4300."""
    return str(Decimal(x))


def parse_decimal(text: str) -> int:
    """The integer int(text, 10) reads, at any length."""
    if not _DECIMAL_INT.fullmatch(text):
        raise DomainError(f"not a decimal integer: {text!r}")
    return int(Decimal(text))


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**64 (Miller-Rabin)."""
    if n >= _PRIME_GUARD:
        raise CapacityError("primality test is deterministic only below 2^64")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division plus a
    deterministic primality test for the remaining cofactor.

    Cofactors that are composite with no factor below the trial bound are
    rejected (CapacityError); such inputs never occur in this package's
    domain (moduli and small e).
    """
    if n < 1:
        raise DomainError(f"factorization needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 5
    step = 2  # 5, 7, 11, 13, ... (wheel over 6k +/- 1)
    while p * p <= n and p <= _TRIAL_LIMIT:
        if n % p == 0:
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
            if n > 1 and is_prime(n):
                break
        p += step
        step = 6 - step
    if n > 1:
        if not is_prime(n):
            raise CapacityError(f"composite cofactor {n} beyond trial-division range")
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, k in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(k + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, k in factorize(n).items():
        phi *= p ** (k - 1) * (p - 1)
    return phi


def moebius(n: int) -> int:
    result = 1
    for _, k in factorize(n).items():
        if k > 1:
            return 0
        result = -result
    return result


def mult_order(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)^x; modulus = 1 gives 1."""
    if modulus < 1:
        raise DomainError(f"modulus must be >= 1, got {modulus}")
    a %= modulus
    if gcd(a, modulus) != 1:
        raise DomainError(f"{a} is not a unit modulo {modulus}")
    return order_dividing(a, modulus, euler_phi(modulus))


def cyclic_powers(a: int, modulus: int) -> list[int]:
    """[1, a, a^2, ...] modulo modulus, up to the first return to 1: the
    cyclic subgroup generated by a, in exponent order (length ord(a))."""
    if modulus < 1:
        raise DomainError(f"modulus must be >= 1, got {modulus}")
    if gcd(a, modulus) != 1:
        raise DomainError(f"{a} is not a unit modulo {modulus}")
    one = 1 % modulus
    powers = [one]
    r = a % modulus
    while r != one:
        powers.append(r)
        r = r * a % modulus
    return powers


def cyclic_subgroups(modulus: int) -> list[tuple[int, tuple[int, ...]]]:
    """(smallest generator, sorted elements) for every cyclic subgroup of
    (Z/modulus)^x, ordered by (order, generator).

    Units are swept in ascending order; each new subgroup marks all of its
    generators a^j with gcd(j, ord) = 1, so every unit still unmarked is the
    smallest generator of a subgroup not seen before.
    """
    if modulus < 1:
        raise DomainError(f"modulus must be >= 1, got {modulus}")
    marked = bytearray(modulus)
    groups = []
    for a in range(modulus):
        if marked[a] or gcd(a, modulus) != 1:
            continue
        powers = cyclic_powers(a, modulus)
        order = len(powers)
        for j, r in enumerate(powers):
            if gcd(j, order) == 1:
                marked[r] = 1
        groups.append((a, tuple(sorted(powers))))
    groups.sort(key=lambda group: (len(group[1]), group[0]))
    return groups


def order_dividing(a: int, modulus: int, n: int) -> int:
    """Order of a modulo modulus, given that it divides n.

    Avoids factoring the modulus, so it works for arbitrarily large moduli
    (the common case: modulus = e with a^n known to be 1 mod e).
    """
    if modulus < 1:
        raise DomainError(f"modulus must be >= 1, got {modulus}")
    if modulus == 1:
        return 1
    if pow(a, n, modulus) != 1:
        raise DomainError(f"order of {a} does not divide {n} modulo {modulus}")
    order = n
    for p in factorize(n):
        while order % p == 0 and pow(a, order // p, modulus) == 1:
            order //= p
    return order


def cyclotomic_value(d: int, q: int) -> int:
    """Value of the d-th cyclotomic polynomial at q, via the Moebius product
    over (q^c - 1)^mu(d/c) in exact arithmetic."""
    if d < 1:
        raise DomainError(f"cyclotomic index must be >= 1, got {d}")
    if q < 2:
        raise DomainError(f"cyclotomic argument must be >= 2, got {q}")
    num = 1
    den = 1
    for c in divisors(d):
        mu = moebius(d // c)
        if mu == 1:
            num *= q**c - 1
        elif mu == -1:
            den *= q**c - 1
    value, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"cyclotomic division not exact for d={d}, q={q}")
    return value


def is_pierpont_prime(p: int) -> bool:
    """True iff p is prime and p - 1 has no prime factor other than 2 and 3."""
    if p < 2 or not is_prime(p):
        return False
    n = p - 1
    for f in (2, 3):
        while n % f == 0:
            n //= f
    return n == 1


def iroot(n: int, k: int) -> int:
    """Integer k-th root: the largest r with r**k <= n (pure integer
    Newton iteration, safe for any magnitude)."""
    if n < 0 or k < 1:
        raise DomainError(f"iroot needs n >= 0, k >= 1, got n={n}, k={k}")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    if k >= n.bit_length():
        return 1
    r = 1 << (n.bit_length() // k + 1)  # upper seed
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def prime_power_base(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p**k and p prime, or None if n is not a prime power."""
    if n < 2:
        return None
    for k in range(n.bit_length(), 0, -1):
        r = iroot(n, k)
        if r**k == n:
            if r >= _PRIME_GUARD:
                raise CapacityError("prime-power test beyond 2^64")
            if is_prime(r):
                return r, k
            if k == 1:
                return None
    return None
