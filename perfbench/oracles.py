"""Exact computations made apart from the loewy package.

The benchmark checks the program's outputs against these.  They work on the
definitions: the base-q digits of k*e as plain Python integers, the carry
test digit by digit, m as the least digit sum over the multiples of e (and,
for large e, as the least number of powers of q summing to 0 mod e), and
the cyclic subgroups of (Z/z)^x counted from element orders.  Nothing here
imports loewy.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def digits(x: int, q: int, n: int) -> list[int]:
    """Base-q digits of x, least significant first, padded to length n."""
    out = []
    rest = x
    while rest:
        rest, r = divmod(rest, q)
        out.append(r)
    if len(out) > n:
        raise ValueError(f"{x} has more than {n} base-{q} digits")
    return out + [0] * (n - len(out))


def carry_free(a: list[int], b: list[int], q: int) -> bool:
    """True when adding the two digit vectors never carries."""
    return all(x + y < q for x, y in zip(a, b))


def cofactor(q: int, n: int, z: int) -> int:
    """e = (q^n - 1)/z; raises when z does not divide q^n - 1."""
    e, rem = divmod(q**n - 1, z)
    if rem:
        raise ValueError(f"z={z} does not divide {q}^{n} - 1")
    return e


def order(a: int, modulus: int) -> int:
    """Multiplicative order of a unit a modulo `modulus`: the least d >= 1
    with a^d = 1, searched over the divisors of the group order."""
    if modulus == 1:
        return 1
    units = totient(modulus)
    for d in _divisors(units):
        if pow(a, d, modulus) == 1:
            return d
    raise ValueError(f"{a} is not a unit modulo {modulus}")


def totient(modulus: int) -> int:
    return sum(1 for a in range(1, modulus + 1) if gcd(a, modulus) == 1)


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def cyclic_subgroup_count(z: int) -> int:
    """Number of cyclic subgroups of (Z/z)^x: each subgroup of order d has
    phi(d) generators, so it is the sum over d of #{units of order d}/phi(d)."""
    if z == 1:
        return 1
    by_order: dict[int, int] = {}
    for a in range(1, z):
        if gcd(a, z) == 1:
            d = order(a, z)
            by_order[d] = by_order.get(d, 0) + 1
    total = 0
    for d, count in by_order.items():
        generators = totient(d)
        if count % generators:
            raise AssertionError(f"units of order {d} mod {z} do not split into subgroups")
        total += count // generators
    return total


def subgroup(a: int, z: int) -> frozenset[int]:
    """The cyclic subgroup generated by a modulo z."""
    out = {1 % z}
    x = a % z
    while x not in out:
        out.add(x)
        x = x * a % z
    return frozenset(out)


def is_smallest_generator(a: int, z: int) -> bool:
    """True when no smaller residue generates the same cyclic subgroup as a;
    the generators of <a> are a^j with gcd(j, ord a) = 1."""
    d = order(a, z)
    return all(pow(a, j, z) >= a for j in range(1, d + 1) if gcd(j, d) == 1)


def digit_sum(x: int, q: int) -> int:
    total = 0
    while x:
        x, r = divmod(x, q)
        total += r
    return total


def m_digits(q: int, n: int, e: int) -> int:
    """Least base-q digit sum over the multiples k*e, 1 <= k <= (q^n-1)/e."""
    return min(digit_sum(k * e, q) for k in range(1, (q**n - 1) // e + 1))


def m_scan_size(q: int, e: int) -> int | None:
    """How many multiples of e `m_brute` scans for the pair (q, e), or None
    when it cannot (q = 0 or 1 modulo e)."""
    b = q % e
    if b < 2:
        return None
    return (b ** order(b, e) - 1) // e


def m_brute(q: int, e: int) -> int:
    """m(q, e) from its definition.  q^i mod e depends only on b = q mod e,
    so m is the least base-b digit sum over the multiples of e below b^n,
    n = ord_e(b); the caller keeps `m_scan_size` small."""
    b = q % e
    return m_digits(b, order(b, e), e)


def m_reach(q: int, e: int) -> int:
    """m(q, e) as the least number t >= 1 of powers q^i mod e, repeats
    allowed, that sum to 0 mod e: a breadth-first search whose layers are
    the sets of residues reachable with t powers, held as e-bit integers and
    grown by OR-ing their rotations by each power.  This equals the least
    digit sum over the multiples of e, since q copies of q^i can be traded
    for one q^(i+1), and it needs no scan of the multiples."""
    full = (1 << e) - 1
    powers = sorted(subgroup(q, e))
    reach = 1  # the empty sum, residue 0
    for t in range(1, e + 1):
        grown = 0
        for p in powers:
            grown |= (reach << p) | (reach >> (e - p))
        reach = grown & full
        if reach & 1:
            return t
    raise AssertionError(f"no sum of powers of {q} reaches 0 mod {e}")


def digit_matrix(q: int, n: int, z: int) -> np.ndarray:
    """Row k holds the base-q digits of k*e for k = 0..z (exact expansion;
    every digit is below q, so int64 holds them)."""
    e = cofactor(q, n, z)
    return np.array([digits(k * e, q, n) for k in range(z + 1)], dtype=np.int64)


def carry_table(q: int, n: int, z: int) -> np.ndarray:
    """Boolean matrix over 1 <= k, l <= z-1: True where the digit vectors of
    k*e and l*e add without a carry, i.e. where b_k * b_l is nonzero."""
    d = digit_matrix(q, n, z)[1:z]
    if len(d) == 0:
        return np.zeros((0, 0), dtype=bool)
    peak = np.zeros((len(d), len(d)), dtype=np.int64)
    for column in d.T:
        np.maximum(peak, np.add.outer(column, column), out=peak)
    return peak < q


def loewy_brute(q: int, n: int, z: int) -> tuple[tuple[int, ...], int]:
    """(Loewy vector, m) of A[q, n, z] by the unrestricted DP over all splits
    k = i + j with a carry-free digit sum: lam[k] = max(1, lam[i] + lam[j])."""
    d = digit_matrix(q, n, z).tolist()
    lam = [0] * (z + 1)
    for k in range(1, z + 1):
        best = 1
        for i in range(1, k // 2 + 1):
            j = k - i
            if lam[i] + lam[j] > best and carry_free(d[i], d[j], q):
                best = lam[i] + lam[j]
        lam[k] = best
    top = lam[z]
    vector = (1,) + tuple(sum(1 for v in lam[1:] if v == t) for t in range(1, top + 1))
    m = min(sum(row) for row in d[1:])
    return vector, m
