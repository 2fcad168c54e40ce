"""The function m(q, e): the least number of powers of q whose sum is
divisible by e.

Two independent general algorithms are provided (bitset layer BFS on Z/e,
and the residue-sum formula working entirely modulo z), plus a catalogue of
closed-form fast paths and the classification of the pairs with m >= e/3.
The general algorithms serve as oracles for one another and for every
closed form; the tests add a third, a digit-sum scan over the multiples of
e in full-width integers.  The residue-sum kernel, `degrees_and_orbit_min`,
also gives `Algebra` the degrees of its basis monomials and the orbit
minima of k -> kq mod z: it finds the minima by pointer doubling on that
permutation, in ceil(log2(min(n, z))) passes over z-length arrays (n =
ord_z(q) on a scan key), and each orbit's sum of residues and length by
scatter-adds keyed by its minimum, never forming the z*ord_z(q) cells; the
orbit of 1 gives ord_z(q) itself.  A batch of (q, n, z) runs as one, every
row through the same passes, with the index ranges end to end in one set
of arrays; the degrees and orbit minima come back as two flat arrays in
that layout, so a scan batch costs one call instead of one per key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from .arith import (
    cyclic_powers,
    cyclic_subgroups,
    divisors,
    euler_phi,
    format_decimal,
    is_pierpont_prime,
    is_prime,
    mult_order,
    prime_power_base,
    resolve_z,
)
from .errors import CapacityError, DomainError

# The largest e the grouping tables take: they compute m(q, e) once per
# nontrivial cyclic subgroup modulo e, each a search over Z/e.  Either
# grouping took 2.4 s at e = 65521, on 2 CPUs.
GROUPS_CAPACITY = 1 << 16
# The most exponents a witness multiset of m terms may hold.
WITNESS_CAPACITY = 1 << 24
# Degrees reach n(q-1); up to this bound a sum of two stays in int64.
_DEGREE_CAPACITY = 1 << 62
# Algebra and m_via_z refuse a z whose z + 1 basis indices, at
# _BYTES_PER_INDEX each, exceed this budget.
INDEX_CAPACITY_BYTES = 1 << 31
# The most int64 arrays of length z + 1 alive at once, counted in bytes.
# The degree kernel holds four for a batch of one: the indices within the
# row, window minima (the orbit minima), jumps pi^L(k) and a gather buffer;
# the last two then take the orbit sums and lengths, and one becomes the
# degrees.  A batch of several rows adds its row offsets over the cells and
# one per-row value over the cells at a time, six in all.
# The chain certificate holds four besides bool masks: degrees, orbit
# minima, the chain pointers and their out= buffer.  The layers come after
# it, and the Loewy vector's counts, list and tuple take three more when
# every index has its own layer, as when q = 1 mod z; the certificate
# settles every index then, so no DP runs.  The Loewy DP, on the cells the
# certificate leaves open, holds five while it sorts them: degrees, orbit
# minima, layers, the sort key (levels, the certified cells last) and its
# argsort order, besides the certificate's bool mask; the key goes before
# the first level.  Then come the positions of the irreducibles found so
# far, the cells of one level, and one chunk of (orbit minimum,
# irreducible) pairs: at most a quarter as many pairs as cells, each
# holding about five int64 temporaries, so about 10 bytes per index.  A
# batch of several rows also holds its orbit minima as cells of the batch,
# one more array, through the certificate and the DP.  A finished profile
# keeps its layers and Loewy vector; it reads its irreducibles off the
# layers on first use, so an algebra irreducible at most indices, such as
# A(7, 9090, 200002), stays within the budget: 40 bytes per index measured.
_BYTES_PER_INDEX = 56
# The largest z under the budget.  It keeps z^2 < 2^63, so the products
# k*q and the sums of nu < z residues below z stay in int64.
INDEX_CAPACITY = INDEX_CAPACITY_BYTES // _BYTES_PER_INDEX - 1
# The BFS's bytes per residue of Z/e when q generates (Z/e)^x, its worst
# case: the powers of q as ints and as int64, the int32 layers, one layer's
# bits unpacked.  tracemalloc measured 68.1 to 68.5 at e = 10^4 to 2*10^5.
_BYTES_PER_RESIDUE = 72
BFS_CAPACITY = INDEX_CAPACITY_BYTES // _BYTES_PER_RESIDUE
# The BFS's work budget: growing a layer counts (ord_e(q) + 1) * e units,
# its rotations and its mask of an e-bit int.  On 2 vCPUs, q = 2, e = 200003
# (4.0e10 units) took 5.5 s and q = 100004, e = 700021 (2.8e11) 48.7 s.
BFS_WORK_CAPACITY = 1 << 40
# The grid CSV's bytes per cell, counting the header row and the q column:
# the (q, e) keys and values of the grid, the rows' strings and the joined
# text.  tracemalloc measured 65.6 to 170.8, the most for 20-digit q and no
# e column, where each row is one q cell.
_BYTES_PER_CELL = 176
GRID_CAPACITY = INDEX_CAPACITY_BYTES // _BYTES_PER_CELL


@dataclass(frozen=True)
class MResult:
    """Value of m(q, e) with provenance.

    witness, when present, is a sorted multiset of exponents i with
    sum(q**i) divisible by e and exactly m terms.  k_min records the
    multiple of e attaining the minimal digit sum, for the scanning methods;
    `m_via_z` leaves witness to `residue_witness`.
    """

    m: int
    method: str
    witness: tuple[int, ...] | None = None
    k_min: int | None = None
    rule_id: str | None = None


@dataclass(frozen=True)
class LargeMCase:
    """Classification of pairs with m(q, e) >= e/3: one of four shapes
    (halving family, two thirds families, or a finite residue table), or
    none."""

    case_id: str  # "I", "II", "III", "IV" or "none"
    certified_m: int | None = None


# (q mod e, e) -> m for the finitely many sporadic pairs with m >= e/3.
_LARGE_M_TABLE = {
    (2, 3): 2, (2, 5): 2, (2, 7): 3,
    (3, 5): 2, (3, 8): 4,
    (4, 5): 2, (4, 7): 3, (4, 15): 6,
    (5, 24): 8,
}


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {format_decimal(value)}")


def _require_coprime(q: int, e: int) -> None:
    _require_positive("e", e)
    _require_positive("q", q)
    if gcd(q, e) != 1:
        raise DomainError(f"q and e must be coprime, got q={format_decimal(q)}, "
                          f"e={format_decimal(e)}")


def m_bfs(q: int, e: int) -> MResult:
    """Breadth-first layer search on Z/e.  Layer t, the residues first
    reached by a sum of t powers of q, is an e-bit integer grown by OR-ing
    the previous layer rotated by each power; m is the layer that reaches 0.
    Every residue's layer goes into one int32 array, and the witness walks
    back from 0, each step to the smallest residue of the layer before."""
    _require_coprime(q, e)
    if e > BFS_CAPACITY:
        raise CapacityError(
            f"e={format_decimal(e)} exceeds {BFS_CAPACITY}, the largest e whose BFS "
            f"fits {INDEX_CAPACITY_BYTES} bytes; use the residue method with (q, n, z)"
        )
    if e == 1:
        return MResult(m=1, method="bfs", witness=(0,))
    powers = cyclic_powers(q, e)
    dist = np.zeros(e, dtype=np.int32)  # 0: not reached yet
    unseen = (1 << e) - 1
    layer = sum(1 << s for s in powers)
    t = 1
    while True:
        raw = np.frombuffer(layer.to_bytes((e + 7) // 8, "little"), dtype=np.uint8)
        dist[np.unpackbits(raw, count=e, bitorder="little").view(bool)] = t
        unseen ^= layer
        if not unseen & 1:
            break
        if t * (len(powers) + 1) * e > BFS_WORK_CAPACITY:  # the work of t grown layers
            raise CapacityError(f"the BFS of e={format_decimal(e)} needs more than "
                                f"{BFS_WORK_CAPACITY} units of work; use the residue "
                                "method with (q, n, z)")
        grown = 0
        for s in powers:
            grown |= (layer << s) | (layer >> (e - s))
        layer = grown & unseen
        if not layer:
            raise AssertionError(f"BFS stalled before reaching 0 (q={q}, e={e})")
        t += 1
    pw = np.array(powers, dtype=np.int64)
    out = []
    v = 0
    for step in range(t - 1, 0, -1):  # v's predecessor lies in layer step
        prev = (v - pw) % e
        prev[dist[prev] != step] = e
        i = int(prev.argmin())
        out.append(i)
        v = int(prev[i])
    out.append(powers.index(v))
    return MResult(m=t, method="bfs", witness=tuple(sorted(out)))


def require_index_capacity(q: int, n: int, z: int) -> None:
    """Refuse, before any z-sized allocation, a z above INDEX_CAPACITY and a
    top degree n(q-1) above which a sum of two degrees overflows int64.
    Neither message prints z or n(q-1): both can be of any size."""
    if z > INDEX_CAPACITY:
        raise CapacityError(
            f"z exceeds {INDEX_CAPACITY}, the most basis indices whose "
            f"{_BYTES_PER_INDEX}-byte per-index arrays fit the capacity of "
            f"{INDEX_CAPACITY_BYTES} bytes"
        )
    if n * (q - 1) > _DEGREE_CAPACITY:
        raise CapacityError(
            f"the top degree n(q-1) exceeds {_DEGREE_CAPACITY}, above which "
            "a sum of two degrees overflows int64"
        )


def per_cell(values, sizes):
    """One value per row of rows laid end to end: the value itself for a
    single row, else an int64 array that repeats each row's value over its
    cells."""
    if len(sizes) == 1:
        return values[0]
    return np.repeat(np.array(values, dtype=np.int64), sizes)


def degrees_and_orbit_min(params) -> tuple[np.ndarray, np.ndarray]:
    """(degrees, orbit_min) as flat int64 arrays for a nonempty batch of
    (q, n, z) that passed `require_index_capacity`: the rows lie end to
    end, row r over 0 <= k <= z from offset o_r = the sum of z + 1 over the
    rows before it, and orbit_min holds indices within the row.

    degrees[k] is the digit sum of k*e, e = (q^n - 1)/z, and orbit_min[k]
    the smallest index of the orbit of k under pi(k) = kq mod z, with z a
    fixed point of pi.  Over nu = ord_z(q) steps of pi, which cover the
    orbit, S_k = sum_{i < nu} pi^i(k) gives degrees[k] =
    (q-1)(n/nu) S_k / z, so e itself is never formed.

    One array pi maps o_r + k to o_r + kq mod z for every row at once.
    Minima over windows of L steps of pi double by pointer doubling: a
    window takes the minimum with itself read at jump[k] = pi^L(k), and
    jump doubles by reading itself.  As nu divides n and nu <= z, after
    ceil(log2(max min(n, z))) passes every window covers its orbit,
    whatever the row's nu, since a minimum taken twice is the same; on a
    scan key n = nu, so that is ceil(log2(max nu)).  Each orbit's sum and
    length then come by exact int64 scatter-adds keyed by its minimum.  nu
    is the length of the orbit of index 1, whose minimum is 1, so no order
    is computed, and S_k is nu / length times the orbit sum."""
    sizes = [z + 1 for _, _, z in params]
    offsets = [0, *accumulate(sizes)]
    off = per_cell(offsets[:-1], sizes)
    local = np.arange(offsets[-1], dtype=np.int64)
    local -= off
    jump = local * per_cell([q % z for q, _, z in params], sizes)
    jump %= per_cell([z for _, _, z in params], sizes)
    jump += off
    ends = [hi - 1 for hi in offsets[1:]]
    jump[ends] = ends
    # the orbit minima as cells of the batch
    mins = local + off
    buf = np.empty_like(mins)
    # every index is in range; mode="clip" lets np.take write into buf
    # directly, where the default mode goes through a buffer
    for done in range((max(min(n, z) for _, n, z in params) - 1).bit_length()):
        if done:
            np.take(jump, jump, out=buf, mode="clip")
            jump, buf = buf, jump
        np.take(mins, jump, out=buf, mode="clip")
        np.minimum(mins, buf, out=mins)
    # each orbit's sum and length at its minimum, in the two buffers
    orbit_sum, orbit_len = jump, buf
    orbit_sum.fill(0)
    np.add.at(orbit_sum, mins, local)
    orbit_len.fill(0)
    np.add.at(orbit_len, mins, 1)
    nus = orbit_len[np.add(offsets[:-1], 1)].tolist()
    # S_k = (nu / length) * orbit sum at every index, over arrays now free
    ratio = np.take(orbit_len, mins, out=local, mode="clip")
    np.floor_divide(per_cell(nus, sizes), ratio, out=ratio)
    sums = np.take(orbit_sum, mins, out=orbit_len, mode="clip")
    sums *= ratio
    buf = orbit_sum
    mins -= off
    del local, ratio, off
    scale, divisor = [], []
    for (q, n, z), nu in zip(params, nus):
        g = gcd(q - 1, z)
        scale.append((n // nu) * ((q - 1) // g))
        divisor.append(z // g)
    divisor = per_cell(divisor, sizes)
    np.remainder(sums, divisor, out=buf)
    if buf.any():
        raise AssertionError("digit-sum formula did not divide evenly")
    sums //= divisor
    sums *= per_cell(scale, sizes)
    return sums, mins


def m_via_z(q: int, n: int, z: int) -> MResult:
    """m from residues modulo z alone: the least degree over 1 <= k <= z
    from `degrees_and_orbit_min`, so e itself is never formed, within the
    capacity `require_index_capacity` states.  k_min is the smallest
    minimizing k; only z*e = q^n - 1 has all digits q - 1, so k_min = z
    only when z = 1.  `residue_witness` expands k_min into exponents on
    request."""
    resolve_z(q, n, z=z)
    require_index_capacity(q, n, z)
    degrees, _ = degrees_and_orbit_min([(q, n, z)])
    k = int(degrees[1:].argmin()) + 1
    return MResult(m=int(degrees[k]), method="residue_formula", k_min=k)


def residue_witness(q: int, n: int, z: int, result: MResult) -> tuple[int, ...]:
    """Expand `m_via_z`'s k_min into its witness: the exponents i in
    ascending order, each repeated as often as the base-q digit of q^i in
    k_min*e, so that the m powers q^i sum to k_min*e.  m is checked against
    WITNESS_CAPACITY before any digit is expanded."""
    if result.m > WITNESS_CAPACITY:
        raise CapacityError(
            f"a witness of m={result.m} exponents exceeds the capacity of "
            f"{WITNESS_CAPACITY}"
        )
    digits = exponent_digits(q, n, z, result.k_min)
    return tuple(i for i, d in enumerate(digits) for _ in range(d))


def exponent_digits(q: int, n: int, z: int, k: int) -> list[int]:
    """Base-q digits of k*e (LSB first, length n), where e = (q^n - 1)/z,
    computed without forming k*e: the digit of q^(i-1) is
    floor((k*q^(n-i) mod z) * q / z)."""
    if not 0 <= k <= z:
        raise DomainError(f"k must lie in 0..z, got k={k}, z={z}")
    if k == z:  # z*e = q^n - 1 has the all-maximal expansion
        return [q - 1] * n
    if z == 1:
        return [0] * n
    digits = []
    for i in range(1, n + 1):  # i = 1 yields the q^0 digit
        c = k * pow(q, n - i, z) % z
        digits.append(c * q // z)
    return digits


def m_value(q: int, e: int) -> MResult:
    """Dispatch: closed form when one applies, otherwise BFS."""
    closed = m_closed_form(q, e)
    if closed is not None:
        return closed
    return m_bfs(q, e)


# ---------------------------------------------------------------------------
# Closed forms.  Rules run in a fixed order, most specific first; every rule
# whose hypothesis holds is computed and all firing rules must agree -- a
# disagreement is an implementation bug, never resolved silently.  The rules
# are checks on one set of facts about (q, e), computed once per query and
# kept by none.
# ---------------------------------------------------------------------------

class ClosedFormFacts(NamedTuple):
    """The number theory the closed forms share for one query (q, e).

    base is (p, k) with e = p^k, and half_base is (p, k) with e = 2p^k for
    an odd prime p; either is None otherwise, and also beyond 2^64, where
    the primality test is not deterministic, so that the rules that need
    it decline.  order = ord_e(q) and phi = phi(e) are there only when a
    rule reads them: order when e or e/2 is an odd prime power, phi when e
    is one.  Nothing keeps the facts past the query.
    """

    q: int
    e: int
    base: tuple[int, int] | None
    half_base: tuple[int, int] | None
    order: int | None
    phi: int | None


def _prime_power_or_none(n):
    if not 2 <= n < 1 << 64:
        return None
    return prime_power_base(n)


def closed_form_facts(q: int, e: int) -> ClosedFormFacts:
    """The facts of (q, e) from one prime-power test and at most one order.
    When e = 2 mod 4, e is a prime power only at e = 2 and e/2 is odd, so
    e/2 is tested then and e in every other case."""
    if e % 4 == 2:
        base = (2, 1) if e == 2 else None
        half_base = _prime_power_or_none(e // 2)
    else:
        base = _prime_power_or_none(e)
        half_base = None
    order = phi = None
    if base is not None and base[0] != 2:
        p, k = base
        phi = p ** (k - 1) * (p - 1)
        order = mult_order(q % e, e)
    elif half_base is not None:
        order = mult_order(q % e, e)
    return ClosedFormFacts(q, e, base, half_base, order, phi)


def _odd_base(f):
    """(p, k) when e = p^k for an odd prime p, else None."""
    return f.base if f.base is not None and f.base[0] != 2 else None


def _strip(order, p):
    """order with every factor p removed."""
    while order % p == 0:
        order //= p
    return order


def _cf_trivial(f):
    if f.e == 1:
        return 1
    if f.q % f.e == 1:
        return f.e
    return None


def _cf_q_congruent_minus_one(f):
    # q = -1 but not 1 modulo e forces m = 2 via e | q + 1.
    if f.e > 2 and (f.q + 1) % f.e == 0:
        return 2
    return None


def _cf_two_power(f):
    q, e = f.q, f.e
    if f.base is None or f.base[0] != 2 or f.base[1] < 3 or q % 2 == 0:
        return None
    if q % 4 == 1:
        return gcd(e, q - 1)
    if (q + 1) % e == 0:
        return 2
    return 4


def _cf_eleven_power(f):
    if f.base is None or f.base[0] != 11:
        return None
    if f.order % 2 == 0:
        return 2
    if _strip(f.order, 11) == 1:
        return gcd(f.e, f.q - 1)
    if f.order == 5 * 11 ** (f.base[1] - 1):
        return 3
    return 5


def _cf_pierpont_power(f):
    pp = _odd_base(f)
    if pp is None or not is_pierpont_prime(pp[0]):
        return None
    if _strip(f.order, pp[0]) == 1:
        return gcd(f.e, f.q - 1)
    if f.order % 2 == 0:
        return 2
    return 3


def _cf_odd_prime_power_unipotent(f):
    pp = _odd_base(f)
    if pp is not None and f.q % pp[0] == 1:
        return gcd(f.e, f.q - 1)
    return None


def _cf_hensel_lift(f):
    # Odd prime power e = p^k, k >= 2, with ord_e(q) = phi(e)/d for a
    # divisor d of p-1: m is unchanged when e is replaced by p.
    pp = _odd_base(f)
    if pp is None or pp[1] < 2 or f.phi % f.order:
        return None
    p = pp[0]
    if (p - 1) % (f.phi // f.order):
        return None
    return m_bfs(f.q % p, p).m


def _cf_squares_odd_prime_power(f):
    pp = _odd_base(f)
    if pp is None or f.order * 2 != f.phi:
        return None
    return 2 if pp[0] % 4 == 1 else 3


def _cf_order_two(f):
    q, e = f.q, f.e
    if (q * q - 1) % e:
        return None
    e1 = gcd(e, q - 1)
    e2 = gcd(e, q + 1)
    if e1 >= e2 or (e % 2 == 0 and ((q * q - 1) // e) % 2 == 0):
        return e1
    return 2 * e1


def _cf_twice_odd_prime_power(f):
    if f.half_base is None or _strip(f.order, f.half_base[0]) != 1:
        return None
    return gcd(f.e, f.q - 1)


_CLOSED_FORM_RULES = (
    ("trivial", _cf_trivial),
    ("q_congruent_minus_one", _cf_q_congruent_minus_one),
    ("two_power", _cf_two_power),
    ("eleven_power", _cf_eleven_power),
    ("pierpont_power", _cf_pierpont_power),
    ("odd_prime_power_unipotent", _cf_odd_prime_power_unipotent),
    ("hensel_lift", _cf_hensel_lift),
    ("squares_odd_prime_power", _cf_squares_odd_prime_power),
    ("order_two", _cf_order_two),
    ("twice_odd_prime_power", _cf_twice_odd_prime_power),
)


def m_closed_form(q: int, e: int) -> MResult | None:
    """First applicable closed form, with an agreement assertion across all
    rules that fire."""
    _require_coprime(q, e)
    facts = closed_form_facts(q, e)
    hits = []
    for rule_id, rule in _CLOSED_FORM_RULES:
        value = rule(facts)
        if value is not None:
            hits.append((rule_id, value))
    if not hits:
        return None
    values = {value for _, value in hits}
    if len(values) != 1:
        raise AssertionError(f"closed forms disagree for q={q}, e={e}: {hits}")
    rule_id, value = hits[0]
    return MResult(m=value, method="closed_form", rule_id=rule_id)


def classify_large_m(q: int, e: int) -> LargeMCase:
    """Decide whether m(q, e) >= e/3 and certify the value when it is.

    The sporadic residue table is consulted first: for e = 3 the two-thirds
    family hypothesis also matches but its certified value lives in the
    table.
    """
    _require_coprime(q, e)
    if q % e == 1 % e:
        raise DomainError(f"q must not be 1 modulo e (q={q}, e={e})")
    b = q % e
    if (b, e) in _LARGE_M_TABLE:
        return LargeMCase("IV", _LARGE_M_TABLE[(b, e)])
    if q >= 3 and q % 2 == 1 and (2 * q - 2) % e == 0:
        k = (2 * q - 2) // e
        if k % 2 == 1 and (q - 1) % k == 0:
            return LargeMCase("I", e // 2)
    if q % 3 and (3 * q - 3) % e == 0:
        k = (3 * q - 3) // e
        if (q - 1) % k == 0:
            if k % 3 == 1 and q >= 4:
                return LargeMCase("II", e // 3)
            if k % 3 == 2 and q >= 5:
                return LargeMCase("III", e // 3)
    return LargeMCase("none")


def m_functional_equation(q: int, n: int, n_prime: int, e_prime: int) -> int:
    """m for e = e' * (q^n - 1)/(q^n' - 1), as (n/n') * m(q, e')."""
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    if n_prime < 1 or n % n_prime:
        raise DomainError(f"n'={n_prime} must divide n={n}")
    if e_prime < 1 or (q**n_prime - 1) % e_prime:
        raise DomainError(f"e'={e_prime} must divide q^n' - 1")
    return (n // n_prime) * m_value(q, e_prime).m


# ---------------------------------------------------------------------------
# Finite candidate lists: divisors e of the n-th cyclotomic value (n prime)
# admitting m(q, e) = m < n.
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        coeff = a[-1] / b[-1]
        shift = len(a) - len(b)
        quot[shift] = coeff
        for i, bc in enumerate(b):
            a[shift + i] -= coeff * bc
        _poly_trim(a)
    return quot, a


def _poly_sub_mul(u0, u1, q):
    """u0 - q*u1 for coefficient lists (LSB first)."""
    out = list(u0) + [Fraction(0)] * max(0, len(q) + len(u1) - 1 - len(u0))
    for i, qc in enumerate(q):
        if qc == 0:
            continue
        for j, uc in enumerate(u1):
            out[i + j] -= qc * uc
    return _poly_trim(out)


def _poly_bezout_constant(f, g):
    """For coprime f, g over Q: the denominator-clearing constant d such
    that d*a(X), d*b(X) are integral in a(X)f + b(X)g = 1."""
    r0, r1 = _poly_trim(list(f)), _poly_trim(list(g))
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        quot, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub_mul(s0, s1, quot)
        t0, t1 = t1, _poly_sub_mul(t0, t1, quot)
    if len(r0) != 1:
        raise AssertionError("polynomials were not coprime")
    c = r0[0]
    d = 1
    for x in s0 + t0:
        d = lcm(d, (x / c).denominator)
    return d


def small_e_candidates(n: int, m_max: int, *, keep_unfiltered: bool = False):
    """For prime n: which e with e | Phi_n(q) can have m(q, e) = m < n.

    Enumerates exponent tuples 0 = i_1 <= ... <= i_m <= n-2, clears the
    Bezout identity of 1 + X + ... + X^(n-1) and X^{i_1} + ... + X^{i_m} to
    an integer d, and keeps the divisors e of d that survive the parity /
    3-divisibility / phi-divisibility filters; finally each e stays listed
    under m only if some unit q of order n modulo e has m(q, e) = m.
    """
    if not is_prime(n):
        raise DomainError(f"n must be prime, got {n}")
    if not 1 <= m_max < n:
        raise DomainError(f"m_max must satisfy 1 <= m_max < n, got {m_max}")
    phi_n = [Fraction(1)] * n  # 1 + X + ... + X^(n-1)

    def tuples(m):
        def rec(prefix, lo):
            if len(prefix) == m:
                yield tuple(prefix)
                return
            for i in range(lo, n - 1):
                yield from rec(prefix + [i], i)
        yield from rec([0], 0)

    candidates: dict[int, set[int]] = {m: set() for m in range(1, m_max + 1)}
    for m in range(1, m_max + 1):
        for tup in tuples(m):
            g = [Fraction(0)] * (max(tup) + 1)
            for i in tup:
                g[i] += 1
            d = _poly_bezout_constant(phi_n, g)
            for e in divisors(d):
                if e == 1:
                    continue
                if n % 2 and e % 2 == 0:
                    continue
                if n % 3 and e % 3 == 0:
                    continue
                if euler_phi(e) % n:
                    continue
                candidates[m].add(e)
    if keep_unfiltered:
        return candidates
    result: dict[int, set[int]] = {}
    for m, es in candidates.items():
        kept = {e for e in es if _m_achievable(e, n, m)}
        if kept:
            result[m] = kept
    return result


def _m_achievable(e: int, n: int, m: int) -> bool:
    """Is there a unit q of order n modulo e with m(q, e) = m?  (m is
    constant on cyclic subgroups, so one generator of each suffices.)"""
    return any(len(sub) == n and m_bfs(q, e).m == m
               for q, sub in cyclic_subgroups(e))


# ---------------------------------------------------------------------------
# Tables.
# ---------------------------------------------------------------------------

def _require_grid_capacity(q_range, e_range) -> None:
    # len() of a range costs nothing, so a huge span is refused before any
    # list is built; the count is not printed, it can be of any size.
    if (len(q_range) + 1) * (len(e_range) + 1) > GRID_CAPACITY:
        raise CapacityError(
            f"the grid has more than {GRID_CAPACITY} cells, the most whose "
            f"{_BYTES_PER_CELL} bytes each fit {INDEX_CAPACITY_BYTES} bytes"
        )


def m_grid(q_range, e_range) -> dict[tuple[int, int], int]:
    """m(q, e) over a rectangle of two ranges (or lists), only where
    gcd(q, e) = 1."""
    _require_grid_capacity(q_range, e_range)
    q_range, e_range = list(q_range), list(e_range)
    _require_positive("q", min(q_range, default=1))
    _require_positive("e", min(e_range, default=1))
    grid = {}
    for q in q_range:
        for e in e_range:
            if gcd(q, e) == 1:
                grid[(q, e)] = m_value(q, e).m
    return grid


def render_m_grid_csv(q_range, e_range) -> str:
    """Grid as CSV: header row of e values, one row per q, empty cell when
    gcd(q, e) != 1."""
    grid = m_grid(q_range, e_range)
    lines = ["q," + ",".join(str(e) for e in e_range)]
    for q in q_range:
        cells = [str(grid[(q, e)]) if (q, e) in grid else "" for e in e_range]
        lines.append(f"{q}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _require_groups_capacity(e: int) -> None:
    _require_positive("e", e)
    if e > GROUPS_CAPACITY:
        raise CapacityError(
            f"e={format_decimal(e)} exceeds {GROUPS_CAPACITY}, the largest e "
            "the grouping tables take"
        )


def m_groups_by_residue(e: int) -> dict[int, list[int]]:
    """m -> all residues q != 1 modulo e with that value, ascending.  Each
    such unit generates one nontrivial cyclic subgroup, on which m is
    constant, so m is computed once per subgroup and given to its
    generators a^j, gcd(j, ord a) = 1."""
    _require_groups_capacity(e)
    groups: dict[int, list[int]] = {}
    for a, sub in cyclic_subgroups(e):
        if len(sub) > 1:
            powers = cyclic_powers(a, e)
            groups.setdefault(m_value(a, e).m, []).extend(
                r for j, r in enumerate(powers) if gcd(j, len(sub)) == 1)
    return {m: sorted(v) for m, v in sorted(groups.items())}


def m_groups_by_generator(e: int) -> dict[int, list[int]]:
    """m -> smallest generators of the nontrivial cyclic subgroups of
    (Z/e)^x, grouped by the (subgroup-invariant) value of m."""
    _require_groups_capacity(e)
    groups: dict[int, list[int]] = {}
    for q, sub in cyclic_subgroups(e):
        if len(sub) > 1:
            groups.setdefault(m_value(q, e).m, []).append(q)
    return {m: sorted(v) for m, v in sorted(groups.items())}


def render_m_groups(e_range, *, by: str = "residues") -> str:
    """One line per e: 'e; m1: {q...}; m2: {q...}' with groups ascending."""
    if by not in ("residues", "generators"):
        raise DomainError(f"unknown grouping {by!r}")
    fn = m_groups_by_residue if by == "residues" else m_groups_by_generator
    # Refuse before the first row: the check stops at the first e out of
    # range, after at most GROUPS_CAPACITY steps however long the range.
    for e in e_range:
        _require_groups_capacity(e)
    lines = []
    for e in e_range:
        groups = fn(e)
        parts = [
            f"{m}: {{{', '.join(str(q) for q in qs)}}}" for m, qs in groups.items()
        ]
        lines.append(f"{e}; " + "; ".join(parts))
    return "\n".join(lines) + "\n"

