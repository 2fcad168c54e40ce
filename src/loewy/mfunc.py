"""The function m(q, e): the least number of powers of q whose sum is
divisible by e.

Two independent general algorithms are provided (bitset layer BFS on Z/e,
and the residue-sum formula working entirely modulo z), plus a catalogue of
closed-form fast paths and the classification of the pairs with m >= e/3.
The general algorithms serve as oracles for one another and for every
closed form; the tests add a third, a digit-sum scan over the multiples of
e in full-width integers.  The residue-sum kernel, `degrees_and_orbit_min`,
also gives `Algebra` the degrees of its basis monomials and the orbit
minima of k -> kq mod z: it sums and minimizes k*q^i mod z over i < ord_z(q)
by pointer doubling on that permutation, in log2(ord_z(q)) passes over
z-length arrays, never forming the z*ord_z(q) cells.  It takes a batch of
(q, n, z) and runs them as one: their index ranges lie end to end in one
set of arrays (sums, minima, jumps, the permutation, a gather buffer and
the row offsets), and each row follows the digits of its own order through
a per-cell mask, so a scan batch costs one call instead of one per key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

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

BFS_CAPACITY = 1 << 31
# The most exponents a witness multiset of m terms may hold.
WITNESS_CAPACITY = 1 << 24
# Degrees reach n(q-1); up to this bound a sum of two stays in int64.
_DEGREE_CAPACITY = 1 << 62
# Algebra and m_via_z refuse a z whose z + 1 basis indices, at
# _BYTES_PER_INDEX each, exceed this budget.
INDEX_CAPACITY_BYTES = 1 << 31
# The most int64 arrays of length z + 1 alive at once, counted in bytes.
# The degree kernel holds five for a batch of one: window sums (which
# become the degrees), window minima (the orbit minima), jumps pi^L(k), pi
# itself and one gather buffer.  A batch of several rows adds per-cell
# arrays over its concatenated indices: the row offsets for the whole run,
# and while it starts the indices and their values within the row, seven
# in all; its per-pass masks are bool.
# The Loewy DP holds seven at its peak: degrees, orbit minima, layers, the
# argsort order of the minima, the minima in that order, and np.diff's
# output and padded input, while it finds where the minima change.  Its
# Python lists of orbit minima come on top, about 125 bytes per orbit,
# which is per index only when q = 1 mod z.
_BYTES_PER_INDEX = 56
# The largest z under the budget.  It keeps z^2 < 2^63, so the products
# k*q and the sums of nu < z residues below z stay in int64.
INDEX_CAPACITY = INDEX_CAPACITY_BYTES // _BYTES_PER_INDEX - 1


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
            f"e={format_decimal(e)} exceeds the BFS table capacity {BFS_CAPACITY}; "
            "use the residue method with (q, n, z)"
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


def _cells_with_digit(nus, sizes, bit):
    """True when every nu has the given binary digit set, False when none
    has, and otherwise a mask over the cells of the rows whose nu has."""
    have = [nu >> bit & 1 for nu in nus]
    if all(have):
        return True
    if not any(have):
        return False
    return np.repeat(np.array(have, dtype=bool), sizes)


def degrees_and_orbit_min(params) -> list[tuple[np.ndarray, np.ndarray]]:
    """(degrees, orbit_min) as int64 arrays over 0 <= k <= z, for each
    (q, n, z) of a nonempty batch of parameters that passed
    `require_index_capacity`.

    degrees[k] is the digit sum of k*e, e = (q^n - 1)/z, and orbit_min[k]
    the smallest index of the orbit of k under pi(k) = kq mod z, with z a
    fixed point of pi.  Over nu = ord_z(q) steps of pi, which cover the
    orbit, S_k = sum_{i < nu} pi^i(k) gives degrees[k] =
    (q-1)(n/nu) S_k / z, so e itself is never formed.

    Sums and minima over windows of L steps of pi grow by pointer doubling,
    along the binary digits of nu from the top: a window doubles by adding
    (taking the minimum with) itself read at jump[k] = pi^L(k), and grows by
    one step by adding the index jump[k] itself.  That is log2(nu) passes
    over z-length arrays.

    The rows of a batch run as one: their index ranges lie end to end, row
    r from offset o_r, and one array pi maps o_r + k to o_r + kq mod z.
    Each row follows the digits of its own nu.  Above its leading digit a
    row holds the empty window (sum 0, minimum MAX, jump the identity),
    which doubling leaves empty, and the one-step growth is masked to the
    rows whose digit is 1.  A pass where every row has the same digit, as
    in a batch of one, runs unmasked."""
    params = list(params)
    nus = [mult_order(q, z) for q, _, z in params]
    sizes = [z + 1 for _, _, z in params]
    offsets = [0, *accumulate(sizes)]
    single = len(params) == 1

    def per_cell(values):
        # one value per row: a scalar in a batch of one, else one per cell
        if single:
            return values[0]
        return np.repeat(np.array(values, dtype=np.int64), sizes)

    index = np.arange(offsets[-1], dtype=np.int64)
    off = per_cell(offsets[:-1])
    local = index if single else index - off
    pi = local * per_cell([q % z for q, _, z in params])
    pi %= per_cell([z for _, _, z in params])
    if not single:
        pi += off
    ends = [hi - 1 for hi in offsets[1:]]
    pi[ends] = ends
    top = max(nus).bit_length() - 1
    # windows of one step (S_k = k, the minimum k, jump pi(k)) in the rows
    # whose nu has the top digit, the empty window in the others
    lead = _cells_with_digit(nus, sizes, top)
    if lead is True:
        sums, mins, jump = local, local.copy(), pi.copy()
    else:
        sums = np.where(lead, local, 0)
        mins = np.where(lead, local, np.iinfo(np.int64).max)
        jump = np.where(lead, pi, index)
    del index, local
    buf = np.empty_like(sums)
    # every index is in range; mode="clip" lets np.take write into buf
    # directly, where the default mode goes through a buffer
    for bit in range(top - 1, -1, -1):
        np.take(sums, jump, out=buf, mode="clip")
        sums += buf
        np.take(mins, jump, out=buf, mode="clip")
        np.minimum(mins, buf, out=mins)
        np.take(jump, jump, out=buf, mode="clip")
        jump, buf = buf, jump
        grow = _cells_with_digit(nus, sizes, bit)
        if grow is False:
            continue
        # the index pi^L(k) within its row
        step = jump if single else np.subtract(jump, off, out=buf)
        if grow is True:
            sums += step
            np.minimum(mins, step, out=mins)
            np.take(pi, jump, out=buf, mode="clip")
            jump, buf = buf, jump
        else:
            np.add(sums, step, out=sums, where=grow)
            np.minimum(mins, step, out=mins, where=grow)
            np.take(pi, jump, out=buf, mode="clip")
            np.copyto(jump, buf, where=grow)
    del pi, jump, off
    scale, divisor = [], []
    for (q, n, z), nu in zip(params, nus):
        g = gcd(q - 1, z)
        scale.append((n // nu) * ((q - 1) // g))
        divisor.append(z // g)
    divisor = per_cell(divisor)
    np.remainder(sums, divisor, out=buf)
    if buf.any():
        raise AssertionError("digit-sum formula did not divide evenly")
    sums //= divisor
    sums *= per_cell(scale)
    return [(sums[lo:hi], mins[lo:hi])
            for lo, hi in zip(offsets, offsets[1:])]


def m_via_z(q: int, n: int, z: int) -> MResult:
    """m from residues modulo z alone: the least degree over 1 <= k <= z
    from `degrees_and_orbit_min`, so e itself is never formed, within the
    capacity `require_index_capacity` states.  k_min is the smallest
    minimizing k; only z*e = q^n - 1 has all digits q - 1, so k_min = z
    only when z = 1.  `residue_witness` expands k_min into exponents on
    request."""
    resolve_z(q, n, z=z)
    require_index_capacity(q, n, z)
    (degrees, _), = degrees_and_orbit_min([(q, n, z)])
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
# disagreement is an implementation bug, never resolved silently.
# ---------------------------------------------------------------------------

def _prime_power_or_none(n):
    # A rule whose hypothesis cannot be certified (primality undecidable
    # beyond 64 bits) simply declines.
    if not 2 <= n < 1 << 64:
        return None
    return prime_power_base(n)


def _cf_trivial(q, e):
    if e == 1:
        return 1
    if q % e == 1:
        return e
    return None


def _cf_q_congruent_minus_one(q, e):
    # q = -1 but not 1 modulo e forces m = 2 via e | q + 1.
    if e > 2 and (q + 1) % e == 0:
        return 2
    return None


def _cf_two_power(q, e):
    pp = _prime_power_or_none(e)
    if pp is None or pp[0] != 2 or pp[1] < 3 or q % 2 == 0:
        return None
    if q % 4 == 1:
        return gcd(e, q - 1)
    if (q + 1) % e == 0:
        return 2
    return 4


def _cf_eleven_power(q, e):
    pp = _prime_power_or_none(e)
    if pp is None or pp[0] != 11:
        return None
    k = pp[1]
    order = mult_order(q % e, e)
    if order % 2 == 0:
        return 2
    reduced = order
    while reduced % 11 == 0:
        reduced //= 11
    if reduced == 1:
        return gcd(e, q - 1)
    if order == 5 * 11 ** (k - 1):
        return 3
    return 5


def _cf_pierpont_power(q, e):
    pp = _prime_power_or_none(e)
    if pp is None or pp[0] == 2 or not is_pierpont_prime(pp[0]):
        return None
    p = pp[0]
    order = mult_order(q % e, e)
    reduced = order
    while reduced % p == 0:
        reduced //= p
    if reduced == 1:
        return gcd(e, q - 1)
    if order % 2 == 0:
        return 2
    return 3


def _cf_odd_prime_power_unipotent(q, e):
    pp = _prime_power_or_none(e)
    if pp is None or pp[0] == 2:
        return None
    if q % pp[0] == 1:
        return gcd(e, q - 1)
    return None


def _cf_hensel_lift(q, e):
    # Odd prime power e = p^k, k >= 2, with ord_e(q) = phi(e)/d for a
    # divisor d of p-1: m is unchanged when e is replaced by p.
    pp = _prime_power_or_none(e)
    if pp is None or pp[0] == 2 or pp[1] < 2:
        return None
    p = pp[0]
    order = mult_order(q % e, e)
    phi = euler_phi(e)
    if phi % order:
        return None
    d = phi // order
    if (p - 1) % d:
        return None
    return m_bfs(q % p, p).m


def _cf_squares_odd_prime_power(q, e):
    pp = _prime_power_or_none(e)
    if pp is None or pp[0] == 2:
        return None
    if mult_order(q % e, e) * 2 != euler_phi(e):
        return None
    return 2 if pp[0] % 4 == 1 else 3


def _cf_order_two(q, e):
    if (q * q - 1) % e:
        return None
    e1 = gcd(e, q - 1)
    e2 = gcd(e, q + 1)
    if e1 >= e2 or (e % 2 == 0 and ((q * q - 1) // e) % 2 == 0):
        return e1
    return 2 * e1


def _cf_twice_odd_prime_power(q, e):
    if e % 2 or e == 2:
        return None
    pp = _prime_power_or_none(e // 2)
    if pp is None or pp[0] == 2:
        return None
    p = pp[0]
    order = mult_order(q % e, e)
    while order % p == 0:
        order //= p
    if order == 1:
        return gcd(e, q - 1)
    return None


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
    hits = []
    for rule_id, rule in _CLOSED_FORM_RULES:
        value = rule(q, e)
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

def m_grid(q_range, e_range) -> dict[tuple[int, int], int]:
    """m(q, e) over a rectangle, only where gcd(q, e) = 1."""
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
    q_range = list(q_range)
    e_range = list(e_range)
    grid = m_grid(q_range, e_range)
    lines = ["q," + ",".join(str(e) for e in e_range)]
    for q in q_range:
        cells = [str(grid[(q, e)]) if (q, e) in grid else "" for e in e_range]
        lines.append(f"{q}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def m_groups_by_residue(e: int) -> dict[int, list[int]]:
    """m -> all residues q != 1 modulo e with that value, ascending."""
    _require_positive("e", e)
    groups: dict[int, list[int]] = {}
    for q in range(2, e):
        if q % e != 1 and gcd(q, e) == 1:
            groups.setdefault(m_value(q, e).m, []).append(q)
    return {m: sorted(v) for m, v in sorted(groups.items())}


def m_groups_by_generator(e: int) -> dict[int, list[int]]:
    """m -> smallest generators of the nontrivial cyclic subgroups of
    (Z/e)^x, grouped by the (subgroup-invariant) value of m."""
    _require_positive("e", e)
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
    lines = []
    for e in e_range:
        groups = fn(e)
        parts = [
            f"{m}: {{{', '.join(str(q) for q in qs)}}}" for m, qs in groups.items()
        ]
        lines.append(f"{e}; " + "; ".join(parts))
    return "\n".join(lines) + "\n"

