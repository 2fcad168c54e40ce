"""Sufficient conditions certifying the Loewy length or the gap to its
upper bound floor(n(q-1)/m) + 1, each with a machine-checkable hypothesis.

Every rule is a proved fact, so two rules firing on the same parameters can
never disagree about the Loewy length; a contradiction is asserted as an
implementation bug, with enough bindings in the traces to debug from the
report alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .arith import (
    cyclotomic_value,
    euler_phi,
    format_decimal,
    full_power,
    is_pierpont_prime,
    is_prime,
    mult_order,
    order_dividing,
    prime_power_base,
    resolve_z,
)
from .errors import DomainError
from .mfunc import BFS_CAPACITY, m_value, m_via_z


@dataclass(frozen=True)
class CriterionVerdict:
    rule_id: str
    kind: str  # bound_attained | ll_equals | uniserial | gap_formula
    value: int | None
    trace: str

    def render(self) -> str:
        if self.kind == "ll_equals":
            head = f"{self.rule_id} ll_equals({self.value})"
        elif self.kind == "gap_formula":
            head = f"{self.rule_id} gap_formula(epsilon={self.value})"
        else:
            head = f"{self.rule_id} {self.kind}"
        return f"{head} :: {self.trace}"


@dataclass(frozen=True)
class Parameters:
    """Consistent (q, n, e, z) with the derived quantities every rule needs."""

    q: int
    n: int
    e: int
    z: int
    m: int
    nu: int      # order of q modulo e
    bound: int

    def implied_ll(self, verdict: CriterionVerdict) -> int:
        if verdict.kind == "bound_attained":
            return self.bound
        if verdict.kind == "ll_equals":
            return verdict.value
        if verdict.kind == "uniserial":
            return self.z + 1
        if verdict.kind == "gap_formula":
            return self.n * (self.q - 1) // self.m + verdict.value
        raise AssertionError(f"unknown verdict kind {verdict.kind}")


def resolve_parameters(q: int, n: int, *, e: int | None = None,
                       z: int | None = None) -> Parameters:
    z = resolve_z(q, n, e=e, z=z)
    e = (full_power(q, n) - 1) // z
    # the residue method when z < e and when e is beyond the BFS; each
    # method refuses what lies beyond its own capacity
    m = (m_via_z(q, n, z) if z < e or e > BFS_CAPACITY else m_value(q, e)).m
    nu = order_dividing(q, e, n)
    bound = n * (q - 1) // m + 1
    return Parameters(q=q, n=n, e=e, z=z, m=m, nu=nu, bound=bound)


# -- individual rules --------------------------------------------------------

def _r1(p: Parameters):
    if p.n <= 3:
        return CriterionVerdict("R1", "bound_attained", None, f"n={p.n} <= 3")
    return None


def _r2(p: Parameters):
    if p.e <= 32:
        return CriterionVerdict("R2", "bound_attained", None, f"e={p.e} <= 32")
    return None


def _r3(p: Parameters):
    for d in range(1, 6):
        if ((p.q**d - 1) // (p.q - 1)) % p.e == 0:
            return CriterionVerdict(
                "R3", "bound_attained", None,
                f"e | (q^{d}-1)/(q-1) with d={d} <= 5",
            )
    return None


def _r4(p: Parameters):
    ds = [1, 2, 3, 4, 5, 6, 9, 10]
    if p.nu & (p.nu - 1) == 0 and p.nu not in ds:
        ds.append(p.nu)  # the only 2-power index that can divide out e
    for d in sorted(ds):
        if cyclotomic_value(d, p.q) % p.e == 0:
            kind = "2-power" if d & (d - 1) == 0 else "small index"
            return CriterionVerdict(
                "R4", "bound_attained", None,
                f"e | Phi_{d}(q) ({kind} d={d})",
            )
    return None


def _r5(p: Parameters):
    # Beyond 2^64 the primality test is no longer deterministic, so the
    # prime-power hypothesis cannot be certified; skip rather than guess.
    pp = prime_power_base(p.e) if 1 < p.e < 1 << 64 else None
    if pp is None:
        return None
    base, k = pp
    if base == 2 or is_pierpont_prime(base):
        return CriterionVerdict(
            "R5", "bound_attained", None,
            f"e = {base}^{k} with {base} = 2 or an odd Pierpont prime",
        )
    return None


def _r6(p: Parameters):
    if p.n % 2:
        return None
    half = p.q ** (p.n // 2) - 1
    if p.e != p.q**p.n - 1 and p.e % half == 0:
        return CriterionVerdict(
            "R6", "ll_equals", 3,
            f"q^(n/2)-1 = {format_decimal(half)} | e | q^n-1, e proper",
        )
    return None


def _r7(p: Parameters):
    if (p.q - 1) % p.m == 0:
        return CriterionVerdict("R7", "bound_attained", None,
                                f"m={p.m} divides q-1={p.q - 1}")
    return None


def _r8(p: Parameters):
    if p.m == 2:
        return CriterionVerdict("R8", "bound_attained", None, "m = 2")
    return None


def _r9(p: Parameters):
    if 3 * p.m >= p.e:
        return CriterionVerdict("R9", "bound_attained", None,
                                f"3m = {3 * p.m} >= e = {p.e}")
    return None


def _r10(p: Parameters):
    # q^k and q^2k mod e, each stepped by one multiplication per k: squaring
    # q^k instead costs a full-size product and division at every k
    e = p.e
    q1, q2 = p.q % e, p.q * p.q % e
    qk = q2k = 1
    for k in range(1, p.nu + 1):
        qk, q2k = qk * q1 % e, q2k * q2 % e
        if (qk + 1) % e == 0:
            return CriterionVerdict("R10", "bound_attained", None,
                                    f"e | q^{k}+1")
        if (q2k + qk + 1) % e == 0:
            return CriterionVerdict("R10", "bound_attained", None,
                                    f"e | q^{2 * k}+q^{k}+1")
    return None


def _r11(p: Parameters):
    e = p.e
    for r in range(1, p.n + 1):
        if p.n % r or (p.n // r) % p.m:
            continue
        a = p.n // (p.m * r)
        # q^(a i) mod e, stepped by one multiplication per i
        qa, term, total = pow(p.q, a, e), 1, 0
        for _ in range(p.m):
            total += term
            term = term * qa % e
        if total % e == 0:
            return CriterionVerdict(
                "R11", "bound_attained", None,
                f"m={p.m} | n/r with r={r} and e | sum of q^({a}i)",
            )
    return None


def _r12(p: Parameters):
    if ((p.q**p.n - 1) // (p.q - 1)) % p.e:
        return None
    n, m, q = p.n, p.m, p.q
    if m > n:
        raise AssertionError(f"m={m} > n={n} contradicts e | (q^n-1)/(q-1)")
    if n == m or ((n - m) * (q - 1) // m) % (n - m) == 0:
        return CriterionVerdict(
            "R12", "bound_attained", None,
            f"e | (q^n-1)/(q-1) and n-m={n - m} | floor((n-m)(q-1)/m)",
        )
    if m >= n - 1:
        return CriterionVerdict("R12", "bound_attained", None,
                                f"e | (q^n-1)/(q-1) and m={m} >= n-1={n - 1}")
    if m == n - 2 and 1 <= q % m <= (m + 1) // 2:
        return CriterionVerdict(
            "R12", "bound_attained", None,
            f"e | (q^n-1)/(q-1), m=n-2 and q = {q % m} (mod m)",
        )
    return None


def _r13(p: Parameters):
    m1 = gcd(p.m, p.q - 1)
    step = (p.m // m1) * p.nu
    if p.n % step == 0:
        value = p.n * (p.q - 1) // p.m + 1
        if (p.n * (p.q - 1)) % p.m:
            raise AssertionError("R13 fired but m does not divide N(q-1)")
        return CriterionVerdict(
            "R13", "ll_equals", value,
            f"n={p.n} is a multiple of (m/m1)*ord = {step} (m1={m1})",
        )
    return None


def _r14(p: Parameters):
    r = (p.q - 1) % p.m
    # r < m/nu + m/n, compared exactly over a common denominator
    if r * p.nu * p.n < p.m * p.n + p.m * p.nu:
        return CriterionVerdict(
            "R14", "bound_attained", None,
            f"q-1 = {(p.q - 1) // p.m}*m + {r} with r < m/nu + m/n "
            f"(m={p.m}, nu={p.nu}, n={p.n})",
        )
    return None


def _r15(p: Parameters):
    q_prime = 2 + (p.q - 2) % p.m
    while q_prime <= p.q:
        if p.n * (q_prime - 1) // p.m == 1:
            return CriterionVerdict(
                "R15", "bound_attained", None,
                f"q'={q_prime} = q (mod m) has floor(n(q'-1)/m) = 1",
            )
        if p.n * (q_prime - 1) // p.m > 1:
            break
        q_prime += p.m
    return None


def _r16(p: Parameters):
    if p.q == 5 and p.e == 33:
        eps = 0 if p.n % 30 == 10 else 1
        return CriterionVerdict(
            "R16", "gap_formula", eps,
            f"(q,e) = (5,33), n = {p.n % 30} (mod 30)",
        )
    return None


def _r17(p: Parameters):
    if p.n != 2:
        return None
    e1 = gcd(p.e, p.q - 1)
    e2 = gcd(p.e, p.q + 1)
    rest = (p.q * p.q - 1) // p.e
    if e1 >= e2 or (p.e % 2 == 0 and rest % 2 == 0):
        value = 2 * (p.q - 1) // e1 + 1
        why = f"e1={e1} >= e2={e2}" if e1 >= e2 else "both e and (q^2-1)/e even"
    else:
        value = (p.q - 1) // e1 + 1
        why = f"e1={e1} < e2={e2} and not both even"
    return CriterionVerdict("R17", "ll_equals", value, f"n=2, {why}")


# R18 and R19 skip z >= 2^64, where primality is not certified.  Nothing is
# lost: each hypothesis makes ord_z(q) >= (z-1)/2, and ord_z(q) divides n.
def _r18(p: Parameters):
    pp = prime_power_base(p.z) if 1 < p.z < 1 << 64 else None
    if pp is None or pp[0] == 2:
        return None
    if mult_order(p.q % p.z, p.z) == euler_phi(p.z):
        return CriterionVerdict(
            "R18", "ll_equals", 3,
            f"z={p.z} odd prime power and ord_z(q) = phi(z) = {euler_phi(p.z)}",
        )
    return None


def _r19(p: Parameters):
    z = p.z
    if not 3 <= z < 1 << 64 or not is_prime(z) or (z - 1) % 2:
        return None
    if mult_order(p.q % z, z) != (z - 1) // 2:
        return None
    value = 4 if z in (3, 7) else 3
    return CriterionVerdict(
        "R19", "ll_equals", value,
        f"z={z} prime with ord_z(q) = (z-1)/2",
    )


def _r20(p: Parameters):
    if p.q % p.z == 1 % p.z:
        return CriterionVerdict("R20", "uniserial", None,
                                f"q = 1 (mod z={p.z})")
    if p.z > 2 and p.q % p.z == p.z - 1:
        return CriterionVerdict("R20", "ll_equals", 3,
                                f"q = -1 (mod z={p.z}), z > 2")
    return None


_RULES = (_r1, _r2, _r3, _r4, _r5, _r6, _r7, _r8, _r9, _r10,
          _r11, _r12, _r13, _r14, _r15, _r16, _r17, _r18, _r19, _r20)


def evaluate_criteria(q: int, n: int, *, e: int | None = None,
                      z: int | None = None) -> list[CriterionVerdict]:
    """All rules whose hypotheses hold for the given parameters, with a
    hard cross-check that their implied Loewy lengths agree."""
    params = resolve_parameters(q, n, e=e, z=z)
    verdicts = [v for rule in _RULES if (v := rule(params)) is not None]
    implied = {params.implied_ll(v) for v in verdicts}
    if len(implied) > 1:
        detail = "; ".join(v.render() for v in verdicts)
        raise AssertionError(
            f"contradicting verdicts for q={q}, n={n}, "
            f"e={format_decimal(params.e)}: {detail}"
        )
    return verdicts


@dataclass(frozen=True)
class ReductionTargets:
    """Finite check set: bound attainment for all n follows from the cases
    ord | n <= N, and (for fixed e, n) from the parameters q <= q_cap."""

    n_max: int
    q_cap: int
    m: int
    order: int


def reduction_targets(q: int, e: int) -> ReductionTargets:
    if e < 1:
        raise DomainError(f"e must be >= 1, got {e}")
    if gcd(q, e) != 1:
        raise DomainError(f"q={q} and e={e} must be coprime")
    m = m_value(q, e).m
    order = mult_order(q % e, e)
    d = gcd(m, (q - 1) * order)
    return ReductionTargets(
        n_max=(m // d) * order,
        q_cap=lcm(e, m),
        m=m,
        order=order,
    )
