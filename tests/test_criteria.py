import random
from math import gcd

import pytest

from loewy import criteria, mfunc
from loewy.algebra import Algebra
from loewy.arith import mult_order
from loewy.criteria import (
    _r10,
    _r11,
    evaluate_criteria,
    reduction_targets,
    resolve_parameters,
)
from loewy.database import subgroup_representatives
from loewy.errors import CapacityError, DomainError
from loewy.mfunc import BFS_CAPACITY, INDEX_CAPACITY, MResult


def unreachable(*args):
    raise AssertionError("reached a method for m that should not run")


def verdicts_consistent_with(alg, verdicts, params):
    profile = alg.loewy_profile()
    for v in verdicts:
        assert params.implied_ll(v) == profile.ll, (alg, v)
        if v.kind == "bound_attained":
            assert profile.gap == 0, (alg, v)
        if v.kind == "uniserial":
            assert all(c == 1 for c in alg.loewy_vector())


class TestResolveParameters:
    def test_from_z(self):
        p = resolve_parameters(3, 12, z=70)
        assert (p.e, p.z, p.m, p.bound) == (7592, 70, 8, 4)

    def test_from_e(self):
        p = resolve_parameters(5, 10, e=33)
        assert p.z == 295928 and p.m == 3

    def test_consistency_check(self):
        with pytest.raises(DomainError):
            resolve_parameters(3, 12, e=7592, z=71)
        with pytest.raises(DomainError):
            resolve_parameters(3, 12, e=11)  # ord_11(3) = 5 does not divide 12
        with pytest.raises(DomainError):
            resolve_parameters(3, 12)

    def test_residue_method_up_to_index_capacity(self, monkeypatch):
        # z = 2^24 - 1 < INDEX_CAPACITY; e = 2^48 + 2^24 + 1 is beyond the
        # BFS.  The real m_via_z gives m = 3 in about 3 s and 540 MB (2 vCPUs).
        calls = []

        def m_via_z(q, n, z):
            calls.append((q, n, z))
            return MResult(m=3, method="residue")

        monkeypatch.setattr(criteria, "m_via_z", m_via_z)
        monkeypatch.setattr(criteria, "m_value", unreachable)
        assert [v.rule_id for v in evaluate_criteria(2, 72, z=2**24 - 1)] == ["R10", "R11"]
        assert calls == [(2, 72, 2**24 - 1)]

    def test_beyond_both_methods(self, monkeypatch):
        # z = 2^32 + 1 > INDEX_CAPACITY and e = 2^32 - 1 beyond the BFS: the
        # residue method refuses before its kernel runs
        monkeypatch.setattr(mfunc, "degrees_and_orbit_min", unreachable)
        monkeypatch.setattr(criteria, "m_value", unreachable)
        assert 2**32 + 1 > INDEX_CAPACITY and 2**32 - 1 > BFS_CAPACITY
        with pytest.raises(CapacityError, match=f"z exceeds {INDEX_CAPACITY}"):
            resolve_parameters(2, 64, z=2**32 + 1)


class TestSoundness:
    def test_sweep_small(self):
        for z in range(1, 101):
            for key in subgroup_representatives(z):
                n = mult_order(key.q_rep % z, z) if z > 1 else 1
                alg = Algebra(key.q_rep, n, z)
                params = resolve_parameters(key.q_rep, n, z=z)
                verdicts = evaluate_criteria(key.q_rep, n, z=z)
                verdicts_consistent_with(alg, verdicts, params)

    def test_sweep_sampled_to_300(self):
        rng = random.Random(5)
        for z in rng.sample(range(101, 301), 25):
            for key in subgroup_representatives(z):
                n = mult_order(key.q_rep % z, z)
                alg = Algebra(key.q_rep, n, z)
                params = resolve_parameters(key.q_rep, n, z=z)
                verdicts = evaluate_criteria(key.q_rep, n, z=z)
                verdicts_consistent_with(alg, verdicts, params)

    def test_gap_cases_see_no_attainment_rule(self):
        for q, n, z in [(3, 12, 70), (5, 12, 91), (8, 12, 95), (9, 15, 5551)]:
            params = resolve_parameters(q, n, z=z)
            for v in evaluate_criteria(q, n, z=z):
                ll = Algebra(q, n, z).loewy_length()
                assert params.implied_ll(v) == ll


class TestCoverage:
    def test_every_small_e_is_certified(self):
        # every consistent (q, n <= 12, e <= 32) admits a rule certifying
        # attainment of the bound
        for q in range(2, 35):
            for e in range(1, 33):
                if gcd(q, e) != 1:
                    continue
                order = mult_order(q % e, e) if e > 1 else 1
                for n in range(order, 13, order):
                    verdicts = evaluate_criteria(q, n, e=e)
                    kinds = {v.kind for v in verdicts}
                    assert kinds & {"bound_attained", "ll_equals", "uniserial"}, \
                        (q, n, e)


class TestSpecificRules:
    def test_e33_family(self):
        fired = {v.rule_id: v for v in evaluate_criteria(5, 10, e=33)}
        assert fired["R16"].value == 0
        fired = {v.rule_id: v for v in evaluate_criteria(5, 20, e=33)}
        assert fired["R16"].value == 1

    def test_n2_closed_form(self):
        for q in [3, 5, 9, 11, 17]:
            for e in [d for d in range(2, q * q) if (q * q - 1) % d == 0]:
                z = (q * q - 1) // e
                verdicts = {v.rule_id: v for v in evaluate_criteria(q, 2, e=e)}
                assert "R17" in verdicts
                assert verdicts["R17"].value == Algebra(q, 2, z).loewy_length()

    def test_full_order_prime_power_modulus(self):
        verdicts = {v.rule_id for v in evaluate_criteria(2, 3, z=7)}
        assert "R19" in verdicts  # ord_7(2) = 3 = (7-1)/2
        verdicts = {v.rule_id: v for v in evaluate_criteria(3, 4, z=5)}
        assert verdicts["R18"].value == 3

    def test_uniserial_rule(self):
        verdicts = {v.rule_id: v for v in evaluate_criteria(6, 2, z=5)}
        assert verdicts["R20"].kind == "uniserial"

    def test_r10_matches_powers(self):
        # R10 tests k = 1, nu/3 and nu/2 only; this tries every k <= nu
        fired = 0
        for e in range(1, 120):
            for q in range(2, 40):
                if gcd(q, e) != 1:
                    continue
                p = resolve_parameters(q, mult_order(q % e, e) if e > 1 else 1, e=e)
                want = None
                for k in range(1, p.nu + 1):
                    qk = pow(q, k, e)
                    if (qk + 1) % e == 0:
                        want = f"e | q^{k}+1"
                        break
                    if (qk * qk + qk + 1) % e == 0:
                        want = f"e | q^{2 * k}+q^{k}+1"
                        break
                got = _r10(p)
                assert (got and got.trace) == want, (q, e)
                fired += got is not None
        assert fired > 100

    def test_r11_matches_powers(self):
        # R11 takes one power modulo e(q^a - 1); this sums the m terms
        fired = 0
        for e in range(1, 120):
            for q in range(2, 40):
                if gcd(q, e) != 1:
                    continue
                nu = mult_order(q % e, e) if e > 1 else 1
                for n in (nu, 2 * nu, 6 * nu):
                    p = resolve_parameters(q, n, e=e)
                    want = None
                    for r in range(1, n + 1):
                        if n % r or (n // r) % p.m:
                            continue
                        a = n // (p.m * r)
                        if sum(pow(q, a * i, e) for i in range(p.m)) % e == 0:
                            want = (f"m={p.m} | n/r with r={r} and "
                                    f"e | sum of q^({a}i)")
                            break
                    got = _r11(p)
                    assert (got and got.trace) == want, (q, n, e)
                    fired += got is not None
        assert fired > 100

    def test_renders(self):
        verdicts = evaluate_criteria(2, 11, e=23)
        lines = [v.render() for v in verdicts]
        assert all("::" in line for line in lines)
        assert any(line.startswith("R2 bound_attained") for line in lines)


class TestReductionTargets:
    def test_e11(self):
        targets = reduction_targets(3, 11)
        assert (targets.n_max, targets.q_cap) == (15, 33)
        assert (targets.m, targets.order) == (3, 5)

    def test_e23(self):
        targets = reduction_targets(2, 23)
        assert targets.q_cap == 69
        assert targets.n_max % targets.order == 0
        assert (targets.m * 1) % gcd(targets.m, targets.n_max * (2 - 1)) == 0

    def test_m_divides_q_minus_one(self):
        targets = reduction_targets(5, 13)  # m = 2 divides q - 1
        assert targets.n_max == targets.order

    def test_soundness_hypotheses(self):
        # the reduction is valid when ord | N and m | N(q-1)
        for q, e in [(3, 11), (2, 23), (7, 29), (5, 33)]:
            targets = reduction_targets(q, e)
            assert targets.n_max % targets.order == 0
            assert (targets.n_max * (q - 1)) % targets.m == 0
