"""Grid invariants tying the three general m algorithms, the closed forms,
and the large-m classification to one another."""

import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import m_by_subgroup, m_digit_scan
from loewy.arith import is_prime, mult_order
from loewy.mfunc import (
    classify_large_m,
    m_bfs,
    m_closed_form,
    m_value,
    m_via_z,
)


class TestOracleTriangle:
    def test_fixed_small_grid(self):
        # agree in all three computable parameterizations
        for z in [2, 3, 5, 12, 40, 70, 91, 123]:
            for q in [2, 3, 5, 9, 19, 55]:
                if gcd(q, z) != 1 or q % z == 0:
                    continue
                n = mult_order(q % z, z)
                e = (q**n - 1) // z
                via_z = m_via_z(q, n, z).m
                scan = m_digit_scan(q, n, e).m
                assert via_z == scan, (q, n, z)
                if e <= 10**6:
                    assert m_bfs(q, e).m == via_z, (q, n, z)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_pairs(self, data):
        q = data.draw(st.integers(2, 60))
        z = data.draw(st.integers(2, 150))
        if gcd(q, z) != 1:
            return
        n = mult_order(q % z, z)
        e = (q**n - 1) // z
        expected = m_via_z(q, n, z).m
        if e <= 200000:
            assert m_bfs(q, e).m == expected
        if z * n <= 4000:
            assert m_digit_scan(q, n, e).m == expected


class TestDivisibilityFacts:
    def test_e1_divides_m(self):
        # gcd(e, q-1) divides m on a q < e grid
        for e in range(2, 121):
            for q in range(2, e):
                if gcd(q, e) != 1:
                    continue
                m = m_value(q, e).m
                assert m % gcd(e, q - 1) == 0, (q, e)

    def test_m_bounds_and_extremes(self):
        for e in range(2, 60):
            for q in range(2, 2 * e):
                if gcd(q, e) != 1:
                    continue
                m = m_value(q, e).m
                assert 1 <= m <= e
                assert (m == e) == (q % e == 1)
                assert (m == 1) == (e == 1)


class TestSubgroupInvariance:
    def test_exhaustive_small(self):
        # m is constant on the cyclic subgroup generated by the residue
        for e in range(3, 161):
            by_subgroup = {}
            for q in range(2, e):
                if gcd(q, e) != 1 or q % e == 1:
                    continue
                sub = frozenset(pow(q, i, e) for i in range(1, mult_order(q, e) + 1))
                m = m_value(q, e).m
                if sub in by_subgroup:
                    assert by_subgroup[sub] == m, (q, e)
                else:
                    by_subgroup[sub] = m

    @pytest.mark.slow
    def test_sampled_up_to_500(self):
        rng = random.Random(3)
        for e in rng.sample(range(161, 501), 60):
            by_subgroup = {}
            for q in range(2, e):
                if gcd(q, e) != 1 or q % e == 1:
                    continue
                sub = frozenset(pow(q, i, e) for i in range(1, mult_order(q, e) + 1))
                m = m_value(q, e).m
                if sub in by_subgroup:
                    assert by_subgroup[sub] == m, (q, e)
                else:
                    by_subgroup[sub] = m


class TestClosedFormsAgree:
    def test_small_grid(self):
        for e in range(1, 121):
            spectrum = m_by_subgroup(e)
            lookup = {}
            for q_rep, m in spectrum.items():
                if q_rep == e + 1:
                    lookup[1 % e] = m
                else:
                    order = mult_order(q_rep, e)
                    sub = [pow(q_rep, i, e) for i in range(1, order + 1)]
                    for member in sub:
                        if mult_order(member, e) == order:
                            lookup[member] = m
            for q in range(2, 2 * e + 2):
                if gcd(q, e) != 1:
                    continue
                closed = m_closed_form(q, e)
                if closed is None:
                    continue
                b = q % e
                if b in lookup:
                    assert closed.m == lookup[b], (q, e)
                else:
                    assert closed.m == m_bfs(q, e).m, (q, e)


class TestLargeMClassification:
    def test_iff_on_grid(self):
        # classify != none exactly when 3 m >= e, with a certified value
        for e in range(2, 201):
            spectrum = {}
            for q_rep, m in m_by_subgroup(e).items():
                order = 1 if q_rep == e + 1 else mult_order(q_rep, e)
                gen = 1 % e if q_rep == e + 1 else q_rep
                members = {pow(gen, i, e) for i in range(1, order + 1)}
                for member in members:
                    if member == 1 or mult_order(member, e) != order:
                        continue
                    spectrum[member] = m_bfs(member, e).m
            for q in range(2, 3 * e + 1):
                if gcd(q, e) != 1 or q % e == 1 % e:
                    continue
                m = spectrum[q % e]
                case = classify_large_m(q, e)
                assert (case.case_id != "none") == (3 * m >= e), (q, e, m)
                if case.case_id != "none":
                    assert case.certified_m == m, (q, e, case)


class TestTwoDigitSums:
    def test_index_two_prime_orbits(self):
        # prime z = 3 (mod 4), ord_z(q) = (z-1)/2: the orbit residue sums
        # take exactly two values over k = 1..z-1
        for z in range(3, 201):
            if not is_prime(z) or z % 4 != 3:
                continue
            half = (z - 1) // 2
            qs = [q for q in range(2, z) if mult_order(q, z) == half]
            if not qs:
                continue
            subgroups = {frozenset(pow(q, i, z) for i in range(half)) for q in qs}
            for sub in subgroups:
                q = min(x for x in sub if mult_order(x, z) == half)
                pw = np.array([pow(q, i, z) for i in range(1, half + 1)])
                sums = {int((k * pw % z).sum()) for k in range(1, z)}
                assert len(sums) == 2, (q, z)


class TestFourthPowerOrders:
    def test_exceptions_below_81(self):
        # index-4 subgroups of prime modulus: m <= 3 once e > 81, and the
        # only smaller exceptions are e = 5 (m = 5) and e = 29 with <7>
        exceptions = []
        for e in range(3, 301):
            if not is_prime(e) or (e - 1) % 4:
                continue
            quarter = (e - 1) // 4
            seen = set()
            for q in range(1, e):
                if mult_order(q, e) != quarter:
                    continue
                sub = frozenset(pow(q, i, e) for i in range(quarter))
                if sub in seen:
                    continue
                seen.add(sub)
                m = m_bfs(q, e).m
                if e > 81:
                    assert m <= 3, (q, e, m)
                elif m > 3:
                    exceptions.append((e, min(sub - {1} if sub != {1} else sub), m))
        assert sorted(set(exceptions)) == [(5, 1, 5), (29, 7, 4)]
