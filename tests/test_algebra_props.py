"""Cross-validation of the residue-based machinery against definitional
oracles computed in full-width arithmetic, plus the structural inequalities
every constructed algebra must satisfy."""

import random
from math import gcd

import numpy as np
import pytest

from conftest import exact_exponent_vector, quadratic_loewy_layers
from loewy.algebra import Algebra, same_table, validity_table
from loewy.arith import mult_order, order_dividing
from loewy.database import subgroup_representatives


def random_algebra(rng, z_max):
    while True:
        z = rng.randrange(2, z_max)
        q = rng.randrange(2, 4 * z)
        if z == 1 or gcd(q, z) == 1:
            n = 1 if z == 1 else mult_order(q % z, z)
            return Algebra(q, n, z)


def check_bounds(alg):
    """Inequalities that hold for every algebra: the upper bound, the
    improved lower bound when m does not divide q-1, and the closure window
    in which the two coincide."""
    report = alg.loewy_profile()
    assert report.gap >= 0
    q, n, m = alg.q, alg.n, report.m
    nu = alg.ord_e()
    if (q - 1) % m:
        lower = n * ((q - 1) // m) + n // nu + 1
        assert report.ll >= lower
        r = (q - 1) % m
        if r * nu * n < m * n + m * nu:
            assert report.gap == 0
    profile = alg.loewy_profile()
    assert int(profile.lam[alg.z]) == int(profile.lam.max())
    assert report.ll == len(alg.loewy_vector())


# the fixed cases first, so their test ids stay, then every key with z <= 40
_CARRY_CASES = [(2, 4, 5), (3, 12, 70), (19, 2, 40), (7, 4, 60), (12, 4, 11),
                (2, 11, 89)]
_CARRY_CASES += [
    case for case in (
        (key.q_rep, 1 if z == 1 else mult_order(key.q_rep % z, z), z)
        for z in range(1, 41) for key in subgroup_representatives(z))
    if case not in _CARRY_CASES]


class TestCarryOracle:
    """The degree test of product_index versus digit-wise addition of the
    exact exponent vectors, over all index pairs."""

    @pytest.mark.parametrize("q,n,z", _CARRY_CASES)
    def test_all_pairs_small(self, q, n, z):
        alg = Algebra(q, n, z)
        vecs = [exact_exponent_vector(q, n, z, k) for k in range(z + 1)]
        for k in range(z + 1):
            for l in range(z + 1):
                expected = None
                if k + l <= z:
                    summed = [a + b for a, b in zip(vecs[k], vecs[l])]
                    if all(c <= q - 1 for c in summed):
                        expected = k + l
                        assert summed == vecs[k + l]
                got = alg.product_index(k, l)
                assert got == expected, (k, l)

    def test_random_large(self):
        rng = random.Random(7)
        for _ in range(3):
            alg = random_algebra(rng, 2000)
            z, q, n = alg.z, alg.q, alg.n
            vecs = np.array([exact_exponent_vector(q, n, z, k)
                             for k in range(z + 1)], dtype=np.int64)
            table = validity_table(alg)
            ks = rng.sample(range(1, z), min(60, z - 1))
            for k in ks:
                sums = vecs[k][None, :] + vecs[1:z]
                fits = (sums <= q - 1).all(axis=1)
                in_range = k + np.arange(1, z) <= z
                assert np.array_equal(table[k - 1], fits & in_range)


class TestExponentVectorSoundness:
    def test_weighted_sum_is_ke(self):
        rng = random.Random(11)
        for _ in range(8):
            alg = random_algebra(rng, 400)
            e = alg.e()
            for k in rng.sample(range(alg.z + 1), min(25, alg.z + 1)):
                vec = alg.exponent_vector(k)
                assert sum(c * alg.q**j for j, c in enumerate(vec)) == k * e


class TestDpEquivalence:
    """The DP over orbit minima equals the unrestricted quadratic DP."""

    @pytest.mark.parametrize("z", [2, 3, 24, 40, 70, 117, 179])
    def test_all_representatives(self, z):
        for key in subgroup_representatives(z):
            n = mult_order(key.q_rep % z, z) if z > 1 else 1
            alg = Algebra(key.q_rep, n, z)
            fast = alg.loewy_profile().lam
            slow = quadratic_loewy_layers(alg)
            assert np.array_equal(fast, slow), (key.q_rep, n, z)
            check_bounds(alg)

    @pytest.mark.slow
    @pytest.mark.parametrize("z", [240, 512, 701, 1024, 1500])
    def test_large_representatives(self, z):
        for key in subgroup_representatives(z):
            n = mult_order(key.q_rep % z, z)
            alg = Algebra(key.q_rep, n, z)
            assert np.array_equal(alg.loewy_profile().lam,
                                  quadratic_loewy_layers(alg))


class TestSuperadditivity:
    def test_split_blocks(self):
        # LL(A(q, n1+n2, e)) >= LL(A(q, n1, e)) + LL(A(q, n2, e)) - 1,
        # sampled with the composite algebra's z staying below 500
        cases = [
            (2, 4, 4, 15), (2, 4, 4, 5), (2, 4, 8, 15), (3, 2, 2, 8),
            (3, 2, 4, 8), (5, 2, 2, 24), (2, 5, 5, 31), (3, 3, 3, 13),
        ]
        for q, n1, n2, e in cases:
            assert (q**n1 - 1) % e == 0 and (q**n2 - 1) % e == 0
            lls = []
            for n in (n1, n2, n1 + n2):
                z = (q**n - 1) // e
                assert z <= 500
                lls.append(Algebra(q, n, z).loewy_length())
            assert lls[2] >= lls[0] + lls[1] - 1, (q, n1, n2, e)


class TestMonotonicity:
    def test_divisor_of_e(self):
        # f | e embeds A(q, n, e) into A(q, n, f)
        for q, n in [(2, 6), (3, 4), (5, 4), (7, 3)]:
            top = q**n - 1
            from loewy.arith import divisors

            es = [e for e in divisors(top) if top // e <= 3000]
            for e in es:
                for f in divisors(e):
                    if top // f > 3000:
                        continue
                    ll_e = Algebra(q, n, top // e).loewy_length()
                    ll_f = Algebra(q, n, top // f).loewy_length()
                    assert ll_e <= ll_f, (q, n, e, f)

    def test_power_substitution(self):
        # LL(A(q, k n, e)) <= LL(A(q^k, n, e))
        for q, k, n, e in [(2, 2, 4, 5), (2, 3, 2, 7), (3, 2, 2, 16),
                           (2, 2, 6, 9), (5, 2, 2, 13)]:
            z = (q**(k * n) - 1) // e
            assert z == ((q**k) ** n - 1) // e
            if z > 300000:
                continue
            assert (Algebra(q, k * n, z).loewy_length()
                    <= Algebra(q**k, n, z).loewy_length())


class TestStructureTables:
    def test_table_ignores_n(self):
        # A[q, n, z] and A[q, c*n, z] share the multiplication table
        for q, n, z, c in [(3, 4, 40, 2), (2, 4, 5, 3), (19, 2, 40, 3)]:
            assert same_table(Algebra(q, n, z), Algebra(q, c * n, z))

    def test_same_subgroup_same_table_small(self):
        # all generators of every cyclic subgroup, z <= 60
        for z in range(3, 61):
            gens: dict[frozenset, list[int]] = {}
            for a in range(2, z):
                if gcd(a, z) != 1 or a % z == 1:
                    continue
                sub = frozenset(pow(a, i, z) for i in range(1, mult_order(a, z) + 1))
                gens.setdefault(sub, []).append(a)
            for sub, members in gens.items():
                if len(members) < 2:
                    continue
                n = len(sub)
                base = Algebra(members[0], n, z)
                for other in members[1:]:
                    assert same_table(base, Algebra(other, n, z)), (z, members[0], other)

    @pytest.mark.slow
    def test_same_subgroup_same_table_medium(self):
        # two smallest generators per subgroup, 60 < z <= 200
        for z in range(61, 201):
            gens: dict[frozenset, list[int]] = {}
            for a in range(2, z):
                if gcd(a, z) != 1 or a % z == 1:
                    continue
                sub = frozenset(pow(a, i, z) for i in range(1, mult_order(a, z) + 1))
                gens.setdefault(sub, []).append(a)
            for sub, members in gens.items():
                if len(members) < 2:
                    continue
                n = len(sub)
                assert same_table(Algebra(members[0], n, z),
                                  Algebra(members[1], n, z)), (z, members[:2])


class TestUniserialCharacterization:
    def test_iff_q_congruent_one(self):
        for z in range(1, 51):
            for key in subgroup_representatives(z):
                n = mult_order(key.q_rep % z, z) if z > 1 else 1
                alg = Algebra(key.q_rep, n, z)
                expect = key.q_rep % z == 1 % z
                assert alg.flags()["uniserial"] is expect, (key.q_rep, z)


class TestBoundsSweep:
    def test_representatives_up_to_90(self):
        for z in range(1, 91):
            for key in subgroup_representatives(z):
                n = mult_order(key.q_rep % z, z) if z > 1 else 1
                check_bounds(Algebra(key.q_rep, n, z))
