import random
from collections import Counter

import numpy as np
import pytest

from conftest import (
    exact_exponent_vector,
    positionwise_product,
    quadratic_loewy_layers,
    residue_rows,
    residue_sum_degrees,
)
from loewy import algebra
from loewy.algebra import (
    Algebra,
    concat_witness,
    loewy_profiles,
    same_table,
    shift_witness,
    transport_witness,
    validity_table,
    verify_witness,
)
from loewy.arith import mult_order
from loewy.database import subgroup_representatives
from loewy.errors import CapacityError, DomainError
from loewy.mfunc import degrees_and_orbit_min


def unreachable(*args, **kwargs):
    raise AssertionError("reached code that should not run")


class TestConstruction:
    def test_valid_parameters(self):
        alg = Algebra(3, 12, 70)
        assert alg.nu == 12
        assert alg.dimension == 71
        assert alg.e() == 7592

    def test_scaled_down_order(self):
        alg = Algebra(5, 10, 295928)
        assert alg.nu == 10
        assert alg.e() == 33

    def test_degenerate(self):
        alg = Algebra(2, 3, 1)
        assert alg.dimension == 2
        assert alg.loewy_vector() == (1, 1)
        assert alg.loewy_length() == 2

    def test_rejects_bad_modulus(self):
        with pytest.raises(DomainError):
            Algebra(3, 4, 7)
        with pytest.raises(DomainError):
            Algebra(1, 4, 5)

    def test_degree_capacity(self):
        # the top degree n(q-1) = 2^62 still fits, with b_1 * b_1 = b_2
        alg = Algebra(2**62 + 1, 1, 2)
        assert alg.degrees.tolist() == [0, 2**61, 2**62]
        assert alg.product_index(1, 1) == 2
        with pytest.raises(CapacityError):
            Algebra(2**62 + 3, 1, 2)


class TestExponentVectors:
    def test_examples(self):
        alg = Algebra(3, 12, 70)
        assert alg.exponent_vector(1) == [2, 1, 0, 2, 0, 1, 1, 0, 1, 0, 0, 0]
        assert alg.exponent_vector(35) == [1] * 12
        assert alg.exponent_vector(70) == [2] * 12
        assert alg.exponent_vector(0) == [0] * 12

    def test_against_exact_arithmetic(self):
        for q, n, z in [(3, 12, 70), (2, 4, 5), (19, 2, 40), (7, 4, 100)]:
            alg = Algebra(q, n, z)
            for k in range(z + 1):
                assert alg.exponent_vector(k) == exact_exponent_vector(q, n, z, k)

    def test_degrees(self):
        alg = Algebra(3, 12, 70)
        assert alg.degree_of(1) == 8
        assert alg.degree_of(35) == 12
        assert alg.degree_of(70) == 24
        assert alg.degree_of(0) == 0


class TestProducts:
    def test_identity_and_socle(self):
        alg = Algebra(2, 4, 5)
        assert alg.product_index(0, 3) == 3
        assert alg.product_index(0, 0) == 0
        assert alg.product_index(5, 2) is None
        assert alg.product_index(5, 0) == 5

    def test_carry_example(self):
        alg = Algebra(2, 4, 5)
        assert alg.product_index(1, 1) is None

    def test_complementary_indices(self):
        for q, n, z in [(2, 4, 5), (3, 12, 70), (19, 2, 40)]:
            alg = Algebra(q, n, z)
            for k in range(1, z):
                assert alg.product_index(k, z - k) == z

    def test_out_of_range(self):
        alg = Algebra(2, 4, 5)
        with pytest.raises(DomainError):
            alg.product_index(6, 1)


class TestLoewyProfiles:
    def test_small_vectors(self):
        assert Algebra(3, 4, 40).loewy_vector() == (1, 10, 19, 10, 1)
        assert Algebra(19, 2, 40).loewy_vector() == (1, 10, 19, 10, 1)
        assert Algebra(29, 6, 117).loewy_vector() == (1, 104, 12, 1)
        assert Algebra(35, 6, 117).loewy_vector() == (1, 104, 12, 1)

    def test_z70(self):
        alg = Algebra(3, 12, 70)
        assert alg.loewy_length() == 3
        assert alg.m() == 8
        assert alg.upper_bound() == 4
        report = alg.bound_report()
        assert (report.ll, report.bound, report.gap, report.m) == (3, 4, 1, 8)

    def test_one_report_per_algebra(self, monkeypatch):
        # a record reads m and the report once, however often it asks
        alg = Algebra(3, 12, 70)
        report = alg.bound_report()
        monkeypatch.setattr(alg, "loewy_length", unreachable)
        monkeypatch.setattr(alg, "degrees", None)
        assert alg.bound_report() is report and alg.m() == 8
        assert alg.flags()["bound_attained"] is False

    def test_gap_two(self):
        alg = Algebra(9, 15, 5551)
        report = alg.bound_report()
        assert (report.m, report.ll, report.bound, report.gap) == (24, 4, 6, 2)

    def test_uniserial(self):
        alg = Algebra(6, 2, 5)  # q = 1 mod z
        assert alg.loewy_vector() == (1,) * 6
        assert alg.flags()["uniserial"]


class TestWitnesses:
    def test_irreducible_single_factor(self):
        alg = Algebra(3, 4, 40)
        irr = alg.loewy_profile().irreducibles[0]
        w = alg.witness(irr)
        assert w.factor_indices == (irr,)

    def test_top_witness_dimensions(self):
        alg = Algebra(2, 3, 7)  # e = 1
        assert alg.loewy_length() == 4
        w = alg.witness(7)
        assert len(w) == 3
        assert w.target_index == 7

    def test_all_indices_verify(self):
        alg = Algebra(3, 12, 70)
        lam = alg.loewy_profile().lam
        for k in range(1, alg.z + 1):
            w = alg.witness(k)
            assert len(w) == int(lam[k])

    def test_render(self):
        alg = Algebra(2, 3, 7)
        text = alg.witness(7).render()
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("k=") and "deg=" in lines[0] and "exp=[" in lines[0]

    def test_verify_rejects_overflow(self):
        with pytest.raises(AssertionError):
            verify_witness(2, 3, 1, [(1, 1, 0), (1, 0, 0)])


class TestTransport:
    def test_identity(self):
        alg = Algebra(2, 11, 89)  # e = 23, ord_23(2) = 11
        assert alg.e() == 23
        w = alg.witness(alg.z)
        again = transport_witness(w, 2)
        assert again.factor_vectors == w.factor_vectors

    def test_e23_between_q2_and_q3(self):
        # <2> = <3> modulo 23; carry the 3-factor witness of (x_1...x_11)^1
        src = Algebra(2, 11, 89)
        w = src.witness(src.z)
        moved = transport_witness(w, 3)
        assert moved.q == 3 and moved.e == 23
        assert len(moved) == len(w)
        target = Algebra(3, 11, (3**11 - 1) // 23)
        cur = moved.factor_indices[0]
        for idx in moved.factor_indices[1:]:
            cur = target.product_index(cur, idx)
            assert cur is not None

    def test_rejects_different_subgroup(self):
        src = Algebra(2, 11, 89)
        with pytest.raises(DomainError):
            transport_witness(src.witness(src.z), 5)  # ord_23(5) = 22

    def test_rejects_nonuniform(self):
        src = Algebra(3, 4, 40)
        lam = src.loewy_profile().lam
        k = next(k for k in range(1, src.z) if lam[k] == 2
                 and len(set(src.exponent_vector(k))) > 1)
        with pytest.raises(DomainError):
            transport_witness(src.witness(k), 3)


class TestShift:
    def test_zero_shift(self):
        alg = Algebra(2, 3, 7)
        w = alg.witness(7)
        assert shift_witness(w, 0) is w

    def test_q2_e7_shift_21(self):
        alg = Algebra(2, 3, 1)  # A(2, 3, 7): z = 1 since e = 7
        w = alg.witness(1)
        moved = shift_witness(w, 21)
        assert moved.q == 23 and moved.e == 7
        assert len(moved) == len(w) + 3 * 21 // 3
        target = Algebra(23, 3, (23**3 - 1) // 7)
        assert moved.target_index == target.z
        assert target.loewy_length() == len(moved) + 1

    def test_rejects_bad_multiple(self):
        alg = Algebra(2, 3, 1)
        with pytest.raises(DomainError):
            shift_witness(alg.witness(1), 20)


class TestConcat:
    def test_doubling(self):
        alg = Algebra(3, 5, 22)  # e = 11
        assert alg.e() == 11
        w = alg.witness(alg.z)
        assert len(w) == 3
        double = concat_witness(w, w)
        assert double.n == 10 and double.e == 11
        assert len(double) == 6
        # target is (x_1 ... x_10)^2
        for j in range(10):
            assert sum(vec[j] for vec in double.factor_vectors) == 2

    def test_mixed_blocks(self):
        a = Algebra(2, 11, 89)
        wa = a.witness(a.z)
        w = concat_witness(wa, wa)
        assert w.n == 22 and w.e == 23
        assert len(w) == 6

    def test_rejects_mismatched_moduli(self):
        a = Algebra(2, 11, 89)
        c = Algebra(2, 3, 7)
        with pytest.raises(DomainError):
            concat_witness(a.witness(a.z), c.witness(7))


class TestDegreeHistogram:
    def test_q55(self):
        alg = Algebra(55, 8, 123)
        assert alg.degree_histogram() == {
            126: 8, 144: 1, 198: 32, 216: 40, 234: 32, 288: 1, 306: 8, 432: 1,
        }
        assert alg.m() == 126
        assert alg.loewy_length() == 4

    def test_z70(self):
        alg = Algebra(3, 12, 70)
        assert alg.degree_histogram() == {8: 12, 10: 12, 12: 21, 14: 12, 16: 12, 24: 1}

    def test_degenerate(self):
        assert Algebra(7, 2, 1).degree_histogram() == {12: 1}


class TestOrbitReport:
    def test_z70_shape(self):
        alg = Algebra(3, 12, 70)
        rows = alg.orbit_report()
        assert len(rows) == 9
        assert sorted((r.orbit_length, r.degree) for r in rows) == sorted([
            (12, 8), (12, 10), (6, 12), (4, 12), (6, 12), (4, 12), (1, 12),
            (12, 14), (12, 16),
        ])
        assert sum(r.orbit_length for r in rows) == 69


def orbit_keys():
    """Every key with z <= 120, and the 12 keys at the prime z = 997."""
    for z in list(range(1, 121)) + [997]:
        for key in subgroup_representatives(z):
            n = mult_order(key.q_rep % z, z) if z > 1 else 1
            yield key.q_rep, n, z


class TestOrbits:
    """orbit_min comes from the degree kernel's pointer doubling, and the
    Loewy DP writes one value per orbit of k -> kq mod z."""

    @staticmethod
    def orbits(q, z):
        seen = [False] * (z + 1)
        for k in range(1, z):
            if not seen[k]:
                orbit, cur = [], k
                while not seen[cur]:
                    seen[cur] = True
                    orbit.append(cur)
                    cur = cur * q % z
                yield orbit

    def test_orbit_min_matches_walk(self):
        for q, n, z in orbit_keys():
            want = list(range(z + 1))
            for orbit in self.orbits(q, z):
                for k in orbit:
                    want[k] = min(orbit)
            assert Algebra(q, n, z).orbit_min.tolist() == want, (q, n, z)

    def test_lam_constant_on_orbits(self):
        for q, n, z in orbit_keys():
            lam = Algebra(q, n, z).loewy_profile().lam
            for orbit in self.orbits(q, z):
                assert len(set(lam[orbit].tolist())) == 1, (q, n, z, orbit)


def key_algebras(zs):
    """The algebra of every scan key at the given z, in scan order."""
    return [Algebra(key.q_rep, mult_order(key.q_rep % z, z) if z > 1 else 1, z)
            for z in zs for key in subgroup_representatives(z)]


def assert_same_profiles(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.lam.dtype == b.lam.dtype and np.array_equal(a.lam, b.lam)
        assert (a.loewy_vector, a.ll, a.irreducibles) == (b.loewy_vector, b.ll,
                                                         b.irreducibles)


def key_params(zs):
    """(q, n, z) with n = ord_z(q) for every key of the given z."""
    for z in zs:
        for key in subgroup_representatives(z):
            yield key.q_rep, mult_order(key.q_rep % z, z), z


class TestDegreeKernel:
    """The pointer-doubling kernel equals the z*nu residue-sum formula, run
    as a batch of one and in batches of rows with mixed nu."""

    @staticmethod
    def check_batch(params, oracle=None):
        got = degrees_and_orbit_min(params)
        assert len(got) == len(params)
        for (q, n, z), arrays in zip(params, got):
            want = oracle[q, n, z] if oracle else residue_sum_degrees(q, n, z)
            assert all(a.dtype == np.int64 for a in arrays)
            assert np.array_equal(arrays[0], want[0]), (q, n, z)
            assert np.array_equal(arrays[1], want[1]), (q, n, z)

    @classmethod
    def check(cls, q, n, z):
        cls.check_batch([(q, n, z)])

    @pytest.fixture(scope="class")
    def oracle(self):
        return {p: residue_sum_degrees(*p)
                for p in key_params(list(range(1, 301)) + [9990, 9991])}

    def test_small_keys(self, oracle):
        for p in key_params(range(1, 301)):
            self.check_batch([p], oracle)

    def test_large_keys(self, oracle):
        for p in key_params([9990, 9991]):
            self.check_batch([p], oracle)
        for q, n, z in key_params([997, 3000]):
            self.check(q, n, z)

    def test_mixed_batches(self, oracle):
        # the scan's order, one batch per z, and random cuts of a shuffle,
        # which put rows of every nu side by side
        params = list(oracle)
        small = [p for p in params if p[2] <= 300]
        self.check_batch(small, oracle)
        for z in (1, 2, 12, 97, 299, 300):
            self.check_batch([p for p in params if p[2] == z], oracle)
        rng = random.Random(20191206)
        for _ in range(3):
            rng.shuffle(params)
            cuts = sorted(rng.sample(range(1, len(params)), 60))
            for lo, hi in zip([0] + cuts, cuts + [len(params)]):
                self.check_batch(params[lo:hi], oracle)

    def test_rows_of_one_nu(self, oracle):
        # every row shares every digit, so each pass runs unmasked over
        # several rows
        by_nu = {}
        for q, n, z in oracle:
            by_nu.setdefault(n, []).append((q, n, z))
        for params in by_nu.values():
            self.check_batch(params, oracle)

    def test_nu_below_n(self):
        # the degrees scale by n/nu
        for q, n, z in [(3, 12, 70), (2, 11, 89), (5, 10, 295928), (7, 4, 100)]:
            for mult in (2, 3):
                self.check(q, mult * n, z)
                alg = Algebra(q, mult * n, z)
                assert alg.nu == n and alg.m() == mult * Algebra(q, n, z).m()

    def test_nu_one(self):
        # q = 1 mod z: pi is the identity and every index is its own orbit
        for z in (1, 2, 3, 10, 97, 1000):
            for q, n in [(z + 1, 1), (z + 1, 3), (2 * z + 1, 2)]:
                self.check(q, n, z)
                (_, orbit_min), = degrees_and_orbit_min([(q, n, z)])
                assert orbit_min.tolist() == list(range(z + 1))

    def test_tiny_z(self):
        for q, n in [(2, 1), (2, 5), (3, 2), (7, 3), (2**62 + 1, 1)]:
            self.check(q, n, 1)
        for q, n in [(3, 1), (3, 2), (5, 4), (2**62 + 1, 1)]:
            self.check(q, n, 2)
        alg = Algebra(2, 5, 1)
        assert alg.degrees.tolist() == [0, 5] and alg.orbit_min.tolist() == [0, 1]
        assert alg.m() == 5

    def test_algebra_uses_the_kernel(self):
        for q, n, z in key_params([70, 997]):
            alg = Algebra(q, n, z)
            want = residue_sum_degrees(q, n, z)
            assert np.array_equal(alg.degrees, want[0])
            assert np.array_equal(alg.orbit_min, want[1])
            assert alg.m() == int(want[0][1:].min())


class TestLockstepBatch:
    """`loewy_profiles` runs one DP for a whole batch; every batch, however
    it is cut, gives each algebra the profile of its batch of one."""

    ZS = list(range(1, 141)) + [997]

    @pytest.fixture(scope="class")
    def singles(self):
        return [alg.loewy_profile() for alg in key_algebras(self.ZS)]

    def test_one_batch(self, singles):
        assert_same_profiles(loewy_profiles(key_algebras(self.ZS)), singles)

    def test_random_cuts(self, singles):
        rng = random.Random(20191206)
        for _ in range(3):
            algs = key_algebras(self.ZS)
            cuts = sorted(rng.sample(range(1, len(algs)), rng.randint(1, 80)))
            got = []
            for lo, hi in zip([0] + cuts, cuts + [len(algs)]):
                got += loewy_profiles(algs[lo:hi])
            assert_same_profiles(got, singles)

    def test_mixed_widths_share_padding(self):
        # rows of z = 1, 2 and 997 in one batch, narrow ones between wide ones
        algs = key_algebras([1, 2, 997])
        random.Random(7).shuffle(algs)
        want = [Algebra(a.q, a.n, a.z).loewy_profile() for a in algs]
        assert_same_profiles(loewy_profiles(algs), want)

    def test_against_quadratic_dp(self):
        algs = key_algebras(range(1, 41))
        for alg, profile in zip(algs, loewy_profiles(algs)):
            assert np.array_equal(profile.lam, quadratic_loewy_layers(alg)), alg

    def test_shuffled_cuts(self, singles):
        # rows of mixed z and nu side by side, in the degree kernel as well
        # as in the DP
        rng = random.Random(1206)
        algs = key_algebras(self.ZS)
        order = list(range(len(algs)))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, len(order)), 40))
        got = {}
        for lo, hi in zip([0] + cuts, cuts + [len(order)]):
            batch = order[lo:hi]
            got.update(zip(batch, loewy_profiles([algs[i] for i in batch])))
        assert_same_profiles([got[i] for i in range(len(algs))], singles)
        for alg in algs:
            want = Algebra(alg.q, alg.n, alg.z)
            assert np.array_equal(alg.degrees, want.degrees), alg
            assert np.array_equal(alg.orbit_min, want.orbit_min), alg

    def test_one_kernel_call_per_batch(self, monkeypatch):
        calls = []

        def kernel(params):
            calls.append(list(params))
            return degrees_and_orbit_min(params)

        monkeypatch.setattr(algebra, "degrees_and_orbit_min", kernel)
        algs = key_algebras([12, 13, 97])
        assert calls == []  # construction only checks the parameters
        algs[0].loewy_profile()
        loewy_profiles(algs)
        assert algs[3].m() == Algebra(algs[3].q, algs[3].n, algs[3].z).m()
        assert calls == [[(algs[0].q, algs[0].n, 12)],
                         [(a.q, a.n, a.z) for a in algs[1:]],
                         [(algs[3].q, algs[3].n, algs[3].z)]]

    def test_cached_profiles_are_reused(self):
        algs = key_algebras([12, 13])
        first = algs[2].loewy_profile()
        profiles = loewy_profiles(algs)
        assert profiles[2] is first
        assert all(alg.loewy_profile() is p for alg, p in zip(algs, profiles))


class TestWitnessPins:
    """Factor indices recorded while the DP still stored back-pointers."""

    def test_z70_every_index(self):
        alg = Algebra(3, 12, 70)
        for k in range(1, 70):
            w = alg.witness(k)
            assert len(w) == 1 and w.factor_indices == (k,)
        w = alg.witness(70)
        assert len(w) == 2 and w.factor_indices == (1, 69)

    def test_z5551_top(self):
        w = Algebra(9, 15, 5551).witness(5551)
        assert len(w) == 3 and w.factor_indices == (2, 2529, 3020)


class TestSameTable:
    def test_pairs(self):
        assert same_table(Algebra(2, 4, 5), Algebra(3, 4, 5))
        assert not same_table(Algebra(3, 4, 40), Algebra(19, 2, 40))
        alg = Algebra(3, 12, 70)
        assert same_table(alg, alg)

    def test_table_capacity(self, monkeypatch):
        # a (z - 1)^2 table of 1 TiB is refused before it is allocated
        alg = Algebra(2, 20, 1048575)
        monkeypatch.setattr(algebra.np, "zeros", unreachable)
        with pytest.raises(CapacityError):
            validity_table(alg)

    def test_rejects_mismatched_dimension(self):
        with pytest.raises(DomainError):
            same_table(Algebra(2, 4, 5), Algebra(2, 4, 15))


class TestPositionwiseRule:
    """The degree test equals the position-wise carry test on the residue
    rows k*q^i mod z: Loewy layers, left factors, the validity table and
    the degree histogram."""

    CASES = [(3, 12, 70), (2, 3, 7), (29, 6, 117)] + [
        (key.q_rep, mult_order(key.q_rep % 97, 97), 97)
        for key in subgroup_representatives(97)]

    @pytest.mark.parametrize("q,n,z", CASES)
    def test_matches_positionwise(self, q, n, z):
        alg = Algebra(q, n, z)
        rows = residue_rows(alg)
        profile = alg.loewy_profile()
        lam = profile.lam
        assert np.array_equal(lam, quadratic_loewy_layers(alg))

        for k in range(1, z + 1):
            want = next((i for i in profile.irreducibles if i < k
                         and positionwise_product(rows, i, k - i)
                         and lam[k - i] == lam[k] - 1), -1)
            assert alg.left_factor(k) == want, k

        table = np.array([[positionwise_product(rows, k, l) for l in range(1, z)]
                          for k in range(1, z)], dtype=bool)
        assert np.array_equal(validity_table(alg), table)

        scale = (q - 1) * (n // alg.nu)
        degrees = [int(rows[k].sum()) * scale // z for k in range(1, z)]
        degrees.append(n * (q - 1))
        assert alg.degree_histogram() == Counter(degrees)
