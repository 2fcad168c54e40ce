import pytest

from conftest import DenseOracle, pair_count_brute
from loewy.algebra import Algebra
from loewy.arith import mult_order
from loewy.database import subgroup_representatives
from loewy.errors import CapacityError, DomainError
from loewy.invariants import (
    duality_check,
    frobenius,
    frobenius_image_set,
    frobenius_kernel_dims,
    ideal_dims_profile,
    invariant_report,
    pair_count,
    radical_power,
    report_difference,
    set_product,
    socle_series,
)


class TestFrobenius:
    def test_square_dimension_anchors(self):
        assert len(frobenius_image_set(Algebra(3, 4, 40), 2)) == 7
        assert len(frobenius_image_set(Algebra(19, 2, 40), 2)) == 11
        assert len(frobenius_image_set(Algebra(29, 6, 117), 2)) == 3
        assert len(frobenius_image_set(Algebra(35, 6, 117), 2)) == 3

    def test_partial_injection(self):
        alg = Algebra(3, 4, 40)
        frob = frobenius(alg, 2)
        assert frob.image[0] == 0
        assert frob.image[alg.z] is None  # the socle squares to zero
        defined = frob.defined_on_radical()
        assert all(frob.image[k] == 2 * k for k in defined)

    def test_kernel_dims(self):
        alg = Algebra(3, 4, 40)
        dims = frobenius_kernel_dims(alg, 2, 4)
        assert dims[0] == 40 - 7
        assert dims[-1] == alg.z  # the radical is nilpotent
        assert dims == sorted(dims)
        # strict growth up to the nilpotency degree of the power map
        stable = dims.index(alg.z)
        assert all(a < b for a, b in zip(dims[:stable], dims[1:stable + 1]))

    def test_matches_repeated_products(self):
        # the degree test against p - 1 products b_k * ... * b_k
        for z in (2, 7, 15, 40, 60):
            for key in subgroup_representatives(z):
                alg = Algebra(key.q_rep, mult_order(key.q_rep % z, z), z)
                for p in (2, 3, 5, 7, 61):
                    want = [0]
                    for k in range(1, z + 1):
                        cur = k
                        for _ in range(p - 1):
                            if cur is not None:
                                cur = alg.product_index(cur, k)
                        want.append(cur)
                    assert list(frobenius(alg, p).image) == want, (key, p)

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            frobenius(Algebra(3, 4, 40), 4)


class TestSocle:
    def test_simple_socle(self):
        for alg in (Algebra(3, 4, 40), Algebra(2, 4, 5), Algebra(3, 12, 70)):
            series = socle_series(alg)
            assert series[0] == frozenset({alg.z})

    def test_duality(self):
        for alg in (Algebra(3, 4, 40), Algebra(29, 6, 117), Algebra(55, 8, 123)):
            series = socle_series(alg)
            for j, members in enumerate(series, start=1):
                assert len(members) + len(radical_power(alg, j)) == alg.z + 1

    def test_forged_series_violates_duality(self):
        alg = Algebra(3, 4, 40)
        forged = socle_series(alg)
        forged[0] = forged[0] | {1}
        with pytest.raises(AssertionError, match="socle duality"):
            duality_check(alg, forged)


class TestIdealDims:
    def test_socle_kills_radical(self):
        alg = Algebra(3, 4, 40)
        j1 = radical_power(alg, 1)
        s1 = socle_series(alg)[0]
        assert set_product(alg, j1, s1) == frozenset()

    def test_monotone_sums(self):
        alg = Algebra(3, 4, 40)
        dims = ideal_dims_profile(alg)
        ll = alg.loewy_length()
        for j in range(1, ll):
            for i in range(1, ll):
                assert dims[f"dim_J^{i}+S_{j}"] >= dims[f"dim_J^{i + 1}+S_{j}"]
            for i in range(1, ll + 1):
                if j < ll - 1:
                    assert dims[f"dim_J^{i}+S_{j}"] <= dims[f"dim_J^{i}+S_{j + 1}"]

    def test_report_is_sorted_and_diffable(self):
        a = invariant_report(Algebra(3, 4, 40))
        b = invariant_report(Algebra(19, 2, 40))
        keys = [line.split("=", 1)[0] for line in a.strip().splitlines()]
        assert keys == sorted(keys)
        assert report_difference(a, b) == "dim_U_p2"
        assert report_difference(a, a) is None

    def test_z117_pair_not_separated(self):
        a = invariant_report(Algebra(29, 6, 117))
        b = invariant_report(Algebra(35, 6, 117))
        assert report_difference(a, b) is None


class TestDenseOracleAgreement:
    """Set-combinatorics dimensions equal dense F_p ranks for small z."""

    @pytest.mark.parametrize("z", [2, 5, 8, 12, 17, 20, 40, 47, 60])
    @pytest.mark.parametrize("p", [2, 3])
    def test_all_representatives(self, z, p):
        for key in subgroup_representatives(z):
            n = mult_order(key.q_rep % z, z) if z > 1 else 1
            alg = Algebra(key.q_rep, n, z)
            oracle = DenseOracle(alg, p)
            ll = alg.loewy_length()
            assert oracle.frobenius_image_dim() == len(frobenius_image_set(alg, p))
            assert (oracle.frobenius_kernel_dims(3)
                    == frobenius_kernel_dims(alg, p, 3))
            series = socle_series(alg)
            for j, members in enumerate(series, start=1):
                layer = radical_power(alg, j)
                assert oracle.annihilator_dim(layer) == len(members)
                assert oracle.product_span_dim(layer, members) == len(
                    set_product(alg, layer, members))


class TestPairCount:
    def test_whole_algebra(self):
        alg = Algebra(2, 4, 5)
        assert pair_count(alg, range(alg.z + 1)) == 2 ** (2 * (alg.z + 1))

    def test_zero_products(self):
        alg = Algebra(2, 4, 5)
        assert pair_count(alg, ()) == pair_count_brute(alg, ())

    def test_dim8_frozen(self):
        alg = Algebra(2, 3, 7)
        w = sorted(frobenius_image_set(alg, 2) | {alg.z})
        assert w == [7]
        count = pair_count(alg, w)
        assert count == pair_count_brute(alg, w)
        assert count == 6144

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            pair_count(Algebra(3, 4, 40), (40,))


class TestReferenceTargets:
    def test_full_scale_constants_documented(self):
        from loewy.database import FULL_SCALE_REFERENCE
        from loewy.invariants import FULL_SCALE_PAIR_COUNTS

        assert FULL_SCALE_REFERENCE["not_desk_verifiable"] is True
        assert FULL_SCALE_REFERENCE["parameter_pairs"] == 768512
        assert FULL_SCALE_REFERENCE["equivalence_classes_alt_count"] == 768511
        assert FULL_SCALE_REFERENCE["distinct_loewy_vectors"] == 475581
        assert FULL_SCALE_REFERENCE["ll_three"] == 191608
        assert FULL_SCALE_REFERENCE["spike_vectors"] == 37400
        assert FULL_SCALE_REFERENCE["bound_not_attained"] == 10721
        assert FULL_SCALE_PAIR_COUNTS["not_desk_verifiable"] is True
        assert FULL_SCALE_PAIR_COUNTS[(29, 6, 117)] == 2**221 * 119
        assert FULL_SCALE_PAIR_COUNTS[(35, 6, 117)] == 2**216 * 1069
