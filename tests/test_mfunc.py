import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement
from math import gcd

import pytest

from conftest import bezout_constant, m_digit_scan, m_groups_per_unit
from loewy import arith, mfunc
from loewy.arith import cyclic_powers
from loewy.errors import CapacityError, DomainError
from loewy.mfunc import (
    GRID_CAPACITY,
    INDEX_CAPACITY,
    WITNESS_CAPACITY,
    LargeMCase,
    classify_large_m,
    exponent_digits,
    m_bfs,
    m_closed_form,
    m_functional_equation,
    m_groups_by_generator,
    m_groups_by_residue,
    m_value,
    m_via_z,
    render_m_grid_csv,
    render_m_groups,
    residue_witness,
    small_e_candidates,
)


def unreachable(*args):
    raise AssertionError("capacity check came after an allocation")


def check_witness(result, q, e):
    assert result.witness is not None
    assert len(result.witness) == result.m
    assert sum(pow(q, i, e) for i in result.witness) % e == 0


def dict_bfs(q, e):
    """Reference BFS over Z/e with a dict per residue: each residue's parent
    is the first (r, i) found, over the previous layer in ascending r and
    the powers q^i in ascending i."""
    powers = cyclic_powers(q, e)
    dist = {}
    parent = {}
    frontier = []
    for i, r in enumerate(powers):
        if r not in dist:
            dist[r] = 1
            parent[r] = i
            frontier.append(r)
    t = 1
    while 0 not in dist:
        t += 1
        new = []
        for r in sorted(frontier):
            for i, s in enumerate(powers):
                v = (r + s) % e
                if v not in dist:
                    dist[v] = t
                    parent[v] = i
                    new.append(v)
        frontier = new
    out = []
    r = 0
    for _ in range(dist[0]):
        i = parent[r]
        out.append(i)
        r = (r - powers[i]) % e
    return dist[0], tuple(sorted(out))


# (q, e, m, witness) recorded from the former numpy BFS, which served e >= 4096.
BFS_4097_4099 = [
    (2, 4097, 2, (0, 12)), (3, 4097, 3, (51, 80, 223)), (4, 4097, 2, (0, 6)),
    (5, 4097, 4, (15, 44, 47, 72)), (6, 4097, 4, (8, 39, 49, 58)),
    (7, 4097, 2, (0, 120)), (8, 4097, 2, (0, 4)), (9, 4097, 4, (1, 40, 83, 97)),
    (10, 4097, 3, (0, 50, 160)), (11, 4097, 2, (0, 24)),
    (5, 4098, 2, (0, 341)), (7, 4098, 6, (0, 0, 0, 0, 0, 166)),
    (11, 4098, 2, (0, 341)),
    (2, 4099, 2, (0, 2049)), (3, 4099, 2, (0, 683)), (4, 4099, 3, (0, 0, 1025)),
    (5, 4099, 3, (0, 0, 532)), (6, 4099, 3, (0, 0, 1261)), (7, 4099, 2, (0, 683)),
    (8, 4099, 2, (0, 683)), (9, 4099, 3, (55, 342, 389)),
    (10, 4099, 2, (0, 2049)), (11, 4099, 3, (0, 0, 1643)),
]


class TestBfs:
    def test_anchors(self):
        assert m_bfs(2, 7).m == 3
        assert m_bfs(5, 33).m == 3
        assert m_bfs(9, 1).m == 1

    def test_witnesses(self):
        for q, e in [(2, 7), (5, 33), (3, 11), (7, 100), (23, 4096)]:
            check_witness(m_bfs(q, e), q, e)

    def test_q_congruent_one(self):
        assert m_bfs(8, 7).m == 7

    def test_matches_dict_bfs(self):
        for q in range(1, 31):
            for e in range(1, 401):
                if gcd(q, e) == 1:
                    result = m_bfs(q, e)
                    assert (result.m, result.witness) == dict_bfs(q, e), (q, e)

    def test_pinned_4097_to_4099(self):
        cells = [(q, e) for e in range(4097, 4100) for q in range(2, 12)
                 if gcd(q, e) == 1]
        assert cells == [(q, e) for q, e, _, _ in BFS_4097_4099]
        for q, e, m, witness in BFS_4097_4099:
            result = m_bfs(q, e)
            assert (result.m, result.witness) == (m, witness), (q, e)

    def test_many_layers(self):
        # q = 1 mod e: one residue per layer, m = e
        result = m_bfs(10008, 10007)
        assert result.m == 10007 and result.witness == (0,) * 10007
        # 1010 = 1 mod 1009 and has order 3 mod 7: powers 1, 1010, 1010^2
        result = m_bfs(1010, 7063)
        assert result.m == 1009
        assert (result.m, result.witness) == dict_bfs(1010, 7063)

    def test_rejects_common_factor(self):
        with pytest.raises(DomainError):
            m_bfs(6, 9)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            m_bfs(3, (1 << 31) + 2)


class TestDigitScan:
    def test_anchors(self):
        assert m_digit_scan(3, 12, 7592).m == 8
        assert m_digit_scan(55, 8, 680763722688).m == 126

    def test_full_modulus(self):
        # z = 1: the single multiple is q^n - 1 with the all-maximal expansion
        for q, n in [(3, 4), (7, 2), (2, 9)]:
            assert m_digit_scan(q, n, q**n - 1).m == n * (q - 1)

    def test_records_minimizer(self):
        result = m_digit_scan(3, 12, 7592)
        assert result.k_min == 1
        check_witness(result, 3, 7592)

    def test_divisibility_check(self):
        with pytest.raises(DomainError):
            m_digit_scan(3, 4, 7)


class TestViaZ:
    def test_anchors(self):
        assert m_via_z(3, 12, 70).m == 8
        assert m_via_z(9, 15, 5551).m == 24
        assert m_via_z(4, 6, 1).m == 18

    def test_witness_from_residues(self):
        result = m_via_z(3, 12, 70)
        assert result.witness is None and result.k_min == 1
        e = (3**12 - 1) // 70
        witness = residue_witness(3, 12, 70, result)
        check_witness(replace(result, witness=witness), 3, e)
        assert witness == m_digit_scan(3, 12, e).witness

    def test_witness_capacity(self, monkeypatch):
        # m = 2^61 is computed, but its witness is refused before any digit
        result = m_via_z(2**62 + 1, 1, 2)
        assert (result.m, result.k_min) == (2**61, 1)
        monkeypatch.setattr(mfunc, "exponent_digits", unreachable)
        with pytest.raises(CapacityError):
            residue_witness(2**62 + 1, 1, 2, result)
        with pytest.raises(CapacityError):
            residue_witness(3, 12, 70, replace(result, m=WITNESS_CAPACITY + 1))

    def test_rejects_bad_modulus(self):
        with pytest.raises(DomainError):
            m_via_z(3, 4, 7)

    def test_int64_capacity(self):
        # the index budget keeps the kernel's products and sums in int64
        assert INDEX_CAPACITY**2 < 1 << 63
        # degrees above 2^62 are refused
        with pytest.raises(CapacityError):
            m_via_z(2**62 + 3, 1, 2)

    def test_index_capacity(self, monkeypatch):
        # z one past the budget is refused before the kernel allocates;
        # z at the budget reaches the kernel
        def kernel(*args):
            raise AssertionError("kernel reached")

        monkeypatch.setattr(mfunc, "degrees_and_orbit_min", kernel)
        z = INDEX_CAPACITY + 1
        with pytest.raises(CapacityError):
            m_via_z(z + 1, 1, z)
        with pytest.raises(AssertionError, match="kernel reached"):
            m_via_z(z, 1, z - 1)


class TestExponentDigits:
    def test_row_values(self):
        assert exponent_digits(3, 12, 70, 1) == [2, 1, 0, 2, 0, 1, 1, 0, 1, 0, 0, 0]
        assert exponent_digits(3, 12, 70, 35) == [1] * 12
        assert exponent_digits(3, 12, 70, 70) == [2] * 12
        assert exponent_digits(3, 12, 70, 0) == [0] * 12

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            exponent_digits(3, 12, 70, 71)


class TestClosedForm:
    def test_two_power(self):
        assert m_closed_form(5, 32).m == 4
        assert m_closed_form(17, 32).m == 16
        assert m_closed_form(31, 32).m == 2
        assert m_closed_form(3, 32).m == 4

    def test_eleven_power(self):
        assert m_closed_form(3, 11).m == 3
        assert m_closed_form(2, 11).m == 2   # ord 10 even
        assert m_closed_form(4, 121).m == 3  # ord 55 = 5 * 11
        assert m_closed_form(81, 121).m == 5  # ord 5 only

    def test_trivial_cases(self):
        assert m_closed_form(5, 1).m == 1
        assert m_closed_form(8, 7).m == 7
        assert m_closed_form(3, 2).m == 2
        assert m_closed_form(6, 7).m == 2  # q = -1 mod e

    def test_order_two(self):
        # ord_e(q) <= 2: m is e1 or 2 e1 by the parity dichotomy
        assert m_closed_form(3, 8).m == 4
        assert m_closed_form(5, 24).m == 8

    def test_pierpont_rule(self):
        assert m_closed_form(2, 7).m == 3  # ord 3: odd, divisible by 3

    def test_no_rule(self):
        # 43 is not a Pierpont prime and ord_43(2) = 14 is neither phi/2
        # nor covered by any congruence rule
        assert m_closed_form(2, 43) is None

    def test_work_per_query(self, monkeypatch):
        # Over the mtable grid a query tests e and e/2 for a prime power at
        # most once each, and computes at most one order and one phi, the
        # phi inside mult_order included.  A second call does the same work:
        # nothing is kept from one query to the next.
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append((name, args))
                return fn(*args)
            return wrapper

        phi = counted("phi", arith.euler_phi)
        monkeypatch.setattr(mfunc, "prime_power_base", counted("base", arith.prime_power_base))
        monkeypatch.setattr(mfunc, "mult_order", counted("order", arith.mult_order))
        monkeypatch.setattr(mfunc, "euler_phi", phi)
        monkeypatch.setattr(arith, "euler_phi", phi)
        totals = Counter()
        for q in range(2, 31):
            for e in range(2, 201):
                if gcd(q, e) != 1:
                    continue
                work = []
                for _ in range(2):
                    calls.clear()
                    m_closed_form(q, e)
                    work.append(list(calls))
                assert work[0] == work[1], (q, e)
                tested = Counter(args[0] for name, args in work[0] if name == "base")
                assert set(tested) <= {e, e // 2} and max(tested.values(), default=0) <= 1
                names = Counter(name for name, _ in work[0])
                assert names["order"] <= 1 and names["phi"] <= 1, (q, e, names)
                totals.update(names)
        assert totals["base"] and totals["order"] and totals["phi"], totals

    def test_dispatch(self):
        assert m_value(2, 43).method == "bfs"
        assert m_value(2, 43).m == 2
        assert m_value(5, 32).method == "closed_form"


class TestClassifyLargeM:
    def test_table_cases(self):
        assert classify_large_m(4, 15) == LargeMCase("IV", 6)
        assert classify_large_m(5, 24) == LargeMCase("IV", 8)
        assert classify_large_m(19, 15) == LargeMCase("IV", 6)  # 19 = 4 mod 15

    def test_families(self):
        assert classify_large_m(7, 12) == LargeMCase("I", 6)
        assert classify_large_m(11, 15) == LargeMCase("III", 5)
        assert classify_large_m(4, 9) == LargeMCase("II", 3)

    def test_none(self):
        assert classify_large_m(2, 9).case_id == "none"

    def test_rejects_q_congruent_one(self):
        with pytest.raises(DomainError):
            classify_large_m(16, 15)


class TestFunctionalEquation:
    def test_quotient_modulus(self):
        # e = (q^n - 1)/(q^n' - 1) gives m = n/n'
        for q, n, n_prime in [(2, 12, 4), (3, 6, 2), (5, 8, 1)]:
            e = (q**n - 1) // (q**n_prime - 1)
            assert m_functional_equation(q, n, n_prime, 1) == n // n_prime
            assert m_bfs(q, e).m == n // n_prime

    def test_scaled_modulus(self):
        # e = e'(q^n - 1)/(q - 1) gives m = n e'
        q, n, e_prime = 3, 4, 2
        e = e_prime * (q**n - 1) // (q - 1)
        assert m_functional_equation(q, n, 1, e_prime) == n * e_prime
        assert m_bfs(q, e).m == n * e_prime

    def test_identity(self):
        assert m_functional_equation(5, 10, 10, 33) == m_value(5, 33).m

    def test_rejects_bad_divisibility(self):
        with pytest.raises(DomainError):
            m_functional_equation(3, 10, 4, 1)


class TestSmallECandidates:
    def test_degree_five(self):
        result = small_e_candidates(5, 4)
        assert result[3] == {11}
        assert result[4] == {61}

    def test_degree_five_order_filter(self):
        # 11 divides the constant of a 4-tuple, but no q of order 5 modulo 11
        # has m(q, 11) = 4, so 11 is listed under m = 3 only
        assert any(mfunc._candidate_constant(5, (0, *rest)) % 11 == 0
                   for rest in combinations_with_replacement(range(4), 3))
        assert not mfunc._m_achievable(11, 5, 4)

    def test_degree_seven(self):
        result = small_e_candidates(7, 3)
        assert result[3] == {43}

    def test_degree_seven_to_m_six(self):
        assert small_e_candidates(7, 6) == {
            3: {43}, 4: {29, 71, 547}, 5: {113, 197, 421, 463, 3277},
            6: {211, 379, 449, 757, 2689, 3053, 13021}}

    def test_degree_eleven(self):
        assert small_e_candidates(11, 4) == {
            3: {23, 683}, 4: {67, 89, 419, 661, 991, 1541, 44287}}

    def test_constant_matches_bezout(self):
        # the norm in Z[zeta_n] against the extended Euclid over Q
        checked = 0
        for n, m_max in ((3, 2), (5, 4), (7, 6), (11, 4)):
            for m in range(1, m_max + 1):
                for rest in combinations_with_replacement(range(n - 1), m - 1):
                    tup = (0, *rest)
                    assert mfunc._candidate_constant(n, tup) == bezout_constant(n, tup), (n, tup)
                    checked += 1
        assert checked == 3 + 35 + 462 + 286

    def test_rejects_composite_degree(self):
        with pytest.raises(DomainError):
            small_e_candidates(6, 3)
        with pytest.raises(DomainError):
            small_e_candidates(5, 5)


class TestTables:
    def test_grid_render(self):
        text = render_m_grid_csv(range(2, 4), range(2, 8))
        lines = text.strip().splitlines()
        assert lines[0] == "q,2,3,4,5,6,7"
        assert lines[1] == "2,,2,,2,,3"
        assert lines[2] == "3,2,,2,2,,2"

    def test_grid_capacity(self):
        with pytest.raises(CapacityError, match="cells"):
            render_m_grid_csv(range(2, 10**10 + 1), range(2, 4))
        with pytest.raises(CapacityError, match="cells"):
            mfunc.m_grid(range(2, 4), range(2, GRID_CAPACITY))

    @pytest.mark.parametrize("q_range,e_range", [
        (range(2**64 - 20000, 2**64), range(3, 3)),  # one q cell per row
        (range(2**64 - 20000, 2**64), range(3, 4)),
        (range(2, 5002), range(2, 6)),
    ])
    def test_peak_memory_per_cell(self, q_range, e_range):
        tracemalloc.start()
        try:
            render_m_grid_csv(q_range, e_range)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / ((len(q_range) + 1) * (len(e_range) + 1)) <= mfunc._BYTES_PER_CELL

    def test_groups_refused_before_the_first_row(self, monkeypatch):
        def unreachable(e):
            raise AssertionError(f"row e={e} computed")
        monkeypatch.setattr(mfunc, "m_groups_by_residue", unreachable)
        with pytest.raises(CapacityError):
            render_m_groups(range(2, mfunc.GROUPS_CAPACITY + 2))

    def test_groups_by_residue(self):
        groups = m_groups_by_residue(31)
        assert groups[5] == [2, 4, 8, 16]

    def test_groups_by_residue_per_unit(self):
        for e in range(1, 301):
            assert m_groups_by_residue(e) == m_groups_per_unit(e), e

    def test_groups_by_residue_once_per_subgroup(self):
        # one m search per unit took 7.8 s at this e, on 2 CPUs
        start = time.perf_counter()
        groups = m_groups_by_residue(4099)
        assert time.perf_counter() - start < 2
        assert sum(len(qs) for qs in groups.values()) == 4097

    def test_groups_by_generator(self):
        groups = m_groups_by_generator(61)
        assert groups[2] == [2, 3, 4, 8, 11, 14, 21, 60]
        assert groups[3] == [12, 13]
        assert groups[4] == [9]

    def test_groups_render(self):
        text = render_m_groups([32], by="residues")
        assert text == ("32; 2: {31}; 4: {3, 5, 7, 11, 13, 15, 19, 21, 23, 27, 29}; "
                        "8: {9, 25}; 16: {17}\n")
        with pytest.raises(DomainError):
            render_m_groups([10], by="columns")
