"""Acceptance gate: one test per criterion, each printing a pass line with
its elapsed time (run with -s to see the lines live)."""

import random
import time
from math import gcd

import numpy as np
import pytest

from conftest import (
    DenseOracle,
    exact_exponent_vector,
    m_by_subgroup,
    m_digit_scan,
    quadratic_loewy_layers,
)
from data.m_small_grid import (
    E31_RESIDUE_GROUPS,
    E32_RESIDUE_GROUPS,
    E61_GENERATOR_GROUPS,
    M_GRID_SMALL,
)
from loewy.algebra import Algebra, same_table, validity_table
from loewy.arith import divisors, factorize, is_prime, mult_order, prime_power_base
from loewy.database import scan_records, scan_to_file, stats, subgroup_representatives
from loewy.invariants import frobenius_image_set, radical_power, set_product, socle_series
from loewy.mfunc import (
    classify_large_m,
    m_bfs,
    m_closed_form,
    m_grid,
    m_groups_by_generator,
    m_groups_by_residue,
    m_via_z,
    small_e_candidates,
)


def report(number, started, text):
    print(f"ACCEPTANCE {number:02d} PASS ({time.time() - started:.1f}s): {text}")


def test_criterion_01_small_grid():
    t0 = time.time()
    grid = m_grid(range(2, 31), range(2, 31))
    printed = {(q, e): m for (q, e), m in M_GRID_SMALL.items() if q >= 2}
    assert set(printed) == {(q, e) for (q, e) in grid if q < e}
    for cell, expected in printed.items():
        assert grid[cell] == expected, cell
    # cells below the diagonal only depend on q modulo e
    for (q, e), m in grid.items():
        if q > e and (q % e, e) in grid:
            assert m == grid[(q % e, e)]
    assert grid[(2, 7)] == 3 and grid[(4, 15)] == 6
    assert grid[(5, 24)] == 8 and grid[(3, 8)] == 4
    report(1, t0, "m grid 2<=q,e<=30 matches the 277 frozen cells")


def test_criterion_02_grouped_rows():
    t0 = time.time()
    assert m_groups_by_residue(31) == E31_RESIDUE_GROUPS
    assert m_groups_by_residue(32) == E32_RESIDUE_GROUPS
    assert m_groups_by_generator(61) == E61_GENERATOR_GROUPS
    assert set(E61_GENERATOR_GROUPS[2]) >= {2, 3, 4, 8, 11, 14, 21, 60}
    report(2, t0, "grouped rows for e in {31, 32, 61} match")


def test_criterion_03_oracle_triangle():
    t0 = time.time()
    rng = random.Random(2024)
    pool = []
    for q in range(2, 46):
        for n in range(2, 13):
            top = q**n - 1
            if top > 8 * 10**7:
                break
            for e in divisors(top):
                z = top // e
                if e <= 20000 and z <= 3000 and gcd(q, e) == 1:
                    pool.append((q, n, e, z))
    assert len(pool) >= 500
    for q, n, e, z in rng.sample(pool, 500):
        a = m_bfs(q, e).m
        b = m_digit_scan(q, n, e).m
        c = m_via_z(q, n, z).m
        assert a == b == c, (q, n, e, z)
    report(3, t0, "BFS = digit scan = residue formula on 500 random pairs")


def _spectrum_by_residue(e):
    """m(b, e) for every unit b modulo e, via one BFS per cyclic subgroup."""
    out = {1 % e: e if e > 1 else 1}
    for q_rep, m in m_by_subgroup(e).items():
        if q_rep == e + 1:
            continue
        order = mult_order(q_rep, e)
        members = {pow(q_rep, i, e) for i in range(1, order + 1)}
        for b in members:
            if mult_order(b, e) == order:
                out[b] = m
    # remaining units belong to proper sub-subgroups; fill by direct BFS
    for b in range(2, e):
        if gcd(b, e) == 1 and b not in out:
            out[b] = m_bfs(b, e).m
    return out


def test_criterion_04_closed_form_sweep():
    t0 = time.time()
    from loewy.mfunc import _CLOSED_FORM_RULES, closed_form_facts

    moduli = list(range(1, 301))
    moduli += [2**k for k in range(9, 13)]  # up to 4096
    moduli += [p**k for p in (3, 5, 7, 11, 13, 17) for k in (2, 3) if p**k > 300]
    moduli += [2 * p**k for p in (3, 5, 7, 11) for k in (1, 2, 3)
               if 2 * p**k > 300]
    per_rule = {rule_id: 0 for rule_id, _ in _CLOSED_FORM_RULES}
    for e in moduli:
        spectrum = _spectrum_by_residue(e)
        for b, m in spectrum.items():
            test_qs = (b, b + e) if b > 1 else (b + e,)
            for q in test_qs:
                if q < 2:
                    continue
                facts = closed_form_facts(q, e)
                for rule_id, rule in _CLOSED_FORM_RULES:
                    value = rule(facts)
                    if value is not None:
                        per_rule[rule_id] += 1
                        assert value == m, (q, e, rule_id, value)
                if e > 1 and q % e != 1 % e:
                    case = classify_large_m(q, e)
                    assert (case.case_id != "none") == (3 * m >= e), (q, e)
                    if case.case_id != "none":
                        assert case.certified_m == m, (q, e, case)
    assert all(count >= 200 for count in per_rule.values()), per_rule
    report(4, t0, f"every closed form and the large-m classification agree "
                  f"with BFS; per-rule firings {per_rule}")


def test_criterion_05_z70_profile():
    t0 = time.time()
    alg = Algebra(3, 12, 70)
    rep = alg.loewy_profile()
    assert (rep.m, rep.ll, rep.bound) == (8, 3, 4)
    rows = {r.k: r for r in alg.orbit_report()}
    expected_exact = {
        1: ((2, 1, 0, 2, 0, 1, 1, 0, 1, 0, 0, 0), 12, 8),
        2: ((1, 0, 1, 1, 1, 2, 2, 0, 2, 0, 0, 0), 12, 10),
        5: ((1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0, 0), 6, 12),
        7: ((2, 2, 0, 0, 2, 2, 0, 0, 2, 2, 0, 0), 4, 12),
        10: ((2, 1, 2, 0, 1, 0, 2, 1, 2, 0, 1, 0), 6, 12),
        14: ((1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0), 4, 12),
        35: ((1,) * 12, 1, 12),
    }
    for k, (vec, length, degree) in expected_exact.items():
        assert rows[k].vector == vec
        assert (rows[k].orbit_length, rows[k].degree) == (length, degree)
    # the remaining two orbits are printed with other representatives; the
    # vectors agree up to cyclic shift
    def shifts(vec):
        return {tuple(vec[(j - s) % 12] for j in range(12)) for s in range(12)}

    others = [rows[k] for k in rows if k not in expected_exact]
    assert sorted((r.orbit_length, r.degree) for r in others) == [(12, 14), (12, 16)]
    deg14 = next(r for r in others if r.degree == 14)
    deg16 = next(r for r in others if r.degree == 16)
    assert deg14.vector in shifts((1, 2, 1, 1, 1, 0, 0, 2, 0, 2, 2, 2))
    assert deg16.vector in shifts((0, 1, 2, 0, 2, 1, 1, 2, 1, 2, 2, 2))
    assert len(rows) == 9
    report(5, t0, "A[3,12,70]: m=8, LL=3, bound=4, nine orbits as printed")


def test_criterion_06_loewy_vectors():
    t0 = time.time()
    assert Algebra(3, 4, 40).loewy_vector() == (1, 10, 19, 10, 1)
    assert Algebra(19, 2, 40).loewy_vector() == (1, 10, 19, 10, 1)
    assert Algebra(29, 6, 117).loewy_vector() == (1, 104, 12, 1)
    assert Algebra(35, 6, 117).loewy_vector() == (1, 104, 12, 1)
    report(6, t0, "Loewy vectors at z=40 and z=117 match")


def test_criterion_07_invariants():
    t0 = time.time()
    assert len(frobenius_image_set(Algebra(3, 4, 40), 2)) == 7
    assert len(frobenius_image_set(Algebra(19, 2, 40), 2)) == 11
    assert len(frobenius_image_set(Algebra(29, 6, 117), 2)) == 3
    assert len(frobenius_image_set(Algebra(35, 6, 117), 2)) == 3
    assert not same_table(Algebra(3, 4, 40), Algebra(19, 2, 40))
    assert same_table(Algebra(2, 4, 5), Algebra(3, 4, 5))
    report(7, t0, "square-image dimensions 7/11/3/3 and table comparisons")


def test_criterion_08_scan_to_99(tmp_path):
    t0 = time.time()
    out = tmp_path / "scan99.jsonl"
    scan_to_file(2, 99, str(out))
    from loewy.database import load_records

    summary = stats(load_records(str(out)))
    records = [rec for _, rec in load_records(str(out))]
    with_gap = sorted((r.key.q_rep, r.n, r.key.z) for r in records if r.gap > 0)
    assert with_gap == [(3, 12, 70), (5, 12, 91), (8, 12, 95)]
    assert all(r.gap == 0 for r in records if r.key.z < 70)
    assert summary["gap_positive"] == 3
    report(8, t0, f"scan z in [2,99]: {summary['parameter_pairs']} records, "
                  f"gaps exactly at (3,12,70), (5,12,91), (8,12,95)")


@pytest.mark.slow
def test_criterion_09_e33_slow_suite():
    t0 = time.time()
    alg = Algebra(5, 10, 295928)
    assert alg.e() == 33
    assert alg.loewy_vector() == (
        1, 440, 4296, 17770, 42595, 66482, 71186, 53392, 27865, 9710,
        2011, 180, 1,
    )
    w = alg.witness(alg.z)
    assert len(w) == 12
    assert w.factor_indices == (1, 95, 100, 947, 2375, 4735, 11875, 11875,
                                23675, 59375, 62500, 118375)
    cur = w.factor_indices[0]
    for idx in w.factor_indices[1:]:
        cur = alg.product_index(cur, idx)
        assert cur is not None
    assert cur == alg.z
    # the rule catalogue's gap formula matches the exact computation here
    from loewy.criteria import evaluate_criteria

    fired = {v.rule_id: v for v in evaluate_criteria(5, 10, z=295928)}
    assert fired["R16"].value == 0
    assert alg.loewy_length() == 10 * 4 // 3 + 0
    report(9, t0, "A(5,10,33): 13-entry Loewy vector, 12-factor witness, "
                  "gap formula confirmed")


def test_criterion_10_z5551():
    t0 = time.time()
    rep = Algebra(9, 15, 5551).loewy_profile()
    assert (rep.m, rep.ll, rep.bound, rep.gap) == (24, 4, 6, 2)
    report(10, t0, "A[9,15,5551]: m=24, LL=4, bound=6")


def test_criterion_11_q55():
    t0 = time.time()
    alg = Algebra(55, 8, 123)
    assert alg.degree_histogram() == {
        126: 8, 144: 1, 198: 32, 216: 40, 234: 32, 288: 1, 306: 8, 432: 1,
    }
    assert alg.m() == 126
    assert alg.loewy_length() == 4
    report(11, t0, "q=55 example: degree histogram, m=126, LL=4")


def test_criterion_12_small_modulus_loewy_lengths():
    t0 = time.time()
    assert Algebra(2, 3, 7).loewy_length() == 4
    assert Algebra(4, 1, 3).loewy_length() == 4
    for z in range(3, 201):
        pp = prime_power_base(z)
        if pp is None or pp[0] == 2:
            continue
        phi = (pp[0] - 1) * pp[0] ** (pp[1] - 1)
        gen = next(q for q in range(2, z) if gcd(q, z) == 1
                   and mult_order(q, z) == phi)
        assert Algebra(gen, phi, z).loewy_length() == 3, z
    for z in range(3, 201):
        if not is_prime(z):
            continue
        half = (z - 1) // 2
        q = 1 if half == 1 else next(
            q for q in range(2, z) if mult_order(q, z) == half)
        alg = Algebra(z + 1 if q == 1 else q, max(half, 1), z)
        expected = 4 if z in (3, 7) else 3
        assert alg.loewy_length() == expected, z
    report(12, t0, "full-order and half-order small-modulus Loewy lengths")


def test_criterion_13_candidate_lists():
    t0 = time.time()
    five = small_e_candidates(5, 4)
    assert five[3] == {11}
    assert five[4] <= {11, 61} and 61 in five[4]
    seven = small_e_candidates(7, 3)
    assert seven[3] == {43}
    report(13, t0, "finite candidate moduli for degrees 5 and 7")


def test_criterion_14_property_suites(tmp_path):
    t0 = time.time()
    # carry test vs digit-wise oracle at a random modulus near 2000
    rng = random.Random(14)
    z = 1987
    q = next(q for q in iter(lambda: rng.randrange(2, 8 * z), None)
             if gcd(q, z) == 1)
    n = mult_order(q % z, z)
    alg = Algebra(q, n, z)
    vecs = np.array([exact_exponent_vector(q, n, z, k) for k in range(z + 1)],
                    dtype=np.int64)
    table = validity_table(alg)
    for k in rng.sample(range(1, z), 40):
        sums = vecs[k][None, :] + vecs[1:z]
        fits = (sums <= q - 1).all(axis=1) & (k + np.arange(1, z) <= z)
        assert np.array_equal(table[k - 1], fits)
    # irreducible-restricted DP vs the quadratic DP at z = 1500
    key = subgroup_representatives(1500)[5]
    alg = Algebra(key.q_rep, mult_order(key.q_rep % 1500, 1500), 1500)
    assert np.array_equal(alg.loewy_profile().lam, quadratic_loewy_layers(alg))
    # index-set dimensions vs the dense rank oracle at z = 60
    alg = Algebra(7, 4, 60)
    oracle = DenseOracle(alg, 2)
    series = socle_series(alg)
    for j, members in enumerate(series, start=1):
        layer = radical_power(alg, j)
        assert oracle.annihilator_dim(layer) == len(members)
        assert oracle.product_span_dim(layer, members) == len(
            set_product(alg, layer, members))
    # byte-identical rescans
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    scan_to_file(2, 30, str(a))
    scan_to_file(2, 30, str(b))
    assert a.read_bytes() == b.read_bytes()
    report(14, t0, "property suites: carry oracle, DP equivalence, dense "
                   "ranks, deterministic rescans (full versions in the "
                   "dedicated test modules)")


def test_criterion_15_long_running_targets_documented():
    t0 = time.time()
    from loewy.database import FULL_SCALE_REFERENCE
    from loewy.invariants import FULL_SCALE_PAIR_COUNTS

    assert FULL_SCALE_REFERENCE["not_desk_verifiable"] is True
    assert FULL_SCALE_REFERENCE["z_range"] == [1, 10000]
    assert FULL_SCALE_REFERENCE["parameter_pairs"] == 768512
    assert FULL_SCALE_REFERENCE["distinct_loewy_vectors"] == 475581
    assert FULL_SCALE_REFERENCE["ll_three"] == 191608
    assert FULL_SCALE_REFERENCE["spike_vectors"] == 37400
    assert FULL_SCALE_REFERENCE["bound_not_attained"] == 10721
    assert FULL_SCALE_PAIR_COUNTS[(29, 6, 117)] == 2**221 * 119
    assert FULL_SCALE_PAIR_COUNTS[(35, 6, 117)] == 2**216 * 1069
    report(15, t0, "full-scale targets recorded as constants, not CI gates")
