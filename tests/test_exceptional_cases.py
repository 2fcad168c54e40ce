"""Known exceptional parameter sets where the Loewy length stays below its
upper bound, pinned individually (the bound-gap census over z <= 99 lives in
the acceptance suite)."""

from loewy.algebra import Algebra
from loewy.arith import is_prime
from loewy.database import scan_records


def test_smallest_dimension_with_longer_length_gap():
    # up to z = 195 exactly one record has a gap together with LL >= 4
    hits = [(rec.key.z, rec.key.q_rep, rec.n, rec.ll, rec.gap)
            for rec in scan_records(2, 195)
            if rec.gap > 0 and rec.ll >= 4]
    assert hits == [(195, 7, 12, 4, 1)]


def test_gap_with_minimal_variable_count():
    rep = Algebra(223, 5, 1353).loewy_profile()
    assert rep.gap == 1
    assert (rep.ll, rep.bound, rep.m) == (7, 8, 148)


def test_gap_with_prime_modulus():
    alg = Algebra(3, 43, 862)
    rep = alg.loewy_profile()
    assert (rep.ll, rep.bound, rep.gap, rep.m) == (3, 4, 1, 26)
    e = alg.e()
    assert e == 380808546861411923
    assert is_prime(e)
    assert ((3**43 - 1) // 2) % e == 0


def test_minimal_degree_factors_never_in_top_decomposition_q55():
    # all maximal factorizations of the top monomial avoid degree-m factors
    alg = Algebra(55, 8, 123)
    w = alg.witness(alg.z)
    degrees = sorted(sum(vec) for vec in w.factor_vectors)
    assert len(w) == 3
    assert degrees == [144, 144, 144]
    assert alg.m() == 126  # the minimal degree itself is smaller
