"""Tests of the benchmark's own oracles and tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
from tracing import Tracer, root_time, self_times  # noqa: E402


def test_digits_and_carry():
    assert oracles.digits(33 * 2, 5, 4) == [1, 3, 2, 0]
    assert oracles.carry_free([1, 3], [3, 1], 5)
    assert not oracles.carry_free([2, 3], [3, 1], 5)
    with pytest.raises(ValueError):
        oracles.digits(25, 5, 2)


def test_m_small_known_cases():
    assert oracles.m_brute(2, 7) == 3
    assert oracles.m_brute(9, 7) == 3  # 9 = 2 mod 7
    assert oracles.m_digits(5, 10, 33) == 3
    assert oracles.m_scan_size(2, 7) == 1
    assert oracles.m_scan_size(8, 7) is None
    assert oracles.m_reach(2, 7) == 3
    assert oracles.m_reach(8, 7) == 7  # q = 1 mod e
    assert oracles.m_reach(2, 4097) == 2  # 2^12 + 1 = 4097


def test_m_reach_agrees_with_the_digit_scan():
    from math import gcd
    for e in range(2, 60):
        for q in range(2, 2 * e + 2):
            if gcd(q, e) == 1 and 0 < (oracles.m_scan_size(q, e) or 0) <= 5000:
                assert oracles.m_reach(q, e) == oracles.m_brute(q, e), (q, e)


def test_loewy_small_known_cases():
    assert oracles.loewy_brute(2, 3, 7) == ((1, 3, 3, 1), 1)  # LL(A[2,3,7]) = 4, e = 1
    vector, _ = oracles.loewy_brute(3, 4, 40)
    assert vector == (1, 10, 19, 10, 1)


def test_cyclic_subgroup_counts():
    # (Z/7)^x = C6, (Z/8)^x = C2 x C2, (Z/15)^x = C2 x C4
    assert [oracles.cyclic_subgroup_count(z) for z in (1, 2, 7, 8, 15)] == [1, 1, 4, 4, 6]
    assert oracles.order(3, 7) == 6 and oracles.order(2, 7) == 3
    assert oracles.subgroup(2, 7) == {1, 2, 4}
    assert oracles.is_smallest_generator(3, 7) and not oracles.is_smallest_generator(5, 7)


def test_carry_table_detects_different_tables():
    same = oracles.carry_table(2, 4, 5) == oracles.carry_table(3, 4, 5)
    assert same.all()
    assert not (oracles.carry_table(3, 4, 40) == oracles.carry_table(19, 2, 40)).all()


def test_self_time_on_synthetic_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
        ("c", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == {"root": 6.0, "a": 3.0, "b": 1.0, "c": 1.0}
    assert root_time(spans) == 11.0


def test_tracer_wraps_every_binding_and_restores():
    import loewy.algebra
    import loewy.arith
    import loewy.database

    originals = (loewy.arith.mult_order, loewy.database.mult_order, loewy.database.same_table)
    tracer = Tracer()
    tracer.install()
    try:
        assert loewy.database.mult_order is loewy.arith.mult_order is not originals[0]
        assert loewy.database.same_table is loewy.algebra.same_table is not originals[2]
        loewy.database.compute_record(loewy.database.subgroup_representatives(7)[1])
    finally:
        tracer.remove()
    assert (loewy.arith.mult_order, loewy.database.mult_order,
            loewy.database.same_table) == originals
    names = [span[0] for span in tracer.spans]
    assert names[0] == "database.subgroup_representatives"
    record = names.index("database.compute_record")
    assert tracer.spans[names.index("algebra.loewy_profile")][3] == record
    assert tracer.counts["database.keys"] == 4
    assert tracer.counts["algebra.basis"] == 7


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mtable",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
