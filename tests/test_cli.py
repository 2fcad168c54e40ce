import argparse
import contextlib
import hashlib
import io
import json
import re
import signal
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loewy import algebra, mfunc
from loewy.arith import format_decimal, parse_decimal
from loewy.cli import build_parser, main
from loewy.errors import CapacityError

DATA = Path(__file__).parent / "data"
# 2^15000 - 1 has 4516 digits; str() refuses ints beyond 4300
E_15000 = format_decimal(2**15000 - 1)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestM:
    def test_basic(self, capsys):
        code, out, _ = run_cli(["m", "--q", "5", "--e", "33"], capsys)
        assert code == 0
        assert "m = 3" in out
        assert out.startswith("# m q=5 e=33")

    def test_via_z(self, capsys):
        code, out, _ = run_cli(["m", "--q", "9", "--n", "15", "--z", "5551"], capsys)
        assert code == 0 and "m = 24" in out

    def test_huge_e_via_z(self, capsys):
        code, out, _ = run_cli(["m", "--q", "9", "--n", "15",
                                "--z", "5551", "--e",
                                str((9**15 - 1) // 5551)], capsys)
        assert code == 0 and "m = 24" in out

    def test_invalid_q_exits_1(self, capsys):
        code, _, err = run_cli(["m", "--q", "0", "--e", "5"], capsys)
        assert code == 1
        assert "error" in err

    def test_capacity_exits_2(self, capsys):
        code, _, err = run_cli(["m", "--q", "3", "--e", str(2**31 + 2)], capsys)
        assert code == 2
        assert "capacity" in err

    def test_witness_output(self, capsys):
        code, out, _ = run_cli(["m", "--q", "2", "--e", "7", "--witness"], capsys)
        assert code == 0
        assert "witness exponents:" in out

    def test_witness_at_z1(self, capsys):
        args = ["m", "--q", "2", "--n", "1", "--z", "1", "--witness"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert "witness exponents: 0\n" in out
        code, out, _ = run_cli(args + ["--json"], capsys)
        assert code == 0
        assert json.loads(out.splitlines()[-1])["witness"] == [0]

    def test_witness_json_with_closed_form(self, capsys):
        args = ["m", "--q", "2", "--e", "7", "--witness"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["m = 3", "witness exponents: 0 1 2"]
        code, out, _ = run_cli(args + ["--json"], capsys)
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload == {"m": 3, "method": "closed_form",
                           "rule": "pierpont_power", "witness": [0, 1, 2]}

    def test_inconsistent_e_z(self, capsys):
        code, _, err = run_cli(["m", "--q", "3", "--n", "12", "--z", "70",
                                "--e", "7593"], capsys)
        assert code == 1 and "inconsistent" in err


class TestCapacity:
    """Over-budget parameters exit 2 before any z-sized allocation: the
    functions that would allocate are replaced by ones that fail."""

    @staticmethod
    def _unreachable(*args):
        raise AssertionError("capacity check came after an allocation")

    def test_algebra_over_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(algebra, "degrees_and_orbit_min", self._unreachable)
        code, _, err = run_cli(["algebra", "--q", "2", "--n", "40",
                                "--z", "1099511627775"], capsys)
        assert code == 2
        assert err.startswith("capacity error:") and "Traceback" not in err

    def test_m_via_z_beyond_int64(self, capsys, monkeypatch):
        monkeypatch.setattr(mfunc, "degrees_and_orbit_min", self._unreachable)
        code, _, err = run_cli(["m", "--q", "2", "--n", "32",
                                "--z", "4294967295"], capsys)
        assert code == 2
        assert err.startswith("capacity error:") and "Traceback" not in err

    def test_m_bfs_over_budget(self, capsys, monkeypatch):
        # e = 2^31 - 1: its int32 layer array alone would take 8 GiB, and
        # the powers of 3 modulo e number 715 827 882
        monkeypatch.setattr(mfunc.np, "zeros", self._unreachable)
        monkeypatch.setattr(mfunc, "cyclic_powers", self._unreachable)
        assert 2**31 - 1 > mfunc.BFS_CAPACITY
        for q in ("2", "3"):
            code, out, err = run_cli(["m", "--q", q, "--e", str(2**31 - 1)], capsys)
            assert code == 2 and out.splitlines()[1:] == []
            assert err.startswith("capacity error:") and err.count("\n") == 1
        # with n, m falls back to the residue method at z = 1
        code, out, _ = run_cli(["m", "--q", "2", "--n", "31", "--e", str(2**31 - 1)],
                               capsys)
        assert code == 0 and out.splitlines()[1:] == ["m = 31"]

    def test_m_bfs_over_work_budget(self, capsys, monkeypatch):
        # e = 1365 = (2^12 - 1)/3 has no closed form; growing its first
        # layer alone counts (ord_e(2) + 1) * e = 13 * 1365 units
        monkeypatch.setattr(mfunc, "BFS_WORK_CAPACITY", 13 * 1365 - 1)
        code, out, err = run_cli(["m", "--q", "2", "--e", "1365"], capsys)
        assert code == 2 and out.splitlines()[1:] == []
        assert err == ("capacity error: the BFS of e=1365 needs more than 17744 "
                       "units of work; use the residue method with (q, n, z)\n")
        # with n, m falls back to the residue method at z = 3
        for extra in ([], ["--witness"]):
            code, out, _ = run_cli(["m", "--q", "2", "--n", "12", "--e", "1365", *extra],
                                   capsys)
            assert code == 0 and out.splitlines()[1] == "m = 6"
        # m = 6 takes five grown layers
        monkeypatch.setattr(mfunc, "BFS_WORK_CAPACITY", 5 * 13 * 1365)
        assert mfunc.m_bfs(2, 1365).m == 6
        monkeypatch.setattr(mfunc, "BFS_WORK_CAPACITY", 5 * 13 * 1365 - 1)
        with pytest.raises(CapacityError):
            mfunc.m_bfs(2, 1365)

    def test_m_witness_over_budget(self, capsys, monkeypatch):
        # m = 2^61 is printed; its witness would hold 2^61 exponents
        monkeypatch.setattr(mfunc, "exponent_digits", self._unreachable)
        args = ["m", "--q", str(2**62 + 1), "--n", "1", "--z", "2"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and out.splitlines()[1:] == [f"m = {2**61}"]
        for extra in (["--witness"], ["--witness", "--json"]):
            code, out, err = run_cli(args + extra, capsys)
            assert code == 2 and out.splitlines()[1:] == []
            assert err.startswith("capacity error:") and "Traceback" not in err

    def test_criteria_with_huge_m(self, capsys, monkeypatch):
        monkeypatch.setattr(mfunc, "exponent_digits", self._unreachable)
        code, out, err = run_cli(["criteria", "--q", str(2**62 + 1), "--n", "1",
                                  "--z", "2"], capsys)
        assert code == 0 and err == ""
        assert f"R7 bound_attained :: m={2**61} divides q-1={2**62}" in out


    def test_invariants_over_budget(self, capsys, monkeypatch):
        # q = 1 mod z: LL = z + 1, and the report would have about 2 LL^2
        # lines; it is refused before any set product
        from loewy import invariants

        monkeypatch.setattr(invariants, "socle_series", self._unreachable)
        monkeypatch.setattr(invariants, "set_product", self._unreachable)
        start = time.perf_counter()
        code, out, err = run_cli(["algebra", "--q", "241", "--n", "1", "--z",
                                  "240", "--invariants"], capsys)
        assert time.perf_counter() - start < 5
        assert code == 2 and "LL = 241" in out
        assert err.startswith("capacity error:") and "Traceback" not in err

    def test_invariants_budget_is_lines(self, monkeypatch):
        # the budget counts 2 LL^2 against INVARIANT_LINES_CAPACITY
        from loewy import invariants
        from loewy.algebra import Algebra

        alg = Algebra(41, 1, 40)
        monkeypatch.setattr(invariants, "INVARIANT_LINES_CAPACITY", 2 * 41 * 41)
        report = invariants.invariant_report(alg)
        assert len(report.splitlines()) == 2 * 41 * 41 + 4 * 41 + 3
        monkeypatch.setattr(invariants, "INVARIANT_LINES_CAPACITY", 2 * 41 * 41 - 1)
        with pytest.raises(CapacityError, match="LL = 41"):
            invariants.invariant_report(alg)


class TestResolution:
    def test_m_checks_n_against_e(self, capsys):
        code, out, err = run_cli(["m", "--q", "2", "--e", "7", "--n", "5"], capsys)
        assert code == 1 and out.splitlines()[1:] == []
        assert err.startswith("error: e does not divide")
        code, out, _ = run_cli(["m", "--q", "2", "--e", "7", "--n", "3"], capsys)
        assert code == 0 and out.splitlines()[1:] == ["m = 3"]

    def test_criteria_beyond_64_bits(self, capsys):
        # z = (5^40 - 1)/33 >= 2^64: R18 and R19 decline instead of refusing
        code, out, err = run_cli(["criteria", "--q", "5", "--n", "40",
                                  "--e", "33"], capsys)
        assert code == 0 and err == ""
        assert ("R16 gap_formula(epsilon=0) :: (q,e) = (5,33), n = 10 (mod 30)"
                in out.splitlines())

    def test_criteria_steps_powers_of_q(self, capsys):
        # nu = 30000 over a 9000-digit e: R10 takes one power of q for each
        # of k = 1, nu/3 and nu/2; squaring q^k mod e at each of the 30000
        # steps took 18.6 s on a 2-vCPU machine
        start = time.perf_counter()
        code, out, err = run_cli(["criteria", "--q", "2", "--n", "30000",
                                  "--z", "257"], capsys)
        assert time.perf_counter() - start < 10
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [
            f"R6 ll_equals(3) :: q^(n/2)-1 = {E_15000} | e | q^n-1, e proper"]

    def test_criteria_full_width_e(self, capsys):
        # e = 2^300000 - 1 and m = nu = n: stepping R10's nu powers and
        # R11's m-term sum took 9.1 s on a 2-vCPU machine
        start = time.perf_counter()
        code, out, err = run_cli(["criteria", "--q", "2", "--n", "300000",
                                  "--z", "1"], capsys)
        assert time.perf_counter() - start < 3
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [
            "R11 bound_attained :: m=300000 | n/r with r=1 and e | sum of q^(1i)",
            "R12 bound_attained :: e | (q^n-1)/(q-1) and n-m=0 | floor((n-m)(q-1)/m)",
            "R14 bound_attained :: q-1 = 0*m + 1 with r < m/nu + m/n "
            "(m=300000, nu=300000, n=300000)",
            "R15 bound_attained :: q'=2 = q (mod m) has floor(n(q'-1)/m) = 1",
            "R20 uniserial :: q = 1 (mod z=1)",
        ]

    def test_e_beyond_4300_digits(self, capsys):
        lines = []
        for given in (["--z", "1"], ["--e", E_15000]):
            code, out, err = run_cli(["algebra", "--q", "2", "--n", "15000",
                                      *given], capsys)
            assert code == 0 and err == ""
            lines.append([line for line in out.splitlines() if line.startswith("e = ")])
        assert lines[0] == lines[1] == [f"e = {E_15000}"]

    def test_scan_with_4508_digit_e(self, tmp_path, capsys):
        db = tmp_path / "db.jsonl"
        code, _, err = run_cli(["scan", "--zmin", "3361", "--zmax", "3361",
                                "--out", str(db)], capsys)
        assert code == 0 and err == ""
        records = [json.loads(line) for line in db.read_text().splitlines()]
        assert len(records) == 48
        assert max(len(rec["e"]) for rec in records) == 4508
        for rec in records:
            assert parse_decimal(rec["e"]) * 3361 == rec["q"] ** rec["n"] - 1


def _ident(args):
    return " ".join(a if len(a) <= 12 else f"<{len(a)} digits>" for a in args)


# Every run ends with one message and exit code 0, 1 or 2, never a traceback.
NO_TRACEBACK = [
    *[(cmd, args, code)
      for cmd in ("algebra", "m", "criteria")
      for args, code in [
          (["--q", "2", "--n", "15000", "--e", "7", "--z", "3"], 1),
          (["--q", "0", "--n", "4", "--z", "5"], 1),
          (["--q", "-3", "--n", "4", "--z", "5"], 1),
          (["--q", "2", "--n", "0", "--z", "3"], 1),
          (["--q", "2", "--n", "-4", "--z", "3"], 1),
          (["--q", "2", "--n", "4", "--z", "0"], 1),
          (["--q", "2", "--n", "4", "--z", "-3"], 1),
          (["--q", "2", "--n", "4", "--e", "0"], 1),
          (["--q", "2", "--n", "4", "--e", "-5"], 1),
          (["--q", "3", "--n", "12", "--z", "-70", "--e", "-7592"], 1),
          (["--q", "2", "--n", "4", "--e", "-" + E_15000], 1),
          (["--q", "2", "--n", "4"], 1),
      ]],
    ("algebra", ["--q", "2", "--n", "15000", "--e", E_15000], 0),
    ("m", ["--q", "2", "--n", "15000", "--e", E_15000], 0),
    ("criteria", ["--q", "5", "--n", "40", "--e", "33"], 0),
    ("criteria", ["--q", "2", "--n", "15000", "--e", "7"], 0),
    ("criteria", ["--q", "2", "--n", "30000", "--e", E_15000], 2),
    ("algebra", ["--q", "2", "--n", "15000", "--z", "1"], 0),
    ("m", ["--q", "2", "--e", "7", "--n", "5"], 1),
    ("m", ["--q", "0", "--e", "5"], 1),
    ("m", ["--q", "-2", "--e", "5"], 1),
    ("m", ["--q", "5", "--e", "0"], 1),
    ("m", ["--q", "5", "--e", "-33"], 1),
    ("m", ["--q", "2", "--e", "-" + E_15000], 1),
    ("m", ["--q", "3", "--e", E_15000], 1),
    ("m", ["--q", "2", "--e", E_15000], 2),
    ("m", ["--q", "2", "--e", "1e5"], 1),
    ("m", ["--q", "2", "--z", "7"], 1),
    ("m", ["--q", "2", "--e", "7", "--z", "3"], 1),
    ("scan", ["--zmin", "0", "--zmax", "3", "--out", "unused.jsonl"], 1),
    ("scan", ["--zmin", "-3", "--zmax", "3", "--out", "unused.jsonl"], 1),
    # q^n beyond POWER_CAPACITY_BITS is refused before it is formed; e
    # alone is tested for dividing q^n - 1 first
    ("algebra", ["--q", "2", "--n", str(2**40), "--z", "1"], 2),
    ("algebra", ["--q", "2", "--n", str(2**40), "--e", "3"], 2),
    ("algebra", ["--q", "2", "--n", str(2**40), "--e", "7"], 1),
    ("criteria", ["--q", "2", "--n", str(2**40), "--z", "1"], 2),
    ("m", ["--q", "2", "--n", str(2**40), "--e", "3", "--z", "5"], 2),
    # z beyond INDEX_CAPACITY is refused before its units are swept
    ("scan", ["--zmin", str(2**40), "--zmax", str(2**40), "--out", "unused.jsonl"], 2),
    ("scan", ["--zmin", "2", "--zmax", str(2**63), "--out", "unused.jsonl"], 2),
    # e beyond GROUPS_CAPACITY is refused before the grouping tables start
    ("mtable", ["--emin", str(2**31 + 1), "--emax", str(2**31 + 1),
                "--mode", "generators"], 2),
    ("mtable", ["--emin", str(2**32), "--emax", str(2**32), "--mode", "residues"], 2),
    # ... and before the first row, when only the top of the range is beyond
    ("mtable", ["--emin", "2", "--emax", str(2**16 + 1), "--mode", "residues"], 2),
    ("mtable", ["--emin", "2", "--emax", str(2**16 + 1), "--mode", "generators"], 2),
    # a grid beyond GRID_CAPACITY cells is refused before any list is built
    ("mtable", ["--qmin", "2", "--qmax", "10000000000", "--emin", "2", "--emax", "3"], 2),
    # a file that cannot be read is a domain error
    ("stats", ["--in", "no/such/scan.jsonl"], 1),
]


@pytest.mark.parametrize("cmd,args,expected", NO_TRACEBACK,
                         ids=[_ident([c, *a]) for c, a, _ in NO_TRACEBACK])
def test_no_traceback(cmd, args, expected, capsys):
    code, _, err = run_cli([cmd, *args], capsys)
    assert code == expected
    assert "Traceback" not in err and err.count("\n") == (code != 0)


class TestImports:
    def test_cli_leaves_process_pool_unimported(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, loewy.cli; "
             "print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"


class TestMtable:
    def test_grid_stdout(self, capsys):
        code, out, _ = run_cli(["mtable", "--qmin", "2", "--qmax", "3",
                                "--emin", "2", "--emax", "7"], capsys)
        assert code == 0
        assert "q,2,3,4,5,6,7" in out

    def test_generators_file(self, tmp_path, capsys):
        out_file = tmp_path / "t.txt"
        code, _, _ = run_cli(["mtable", "--emin", "61", "--emax", "61",
                              "--mode", "generators", "--out", str(out_file)], capsys)
        assert code == 0
        assert out_file.read_text().startswith("61; 2: {2, 3, 4, 8, 11, 14, 21, 60}")

    @pytest.mark.parametrize("mode", ["grid", "residues", "generators"])
    @pytest.mark.parametrize("emin,emax", [(0, 1), (-3, -1)])
    def test_nonpositive_e_exits_1(self, mode, emin, emax, capsys):
        code, out, err = run_cli(["mtable", "--qmin", "2", "--emin", str(emin),
                                  "--emax", str(emax), "--mode", mode], capsys)
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert out.splitlines()[1:] == []


class TestAlgebra:
    def test_report(self, capsys):
        code, out, _ = run_cli(["algebra", "--q", "3", "--n", "12", "--z", "70",
                                "--report"], capsys)
        assert code == 0
        assert "LL = 3  bound = 4  gap = 1" in out
        assert "k=35 exp=[1,1,1,1,1,1,1,1,1,1,1,1] orbit=1 s=12" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(["algebra", "--q", "3", "--n", "4", "--z", "40",
                                "--json"], capsys)
        assert code == 0
        payload = json.loads(out.splitlines()[1])
        from loewy.algebra import Algebra
        from loewy.cli import _algebra_payload

        assert payload == json.loads(json.dumps(_algebra_payload(Algebra(3, 4, 40))))
        assert payload["loewy_vector"] == [1, 10, 19, 10, 1]

    def test_witness_lines(self, capsys):
        code, out, _ = run_cli(["algebra", "--q", "2", "--n", "3", "--z", "7",
                                "--witness", "7"], capsys)
        assert code == 0
        assert sum(1 for line in out.splitlines() if line.startswith("k=")) == 3

    def test_e_only(self, capsys):
        code, out, _ = run_cli(["algebra", "--q", "5", "--n", "10",
                                "--e", "33"], capsys)
        assert code == 0 and "LL = 13" in out


class TestCriteria:
    def test_lines(self, capsys):
        code, out, _ = run_cli(["criteria", "--q", "2", "--n", "11", "--e", "23"],
                               capsys)
        assert code == 0
        assert any(line.startswith("R2 bound_attained ::") for line in out.splitlines())

    def test_no_rule(self, capsys):
        code, out, _ = run_cli(["criteria", "--q", "9", "--n", "15",
                                "--z", "5551"], capsys)
        assert code == 0 and "no rule fires" in out


class TestScanPipeline:
    def test_scan_stats_screen_verify(self, tmp_path, capsys):
        db = tmp_path / "db.jsonl"
        csv = tmp_path / "db.csv"
        code, out, _ = run_cli(["scan", "--zmin", "2", "--zmax", "45",
                                "--out", str(db), "--csv", str(csv)], capsys)
        assert code == 0 and "appended" in out
        assert csv.read_text().startswith("z,q,n,e,m")

        code, out, _ = run_cli(["stats", "--in", str(db), "--json"], capsys)
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["gap_positive"] == 0  # no exceptions below z = 70

        code, out, _ = run_cli(["screen", "--in", str(db), "--z", "40"], capsys)
        assert code == 0
        report = json.loads("\n".join(out.splitlines()[1:]))
        assert any(g["loewy_vector"] == [1, 10, 19, 10, 1] for g in report)

        code, out, _ = run_cli(["verify", "--in", str(db), "--sample", "12"], capsys)
        assert code == 0
        assert "0 mismatches" in out

        code, _, err = run_cli(["verify", "--in", str(db), "--sample", "-1"], capsys)
        assert code == 1 and err == "error: sample must be >= 0, got -1\n"

    # sha256 of the JSONL and the CSV of `scan --zmin Z0 --zmax Z1 --csv`
    PINNED = {
        (2, 99): ("b68f1bd89213c55be5a77d8351ca28f8a14de40d21aba67cd0712d48329cd052",
                  "63b43a5a26a61b10dbb7bffd53573ffc011c81babcb26fd02db5c1f61b193747"),
        (997, 997): ("670fe59ea805650c3c08a0b99638125fd1bbddf0efe0d2bdc983884c81e625ee",
                     "c1c689d151d865c8d73001c801a33456049503680de29cf7026ce8e3cae75dd2"),
    }

    @pytest.mark.parametrize("band", sorted(PINNED))
    def test_scan_bytes_pinned(self, band, tmp_path, capsys):
        db, csv = tmp_path / "db.jsonl", tmp_path / "db.csv"
        code, out, err = run_cli(["scan", "--zmin", str(band[0]), "--zmax",
                                  str(band[1]), "--out", str(db), "--csv",
                                  str(csv)], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[2:] == [f"wrote {csv}"]
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (db, csv))
        assert digests == self.PINNED[band]

    # sha256 of the read-side outputs, after the echo line, on the JSONL
    # of `scan --zmin 2 --zmax 117`
    READ_SIDE = {
        ("stats",): "7a9a19bb75c5a81267d3230d7bb405a99746547cf2e32c78ed5c3e5fc24eb791",
        ("stats", "--json"): "d21dbbb510025b67cbd40cf8e366ecce5fc5cd333dfb53ae81a0b32bfdb4b655",
        ("screen", "--z", "40"): "8509bfb1f66d783c988fd287b85a8576bcfaa3e87083c9c123414e3f7c02bfc2",
        ("screen", "--z", "65"): "aa0c9afbbfd6236e410de30c675afe9b863140f749077d808a54d39880df92e9",
        ("screen", "--z", "117"): "3600156a35239551259652b0d96d55a1f1fe03ca62e179420570d0b409286d3e",
    }

    def test_read_side_pinned(self, tmp_path, capsys):
        db = tmp_path / "db.jsonl"
        code, _, _ = run_cli(["scan", "--zmin", "2", "--zmax", "117", "--out", str(db)],
                             capsys)
        assert code == 0
        assert hashlib.sha256(db.read_bytes()).hexdigest() == (
            "1cd6b255e3aad751ae34c9541a6048f1aacc4c44ca073bc55d9afb752abc6759")
        for (command, *extra), want in self.READ_SIDE.items():
            code, out, err = run_cli([command, "--in", str(db), *extra], capsys)
            assert code == 0 and err == ""
            body = out.split("\n", 1)[1]
            assert hashlib.sha256(body.encode()).hexdigest() == want, (command, *extra)

    # z in [2, 12] holds 33 records; those of z = 12 are records 30 to 33,
    # with q = 13, 5, 7 and 11
    BROKEN = {
        "twice": (lambda lines: lines + lines,
                  "record 34 (z=2, q=3) lies beyond the last key of the scan",
                  "record 63 (z=12, q=13) lies beyond the last key of the scan"),
        "overlap": (lambda lines: lines[:31] + lines[26:],
                    "record 32 (z=11, q=10) stands where the key (z=12, q=7) belongs",
                    "record 35 (z=12, q=13) stands where the key (z=12, q=7) belongs"),
        "swapped": (lambda lines: lines[:30] + [lines[31], lines[30]] + lines[32:],
                    "record 31 (z=12, q=7) stands where the key (z=12, q=5) belongs",
                    "record 31 (z=12, q=7) stands where the key (z=12, q=5) belongs"),
    }

    @pytest.mark.parametrize("name", BROKEN)
    def test_records_out_of_scan_order_exit_1(self, name, tmp_path, capsys):
        # a scan written twice, two bands that overlap by five records, two
        # adjacent lines swapped: stats and screen stop at the first record
        # that is not the next key of the scan, with one message
        db = tmp_path / "db.jsonl"
        run_cli(["scan", "--zmin", "2", "--zmax", "12", "--out", str(db)], capsys)
        lines = db.read_text().splitlines(keepends=True)
        assert len(lines) == 33
        broken, *messages = self.BROKEN[name]
        db.write_text("".join(broken(lines)))
        for args, message in zip((["stats", "--in", str(db)],
                                  ["screen", "--in", str(db), "--z", "12"]), messages):
            code, out, err = run_cli(args, capsys)
            assert code == 1 and out.count("\n") == 1
            assert err == f"error: {message}\n"

    def test_blank_line_exits_1(self, tmp_path, capsys):
        # a blank or whitespace-only line stops every reader and the resume
        # at its line, with one message; an empty file is an empty scan
        db = tmp_path / "db.jsonl"
        run_cli(["scan", "--zmin", "2", "--zmax", "8", "--out", str(db)], capsys)
        lines = db.read_text().splitlines(keepends=True)
        for blank in ("\n", " \t\n"):
            db.write_text("".join(lines[:4]) + blank + "".join(lines[4:]))
            before = db.read_bytes()
            for args in (["stats", "--in", str(db)],
                         ["screen", "--in", str(db), "--z", "8"],
                         ["verify", "--in", str(db)],
                         ["scan", "--zmin", "2", "--zmax", "8", "--out", str(db)]):
                code, out, err = run_cli(args, capsys)
                assert code == 1 and out.count("\n") == 1, args
                assert err == f"error: {db} line 5: blank line\n", args
            assert db.read_bytes() == before
        db.write_text("")
        code, out, _ = run_cli(["stats", "--in", str(db), "--json"], capsys)
        assert code == 0 and json.loads(out.splitlines()[1])["parameter_pairs"] == 0

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        db = tmp_path / "db.jsonl"
        run_cli(["scan", "--zmin", "2", "--zmax", "6", "--out", str(db)], capsys)
        lines = db.read_text().splitlines(keepends=True)
        db.write_text("".join(lines[:2]) + lines[2][:30] + "\n" + "".join(lines[3:]))
        for args in (["stats", "--in", str(db)],
                     ["screen", "--in", str(db), "--z", "5"]):
            code, _, err = run_cli(args, capsys)
            assert code == 1
            assert "line 3" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("flags", 5), ("m", "2"), ("ll", 3.0), ("e", "7x"), ("subgroup", [1, None]),
    ])
    def test_mistyped_field_exits_1(self, field, value, tmp_path, capsys):
        # a record field of another type than the writer gives it stops
        # every reader at its line, with one message and no traceback
        db = tmp_path / "db.jsonl"
        run_cli(["scan", "--zmin", "2", "--zmax", "6", "--out", str(db)], capsys)
        lines = db.read_text().splitlines(keepends=True)
        data = json.loads(lines[2])
        data[field] = value
        lines[2] = json.dumps(data, separators=(",", ":")) + "\n"
        db.write_text("".join(lines))
        before = db.read_bytes()
        csv = tmp_path / "db.csv"
        for args in (["stats", "--in", str(db)],
                     ["screen", "--in", str(db), "--z", "5"],
                     ["verify", "--in", str(db)],
                     ["scan", "--zmin", "2", "--zmax", "7", "--out", str(db),
                      "--csv", str(csv)]):
            code, _, err = run_cli(args, capsys)
            assert code == 1, args
            assert err.startswith("error: ") and err.count("\n") == 1, args
            assert "line 3" in err and "Traceback" not in err
        assert db.read_bytes() == before and not csv.exists()

    def test_verify_sample_pinned(self, tmp_path, capsys):
        # every stored m is one too large, so every sampled record is a
        # mismatch; the seed fixes which records are sampled, and in what
        # order they are printed
        db = tmp_path / "db.jsonl"
        run_cli(["scan", "--zmin", "2", "--zmax", "20", "--out", str(db)], capsys)
        db.write_text(re.sub(r'"m":(\d+)', lambda m: f'"m":{int(m[1]) + 1}', db.read_text()))
        code, out, err = run_cli(["verify", "--in", str(db), "--seed", "5",
                                  "--sample", "7"], capsys)
        assert code == 1 and err == ""
        body = out.split("\n", 1)[1]
        assert [line for line in body.splitlines() if not line.startswith("  ")] == [
            "MISMATCH z=12 q=11", "MISMATCH z=15 q=11", "MISMATCH z=19 q=8",
            "MISMATCH z=4 q=5", "MISMATCH z=17 q=3", "MISMATCH z=12 q=7",
            "MISMATCH z=5 q=4", "verified 7 records, 7 mismatches"]
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "26c9e5cd25bf6be25b9fed89efef2eaed40e9519c2a2353178d036e673827efa")

    def test_verify_detects_corruption(self, tmp_path, capsys):
        db = tmp_path / "db.jsonl"
        run_cli(["scan", "--zmin", "2", "--zmax", "6", "--out", str(db)], capsys)
        text = db.read_text().replace('"m":2', '"m":3')
        db.write_text(text)
        code, out, _ = run_cli(["verify", "--in", str(db),
                                "--sample", "50"], capsys)
        assert code == 1
        assert "MISMATCH" in out


class TestParsing:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(["m", "--q", "5", "--e", "33", "--frobnicate"],
                               capsys)
        assert code == 1

    def test_missing_subcommand_exits_1(self, capsys):
        assert run_cli([], capsys)[0] == 1

    def test_nondecimal_e(self, capsys):
        code, _, err = run_cli(["m", "--q", "5", "--e", "0x21"], capsys)
        assert code == 1

    def test_one_parser_for_every_call(self, capsys, monkeypatch):
        # a parser built per call would be garbage that only a full
        # collection frees
        run_cli(["m", "--q", "5", "--e", "33"], capsys)

        def unreachable(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", unreachable)
        for args, code in ((["m", "--q", "5", "--e", "33"], 0),
                           (["algebra", "--q", "3", "--n", "4", "--z", "40"], 0),
                           (["m", "--q", "5", "--e", "33", "--frobnicate"], 1),
                           (["m", "--e", "33"], 1),
                           ([], 1)):
            assert run_cli(args, capsys)[0] == code, args


class TestHelpGolden:
    def test_top_level(self):
        result = subprocess.run(
            [sys.executable, "-m", "loewy.cli", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout == (DATA / "cli_help.txt").read_text()

    def test_subcommands(self):
        chunks = []
        for sub in ("m", "mtable", "algebra", "criteria", "scan", "stats",
                    "screen", "verify"):
            result = subprocess.run(
                [sys.executable, "-m", "loewy.cli", sub, "--help"],
                capture_output=True, text=True,
            )
            chunks.append(f"=================== {sub}\n" + result.stdout)
        assert "".join(chunks) == (DATA / "cli_help_subcommands.txt").read_text()

    def test_every_flag_documented(self):
        text = (DATA / "cli_help_subcommands.txt").read_text()
        parser = build_parser()
        for action in parser._subparsers._group_actions[0].choices.values():
            for option in action._option_string_actions:
                assert option in text


class Overrun(BaseException):
    """Raised by the fuzz test's timer; no handler of the program catches
    it."""


class TestFuzz:
    """Random invocations of every subcommand with small, huge and
    degenerate integers end with exit code 0, 1 or 2 and at most one
    message on stderr, never a traceback.  The process may map at most
    FUZZ_HEADROOM more bytes meanwhile, so a capacity check that comes
    after a large allocation fails here with a MemoryError, and a call
    that runs past EXAMPLE_SECONDS fails with Overrun."""

    FUZZ_HEADROOM = 1 << 30
    EXAMPLE_SECONDS = 5
    HUGE = (2**31 + 1, 2**32, 2**62 + 1, 2**63, 2**64 + 1, 10**40)
    # valid inputs whose z lies above this are real work, not what this
    # test is about
    Z_WORK = 1000

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("fuzz")
        assert main(["scan", "--zmin", "2", "--zmax", "12",
                     "--out", str(work / "small.jsonl")]) == 0
        (work / "twice.jsonl").write_text((work / "small.jsonl").read_text() * 2)
        (work / "garbage.jsonl").write_text("garbage\n")
        (work / "empty.jsonl").write_text("")
        return work

    @classmethod
    def arguments(cls, work):
        ints = st.one_of(st.integers(-3, 64), st.sampled_from((0, 1, -1, 2)),
                         st.sampled_from(cls.HUGE))

        def flag(name, values=ints):
            return st.one_of(st.just([]), values.map(lambda v: [name, v]))

        def switch(name):
            return st.sampled_from(([], [name]))

        def span(lo, hi):
            return st.tuples(ints, st.integers(-1, 3)).map(
                lambda p: [lo, p[0], hi, p[0] + p[1]])

        @st.composite
        def parameters(draw):
            # --q and --n, and --e, --z or both; e is often (q^n - 1)/z
            q, n, z = draw(ints), draw(ints), draw(ints)
            cheap = q >= 2 and 1 <= n <= 64 and z >= 1
            if cheap and draw(st.booleans()):
                z = gcd(z, q**n - 1)
            e = draw(st.one_of(st.none(), ints, st.just("cofactor")))
            if e == "cofactor":
                e = (q**n - 1) // z if cheap else 1
            flags = ["--q", q, "--n", n]
            if e is not None:
                flags += ["--e", e]
            if e is None or draw(st.booleans()):
                flags += ["--z", z]
            return flags

        files = st.sampled_from(["small", "twice", "garbage", "empty", "missing"]).map(
            lambda name: ["--in", work / f"{name}.jsonl"])
        commands = st.one_of(
            st.tuples(st.just(["m"]), parameters(), switch("--witness"),
                      switch("--json")),
            st.tuples(st.just(["m", "--q"]), st.tuples(ints), flag("--e")),
            st.tuples(st.just(["mtable"]), span("--qmin", "--qmax"),
                      span("--emin", "--emax"),
                      flag("--mode", st.sampled_from(["grid", "residues", "generators"]))),
            st.tuples(st.just(["algebra"]), parameters(), switch("--report"),
                      switch("--invariants"), switch("--json"), flag("--witness")),
            st.tuples(st.just(["criteria"]), parameters()),
            st.tuples(st.just(["scan"]), span("--zmin", "--zmax"),
                      st.just(["--out", work / "out.jsonl"]),
                      flag("--jobs", st.sampled_from([-1, 0, 1])),
                      st.sampled_from(([], ["--csv", work / "out.csv"]))),
            st.tuples(st.just(["stats"]), files, switch("--json")),
            st.tuples(st.just(["screen"]), files, flag("--z")),
            st.tuples(st.just(["verify"]), files, flag("--sample"), flag("--seed")),
        )
        return commands.map(lambda parts: [str(a) for part in parts for a in part])

    @classmethod
    def real_work(cls, args) -> bool:
        """True for valid parameters whose algebra has Z_WORK < z within
        the index capacity, or 64 < z with --invariants."""
        values = {}
        for name, value in zip(args, args[1:]):
            if name in ("--q", "--n", "--e", "--z"):
                values[name] = int(value)
        q, n, e, z = (values.get(name) for name in ("--q", "--n", "--e", "--z"))
        if z is None and None not in (q, n, e) and q >= 2 and 1 <= n <= 4096 // q.bit_length():
            z, rem = divmod(q**n - 1, e) if e >= 1 else (None, 1)
            z = None if rem else z
        if z is None:
            return False
        limit = 64 if "--invariants" in args else cls.Z_WORK
        return limit < z <= mfunc.INDEX_CAPACITY

    @staticmethod
    def mapped_bytes() -> int:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) * 1024
        raise OSError("no VmSize")

    def test_exit_codes(self, inputs):
        resource = pytest.importorskip("resource")
        try:
            limit = self.mapped_bytes() + self.FUZZ_HEADROOM
        except OSError:
            pytest.skip("the mapped size of this process is not readable")
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY and hard < limit:
            pytest.skip("the address-space limit is already lower")

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(self.arguments(inputs))
        def check(args):
            assume(not self.real_work(args))
            for name in ("out.jsonl", "out.csv"):
                (inputs / name).unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, self.EXAMPLE_SECONDS)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            message = err.getvalue()
            assert code in (0, 1, 2), args
            assert message.count("\n") == (code != 0), (args, message)
            assert "Traceback" not in message, args

        def overrun(signum, frame):
            raise Overrun(f"a call ran past {self.EXAMPLE_SECONDS} s")

        start = time.perf_counter()
        handler = signal.signal(signal.SIGALRM, overrun)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        try:
            check()
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
            signal.signal(signal.SIGALRM, handler)
        assert time.perf_counter() - start < 20
