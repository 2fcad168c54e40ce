import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from loewy import algebra, mfunc
from loewy.arith import format_decimal, parse_decimal
from loewy.cli import build_parser, main

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
        # nu = 30000 steps of R10 over a 9000-digit e; squaring q^k mod e
        # at every step took 18.6 s on a 2-vCPU machine
        start = time.perf_counter()
        code, out, err = run_cli(["criteria", "--q", "2", "--n", "30000",
                                  "--z", "257"], capsys)
        assert time.perf_counter() - start < 10
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [
            f"R6 ll_equals(3) :: q^(n/2)-1 = {E_15000} | e | q^n-1, e proper"]

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
