"""The three workloads: what each runs through the loewy CLI, how many items
one round handles, and how its outputs are checked.

A round is a fixed list of CLI calls; every run repeats whole rounds.  The
program inputs are fixed, so that the known worst cases stay in the set and
every seed measures the same work; the seed draws the samples that the
brute-force oracles re-check.  `check` reads the first round's outputs;
later rounds must reproduce them byte for byte.
"""

from __future__ import annotations

import json
from math import gcd
from pathlib import Path

import oracles

# The only bound gaps below z = 100, as (q, n, z), as reported in the paper.
GAPS_BELOW_100 = [(3, 12, 70), (5, 12, 91), (8, 12, 95)]
# Largest number of multiples of e the brute-force m may scan for one cell.
BRUTE_LIMIT = 5000

class CheckFailed(Exception):
    """An output of the program broke an expectation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _body(stdout: str) -> list[str]:
    """Output lines after the parameter echo."""
    lines = stdout.splitlines()
    require(lines and lines[0].startswith("# "), "missing parameter echo")
    return lines[1:]


def _records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _check_record(rec: dict) -> None:
    """Properties every scan record has by the method's definition."""
    z, q, n = rec["z"], rec["q"], rec["n"]
    where = f"z={z} q={q}"
    require("error" not in rec, f"error row at {where}")
    require(n == oracles.order(q % z, z), f"n is not ord_z(q) at {where}")
    require(int(rec["e"]) * z == q**n - 1, f"e*z != q^n - 1 at {where}")
    vector = rec["loewy_vector"]
    require(sum(vector) == z + 1, f"Loewy vector does not sum to z+1 at {where}")
    require(rec["ll"] == len(vector), f"LL is not the vector length at {where}")
    require(rec["bound"] == n * (q - 1) // rec["m"] + 1, f"bound formula at {where}")
    require(0 <= rec["gap"] == rec["bound"] - rec["ll"], f"gap at {where}")
    expected = [1] if q == z + 1 else sorted(oracles.subgroup(q, z))
    require(rec["subgroup"] == expected, f"subgroup field at {where}")
    require(q == z + 1 or oracles.is_smallest_generator(q, z),
            f"q is not the smallest generator at {where}")


def _check_key_counts(records: list[dict], zs) -> None:
    for z in zs:
        got = sum(1 for rec in records if rec["z"] == z)
        want = oracles.cyclic_subgroup_count(z)
        require(got == want, f"z={z}: {got} records, {want} cyclic subgroups")


def _check_brute_sample(records: list[dict], rng, *, z_max: int, size: int) -> None:
    small = [rec for rec in records if rec["z"] <= z_max]
    for rec in rng.sample(small, min(size, len(small))):
        vector, m = oracles.loewy_brute(rec["q"], rec["n"], rec["z"])
        where = f"z={rec['z']} q={rec['q']}"
        require(tuple(rec["loewy_vector"]) == vector, f"Loewy vector at {where}")
        require(rec["m"] == m, f"m at {where}")


class Workload:
    name = ""

    def setup(self, work: Path, run) -> None:
        """Make the inputs in `work`; runs inside the timed set-up.  `run`
        executes one CLI command and returns (seconds, exit code, stdout)."""

    def prepare(self) -> None:
        """Untimed reset before each round."""

    def calls(self) -> list[list[str]]:
        raise NotImplementedError

    def artifacts(self) -> list[Path]:
        """Files a round writes; they must be the same in every round."""
        return []

    def items(self, stdouts: list[str]) -> int:
        """Items one round handles."""
        raise NotImplementedError

    def check(self, stdouts: list[str], rng) -> None:
        raise NotImplementedError


class ScanBand(Workload):
    """The write side of the database: keys, records, JSONL and CSV."""

    name = "scan-band"
    BANDS = ((2, 99), (997, 997))

    def setup(self, work, run):
        self.files = [(work / f"scan-{lo}-{hi}.jsonl", work / f"scan-{lo}-{hi}.csv")
                      for lo, hi in self.BANDS]

    def prepare(self):
        for jsonl, csv in self.files:
            jsonl.unlink(missing_ok=True)
            csv.unlink(missing_ok=True)

    def calls(self):
        return [["scan", "--zmin", str(lo), "--zmax", str(hi), "--jobs", "1",
                 "--out", str(jsonl), "--csv", str(csv)]
                for (lo, hi), (jsonl, csv) in zip(self.BANDS, self.files)]

    def artifacts(self):
        return [path for pair in self.files for path in pair]

    def items(self, stdouts):
        return sum(len(_records(jsonl)) for jsonl, _ in self.files)

    def check(self, stdouts, rng):
        everything = []
        for (lo, hi), (jsonl, csv), out in zip(self.BANDS, self.files, stdouts):
            records = _records(jsonl)
            require(_body(out)[0].startswith(f"appended {len(records)} records"),
                    "appended count differs from the file")
            _check_key_counts(records, range(lo, hi + 1))
            for rec in records:
                _check_record(rec)
            rows = csv.read_text(encoding="utf-8").splitlines()
            require(len(rows) == len(records) + 1, "CSV rows differ from JSONL records")
            everything += records
        gaps = sorted((r["q"], r["n"], r["z"]) for r in everything
                      if r["gap"] > 0 and r["z"] <= 99)
        require(gaps == GAPS_BELOW_100, f"gaps below z=100 at {gaps}")
        _check_brute_sample(everything, rng, z_max=40, size=20)


class Screen(Workload):
    """The read side of the database and the invariants."""

    name = "screen"
    Z_MAX = 117
    SCREENED = (40, 65, 117)

    def setup(self, work, run):
        self.path = work / "screen.jsonl"
        _, rc, _ = run(["scan", "--zmin", "2", "--zmax", str(self.Z_MAX), "--jobs", "1",
                        "--out", str(self.path)])
        if rc != 0:
            raise RuntimeError(f"the input scan exited with {rc}")

    def calls(self):
        return ([["stats", "--in", str(self.path), "--json"]]
                + [["screen", "--in", str(self.path), "--z", str(z)] for z in self.SCREENED])

    def items(self, stdouts):
        return sum(1 for rec in _records(self.path) if rec["z"] in self.SCREENED)

    def check(self, stdouts, rng):
        records = _records(self.path)
        _check_key_counts(records, range(2, self.Z_MAX + 1))
        summary = json.loads(_body(stdouts[0])[0])
        require(summary["parameter_pairs"] == len(records), "stats: parameter_pairs")
        require(summary["gap_positive"] == sum(1 for rec in records if rec["gap"] > 0),
                "stats: gap_positive")
        classes = {}
        for z, out in zip(self.SCREENED, stdouts[1:]):
            report = json.loads("\n".join(_body(out)))
            self._check_partition([rec for rec in records if rec["z"] == z], z, report)
            classes[z] = self._class_of(report)
        at40 = classes[40]
        require(at40[3][0] != at40[19][0], "(3,4,40) and (19,2,40) share a class")
        require(at40[3][1] == at40[19][1] == "distinguished-by",
                "(3,4,40) and (19,2,40) are not distinguished")
        at117 = classes[117]
        for q in (29, 35):
            require(at117[q][2] == [1, 104, 12, 1], f"Loewy vector of (q={q}, z=117)")
            require(at117[q][1] != "isomorphic-by-basis-map", f"(q={q}, z=117) marked isomorphic")
        require(at117[29][0] != at117[35][0], "(29,6,117) and (35,6,117) share a class")

    @staticmethod
    def _class_of(report) -> dict[int, tuple[int, str, list[int]]]:
        """q -> (class number, status, Loewy vector)."""
        out = {}
        number = 0
        for entry in report:
            for cls in entry["classes"]:
                for q, _ in cls["members"]:
                    out[q] = (number, cls["status"], entry["loewy_vector"])
                number += 1
        return out

    @staticmethod
    def _check_partition(at_z: list[dict], z: int, report) -> None:
        """Each record in exactly one class; one table per class under the
        benchmark's carry test, and different tables in different classes."""
        vectors = {(rec["q"], rec["n"]): rec["loewy_vector"] for rec in at_z}
        seen = []
        for entry in report:
            tables = []
            for cls in entry["classes"]:
                members = [tuple(pair) for pair in cls["members"]]
                seen += members
                require(all(vectors.get(pair) == entry["loewy_vector"] for pair in members),
                        f"z={z}: member outside its Loewy-vector group")
                first = oracles.carry_table(*members[0], z)
                for q, n in members[1:]:
                    require((oracles.carry_table(q, n, z) == first).all(),
                            f"z={z}: class merges different tables")
                require(cls["status"] != "isomorphic-by-basis-map" or len(entry["classes"]) == 1,
                        f"z={z}: isomorphic group split into classes")
                tables.append(first)
            for i in range(len(tables)):
                for j in range(i):
                    require(not (tables[i] == tables[j]).all(), f"z={z}: two classes, one table")
        require(sorted(seen) == sorted(vectors), f"z={z}: classes do not partition the records")


class MTable(Workload):
    """m(q, e): closed forms, both BFS paths and the generator grouping."""

    name = "mtable"
    GRID = ((2, 30), (2, 200))
    # e >= 4096 takes the numpy BFS; the strip gives it about half the round
    STRIP = ((2, 11), (4097, 4099))
    GENERATORS = (2, 200)

    def calls(self):
        out = [["mtable", "--qmin", str(qmin), "--qmax", str(qmax),
                "--emin", str(emin), "--emax", str(emax)]
               for (qmin, qmax), (emin, emax) in (self.GRID, self.STRIP)]
        emin, emax = self.GENERATORS
        out.append(["mtable", "--emin", str(emin), "--emax", str(emax), "--mode", "generators"])
        return out

    def items(self, stdouts):
        cells = sum(1 for (qmin, qmax), (emin, emax) in (self.GRID, self.STRIP)
                    for q in range(qmin, qmax + 1) for e in range(emin, emax + 1)
                    if gcd(q, e) == 1)
        return cells + self.GENERATORS[1] - self.GENERATORS[0] + 1

    @staticmethod
    def _grid(stdout: str) -> dict[tuple[int, int], int]:
        lines = _body(stdout)
        es = [int(c) for c in lines[0].split(",")[1:]]
        cells = {}
        for line in lines[1:]:
            q, *row = line.split(",")
            require(len(row) == len(es), f"grid row q={q} has {len(row)} cells")
            for e, cell in zip(es, row):
                require((cell != "") == (gcd(int(q), e) == 1), f"cell presence at q={q} e={e}")
                if cell:
                    cells[(int(q), e)] = int(cell)
        return cells

    def check(self, stdouts, rng):
        grid = self._grid(stdouts[0])
        cells = {**grid, **self._grid(stdouts[1])}
        for (q, e), m in cells.items():
            require(q % e != 1 or m == e, f"m({q},{e}) = {m} although q = 1 mod e")
            require(m == oracles.m_reach(q, e), f"m({q},{e}) = {m} differs from the oracle")
        by_subgroup: dict[tuple, set[int]] = {}
        for (q, e), m in grid.items():
            by_subgroup.setdefault((e, oracles.subgroup(q, e)), set()).add(m)
        require(all(len(values) == 1 for values in by_subgroup.values()),
                "m is not constant on a cyclic subgroup")

        emin, emax = self.GENERATORS
        rows = _body(stdouts[2])
        require(len(rows) == emax - emin + 1, "one generator row per e")
        for e, row in zip(range(emin, emax + 1), rows):
            head, *groups = row.split("; ")
            require(int(head) == e, f"generator row for e={e}")
            gens = []
            for group in filter(None, groups):
                m, members = group.split(": ")
                for q in map(int, members.strip("{}").split(", ")):
                    gens.append(q)
                    require(gcd(q, e) == 1 and q % e != 1 and oracles.is_smallest_generator(q, e),
                            f"e={e}: {q} is not the smallest generator of a nontrivial subgroup")
                    same = by_subgroup.get((e, oracles.subgroup(q, e)), {int(m)})
                    require(same == {int(m)}, f"e={e} q={q}: generator row and grid disagree")
            require(len(set(gens)) == len(gens) == oracles.cyclic_subgroup_count(e) - 1,
                    f"e={e}: generator row does not list every nontrivial cyclic subgroup once")

        eligible = sorted(cell for cell in cells
                          if (oracles.m_scan_size(*cell) or BRUTE_LIMIT + 1) <= BRUTE_LIMIT)
        for q, e in rng.sample(eligible, min(20, len(eligible))):
            require(cells[(q, e)] == oracles.m_brute(q, e), f"m({q},{e}) differs from brute force")


WORKLOADS = {w.name: w for w in (ScanBand, Screen, MTable)}
