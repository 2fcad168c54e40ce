import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_row_oracle, json_line_oracle
from loewy.algebra import FLAG_NAMES
from loewy.arith import POWER_CAPACITY_BITS, mult_order
from loewy.database import (
    CSV_HEADER,
    DbRecord,
    EquivKey,
    ErrorRecord,
    compute_record,
    isomorphism_screen,
    load_records,
    scan_keys,
    scan_records,
    scan_to_file,
    stats,
    subgroup_representatives,
    write_csv,
)
from loewy.errors import DomainError


class TestRepresentatives:
    def test_z5(self):
        keys = subgroup_representatives(5)
        assert [(k.q_rep, k.subgroup) for k in keys] == [
            (6, (1,)), (4, (1, 4)), (2, (1, 2, 3, 4)),
        ]

    def test_z1(self):
        assert subgroup_representatives(1) == [EquivKey(z=1, subgroup=(1,), q_rep=2)]

    def test_z7_count(self):
        keys = subgroup_representatives(7)
        assert len(keys) == 4  # one per divisor of 6
        assert keys[0].q_rep == 8

    def test_closure(self):
        for z in (8, 12, 24, 35):
            for key in subgroup_representatives(z):
                sub = set(key.subgroup)
                assert all(a * b % z in sub for a in sub for b in sub)
                assert {pow(key.q_rep, i, z) for i in range(1, len(sub) + 1)} == sub


class TestRecords:
    def test_compute_anchor(self):
        rec = compute_record(EquivKey(z=70, subgroup=tuple(sorted(
            pow(3, i, 70) for i in range(1, 13))), q_rep=3))
        assert rec.n == 12 and rec.m == 8 and rec.ll == 3 and rec.gap == 1
        assert rec.e_decimal == "7592"

    def test_json_round_trip(self):
        rec = compute_record(subgroup_representatives(40)[3])
        again = DbRecord.from_json_line(rec.to_json_line())
        assert again == rec

    def test_field_order(self):
        rec = compute_record(subgroup_representatives(5)[0])
        keys = list(json.loads(rec.to_json_line()).keys())
        assert keys == ["schema", "z", "q", "n", "subgroup", "e", "m", "ll",
                        "bound", "gap", "loewy_vector", "flags", "runtime_ms"]


big_ints = st.one_of(st.integers(0, 200), st.integers(-(10**40), 10**80))
vectors = st.one_of(st.lists(st.integers(1, 10**12), min_size=1, max_size=40),
                    st.sampled_from([[1], [1] * 40, list(range(1, 41))]))
flag_values = st.tuples(*[st.booleans()] * len(FLAG_NAMES))


@st.composite
def records(draw):
    vector = draw(vectors)
    digits = draw(st.one_of(st.integers(1, 30), st.integers(1000, 5000)))
    e = draw(st.text("0123456789", min_size=digits, max_size=digits))
    key = EquivKey(draw(big_ints), tuple(draw(st.lists(big_ints, min_size=1))),
                   draw(big_ints))
    fields = [draw(big_ints) for _ in range(6)]
    flags = dict(zip(FLAG_NAMES, draw(flag_values)))
    text = draw(st.sampled_from(["", ",".join(map(str, vector))]))
    return DbRecord(key, fields[0], e, *fields[1:5], tuple(vector), flags,
                    fields[5], text)


class TestRecordFormat:
    """The f-string formatters equal the dict-plus-json.dumps encoder and
    the joined CSV row they replace, and the loader reads their lines back
    to the same record."""

    @staticmethod
    def check(record):
        line = record.to_json_line()
        assert line == json_line_oracle(record)
        assert record.to_csv_row() == csv_row_oracle(record)
        again = DbRecord.from_json_line(line)
        assert again == record
        assert again.to_json_line() == line
        assert again.to_csv_row() == record.to_csv_row()
        assert DbRecord.from_json_line(line.encode()) == record

    @settings(max_examples=300, deadline=None)
    @given(records())
    def test_formatters_equal_the_oracles(self, record):
        self.check(record)

    def test_every_flag_combination(self):
        rec = compute_record(subgroup_representatives(40)[3])
        for values in product((False, True), repeat=len(FLAG_NAMES)):
            for text in ("", rec.vector_text):
                self.check(DbRecord(rec.key, rec.n, rec.e_decimal, rec.m,
                                    rec.ll, rec.bound, rec.gap, rec.loewy_vector,
                                    dict(zip(FLAG_NAMES, values)), 0, text))

    def test_scan_records(self):
        for rec in scan_records(2, 60):
            self.check(rec)


class TestLoaderTypes:
    """A field of another type or form than the writer gives it is
    refused with a DomainError, never read into a record."""

    LINE = compute_record(subgroup_representatives(12)[2]).to_json_line()

    @pytest.mark.parametrize("field,value", [
        ("flags", 5), ("flags", None), ("z", "12"), ("q", 2.0), ("n", True),
        ("m", None), ("ll", [3]), ("bound", 4.5), ("gap", False),
        ("runtime_ms", "0"), ("schema", 2), ("e", 91), ("e", "9l"),
        ("e", ""), ("e", "\u0669"), ("subgroup", [1, "5"]), ("subgroup", 5),
        ("loewy_vector", [1, True]), ("loewy_vector", "1,2"),
        ("flags", {"uniserial": 1, "bound_attained": True, "ll_three": False,
                   "spike_vector": False}),
        ("flags", {"bound_attained": True, "uniserial": False,
                   "ll_three": False, "spike_vector": False}),
        ("flags", {"uniserial": False, "bound_attained": True}),
    ])
    def test_mistyped_field(self, field, value):
        data = json.loads(self.LINE)
        data[field] = value
        with pytest.raises(DomainError):
            DbRecord.from_json_line(json.dumps(data, separators=(",", ":")))

    @pytest.mark.parametrize("line", [
        "5", "[1, 2]", '"record"', "null", '{"z": 5}',
        '{"schema":1,"z":5,"q":"2","subgroup":[1,2,3,4],"error":"budget"}',
        '{"schema":1,"z":5,"q":2,"subgroup":[1,2,3,4],"error":7}',
    ])
    def test_malformed_line(self, line):
        with pytest.raises(DomainError):
            DbRecord.from_json_line(line)

    def test_error_row_round_trip(self):
        line = '{"schema":1,"z":5,"q":2,"subgroup":[1,2,3,4],"error":"budget"}'
        assert DbRecord.from_json_line(line).to_json_line() == line


class TestScan:
    def test_order_is_deterministic(self):
        keys = list(scan_keys(2, 12))
        assert keys == sorted(keys, key=lambda k: (k.z, k.order, k.q_rep))

    def test_byte_identical_rescan(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        scan_to_file(2, 25, str(a))
        scan_to_file(2, 25, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_resume_extends_prefix(self, tmp_path):
        full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        scan_to_file(2, 20, str(full))
        lines = full.read_text().splitlines(keepends=True)
        part.write_text("".join(lines[:7]))
        appended = scan_to_file(2, 20, str(part))
        assert appended == len(lines) - 7
        assert part.read_bytes() == full.read_bytes()

    def test_resume_truncates_torn_line(self, tmp_path):
        full, torn = tmp_path / "full.jsonl", tmp_path / "torn.jsonl"
        scan_to_file(2, 20, str(full))
        torn.write_bytes(full.read_bytes()[:-20])
        assert scan_to_file(2, 20, str(torn)) == 1
        assert torn.read_bytes() == full.read_bytes()

    def test_final_line_without_newline(self, tmp_path):
        # a final line that parses but lost its newline: the readers take
        # its record, and the resume gives it its newline before appending
        full, cut, wider = (tmp_path / f"{name}.jsonl" for name in ("full", "cut", "wider"))
        scan_to_file(2, 20, str(full))
        scan_to_file(2, 25, str(wider))
        data = full.read_bytes()
        cut.write_bytes(data[:-1])
        assert list(load_records(str(cut))) == list(load_records(str(full)))
        assert scan_to_file(2, 20, str(cut)) == 0
        assert cut.read_bytes() == data
        cut.write_bytes(data[:-1])
        assert scan_to_file(2, 25, str(cut)) == len(list(scan_keys(21, 25)))
        assert cut.read_bytes() == wider.read_bytes()

    def test_torn_final_line_refused_by_readers(self, tmp_path):
        out = tmp_path / "out.jsonl"
        scan_to_file(2, 20, str(out))
        lines = len(out.read_bytes().splitlines())
        out.write_bytes(out.read_bytes()[:-20])
        with pytest.raises(DomainError, match=f"line {lines}: malformed record"):
            stats(load_records(str(out)))

    def test_malformed_line_names_its_number(self, tmp_path):
        out = tmp_path / "out.jsonl"
        scan_to_file(2, 9, str(out))
        lines = out.read_text().splitlines(keepends=True)
        lines[4] = "{not json\n"
        out.write_text("".join(lines))
        for action in (lambda: scan_to_file(2, 9, str(out)),
                       lambda: list(load_records(str(out)))):
            with pytest.raises(DomainError, match="line 5"):
                action()

    def test_resume_rejects_longer_file(self, tmp_path):
        out = tmp_path / "out.jsonl"
        scan_to_file(2, 12, str(out))
        before = out.read_bytes()
        with pytest.raises(DomainError, match="beyond"):
            scan_to_file(2, 5, str(out))
        assert out.read_bytes() == before

    def test_resume_rejects_longer_file_with_torn_line(self, tmp_path):
        # z in [2, 5] holds 8 records; a line past them is refused, torn or
        # not, before the torn line is cut off
        out = tmp_path / "out.jsonl"
        scan_to_file(2, 12, str(out))
        lines = out.read_bytes().splitlines(keepends=True)
        for data, message in (
                (b"".join(lines)[:-20], r"record 9 \(z=6, q=7\) lies beyond"),
                (b"".join(lines[:8]) + lines[8][:30], "line 9 lies beyond")):
            out.write_bytes(data)
            with pytest.raises(DomainError, match=message):
                scan_to_file(2, 5, str(out))
            assert out.read_bytes() == data

    def test_resume_rejects_foreign_prefix(self, tmp_path):
        out = tmp_path / "out.jsonl"
        scan_to_file(5, 9, str(out))
        with pytest.raises(DomainError):
            scan_to_file(2, 9, str(out))

    def test_parallel_matches_serial(self, tmp_path):
        serial = list(scan_records(2, 16))
        parallel = list(scan_records(2, 16, jobs=2))
        assert serial == parallel

    def test_csv_projection(self, tmp_path):
        out = tmp_path / "db.csv"
        records = list(scan_records(2, 10))
        write_csv(records, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(records) + 1
        assert "subgroup" not in lines[0]


class TestScanCsv:
    """`scan_to_file` writes the CSV from the records it has, and replaces
    an earlier CSV only once the scan is done."""

    def test_resumed_scan_matches_reread(self, tmp_path):
        full = tmp_path / "full.jsonl"
        scan_to_file(2, 40, str(full))
        data = full.read_bytes()
        cut = data.index(b"\n", len(data) // 2) + 1
        for name, prefix in (("valid", data[:cut]), ("torn", data[:cut + 25])):
            out, csv = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
            out.write_bytes(prefix)
            scan_to_file(2, 40, str(out), csv_path=str(csv))
            assert out.read_bytes() == data
            reread = tmp_path / f"{name}-reread.csv"
            write_csv((rec for _, rec in load_records(str(out))), str(reread))
            assert csv.read_bytes() == reread.read_bytes()

    def test_error_rows_have_no_csv_row(self, tmp_path, monkeypatch):
        import loewy.database as db
        from loewy.errors import CapacityError

        real = db.key_algebra

        def flaky(key):
            if key.z == 7 and key.q_rep == 2:
                raise CapacityError("synthetic budget overrun")
            return real(key)

        monkeypatch.setattr(db, "key_algebra", flaky)
        out, csv = tmp_path / "db.jsonl", tmp_path / "db.csv"
        scan_to_file(5, 9, str(out), csv_path=str(csv))
        records = list(load_records(str(out)))
        rows = csv.read_text().splitlines()
        assert len(rows) == len(records)  # the header, one error row less
        assert not any(row.startswith("7,2,") for row in rows)

    def test_failed_scan_keeps_the_old_csv(self, tmp_path, monkeypatch):
        import loewy.database as db

        out, csv = tmp_path / "db.jsonl", tmp_path / "db.csv"
        csv.write_text("an earlier projection\n")
        real, batches = db.compute_batch, []
        # z in [2, 60] cuts into four batches under this budget
        monkeypatch.setattr(db, "BATCH_CELLS", 1 << 12)

        def dies(keys):
            batches.append(keys)
            if len(batches) == 3:
                raise RuntimeError("killed")
            return real(keys)

        monkeypatch.setattr(db, "compute_batch", dies)
        with pytest.raises(RuntimeError, match="killed"):
            scan_to_file(2, 60, str(out), csv_path=str(csv))
        assert csv.read_text() == "an earlier projection\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.csv", "db.jsonl"]
        # the JSONL holds the batches done before the failure; the rerun
        # resumes from there and writes the whole CSV
        done = len(out.read_text().splitlines())
        assert done == len(batches[0]) + len(batches[1])
        monkeypatch.setattr(db, "compute_batch", real)
        assert scan_to_file(2, 60, str(out), csv_path=str(csv)) == len(list(scan_keys(2, 60))) - done
        want = tmp_path / "want.csv"
        write_csv(scan_records(2, 60), str(want))
        assert csv.read_bytes() == want.read_bytes()


class TestBatches:
    """Consecutive keys share one degree kernel call, one certificate pass
    and one DP over their rows laid end to end; the cuts never show."""

    def test_budget_never_shows(self, tmp_path, monkeypatch):
        import loewy.database as db

        out = {}
        for cells in (1, 1 << 30):  # every key alone, then one batch
            monkeypatch.setattr(db, "BATCH_CELLS", cells)
            out[cells] = tmp_path / f"{cells}.jsonl"
            scan_to_file(2, 60, str(out[cells]))
        assert out[1].read_bytes() == out[1 << 30].read_bytes()

    def test_torn_line_inside_batch(self, tmp_path):
        import loewy.database as db

        full, torn = tmp_path / "full.jsonl", tmp_path / "torn.jsonl"
        scan_to_file(2, 60, str(full))
        keys = list(scan_keys(2, 60))
        batch = next(b for b in db._batches(keys) if len(b) > 2)
        inside = keys.index(batch[len(batch) // 2])  # neither first nor last
        lines = full.read_bytes().splitlines(keepends=True)
        torn.write_bytes(b"".join(lines[:inside]) + lines[inside][:30])
        assert scan_to_file(2, 60, str(torn)) == len(lines) - inside
        assert torn.read_bytes() == full.read_bytes()

    def test_bands_concatenate(self, tmp_path):
        low, high, whole = (tmp_path / name for name in ("low", "high", "whole"))
        scan_to_file(2, 23, str(low))
        scan_to_file(24, 60, str(high))
        scan_to_file(2, 60, str(whole))
        assert low.read_bytes() + high.read_bytes() == whole.read_bytes()

    def test_error_row_leaves_its_batch_intact(self, monkeypatch):
        import loewy.database as db
        from loewy.errors import CapacityError

        clean = list(scan_records(5, 30))
        real = db.key_algebra

        def flaky(key):
            if key.z == 17 and key.q_rep == 4:
                raise CapacityError("synthetic budget overrun")
            return real(key)

        monkeypatch.setattr(db, "key_algebra", flaky)
        monkeypatch.setattr(db, "BATCH_CELLS", 1 << 30)
        records = list(scan_records(5, 30))
        assert [rec.key for rec in records] == [rec.key for rec in clean]
        for rec, want in zip(records, clean):
            if rec.key.z == 17 and rec.key.q_rep == 4:
                assert isinstance(rec, db.ErrorRecord) and "budget" in rec.error
            else:
                assert rec == want

    def test_keys_bring_their_order(self, monkeypatch):
        # n = nu = ord_z(q) is the length of a key's subgroup, and the
        # degree kernel reads nu off the orbit of index 1, so a scan
        # computes no multiplicative order
        import loewy.algebra
        import loewy.database as db
        import loewy.mfunc

        def unreachable(*args):
            raise AssertionError("a scan computed an order")

        want = list(scan_records(2, 60))
        for key in scan_keys(2, 60):
            assert db.key_algebra(key).nu == key.order == len(key.subgroup)
        monkeypatch.setattr(loewy.mfunc, "mult_order", unreachable)
        monkeypatch.setattr(loewy.algebra, "mult_order", unreachable)
        assert list(scan_records(2, 60)) == want

    def test_wide_e_becomes_its_error_row(self, monkeypatch):
        # the last key of z = 524341, A(6, 524340, 524341): its algebra
        # builds, but q^n needs 1 048 680 bits, more than the package forms;
        # the key becomes its error row, and no profile is computed for it
        import loewy.database as db

        z = 524341
        wide = EquivKey(z, tuple(range(1, z)), 6)
        assert mult_order(6, z) == z - 1 == wide.order
        small = list(scan_keys(5, 9))
        want = [compute_record(key) for key in small]
        profiled, real = [], db.loewy_profiles

        def recording(algs):
            profiled.extend(algs)
            return real(algs)

        monkeypatch.setattr(db, "loewy_profiles", recording)
        records = db.compute_batch([*small[:4], wide, *small[4:]])
        assert records[4] == db.ErrorRecord(
            wide, f"q^n has more than {POWER_CAPACITY_BITS} bits, the most "
                  "this package forms in full")
        assert records[:4] + records[5:] == want
        assert [alg.z for alg in profiled] == [key.z for key in small]

    def test_cut_under_budget(self):
        import loewy.database as db

        keys = [*scan_keys(2, 120), *scan_keys(4095, 4096)]
        batches = list(db._batches(keys))
        assert [key for batch in batches for key in batch] == keys
        for batch in batches:
            cells = sum(key.z + 1 for key in batch)
            assert cells <= db.BATCH_CELLS or len(batch) == 1


class Pool:
    """A stub in place of the process pool: it records its size and runs
    each submitted batch in this process, so no process starts."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        import concurrent.futures

        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestJobs:
    """The pool has as many workers as the smallest of jobs, the CPUs this
    process may use and the batches, since it starts them all at once, and
    at most two batches per worker are in flight."""

    @pytest.mark.parametrize("jobs, cpus, cells, size", [
        (100000, 3, 1 << 12, 3),  # the CPUs
        (2, 64, 1 << 12, 2),  # jobs
        (100000, 64, 1 << 12, 4),  # the four batches of [2, 60]
        (100000, 1, 1 << 12, None),  # one CPU: no pool
        (100000, 64, 1 << 30, None),  # one batch: no pool
        (1, 64, 1 << 12, None),
        (100000, None, 1 << 12, 3),  # no affinity call: os.cpu_count() = 3
    ])
    def test_pool_size(self, jobs, cpus, cells, size, monkeypatch):
        import concurrent.futures
        import os

        import loewy.database as db

        want = list(scan_records(2, 60))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(Pool, "sizes", [])
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        monkeypatch.setattr(db, "BATCH_CELLS", cells)
        assert list(scan_records(2, 60, jobs=jobs)) == want
        assert Pool.sizes == ([] if size is None else [size])

    def test_batches_in_flight(self, monkeypatch):
        # the keys drawn when the first record comes out: those of the
        # first four batches, two per worker, and the key that ends the
        # fourth; the whole range's keys would be drawn if every batch were
        # submitted at once
        import concurrent.futures
        import os

        import loewy.database as db

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(Pool, "sizes", [])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(db, "BATCH_CELLS", 1 << 8)
        keys = list(scan_keys(2, 200))
        batches = list(db._batches(keys))
        drawn = 0

        def counted():
            nonlocal drawn
            for key in keys:
                drawn += 1
                yield key

        records = db.compute_records(counted(), jobs=2)
        first = next(records)
        assert drawn == sum(map(len, batches[:4])) + 1 < len(keys)
        assert [first, *records] == list(db.compute_records(iter(keys)))
        assert Pool.sizes == [2] and drawn == len(keys)


class TestStats:
    def test_range_to_99(self, tmp_path):
        out = tmp_path / "db.jsonl"
        scan_to_file(2, 99, str(out))
        records = list(load_records(str(out)))
        summary = stats(records)
        gap_records = [(r.key.q_rep, r.n, r.key.z) for _, r in records if r.gap > 0]
        assert gap_records == [(3, 12, 70), (5, 12, 91), (8, 12, 95)]
        assert summary["gap_positive"] == 3
        assert summary["gap_above_one"] == 0
        assert summary["smallest_dimension_with_gap"]["z"] == 70
        assert summary["parameter_pairs"] == len(records)

    def test_empty(self):
        summary = stats([])
        assert summary["parameter_pairs"] == 0
        assert summary["gap_positive"] == 0

    def test_incomplete_refused(self, tmp_path):
        out = tmp_path / "db.jsonl"
        scan_to_file(2, 12, str(out))
        dropped = [(number, r) for number, r in load_records(str(out))
                   if not (r.key.z == 7 and r.key.q_rep == 2)]
        with pytest.raises(DomainError) as err:
            stats(dropped)
        assert "z=7" in str(err.value)

    def test_capacity_failures_become_error_rows(self, tmp_path, monkeypatch):
        import loewy.database as db
        from loewy.errors import CapacityError

        real = db.key_algebra

        def flaky(key):
            if key.z == 7 and key.q_rep == 2:
                raise CapacityError("synthetic budget overrun")
            return real(key)

        monkeypatch.setattr(db, "key_algebra", flaky)
        out = tmp_path / "db.jsonl"
        db.scan_to_file(5, 9, str(out))
        records = list(db.load_records(str(out)))
        errors = [r for _, r in records if isinstance(r, db.ErrorRecord)]
        assert len(errors) == 1
        assert errors[0].key.z == 7 and "budget" in errors[0].error
        summary = db.stats(records)  # error row keeps the range complete
        assert summary["error_rows"] == 1


def numbered(z_min, z_max):
    """The (line number, record) pairs of a scan file of [z_min, z_max]."""
    return list(enumerate(scan_records(z_min, z_max), start=1))


class TestOnePass:
    """`stats` and `isomorphism_screen` read a one-shot generator of
    (line number, record) pairs, as `load_records` yields them, to the
    results they give for the same pairs in a list."""

    def test_generator_equals_list(self, tmp_path):
        out = tmp_path / "db.jsonl"
        scan_to_file(2, 40, str(out))
        listed = list(load_records(str(out)))
        assert listed == numbered(2, 40)
        assert stats(load_records(str(out))) == stats(iter(listed)) == stats(listed)
        for z in (12, 40):
            assert (isomorphism_screen(load_records(str(out)), z)
                    == isomorphism_screen(iter(listed), z)
                    == isomorphism_screen(listed, z))


class TestScreen:
    @pytest.mark.parametrize("z, groups", [(40, [2]), (65, [2, 2, 8]), (117, [4, 2, 5])])
    def test_one_kernel_call_per_group(self, z, groups, monkeypatch):
        # each Loewy-vector group of several members makes one kernel call
        # for all of them, which the table comparisons and the invariant
        # reports share; a lone member makes none
        import loewy.algebra

        records = numbered(z, z)
        real, calls = loewy.algebra.degrees_and_orbit_min, []

        def counting(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(loewy.algebra, "degrees_and_orbit_min", counting)
        report = isomorphism_screen(records, z)
        assert calls == [len(g["members"]) for g in report if len(g["members"]) > 1]
        assert calls == groups

    def test_z40_split_by_square_dimension(self, tmp_path):
        records = numbered(40, 40)
        report = isomorphism_screen(records, 40)
        groups = {tuple(g["loewy_vector"]): g for g in report}
        target = groups[(1, 10, 19, 10, 1)]
        assert len(target["classes"]) == 2
        assert all(c["status"] == "distinguished-by" for c in target["classes"])
        assert all("dim_U_p2" in c["distinguished_by"] for c in target["classes"])

    def test_z117_unresolved(self):
        records = numbered(117, 117)
        report = isomorphism_screen(records, 117)
        groups = {tuple(g["loewy_vector"]): g for g in report}
        target = groups[(1, 104, 12, 1)]
        by_members = {tuple(tuple(m) for m in c["members"]): c
                      for c in target["classes"]}
        # the two order-6 representatives have identical invariant reports
        assert by_members[((29, 6),)]["status"] == "unresolved"
        assert by_members[((29, 6),)]["unresolved_against"] == [35]
        assert by_members[((35, 6),)]["status"] == "unresolved"

    def test_singletons(self):
        records = numbered(5, 5)
        report = isomorphism_screen(records, 5)
        for group in report:
            if len(group["members"]) == 1:
                assert group["classes"][0]["status"] == "singleton"

    def test_incomplete_rejected(self):
        records = [(1, compute_record(subgroup_representatives(40)[0]))]
        with pytest.raises(DomainError):
            isomorphism_screen(records, 40)

    def test_error_row_rejected(self):
        # a key of z = 7 kept as its error row leaves the screen of z = 7
        # without a member; the screens of the other z are whole
        records = numbered(5, 9)
        at = next(i for i, (_, rec) in enumerate(records) if rec.key.z == 7)
        records[at] = (at + 1, ErrorRecord(records[at][1].key, "synthetic budget overrun"))
        with pytest.raises(DomainError, match="z=7 hold an error row"):
            isomorphism_screen(records, 7)
        assert isomorphism_screen(records, 8) == isomorphism_screen(numbered(8, 8), 8)
