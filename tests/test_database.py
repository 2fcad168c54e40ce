import json

import pytest

from loewy.database import (
    CSV_HEADER,
    DbRecord,
    EquivKey,
    check_complete,
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


class TestScan:
    def test_order_is_deterministic(self):
        keys = scan_keys(2, 12)
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

    def test_malformed_line_names_its_number(self, tmp_path):
        out = tmp_path / "out.jsonl"
        scan_to_file(2, 9, str(out))
        lines = out.read_text().splitlines(keepends=True)
        lines[4] = "{not json\n"
        out.write_text("".join(lines))
        for action in (lambda: scan_to_file(2, 9, str(out)),
                       lambda: load_records(str(out))):
            with pytest.raises(DomainError, match="line 5"):
                action()

    def test_resume_rejects_longer_file(self, tmp_path):
        out = tmp_path / "out.jsonl"
        scan_to_file(2, 12, str(out))
        before = out.read_bytes()
        with pytest.raises(DomainError, match="beyond"):
            scan_to_file(2, 5, str(out))
        assert out.read_bytes() == before

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
            write_csv(load_records(str(out)), str(reread))
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
        records = load_records(str(out))
        rows = csv.read_text().splitlines()
        assert len(rows) == len(records)  # the header, one error row less
        assert not any(row.startswith("7,2,") for row in rows)

    def test_failed_scan_keeps_the_old_csv(self, tmp_path, monkeypatch):
        import loewy.database as db

        out, csv = tmp_path / "db.jsonl", tmp_path / "db.csv"
        csv.write_text("an earlier projection\n")
        real, batches = db.compute_batch, []

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
        assert scan_to_file(2, 60, str(out), csv_path=str(csv)) == len(scan_keys(2, 60)) - done
        want = tmp_path / "want.csv"
        write_csv(scan_records(2, 60), str(want))
        assert csv.read_bytes() == want.read_bytes()


class TestBatches:
    """Consecutive keys share one lockstep DP; the cuts never show."""

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
        keys = scan_keys(2, 60)
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

    def test_cut_under_budget(self):
        import loewy.database as db

        keys = scan_keys(2, 120) + scan_keys(4095, 4096)
        batches = list(db._batches(keys))
        assert [key for batch in batches for key in batch] == keys
        for batch in batches:
            cells = len(batch) * (max(key.z for key in batch) + 1)
            assert cells <= db.BATCH_CELLS or len(batch) == 1


class TestStats:
    def test_range_to_99(self, tmp_path):
        out = tmp_path / "db.jsonl"
        scan_to_file(2, 99, str(out))
        records = load_records(str(out))
        summary = stats(records)
        gap_records = [(r.key.q_rep, r.n, r.key.z) for r in records if r.gap > 0]
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
        records = load_records(str(out))
        dropped = [r for r in records if not (r.key.z == 7 and r.key.q_rep == 2)]
        with pytest.raises(DomainError) as err:
            check_complete(dropped)
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
        records = db.load_records(str(out))
        errors = [r for r in records if isinstance(r, db.ErrorRecord)]
        assert len(errors) == 1
        assert errors[0].key.z == 7 and "budget" in errors[0].error
        summary = db.stats(records)  # error row keeps the range complete
        assert summary["error_rows"] == 1


class TestScreen:
    def test_z40_split_by_square_dimension(self, tmp_path):
        records = list(scan_records(40, 40))
        report = isomorphism_screen(records, 40)
        groups = {tuple(g["loewy_vector"]): g for g in report}
        target = groups[(1, 10, 19, 10, 1)]
        assert len(target["classes"]) == 2
        assert all(c["status"] == "distinguished-by" for c in target["classes"])
        assert all("dim_U_p2" in c["distinguished_by"] for c in target["classes"])

    def test_z117_unresolved(self):
        records = list(scan_records(117, 117))
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
        records = list(scan_records(5, 5))
        report = isomorphism_screen(records, 5)
        for group in report:
            if len(group["members"]) == 1:
                assert group["classes"][0]["status"] == "singleton"

    def test_incomplete_rejected(self):
        records = [compute_record(subgroup_representatives(40)[0])]
        with pytest.raises(DomainError):
            isomorphism_screen(records, 40)
