"""Enumeration of the equivalence classes A[q, n, z]: one representative per
cyclic subgroup of (Z/z)^x, with computed profiles, JSONL persistence, and
aggregate statistics.

Records are emitted in a deterministic order (z ascending, then subgroup
order, then representative), scans are resumable by extending a prefix, and
rescans of the same range are byte-identical.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain

from .algebra import Algebra, loewy_profiles, same_table
# mult_order is no longer called here, but perfbench/test_perfbench.py
# reads it as loewy.database.mult_order
from .arith import cyclic_subgroups, format_decimal, mult_order  # noqa: F401
from .errors import CapacityError, DomainError
from .invariants import invariant_report, report_difference

SCHEMA_VERSION = 1

# Consecutive scan keys share one lockstep Loewy DP while their padded
# (keys, largest z + 1) arrays stay within this many cells.  On the scans of
# z in [2, 99] and z = 997, larger budgets saved little time and raised the
# peak memory.  From z = BATCH_CELLS / 2 on, every key runs alone, on views.
BATCH_CELLS = 1 << 12

_FIELDS = ("schema", "z", "q", "n", "subgroup", "e", "m", "ll", "bound",
           "gap", "loewy_vector", "flags", "runtime_ms")

# Reference values for the full z <= 10000 run: a long-running target, kept
# for documentation and for the long-running mode, never asserted in CI.
# Two published totals for the class count differ by one; both are recorded.
FULL_SCALE_REFERENCE = {
    "not_desk_verifiable": True,
    "z_range": [1, 10000],
    "parameter_pairs": 768512,
    "equivalence_classes_alt_count": 768511,
    "distinct_loewy_vectors": 475581,
    "ll_three": 191608,
    "spike_vectors": 37400,
    "bound_not_attained": 10721,
}


@dataclass(frozen=True)
class EquivKey:
    """One equivalence class: (z, cyclic subgroup of units mod z), carried
    by its smallest generator (z + 1 stands in for the trivial subgroup)."""

    z: int
    subgroup: tuple[int, ...]
    q_rep: int

    @property
    def order(self) -> int:
        return len(self.subgroup)


@dataclass(frozen=True)
class DbRecord:
    key: EquivKey
    n: int
    e_decimal: str
    m: int
    ll: int
    bound: int
    gap: int
    loewy_vector: tuple[int, ...]
    flags: dict
    runtime_ms: int = 0

    def to_json_line(self) -> str:
        payload = {
            "schema": SCHEMA_VERSION,
            "z": self.key.z,
            "q": self.key.q_rep,
            "n": self.n,
            "subgroup": list(self.key.subgroup),
            "e": self.e_decimal,
            "m": self.m,
            "ll": self.ll,
            "bound": self.bound,
            "gap": self.gap,
            "loewy_vector": list(self.loewy_vector),
            "flags": self.flags,
            "runtime_ms": self.runtime_ms,
        }
        return json.dumps(payload, separators=(",", ":"))

    @staticmethod
    def from_json_line(line: str | bytes):
        try:
            data = json.loads(line)
            key = EquivKey(z=data["z"], subgroup=tuple(data["subgroup"]),
                           q_rep=data["q"])
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"malformed record: {exc!r}") from None
        if "error" in data:
            return ErrorRecord(key=key, error=data["error"])
        if tuple(data.keys()) != _FIELDS:
            raise DomainError(f"unexpected record fields: {tuple(data.keys())}")
        return DbRecord(
            key=key, n=data["n"], e_decimal=data["e"], m=data["m"],
            ll=data["ll"], bound=data["bound"], gap=data["gap"],
            loewy_vector=tuple(data["loewy_vector"]), flags=data["flags"],
            runtime_ms=data["runtime_ms"],
        )

    def to_csv_row(self) -> str:
        vec = self.loewy_vector[:32]
        return ",".join([
            str(self.key.z), str(self.key.q_rep), str(self.n),
            self.e_decimal, str(self.m), str(self.ll), str(self.bound),
            str(self.gap),
            *(str(int(self.flags[name])) for name in
              ("uniserial", "bound_attained", "ll_three", "spike_vector")),
            ";".join(str(c) for c in vec),
        ])


@dataclass(frozen=True)
class ErrorRecord:
    """A per-record capacity failure, kept in the stream instead of being
    dropped; the scan stays complete and resumable."""

    key: EquivKey
    error: str

    def to_json_line(self) -> str:
        payload = {
            "schema": SCHEMA_VERSION,
            "z": self.key.z,
            "q": self.key.q_rep,
            "subgroup": list(self.key.subgroup),
            "error": self.error,
        }
        return json.dumps(payload, separators=(",", ":"))


CSV_HEADER = ("z,q,n,e,m,ll,bound,gap,uniserial,bound_attained,ll_three,"
              "spike_vector,loewy_vector")


def subgroup_representatives(z: int) -> list[EquivKey]:
    """One key per cyclic subgroup of (Z/z)^x, sorted by (order, smallest
    generator); q = 1 is replaced by q = z + 1."""
    if z < 1:
        raise DomainError(f"z must be >= 1, got {z}")
    if z == 1:
        return [EquivKey(z=1, subgroup=(1,), q_rep=2)]
    return [EquivKey(z=z, subgroup=sub, q_rep=z + 1 if gen == 1 else gen)
            for gen, sub in cyclic_subgroups(z)]


def key_algebra(key: EquivKey) -> Algebra:
    """The algebra A[q, n, z] of a key, with n = ord_z(q), the length of
    the key's subgroup."""
    return Algebra(key.q_rep, key.order, key.z)


def _record(key: EquivKey, alg: Algebra) -> DbRecord:
    report = alg.bound_report()
    return DbRecord(
        key=key,
        n=alg.n,
        e_decimal=format_decimal(alg.e()),
        m=report.m,
        ll=report.ll,
        bound=report.bound,
        gap=report.gap,
        loewy_vector=alg.loewy_vector(),
        flags=alg.flags(),
        runtime_ms=0,  # kept deterministic so rescans are byte-identical
    )


def compute_record(key: EquivKey) -> DbRecord:
    """The record of one key, as a batch of one."""
    return _record(key, key_algebra(key))


def scan_keys(z_min: int, z_max: int) -> list[EquivKey]:
    if z_min < 1 or z_max < z_min:
        raise DomainError(f"invalid range [{z_min}, {z_max}]")
    keys = []
    for z in range(z_min, z_max + 1):
        keys.extend(subgroup_representatives(z))
    return keys


def compute_batch(keys) -> list:
    """The records of the keys, in order, from one lockstep Loewy DP over
    their algebras.  A CapacityError from a key's algebra becomes that
    key's error row, never a silent drop, and the rest of the batch
    computes normally; anything else propagates (it is a bug)."""
    built = []
    for key in keys:
        try:
            built.append(key_algebra(key))
        except CapacityError as exc:
            built.append(ErrorRecord(key=key, error=str(exc)))
    loewy_profiles([alg for alg in built if isinstance(alg, Algebra)])
    return [_record(key, alg) if isinstance(alg, Algebra) else alg
            for key, alg in zip(keys, built)]


def _batches(keys):
    """Cut consecutive keys into batches whose padded DP arrays, keys times
    (largest z + 1), hold at most BATCH_CELLS cells; a wider key runs
    alone."""
    batch, width = [], 0
    for key in keys:
        wider = max(width, key.z + 1)
        if batch and (len(batch) + 1) * wider > BATCH_CELLS:
            yield batch
            batch, wider = [], key.z + 1
        batch.append(key)
        width = wider
    if batch:
        yield batch


def compute_records(keys, *, jobs: int = 1):
    """Yield the records of the given keys in order.  Consecutive keys are
    cut into batches under BATCH_CELLS, and each batch runs one lockstep
    Loewy DP (`compute_batch`), so the batch boundaries never show in the
    output.  With jobs > 1 a worker pool computes the batches out of order
    and the pool's mapper restores the order."""
    if jobs <= 1:
        for batch in _batches(keys):
            yield from compute_batch(batch)
        return
    # imported here: the pool module costs every CLI process memory, and
    # only jobs > 1 uses it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for records in pool.map(compute_batch, _batches(keys)):
            yield from records


def scan_records(z_min: int, z_max: int, *, jobs: int = 1):
    """Yield records for the range in deterministic order."""
    return compute_records(scan_keys(z_min, z_max), jobs=jobs)


def _resume_point(out_path: str, keys: list[EquivKey], prefix=None) -> int:
    """Number of records already in out_path, which must be a prefix of
    keys; each record read is appended to prefix when one is given.  A
    final line without a newline is a torn write: it is cut off and
    recomputed."""
    try:
        handle = open(out_path, "rb+")
    except FileNotFoundError:
        return 0
    done = end = 0
    with handle:
        for number, line in enumerate(handle, start=1):
            if done == len(keys):
                raise DomainError(
                    f"existing output holds records beyond this scan "
                    f"(line {number}; the scan ends at z={keys[-1].z})"
                )
            if not line.endswith(b"\n"):
                handle.truncate(end)
                break
            rec = _parse_line(line, out_path, number)
            if rec.key != keys[done]:
                raise DomainError(
                    f"existing output is not a prefix of this scan "
                    f"(record {done}: z={rec.key.z} q={rec.key.q_rep})"
                )
            if prefix is not None:
                prefix.append(rec)
            done += 1
            end += len(line)
    return done


def _appended(handle, records):
    """Pass the records through, writing each to handle as a JSONL line."""
    for record in records:
        handle.write(record.to_json_line() + "\n")
        yield record


def scan_to_file(z_min: int, z_max: int, out_path: str, *, jobs: int = 1,
                 csv_path: str | None = None) -> int:
    """Write (or extend) a JSONL scan; an existing file must be a prefix of
    the deterministic key order and is never recomputed.  With csv_path,
    `write_csv` projects the records as the scan has them, the prefix it
    read back and then each record as it is appended, so the JSONL is not
    read a second time.  Returns the number of records appended."""
    keys = scan_keys(z_min, z_max)
    prefix = None if csv_path is None else []
    done = _resume_point(out_path, keys, prefix)
    with open(out_path, "a", encoding="utf-8") as handle:
        new = _appended(handle, compute_records(keys[done:], jobs=jobs))
        if csv_path is None:
            for _ in new:
                pass
        else:
            write_csv(chain(prefix, new), csv_path)
    return len(keys) - done


def _parse_line(line: bytes, path: str, number: int):
    try:
        return DbRecord.from_json_line(line)
    except DomainError as exc:
        raise DomainError(f"{path} line {number}: {exc}") from None


def load_records(path: str) -> list[DbRecord]:
    with open(path, "rb") as handle:
        return [_parse_line(line, path, number)
                for number, line in enumerate(handle, start=1) if line.strip()]


def write_csv(records, path: str) -> None:
    """Write the CSV projection of the records; error rows have none.  The
    rows go to path + ".tmp", which replaces path only once the last
    record is written, so a run that fails leaves an earlier file as it
    was and no partial one."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(CSV_HEADER + "\n")
            for record in records:
                if isinstance(record, DbRecord):
                    handle.write(record.to_csv_row() + "\n")
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def check_complete(records) -> None:
    """Verify the records cover every key of their z-range; refuse with the
    missing keys otherwise."""
    if not records:
        return
    by_key = {(rec.key.z, rec.key.q_rep) for rec in records}
    z_min = min(rec.key.z for rec in records)
    z_max = max(rec.key.z for rec in records)
    missing = []
    for key in scan_keys(z_min, z_max):
        if (key.z, key.q_rep) not in by_key:
            missing.append((key.z, key.q_rep))
    if missing:
        head = ", ".join(f"(z={z}, q={q})" for z, q in missing[:8])
        raise DomainError(
            f"incomplete scan for z in [{z_min}, {z_max}]: {len(missing)} "
            f"missing keys, first: {head}"
        )


def stats(records) -> dict:
    """Aggregate counts for a complete scan range; error rows are counted
    separately and excluded from the aggregates."""
    check_complete(records)
    error_rows = sum(1 for rec in records if isinstance(rec, ErrorRecord))
    records = [rec for rec in records if isinstance(rec, DbRecord)]
    vectors = set()
    ll3 = spike = gap_pos = gap_gt1 = 0
    gap_hist: dict[int, int] = {}
    smallest_gap_record = None
    for rec in records:
        vectors.add(rec.loewy_vector)
        if rec.ll == 3:
            ll3 += 1
        if rec.flags.get("spike_vector"):
            spike += 1
        if rec.gap > 0:
            gap_pos += 1
            if smallest_gap_record is None or rec.key.z < smallest_gap_record.key.z:
                smallest_gap_record = rec
        if rec.gap > 1:
            gap_gt1 += 1
        gap_hist[rec.gap] = gap_hist.get(rec.gap, 0) + 1
    out = {
        "parameter_pairs": len(records),
        "distinct_loewy_vectors": len(vectors),
        "ll_three": ll3,
        "spike_vectors": spike,
        "gap_positive": gap_pos,
        "gap_above_one": gap_gt1,
        "gap_histogram": dict(sorted(gap_hist.items())),
        "error_rows": error_rows,
    }
    if records:
        out["z_range"] = [min(r.key.z for r in records), max(r.key.z for r in records)]
    if smallest_gap_record is not None:
        out["smallest_dimension_with_gap"] = {
            "z": smallest_gap_record.key.z,
            "q": smallest_gap_record.key.q_rep,
            "n": smallest_gap_record.n,
            "gap": smallest_gap_record.gap,
        }
    return out


def isomorphism_screen(records, z: int) -> list[dict]:
    """Partition the records at a fixed z by Loewy vector, then inside each
    group merge by identical multiplication tables and separate survivors by
    their invariant reports."""
    at_z = [rec for rec in records
            if rec.key.z == z and isinstance(rec, DbRecord)]
    expected = {key.q_rep for key in subgroup_representatives(z)}
    if {rec.key.q_rep for rec in at_z} != expected:
        raise DomainError(f"records for z={z} are incomplete")
    groups: dict[tuple, list[DbRecord]] = {}
    for rec in at_z:
        groups.setdefault(rec.loewy_vector, []).append(rec)
    out = []
    for vector, members in sorted(groups.items()):
        entry = {"loewy_vector": list(vector), "members": [], "classes": []}
        entry["members"] = [[rec.key.q_rep, rec.n] for rec in members]
        if len(members) == 1:
            entry["classes"].append({
                "members": entry["members"],
                "status": "singleton",
            })
            out.append(entry)
            continue
        algebras = {rec.key.q_rep: Algebra(rec.key.q_rep, rec.n, z)
                    for rec in members}
        # union by identical tables
        classes: list[list[DbRecord]] = []
        for rec in members:
            for cls in classes:
                if same_table(algebras[cls[0].key.q_rep], algebras[rec.key.q_rep]):
                    cls.append(rec)
                    break
            else:
                classes.append([rec])
        if len(classes) == 1:
            entry["classes"].append({
                "members": entry["members"],
                "status": "isomorphic-by-basis-map",
            })
            out.append(entry)
            continue
        reports = {cls[0].key.q_rep: invariant_report(algebras[cls[0].key.q_rep])
                   for cls in classes}
        for i, cls in enumerate(classes):
            labels = []
            twins = []
            for j, other in enumerate(classes):
                if i == j:
                    continue
                diff = report_difference(reports[cls[0].key.q_rep],
                                         reports[other[0].key.q_rep])
                if diff is None:
                    twins.append(other[0].key.q_rep)
                else:
                    labels.append(diff)
            record = {"members": [[rec.key.q_rep, rec.n] for rec in cls]}
            if twins:
                # identical reports elsewhere: isomorphism stays undecided
                record["status"] = "unresolved"
                record["unresolved_against"] = twins
            else:
                record["status"] = "distinguished-by"
                record["distinguished_by"] = sorted(set(labels))
            entry["classes"].append(record)
        out.append(entry)
    return out
