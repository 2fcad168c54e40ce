"""Enumeration of the equivalence classes A[q, n, z]: one representative per
cyclic subgroup of (Z/z)^x, with computed profiles, JSONL persistence, and
aggregate statistics.

Records are emitted in a deterministic order (z ascending, then subgroup
order, then representative), scans are resumable by extending a prefix, and
rescans of the same range are byte-identical.  A record is built once from
the profile its batch's `loewy_profiles` call left on the algebra, and
writes its JSON line and CSV row each with one f-string, the JSON byte for
byte what json.dumps gives; the loader refuses a field of any type or form
that the f-string would write otherwise.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, islice, product
from operator import itemgetter

from .algebra import FLAG_NAMES, Algebra, loewy_profiles, same_table
# mult_order is no longer called here, but perfbench/test_perfbench.py
# reads it as loewy.database.mult_order
from .arith import cyclic_subgroups, format_decimal, mult_order  # noqa: F401
from .errors import CapacityError, DomainError
from .invariants import invariant_report, report_difference
from .mfunc import require_index_capacity

SCHEMA_VERSION = 1

# Scans cut their keys into batches of at most this many cells, the sum of
# z + 1 over a batch's keys; a wider key runs alone.  At the per-index
# budget of mfunc._BYTES_PER_INDEX, a batch's arrays stay below 0.5 MB.
BATCH_CELLS = 1 << 13

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


# The JSON object and the CSV cells of each combination of the flags.
_FLAG_TEXT = {
    values: ("{" + ",".join(f'"{name}":{str(on).lower()}'
                            for name, on in zip(FLAG_NAMES, values)) + "}",
             ",".join(str(int(on)) for on in values))
    for values in product((False, True), repeat=len(FLAG_NAMES))
}
_flag_values = itemgetter(*FLAG_NAMES)


# The fields of a record line, in order, with the types that
# `DbRecord.to_json_line` writes exactly as json.dumps does, then the
# error row's message; an error row has the fields of _ERROR_FIELDS.
_TYPES = {"schema": int, "z": int, "q": int, "n": int, "subgroup": list,
          "e": str, "m": int, "ll": int, "bound": int, "gap": int,
          "loewy_vector": list, "flags": dict, "runtime_ms": int, "error": str}
_FIELDS = tuple(_TYPES)[:-1]
_ERROR_FIELDS = ("schema", "z", "q", "subgroup", "error")


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
    # the Loewy vector's decimal text, "1,10,19,10,1", kept by a computed
    # record for its JSON line and CSV row
    vector_text: str = field(default="", compare=False, repr=False)

    def _vector_text(self) -> str:
        return self.vector_text or ",".join(map(str, self.loewy_vector))

    def to_json_line(self) -> str:
        key = self.key
        return (f'{{"schema":{SCHEMA_VERSION},"z":{key.z},"q":{key.q_rep},'
                f'"n":{self.n},"subgroup":[{",".join(map(str, key.subgroup))}],'
                f'"e":"{self.e_decimal}","m":{self.m},"ll":{self.ll},'
                f'"bound":{self.bound},"gap":{self.gap},'
                f'"loewy_vector":[{self._vector_text()}],'
                f'"flags":{_FLAG_TEXT[_flag_values(self.flags)][0]},'
                f'"runtime_ms":{self.runtime_ms}}}')

    @staticmethod
    def from_json_line(line: str | bytes):
        """The record of a line.  A field whose type or form differs from
        what `to_json_line` writes is refused, so a record read writes back
        the line it came from."""
        try:
            data = json.loads(line.decode() if type(line) is bytes else line)
        except ValueError as exc:
            raise DomainError(f"malformed record: {exc!r}") from None
        fields = tuple(data) if type(data) is dict else type(data).__name__
        if fields not in (_FIELDS, _ERROR_FIELDS):
            raise DomainError(f"unexpected record fields: {fields}")
        for name, value in data.items():
            if type(value) is not _TYPES[name]:
                raise DomainError(f"{name} is not of type {_TYPES[name].__name__}")
        if {*map(type, data["subgroup"]), *map(type, data.get("loewy_vector", ()))} - {int}:
            raise DomainError("subgroup and loewy_vector must hold ints only")
        if data["schema"] != SCHEMA_VERSION:
            raise DomainError(f"unknown schema {data['schema']}")
        key = EquivKey(data["z"], tuple(data["subgroup"]), data["q"])
        if "error" in data:
            return ErrorRecord(key=key, error=data["error"])
        if not (data["e"].isascii() and data["e"].isdigit()):
            raise DomainError("e is not a string of decimal digits")
        flags = data["flags"]
        if tuple(flags) != FLAG_NAMES or {*map(type, flags.values())} != {bool}:
            raise DomainError(f"flags are not the booleans {', '.join(FLAG_NAMES)}")
        return DbRecord(key, data["n"], data["e"], data["m"], data["ll"],
                        data["bound"], data["gap"], tuple(data["loewy_vector"]),
                        data["flags"], data["runtime_ms"])

    def to_csv_row(self) -> str:
        # at most 32 entries of the vector, separated by semicolons
        vector = self._vector_text().replace(",", ";", 31).partition(",")[0]
        return (f"{self.key.z},{self.key.q_rep},{self.n},{self.e_decimal},"
                f"{self.m},{self.ll},{self.bound},{self.gap},"
                f"{_FLAG_TEXT[_flag_values(self.flags)][1]},{vector}")


@dataclass(frozen=True)
class ErrorRecord:
    """A per-record capacity failure, kept in the stream instead of being
    dropped; the scan stays complete and resumable."""

    key: EquivKey
    error: str

    def to_json_line(self) -> str:
        payload = {"schema": SCHEMA_VERSION, "z": self.key.z, "q": self.key.q_rep,
                   "subgroup": list(self.key.subgroup), "error": self.error}
        return json.dumps(payload, separators=(",", ":"))


CSV_HEADER = ("z,q,n,e,m,ll,bound,gap,uniserial,bound_attained,ll_three,"
              "spike_vector,loewy_vector")


def subgroup_representatives(z: int) -> list[EquivKey]:
    """One key per cyclic subgroup of (Z/z)^x, sorted by (order, smallest
    generator); q = 1 is replaced by q = z + 1.  A z beyond INDEX_CAPACITY
    is refused, as the algebra A[z + 1, 1, z] of its first key would be,
    before its units are swept."""
    if z < 1:
        raise DomainError(f"z must be >= 1, got {z}")
    require_index_capacity(z + 1, 1, z)
    if z == 1:
        return [EquivKey(z=1, subgroup=(1,), q_rep=2)]
    return [EquivKey(z=z, subgroup=sub, q_rep=z + 1 if gen == 1 else gen)
            for gen, sub in cyclic_subgroups(z)]


def key_algebra(key: EquivKey) -> Algebra:
    """The algebra A[q, n, z] of a key, with n = ord_z(q), the length of
    the key's subgroup."""
    return Algebra(key.q_rep, key.order, key.z)


def _record(key: EquivKey, alg: Algebra, e_decimal: str) -> DbRecord:
    """The record of a key from its algebra's profile, which
    `loewy_profiles` filled, and e's decimal text; runtime_ms stays 0, so
    that rescans are byte-identical."""
    profile = alg.loewy_profile()
    vector = profile.loewy_vector
    return DbRecord(key, alg.n, e_decimal, profile.m, profile.ll,
                    profile.bound, profile.gap, vector, profile.flags, 0,
                    ",".join(map(str, vector)))


def compute_record(key: EquivKey) -> DbRecord:
    """The record of one key, its profile computed alone."""
    alg = key_algebra(key)
    return _record(key, alg, format_decimal(alg.e()))


def scan_keys(z_min: int, z_max: int):
    """The keys of [z_min, z_max] in scan order, made one z at a time."""
    if z_min < 1 or z_max < z_min:
        raise DomainError(f"invalid range [{z_min}, {z_max}]")
    require_index_capacity(z_max + 1, 1, z_max)
    return chain.from_iterable(map(subgroup_representatives, range(z_min, z_max + 1)))


def _in_scan_order(numbered, keys, *, whole: bool = False):
    """Pass the records of the (number, record) pairs through while each is
    the next of keys; refuse the first one missing, repeated, foreign or
    out of order, by number and key.  With whole, no key may be left."""
    for number, rec in numbered:
        expected = next(keys, None)
        if rec.key != expected:
            place = ("lies beyond the last key of the scan" if expected is None else
                     f"stands where the key (z={expected.z}, q={expected.q_rep}) belongs")
            raise DomainError(f"record {number} (z={rec.key.z}, q={rec.key.q_rep}) {place}")
        yield rec
    if whole and (missing := next(keys, None)) is not None:
        raise DomainError(f"the records end before the key (z={missing.z}, q={missing.q_rep})")


def compute_batch(keys) -> list:
    """The records of the keys, in order, from one `loewy_profiles` call
    over their algebras.  A CapacityError from a key's algebra or from
    forming its e, as when q^n is too wide, becomes that key's error row,
    never a silent drop, and no profile is computed for it; the rest of the
    batch computes normally, and anything else propagates (it is a bug)."""
    built = []
    for key in keys:
        try:
            alg = key_algebra(key)
            built.append((key, alg, format_decimal(alg.e())))
        except CapacityError as exc:
            built.append(ErrorRecord(key=key, error=str(exc)))
    loewy_profiles([row[1] for row in built if isinstance(row, tuple)])
    return [_record(*row) if isinstance(row, tuple) else row for row in built]


def _batches(keys):
    """Cut consecutive keys into batches whose z + 1 sum to at most
    BATCH_CELLS cells; a wider key runs alone.  A batch shares one degree
    kernel call, one certificate pass and one Loewy DP, over its keys'
    rows laid end to end."""
    batch, cells = [], 0
    for key in keys:
        if batch and cells + key.z + 1 > BATCH_CELLS:
            yield batch
            batch, cells = [], 0
        batch.append(key)
        cells += key.z + 1
    if batch:
        yield batch


def compute_records(keys, *, jobs: int = 1):
    """Yield the records of the given keys in order.  Consecutive keys are
    cut into batches of at most BATCH_CELLS cells, one per index of their
    rows, and each batch runs one `compute_batch`, so the batch boundaries
    never show in the output.
    A pool of worker processes computes the batches out of order, and the
    pool's mapper restores the order.  It has as many workers as the
    smallest of jobs, the CPUs this process may use and the batches, since
    the pool starts all of them at once: no more batches are looked at
    first.  With one worker, no pool starts."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    batches = _batches(keys)
    head = list(islice(batches, max(1, min(jobs, cpus))))
    batches = chain(head, batches)
    if len(head) <= 1:
        yield from chain.from_iterable(map(compute_batch, batches))
        return
    # imported here: the pool module costs every CLI process memory, and
    # only a pool uses it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        yield from chain.from_iterable(pool.map(compute_batch, batches))


def scan_records(z_min: int, z_max: int, *, jobs: int = 1):
    """Yield records for the range in deterministic order."""
    return compute_records(scan_keys(z_min, z_max), jobs=jobs)


def _resume_point(out_path: str, keys, prefix=None):
    """The keys left after the records in out_path, the first of keys
    (`_in_scan_order`), each appended to prefix when given.  A torn final
    line is cut off; with no key left for it, it is refused instead."""
    try:
        handle = open(out_path, "rb+")
    except FileNotFoundError:
        return keys
    torn = []  # the number and offset of a torn final line

    def lines():
        for number, line in enumerate(handle, start=1):
            if not line.endswith(b"\n"):
                torn.extend((number, handle.tell() - len(line)))
                return
            yield number, _parse_line(line, out_path, number)

    with handle:
        for rec in _in_scan_order(lines(), keys):
            if prefix is not None:
                prefix.append(rec)
        if torn:
            following = next(keys, None)
            if following is None:
                raise DomainError(f"line {torn[0]} lies beyond the last key of the scan")
            handle.truncate(torn[1])
            keys = chain((following,), keys)
    return keys


def scan_to_file(z_min: int, z_max: int, out_path: str, *, jobs: int = 1,
                 csv_path: str | None = None) -> int:
    """Write (or extend) a JSONL scan; an existing file must be a prefix of
    the deterministic key order and is never recomputed.  With csv_path,
    `write_csv` projects the records as the scan has them, the prefix it
    read back and then each record as it is appended, so the JSONL is not
    read a second time.  Returns the number of records appended."""
    prefix = None if csv_path is None else []
    keys = _resume_point(out_path, scan_keys(z_min, z_max), prefix)
    appended = 0
    with open(out_path, "a", encoding="utf-8") as handle:
        def new():
            nonlocal appended
            for record in compute_records(keys, jobs=jobs):
                handle.write(record.to_json_line() + "\n")
                appended += 1
                yield record
        if csv_path is None:
            for _ in new():
                pass
        else:
            write_csv(chain(prefix, new()), csv_path)
    return appended


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
    """Require the records to be exactly the keys of [first z, last z], in
    scan order (`_in_scan_order`)."""
    if records:
        z_min = records[0].key.z
        keys = scan_keys(z_min, max(z_min, records[-1].key.z))
        for _ in _in_scan_order(enumerate(records, start=1), keys, whole=True):
            pass


def stats(records) -> dict:
    """Aggregate counts for a complete scan range; error rows are counted
    separately and excluded from the aggregates."""
    check_complete(records)
    rows = [rec for rec in records if isinstance(rec, DbRecord)]
    gaps = Counter(rec.gap for rec in rows)
    out = {
        "parameter_pairs": len(rows),
        "distinct_loewy_vectors": len({rec.loewy_vector for rec in rows}),
        "ll_three": sum(rec.ll == 3 for rec in rows),
        "spike_vectors": sum(rec.flags["spike_vector"] for rec in rows),
        "gap_positive": sum(count for gap, count in gaps.items() if gap > 0),
        "gap_above_one": sum(count for gap, count in gaps.items() if gap > 1),
        "gap_histogram": dict(sorted(gaps.items())),
        "error_rows": len(records) - len(rows),
    }
    if rows:  # in scan order, so z ascends
        out["z_range"] = [rows[0].key.z, rows[-1].key.z]
    first = next((rec for rec in rows if rec.gap > 0), None)
    if first is not None:
        out["smallest_dimension_with_gap"] = {"z": first.key.z, "q": first.key.q_rep,
                                              "n": first.n, "gap": first.gap}
    return out


def _classes(z: int, members: list[list[int]]) -> list[dict]:
    """The classes of one Loewy-vector group, given its [q, n] members:
    members with identical multiplication tables merge, and the classes
    left are told apart by their invariant reports.  A class is a list of
    member positions."""
    if len(members) == 1:
        return [{"members": members, "status": "singleton"}]
    algebras = [Algebra(q, n, z) for q, n in members]
    classes: list[list[int]] = []
    for i, alg in enumerate(algebras):
        cls = next((cls for cls in classes if same_table(algebras[cls[0]], alg)), None)
        if cls is None:
            classes.append([i])
        else:
            cls.append(i)
    if len(classes) == 1:
        return [{"members": members, "status": "isomorphic-by-basis-map"}]
    reports = [invariant_report(algebras[cls[0]]) for cls in classes]
    out = []
    for i, cls in enumerate(classes):
        # (first differing key, q) against every other class
        diffs = [(report_difference(reports[i], reports[j]), members[other[0]][0])
                 for j, other in enumerate(classes) if j != i]
        entry = {"members": [members[k] for k in cls]}
        twins = [q for diff, q in diffs if diff is None]
        if twins:
            # identical reports elsewhere: isomorphism stays undecided
            entry.update(status="unresolved", unresolved_against=twins)
        else:
            entry.update(status="distinguished-by",
                         distinguished_by=sorted({diff for diff, _ in diffs}))
        out.append(entry)
    return out


def isomorphism_screen(records, z: int) -> list[dict]:
    """Partition the records at a fixed z by Loewy vector, then split each
    group into its classes (`_classes`)."""
    numbered = [(number, rec) for number, rec in enumerate(records, start=1)
                if rec.key.z == z]
    at_z = list(_in_scan_order(numbered, scan_keys(z, z), whole=True))
    if not all(isinstance(rec, DbRecord) for rec in at_z):
        raise DomainError(f"the records of z={z} hold an error row")
    groups: dict[tuple, list[list[int]]] = {}
    for rec in at_z:
        groups.setdefault(rec.loewy_vector, []).append([rec.key.q_rep, rec.n])
    return [{"loewy_vector": list(vector), "members": members,
             "classes": _classes(z, members)}
            for vector, members in sorted(groups.items())]
