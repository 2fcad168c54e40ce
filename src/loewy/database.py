"""Enumeration of the equivalence classes A[q, n, z]: one representative per
cyclic subgroup of (Z/z)^x, with computed profiles, JSONL persistence, and
aggregate statistics.

Records are emitted in a deterministic order (z ascending, then subgroup
order, then representative), scans are resumable by extending a prefix, and
rescans of the same range are byte-identical.  A record is built once from
the profile its batch's `loewy_profiles` call left on the algebra, and
writes its JSON line and CSV row each with one f-string, the JSON byte for
byte what json.dumps gives.  Every reader of a scan file consumes one
generator, `load_records`, in one pass, and never holds its records; the
loader refuses a field of any type or form that the f-string would write
otherwise.
"""

from __future__ import annotations

import json
import os
from collections import Counter, deque
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, count, islice, product
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
    out of order, by number and key.  With whole, the records must be
    exactly the keys up to the last pair's z, which is read on to after a
    record out of place, so that a malformed line anywhere wins."""
    numbered = iter(numbered)
    last = None  # the z of the last record passed
    for number, rec in numbered:
        expected = next(keys, None)
        if rec.key != expected:
            if whole:
                end = rec.key.z
                for _, later in numbered:
                    end = later.key.z
                if expected is not None and expected.z > end:
                    expected = None
            place = ("lies beyond the last key of the scan" if expected is None else
                     f"stands where the key (z={expected.z}, q={expected.q_rep}) belongs")
            raise DomainError(f"record {number} (z={rec.key.z}, q={rec.key.q_rep}) {place}")
        last = rec.key.z
        yield rec
    if whole and (missing := next(keys, None)) is not None and (last is None or missing.z <= last):
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
    never show in the output.  A pool of worker processes computes at most
    two batches per worker ahead.  It has as many workers as the smallest
    of jobs, the CPUs this process may use and the batches, since the pool
    starts all of them at once; with one worker, no pool starts."""
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
        futures = (pool.submit(compute_batch, batch) for batch in batches)
        pending = deque(islice(futures, 2 * len(head)))
        while pending:
            yield from pending.popleft().result()
            pending.extend(islice(futures, 1))


def scan_records(z_min: int, z_max: int, *, jobs: int = 1):
    """Yield records for the range in deterministic order."""
    return compute_records(scan_keys(z_min, z_max), jobs=jobs)


class _TornLine(DomainError):
    """A final line without its newline that does not parse, a write cut
    short: the resume cuts the file at its offset, a reader refuses it."""

    def __init__(self, message: str, number: int, offset: int):
        super().__init__(message)
        self.number, self.offset = number, offset


def load_records(path: str):
    """Yield (line number, record) for each line of the scan file at path,
    parsed as it is read.  A blank line is refused; a final line without
    its newline is parsed too, and is a _TornLine when it does not parse."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                raise DomainError(f"{path} line {number}: blank line")
            try:
                record = DbRecord.from_json_line(line)
            except DomainError as exc:
                message = f"{path} line {number}: {exc}"
                if line.endswith(b"\n"):
                    raise DomainError(message) from None
                raise _TornLine(message, number, handle.tell() - len(line)) from None
            yield number, record


def _resume_point(out_path: str, keys):
    """Yield the records of the scan file at out_path while each is the next
    of keys (`_in_scan_order`), and return the keys left.  A torn final
    line is cut off, or refused before anything is cut when no key is left
    for it; a final line that parses but lacks its newline gets one."""
    if not os.path.exists(out_path):
        return keys
    try:
        yield from _in_scan_order(load_records(out_path), keys)
    except _TornLine as torn:
        following = next(keys, None)
        if following is None:
            raise DomainError(f"line {torn.number} lies beyond the last key of the scan") from None
        os.truncate(out_path, torn.offset)
        return chain((following,), keys)
    if os.path.getsize(out_path):
        with open(out_path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
    return keys


def scan_to_file(z_min: int, z_max: int, out_path: str, *, jobs: int = 1,
                 csv_path: str | None = None) -> int:
    """Write (or extend) a JSONL scan; an existing file must be a prefix of
    the deterministic key order and is never recomputed.  With csv_path,
    `write_csv` projects the records read back, then each one appended.
    Returns the number of records appended."""
    keys = scan_keys(z_min, z_max)
    appended = 0

    def records():
        nonlocal appended
        left = yield from _resume_point(out_path, keys)
        with open(out_path, "a", encoding="utf-8") as handle:
            for record in compute_records(left, jobs=jobs):
                handle.write(record.to_json_line() + "\n")
                appended += 1
                yield record

    if csv_path is None:
        deque(records(), 0)
    else:
        write_csv(records(), csv_path)
    return appended


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


def stats(numbered) -> dict:
    """Aggregate counts of the (number, record) pairs of a scan, in one
    pass; the records must be exactly the keys of [first z, last z].  Error
    rows are counted apart and excluded from the aggregates."""
    numbered = iter(numbered)
    head, walk = next(numbered, None), ()
    if head is not None:  # the keys from the first z on, bounded by the walk
        keys = chain.from_iterable(map(subgroup_representatives, count(head[1].key.z)))
        walk = _in_scan_order(chain((head,), numbered), keys, whole=True)
    gaps, vectors = Counter(), set()
    ll_three = spikes = errors = 0
    first = last = first_gap = None
    for rec in walk:
        if not isinstance(rec, DbRecord):
            errors += 1
            continue
        gaps[rec.gap] += 1
        vectors.add(rec.loewy_vector)
        ll_three += rec.ll == 3
        spikes += rec.flags["spike_vector"]
        if first_gap is None and rec.gap > 0:
            first_gap = rec
        first, last = first or rec, rec
    out = {
        "parameter_pairs": sum(gaps.values()),
        "distinct_loewy_vectors": len(vectors),
        "ll_three": ll_three,
        "spike_vectors": spikes,
        "gap_positive": sum(n for gap, n in gaps.items() if gap > 0),
        "gap_above_one": sum(n for gap, n in gaps.items() if gap > 1),
        "gap_histogram": dict(sorted(gaps.items())),
        "error_rows": errors,
    }
    if first is not None:  # in scan order, so z ascends
        out["z_range"] = [first.key.z, last.key.z]
    if first_gap is not None:
        out["smallest_dimension_with_gap"] = {"z": first_gap.key.z, "q": first_gap.key.q_rep,
                                              "n": first_gap.n, "gap": first_gap.gap}
    return out


def _classes(z: int, members: list[list[int]]) -> list[dict]:
    """The classes of one Loewy-vector group, given its [q, n] members:
    members with identical multiplication tables merge, and the classes
    left are told apart by their invariant reports.  A class is a list of
    member positions."""
    if len(members) == 1:
        return [{"members": members, "status": "singleton"}]
    algebras = [Algebra(q, n, z) for q, n in members]
    loewy_profiles(algebras)  # one kernel call for the tables and reports
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


def isomorphism_screen(numbered, z: int) -> list[dict]:
    """Partition the records at z of the (number, record) pairs of a scan,
    read in one pass, by Loewy vector; split each group into `_classes`."""
    at_z = ((number, rec) for number, rec in numbered if rec.key.z == z)
    groups: dict[tuple, list[list[int]]] = {}
    error_row = False
    for rec in _in_scan_order(at_z, scan_keys(z, z), whole=True):
        if isinstance(rec, DbRecord):
            groups.setdefault(rec.loewy_vector, []).append([rec.key.q_rep, rec.n])
        else:
            error_row = True
    if error_row:
        raise DomainError(f"the records of z={z} hold an error row")
    return [{"loewy_vector": list(vector), "members": members,
             "classes": _classes(z, members)}
            for vector, members in sorted(groups.items())]
