"""Command-line surface.

Exit codes: 0 success, 1 domain errors (bad parameters), 2 capacity errors.
Every run prints a parameter echo line first; all numeric output is exact.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import criteria as criteria_mod
from . import database
from . import mfunc
from .algebra import Algebra
from .arith import format_decimal, parse_decimal, resolve_z
from .errors import CapacityError, DomainError
from .invariants import invariant_report


def _echo(args, names) -> None:
    parts = [f"{name}={format_decimal(value) if isinstance(value, int) else value}"
             for name in names if (value := getattr(args, name, None)) is not None]
    print(f"# {args.command} " + " ".join(parts))


def cmd_m(args) -> int:
    q, n, e, z = args.q, args.n, args.e, args.z
    resolved = None
    if n is not None:
        resolved = resolve_z(q, n, e=e, z=z)
    elif e is None or z is not None:
        raise DomainError("provide --e, or --z together with --n")
    if z is not None:
        result = mfunc.m_via_z(q, n, z)
    else:
        try:
            result = mfunc.m_value(q, e)
        except CapacityError:
            # an e beyond the BFS is still in reach of z when --n gives it
            if resolved is None:
                raise
            z = resolved
            result = mfunc.m_via_z(q, n, z)
    witness = result.witness
    if args.witness and witness is None:
        if result.k_min is not None:
            witness = mfunc.residue_witness(q, n, z, result)
        else:
            witness = mfunc.m_bfs(q, e).witness
    print(f"m = {result.m}")
    if args.json:
        payload = {"m": result.m, "method": result.method}
        if result.rule_id:
            payload["rule"] = result.rule_id
        if args.witness:
            payload["witness"] = list(witness)
        print(json.dumps(payload, separators=(",", ":")))
    elif args.witness:
        print("witness exponents:", " ".join(str(i) for i in witness))
    return 0


def cmd_mtable(args) -> int:
    qs = range(args.qmin, args.qmax + 1)
    es = range(args.emin, args.emax + 1)
    if args.mode == "grid":
        text = mfunc.render_m_grid_csv(qs, es)
    else:
        text = mfunc.render_m_groups(es, by=args.mode)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _algebra_payload(alg: Algebra) -> dict:
    report = alg.bound_report()
    return {
        "q": alg.q, "n": alg.n, "z": alg.z,
        "e": format_decimal(alg.e()),
        "m": report.m,
        "ll": report.ll,
        "bound": report.bound,
        "gap": report.gap,
        "loewy_vector": list(alg.loewy_vector()),
        "flags": alg.flags(),
    }


def cmd_algebra(args) -> int:
    z = resolve_z(args.q, args.n, e=args.e, z=args.z)
    alg = Algebra(args.q, args.n, z)
    payload = _algebra_payload(alg)
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(f"e = {payload['e']}")
        print(f"m = {payload['m']}")
        print(f"LL = {payload['ll']}  bound = {payload['bound']}  gap = {payload['gap']}")
        print("loewy_vector =", "(" + ",".join(str(c) for c in payload["loewy_vector"]) + ")")
        flags = payload["flags"]
        print("flags =", " ".join(sorted(name for name, on in flags.items() if on)) or "-")
    if args.report:
        sys.stdout.write(alg.render_orbit_report())
    if args.invariants:
        sys.stdout.write(invariant_report(alg))
    if args.witness is not None:
        witness = alg.witness(args.witness)
        sys.stdout.write(witness.render())
    return 0


def cmd_criteria(args) -> int:
    verdicts = criteria_mod.evaluate_criteria(args.q, args.n, e=args.e, z=args.z)
    for verdict in verdicts:
        print(verdict.render())
    if not verdicts:
        print("no rule fires")
    return 0


def cmd_scan(args) -> int:
    appended = database.scan_to_file(args.zmin, args.zmax, args.out,
                                     jobs=args.jobs, csv_path=args.csv or None)
    print(f"appended {appended} records to {args.out}")
    if args.csv:
        print(f"wrote {args.csv}")
    return 0


def cmd_stats(args) -> int:
    records = database.load_records(args.infile)
    summary = database.stats(records)
    if args.json:
        print(json.dumps(summary, separators=(",", ":")))
    else:
        for key, value in summary.items():
            print(f"{key} = {value}")
    return 0


def cmd_screen(args) -> int:
    records = database.load_records(args.infile)
    report = database.isomorphism_screen(records, args.z)
    print(json.dumps(report, indent=2))
    return 0


def cmd_verify(args) -> int:
    records = [rec for rec in database.load_records(args.infile)
               if isinstance(rec, database.DbRecord)]
    if not records:
        raise DomainError("no records to verify")
    rng = random.Random(args.seed)
    sample = rng.sample(records, min(args.sample, len(records)))
    bad = 0
    for rec in sample:
        fresh = database.compute_record(rec.key)
        if fresh != rec:
            bad += 1
            print(f"MISMATCH z={rec.key.z} q={rec.key.q_rep}")
            print(f"  stored:     {rec.to_json_line()}")
            print(f"  recomputed: {fresh.to_json_line()}")
    print(f"verified {len(sample)} records, {bad} mismatches")
    return 0 if bad == 0 else 1


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this artifact reserves 2
    for capacity errors, so usage errors become DomainError (exit 1)."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loewy",
        description=(
            "Loewy structure of the split local symmetric algebras with "
            "basis indexed by residues modulo z = (q^n - 1)/e"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("m", help="compute m(q, e)")
    p.add_argument("--q", type=int, required=True, help="base q >= 2 (>= 1 for --e)")
    p.add_argument("--e", type=parse_decimal, help="modulus e (decimal, any size)")
    p.add_argument("--n", type=int, help="exponent n (with --z)")
    p.add_argument("--z", type=int, help="cofactor z = (q^n - 1)/e")
    p.add_argument("--witness", action="store_true", help="print a witness exponent multiset")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_m, echo=("q", "e", "n", "z"))

    p = sub.add_parser("mtable", help="tables of m(q, e)")
    p.add_argument("--qmin", type=int, default=2)
    p.add_argument("--qmax", type=int, default=30)
    p.add_argument("--emin", type=int, default=2)
    p.add_argument("--emax", type=int, default=30)
    p.add_argument("--mode", choices=("grid", "residues", "generators"),
                   default="grid", help="grid CSV, or grouped rows per e")
    p.add_argument("--out", type=str, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_mtable, echo=("qmin", "qmax", "emin", "emax", "mode"))

    p = sub.add_parser("algebra", help="profile one algebra A[q, n, z]")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=int)
    p.add_argument("--e", type=parse_decimal, help="modulus e (decimal, any size)")
    p.add_argument("--report", action="store_true", help="print the exponent-orbit table")
    p.add_argument("--invariants", action="store_true", help="print the invariant report")
    p.add_argument("--witness", type=int, metavar="K",
                   help="print a maximal factorization of b_K")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_algebra, echo=("q", "n", "z", "e"))

    p = sub.add_parser("criteria", help="which closed-form rules certify the Loewy length")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=int)
    p.add_argument("--e", type=parse_decimal)
    p.set_defaults(func=cmd_criteria, echo=("q", "n", "z", "e"))

    p = sub.add_parser("scan", help="enumerate equivalence classes into a JSONL file")
    p.add_argument("--zmin", type=int, required=True)
    p.add_argument("--zmax", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", type=str, required=True, help="JSONL output (appended)")
    p.add_argument("--csv", type=str, help="also write a CSV projection")
    p.set_defaults(func=cmd_scan, echo=("zmin", "zmax", "jobs", "out"))

    p = sub.add_parser("stats", help="aggregate statistics of a scan")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats, echo=("infile",))

    p = sub.add_parser("screen", help="isomorphism screening at one z")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--z", type=int, required=True)
    p.set_defaults(func=cmd_screen, echo=("infile", "z"))

    p = sub.add_parser("verify", help="recompute a sample of records and diff")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--sample", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify, echo=("infile", "sample", "seed"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _echo(args, args.echo)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
