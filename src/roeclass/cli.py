"""Command line front end.

Exit codes: 0 for a computed result (predicates print ``true`` or ``false``),
1 when ``bce verify`` produces a failing report; any other failure is a
RoeclassError, printed as one ``error:`` line and exiting with its
``exit_code`` (2, 3 or 4, see ``errors``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import serialize as ser
from .blockspace import embed_into_nonneg_integers
from .equivalence import build_back_and_forth, verify_bijective_coarse_equivalence
from .errors import MalformedInput, RoeclassError
from .ktheory import k0_equal, k0_iso_exists, k0_positive, unit_divide
from .roeops import block_decompose, conjugate_by_bijection, trace_vector
from .supernatural import (
    bijectively_coarsely_equivalent,
    coarsely_equivalent,
    obstruction_witness,
    supernatural_of_tower,
)


def _read_source(path: str, stdin_used: list) -> str:
    if path == "-" and stdin_used:
        raise MalformedInput("stdin ('-') can only be read once")
    try:
        if path == "-":
            stdin_used.append(True)
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise MalformedInput(f"cannot read {path}: {e}") from e


def _emit(obj, output: str | None):
    text = ser.canonical_json(obj)
    if output:
        try:
            Path(output).write_text(text + "\n")
        except OSError as e:
            raise MalformedInput(f"cannot write {output}: {e}") from e
    else:
        print(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roeclass",
        description="Coarse classification of block metric spaces from order towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sn", help="supernatural number of a tower")
    p.add_argument("tower")

    p = sub.add_parser("classify", help="compare two towers")
    p.add_argument("tower1")
    p.add_argument("tower2")

    bce = sub.add_parser("bce", help="explicit coarse equivalences")
    bce_sub = bce.add_subparsers(dest="subcommand", required=True)

    p = bce_sub.add_parser("build", help="build a back-and-forth bijection")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--output")
    p.add_argument("tower1")
    p.add_argument("tower2")

    p = bce_sub.add_parser("verify", help="check a bijection file")
    p.add_argument("mapfile")

    k0 = sub.add_parser("k0", help="ordered K0 computations")
    k0_sub = k0.add_subparsers(dest="subcommand", required=True)

    p = k0_sub.add_parser("eq", help="decide equality of two classes")
    p.add_argument("class1")
    p.add_argument("class2")

    p = k0_sub.add_parser("pos", help="decide positivity of a class")
    p.add_argument("--output", help="write a nonnegative representative here")
    p.add_argument("class1", metavar="class")

    p = k0_sub.add_parser("divide-unit", help="divide the unit class by a prime power")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--exp", type=int, required=True)
    p.add_argument("tower")

    p = sub.add_parser("embed", help="embed a finite metric space into the integers")
    p.add_argument("--output")
    p.add_argument("space")

    roe = sub.add_parser("roe", help="band dominated operator calculus")
    roe_sub = roe.add_subparsers(dest="subcommand", required=True)

    p = roe_sub.add_parser("decompose", help="split an operator into blocks")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--output")
    p.add_argument("operator")

    p = roe_sub.add_parser("trace", help="blockwise trace vector")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--projection", action="store_true",
                   help="insist every block is a projection")
    p.add_argument("operator")

    p = roe_sub.add_parser("conjugate", help="conjugate an operator by a bijection")
    p.add_argument("--output")
    p.add_argument("mapfile")
    p.add_argument("operator")

    return parser


def _dispatch(args, stdin_used: list) -> int:
    def read(path):
        return ser.load_json(_read_source(path, stdin_used))

    if args.command == "sn":
        t = ser.tower_from_obj(read(args.tower))
        _emit(ser.sn_to_obj(supernatural_of_tower(t)), None)
        return 0

    if args.command == "classify":
        t1 = ser.tower_from_obj(read(args.tower1))
        t2 = ser.tower_from_obj(read(args.tower2))
        witness = obstruction_witness(t1, t2)
        _emit(
            {
                "bce": bijectively_coarsely_equivalent(t1, t2),
                "ce": coarsely_equivalent(t1, t2),
                "k0_iso": k0_iso_exists(t1, t2),
                "obstruction": None if witness is None else list(witness),
            },
            None,
        )
        return 0

    if args.command == "bce":
        if args.subcommand == "build":
            t1 = ser.tower_from_obj(read(args.tower1))
            t2 = ser.tower_from_obj(read(args.tower2))
            b = build_back_and_forth(t1, t2, args.depth)
            _emit(ser.bijection_to_obj(b), args.output)
            return 0
        b = ser.bijection_from_obj(read(args.mapfile))
        report = verify_bijective_coarse_equivalence(b)
        _emit(ser.report_to_obj(report), None)
        return 0 if report.passed else 1

    if args.command == "k0":
        if args.subcommand == "eq":
            a = ser.k0_from_obj(read(args.class1))
            b = ser.k0_from_obj(read(args.class2))
            _emit(k0_equal(a, b), None)
            return 0
        if args.subcommand == "pos":
            a = ser.k0_from_obj(read(args.class1))
            positive, witness = k0_positive(a)
            if positive and args.output:
                _emit(ser.k0_to_obj(witness), args.output)
            _emit(positive, None)
            return 0
        t = ser.tower_from_obj(read(args.tower))
        result = unit_divide(t, args.prime, args.exp)
        _emit(None if result is None else ser.k0_to_obj(result), None)
        return 0

    if args.command == "embed":
        m = ser.metric_space_from_obj(read(args.space))
        images = embed_into_nonneg_integers(m)
        _emit([str(v) for v in images], args.output)
        return 0

    if args.command == "roe":
        if args.subcommand == "decompose":
            op = ser.operator_from_obj(read(args.operator))
            bt = block_decompose(op, args.level)
            _emit(ser.blocktuple_to_obj(bt), args.output)
            return 0
        if args.subcommand == "trace":
            op = ser.operator_from_obj(read(args.operator))
            bt = block_decompose(op, args.level)
            tr = trace_vector(bt, require_projection=args.projection)
            _emit([str(v) for v in tr], None)
            return 0
        b = ser.bijection_from_obj(read(args.mapfile))
        op = ser.operator_from_obj(read(args.operator))
        _emit(ser.operator_to_obj(conjugate_by_bijection(b, op)), args.output)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, stdin_used=[])
    except RoeclassError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
