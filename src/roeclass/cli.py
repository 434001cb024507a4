"""Command line front end.

Each command is one entry of COMMANDS: help, options, input files with their
``serialize`` parsers, and an action.  The parser is built from the table and
``main`` reads, runs and emits every command the same way.  Exit codes: 0 for
a computed result (predicates print ``true`` or ``false``), 1 when ``bce
verify`` produces a failing report; any other failure is a RoeclassError,
printed as one ``error:`` line and exiting with its ``exit_code`` (2, 3 or 4,
see ``errors``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import serialize as ser
from .blockspace import embed_into_nonneg_integers
from .equivalence import build_back_and_forth, verify_bijective_coarse_equivalence
from .errors import MalformedInput, RoeclassError
from .ktheory import _positive_level, k0_equal, k0_iso_exists, k0_positive, unit_divide
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


class Command(NamedTuple):
    help: str
    options: tuple  # (names, keywords) of add_argument, one pair per option
    inputs: tuple  # (argument, kind): files read and parsed by kind_from_obj, in order
    action: Callable  # (args, *parsed inputs) -> the object to print
    exit_code: Callable = lambda out: 0


def _opt(*names, **keywords):
    return names, keywords


OUTPUT = _opt("--output")
LEVEL = _opt("--level", type=int, required=True)
TOWERS = (("tower1", "tower"), ("tower2", "tower"))
OPERATOR = (("operator", "operator"),)
WITNESS = _opt("--output", dest="witness", metavar="OUTPUT",
               help="write a nonnegative representative here")
GROUPS = {"bce": "explicit coarse equivalences", "k0": "ordered K0 computations",
          "roe": "band dominated operator calculus"}


def _k0_pos(args, a):
    # --output holds the witness, not the verdict main prints; it is written
    # first, so a failed write leaves stdout empty.  Without --output the
    # witness, which can be huge, is never built.
    if not args.witness:
        return _positive_level(a) is not None
    positive, witness = k0_positive(a)
    if positive:
        _emit(ser.k0_to_obj(witness), args.witness)
    return positive


# "group name" keys are the subcommands of GROUPS
COMMANDS = {
    "sn": Command("supernatural number of a tower", (), (("tower", "tower"),),
                  lambda args, t: ser.sn_to_obj(supernatural_of_tower(t))),
    "classify": Command("compare two towers", (), TOWERS, lambda args, t1, t2: {
        "bce": bijectively_coarsely_equivalent(t1, t2),
        "ce": coarsely_equivalent(t1, t2),
        "k0_iso": k0_iso_exists(t1, t2),
        "obstruction": obstruction_witness(t1, t2),  # a pair or None
    }),
    "bce build": Command(
        "build a back-and-forth bijection", (_opt("--depth", type=int, required=True), OUTPUT),
        TOWERS, lambda args, *ts: ser.bijection_to_obj(build_back_and_forth(*ts, args.depth))),
    "bce verify": Command(
        "check a bijection file", (), (("mapfile", "bijection"),),
        lambda args, b: ser.report_to_obj(verify_bijective_coarse_equivalence(b)),
        lambda out: 0 if out["passed"] else 1),
    "k0 eq": Command("decide equality of two classes", (), (("class1", "k0"), ("class2", "k0")),
                     lambda args, a, b: k0_equal(a, b)),
    "k0 pos": Command("decide positivity of a class", (WITNESS,), (("class", "k0"),), _k0_pos),
    "k0 divide-unit": Command(
        "divide the unit class by a prime power",
        (_opt("--prime", type=int, required=True), _opt("--exp", type=int, required=True)),
        (("tower", "tower"),),
        lambda args, t: None if (w := unit_divide(t, args.prime, args.exp)) is None
        else ser.k0_to_obj(w)),
    "embed": Command(
        "embed a finite metric space into the integers", (OUTPUT,), (("space", "metric_space"),),
        lambda args, m: [ser.scalar_to_str(v) for v in embed_into_nonneg_integers(m)]),
    "roe decompose": Command(
        "split an operator into blocks", (LEVEL, OUTPUT), OPERATOR,
        lambda args, op: ser.blocktuple_to_obj(block_decompose(op, args.level))),
    "roe trace": Command(
        "blockwise trace vector",
        (LEVEL, _opt("--projection", action="store_true",
                     help="insist every block is a projection")),
        OPERATOR, lambda args, op: [ser.scalar_to_str(v) for v in trace_vector(
            block_decompose(op, args.level), require_projection=args.projection)]),
    "roe conjugate": Command(
        "conjugate an operator by a bijection", (OUTPUT,), (("mapfile", "bijection"), *OPERATOR),
        lambda args, b, op: ser.operator_to_obj(conjugate_by_bijection(b, op))),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roeclass",
        description="Coarse classification of block metric spaces from order towers.",
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for key, command in COMMANDS.items():
        group, _, name = key.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(group, help=GROUPS[group]).add_subparsers(
                dest="subcommand", required=True)
        p = subs[group].add_parser(name, help=command.help)
        for names, keywords in command.options:
            p.add_argument(*names, **keywords)
        for argument, _ in command.inputs:
            p.add_argument(argument)
        p.set_defaults(key=key)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.key]
    stdin_used: list = []
    try:
        # each file is parsed before the next is read: the first bad one sets the exit code
        inputs = [getattr(ser, f"{kind}_from_obj")(
                      ser.load_json(_read_source(getattr(args, argument), stdin_used)))
                  for argument, kind in command.inputs]
        out = command.action(args, *inputs)
        _emit(out, getattr(args, "output", None))
        return command.exit_code(out)
    except RoeclassError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
