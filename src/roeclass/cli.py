"""Command line front end.

Each command is one entry of COMMANDS: help, options, input files with their
``serialize`` parsers, and an action.  ``main`` reads an accepted command line
straight from the table and runs and emits every command the same way; the
argparse parser built from the same table is loaded only for help and usage
errors, whose text it alone writes.  Exit codes: 0 for
a computed result (predicates print ``true`` or ``false``), 1 when ``bce
verify`` produces a failing report; any other failure is a RoeclassError,
printed as one ``error:`` line and exiting with its ``exit_code`` (2, 3 or 4,
see ``errors``).
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

# the actions read layer functions off the lazy package root when they run,
# so a command imports only the layers it calls
import roeclass as rc

from . import serialize as ser
from .errors import LIMITS, MalformedInput, RoeclassError, over_limit


def _read_source(path: str, stdin_used: list) -> str:
    """The text of a file or of stdin, refused on the "input bytes" row
    before it is parsed: one character past the limit is read, and no more."""
    if path == "-" and stdin_used:
        raise MalformedInput("stdin ('-') can only be read once")
    cap = 1 << LIMITS["input bytes"][0]
    try:
        if path == "-":
            stdin_used.append(True)
            text = sys.stdin.read(cap + 1)
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read(cap + 1)
    except (OSError, UnicodeDecodeError) as e:
        raise MalformedInput(f"cannot read {path}: {e}") from e
    if len(text) > cap:  # a character is at least a byte
        raise over_limit("input bytes", "stdin" if path == "-" else path)
    return text


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
        return rc.ktheory._positive_level(a) is not None
    positive, witness = rc.k0_positive(a)
    if positive:
        _emit(ser.k0_to_obj(witness), args.witness)
    return positive


def _classify(args, t1, t2):
    bce = rc.bijectively_coarsely_equivalent(t1, t2)
    # k0_iso_exists is this same verdict: asking ktheory would load it for nothing
    return {"bce": bce, "ce": rc.coarsely_equivalent(t1, t2), "k0_iso": bce,
            "obstruction": rc.obstruction_witness(t1, t2)}  # a pair or None


# "group name" keys are the subcommands of GROUPS
COMMANDS = {
    "sn": Command("supernatural number of a tower", (), (("tower", "tower"),),
                  lambda args, t: ser.sn_to_obj(rc.supernatural_of_tower(t))),
    "classify": Command("compare two towers", (), TOWERS, _classify),
    "bce build": Command(
        "build a back-and-forth bijection", (_opt("--depth", type=int, required=True), OUTPUT),
        TOWERS, lambda args, *ts: ser.bijection_to_obj(rc.build_back_and_forth(*ts, args.depth))),
    "bce verify": Command(
        "check a bijection file", (), (("mapfile", "bijection"),),
        lambda args, b: ser.report_to_obj(rc.verify_bijective_coarse_equivalence(b)),
        lambda out: 0 if out["passed"] else 1),
    "k0 eq": Command("decide equality of two classes", (), (("class1", "k0"), ("class2", "k0")),
                     lambda args, a, b: rc.k0_equal(a, b)),
    "k0 pos": Command("decide positivity of a class", (WITNESS,), (("class", "k0"),), _k0_pos),
    "k0 divide-unit": Command(
        "divide the unit class by a prime power",
        (_opt("--prime", type=int, required=True), _opt("--exp", type=int, required=True)),
        (("tower", "tower"),),
        lambda args, t: None if (w := rc.unit_divide(t, args.prime, args.exp)) is None
        else ser.k0_to_obj(w)),
    "embed": Command(
        "embed a finite metric space into the integers", (OUTPUT,), (("space", "metric_space"),),
        lambda args, m: [ser.scalar_to_str(v) for v in rc.embed_into_nonneg_integers(m)]),
    "roe decompose": Command(
        "split an operator into blocks", (LEVEL, OUTPUT), OPERATOR,
        lambda args, op: ser.blocktuple_to_obj(rc.block_decompose(op, args.level))),
    "roe trace": Command(
        "blockwise trace vector",
        (LEVEL, _opt("--projection", action="store_true",
                     help="insist every block is a projection")),
        OPERATOR, lambda args, op: [ser.scalar_to_str(v) for v in rc.trace_vector(
            rc.block_decompose(op, args.level), require_projection=args.projection)]),
    "roe conjugate": Command(
        "conjugate an operator by a bijection", (OUTPUT,), (("mapfile", "bijection"), *OPERATOR),
        lambda args, b, op: ser.operator_to_obj(rc.conjugate_by_bijection(b, op))),
}


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace _build_parser().parse_args(argv) gives, read from COMMANDS
    alone: the command's words, then exact option names with their values and
    positionals in any order.  None for help, a usage error and every form
    left to argparse: an abbreviation, --opt=value, --, a value that starts
    with -."""
    words = 2 if argv[:1] and argv[0] in GROUPS else 1
    key = " ".join(argv[:words])
    if key not in COMMANDS:
        return None
    command = COMMANDS[key]
    args = dict(zip(("command", "subcommand"), argv[:words]), key=key)
    options, positionals = {}, []
    for names, keywords in command.options:
        dest = keywords.get("dest", names[0].lstrip("-").replace("-", "_"))
        args[dest] = False if keywords.get("action") == "store_true" else None
        options.update(dict.fromkeys(names, (dest, keywords)))
    tokens = iter(argv[words:])
    for token in tokens:
        if token in options:
            dest, keywords = options[token]
            if keywords.get("action") == "store_true":
                args[dest] = True
                continue
            value = next(tokens, "-")  # a missing value, like one that starts with -
            if value.startswith("-"):
                return None
            try:
                args[dest] = keywords.get("type", str)(value)
            except ValueError:
                return None
        elif token.startswith("-") and token != "-":
            return None
        else:
            positionals.append(token)
    if len(positionals) != len(command.inputs) or any(
            keywords.get("required") and args[dest] is None for dest, keywords in options.values()):
        return None
    args.update(zip((argument for argument, _ in command.inputs), positionals))
    return SimpleNamespace(**args)


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # 5-7 ms of a cold start: only help and usage errors need it

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
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _build_parser().parse_args(argv)
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
