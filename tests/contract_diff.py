"""Compare the command line of two source trees over generated invocations.

    python tests/contract_diff.py PARENT_DIR CHANGE_DIR [--examples 1500]

The invocations are the derandomized ``invocations()`` of
``PARENT_DIR/tests/test_cli_contract.py``, drawn with PARENT_DIR's own
package, so the parent tree can run every one of them.  Each tree runs all
of them through its ``roeclass.cli.main`` in a child process of its own;
every invocation gets a fresh directory holding the same file names, whose
path is replaced by ``<dir>`` in stdout and stderr.  The script prints how
many invocations differ in exit code, stdout, stderr or ``--output`` bytes,
and the first few of them, and exits 1 when any does.
"""

import argparse
import contextlib
import io
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

SHOWN = 5


def draw_invocations(parent: Path, examples: int) -> tuple[tuple, list]:
    """The generator's ``--output`` names, and its invocations."""
    sys.path[:0] = [str(parent / "src"), str(parent / "tests")]
    from hypothesis import HealthCheck, given, settings

    from test_cli_contract import OUTPUTS, invocations

    drawn = []

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                     HealthCheck.filter_too_much])
    @given(invocations())
    def collect(invocation):
        drawn.append(invocation)

    collect()
    return OUTPUTS, drawn


def run_all(outputs: tuple, cases: list) -> list:
    """(exit code, stdout, stderr, --output bytes) of each invocation, run
    through the roeclass on sys.path."""
    from roeclass.cli import main

    results = []
    for argv, files in cases:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text, encoding="utf-8")
            argv = [str(Path(tmp, a)) if a in files or a in outputs else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as e:
                    code = f"exit {e.code}"
            written = [Path(tmp, o).read_bytes() if Path(tmp, o).exists() else None
                       for o in outputs]
            results.append((code, out.getvalue().replace(tmp, "<dir>"),
                            err.getvalue().replace(tmp, "<dir>"), written))
    return results


def run_side(tree: Path, cases_file: Path, results_file: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, __file__, "--side", str(cases_file), str(results_file)],
        env=dict(os.environ, PYTHONPATH=str(tree / "src")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--examples", type=int, default=1500)
    ap.add_argument("--side", type=Path, nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.side:  # a child: run the pickled cases, pickle their results
        cases_file, results_file = args.side
        results_file.write_bytes(pickle.dumps(run_all(*pickle.loads(cases_file.read_bytes()))))
        return 0
    if not (args.parent and args.change):
        ap.error("PARENT_DIR and CHANGE_DIR are required")
    outputs, cases = draw_invocations(args.parent.resolve(), args.examples)
    with tempfile.TemporaryDirectory() as tmp:
        cases_file = Path(tmp, "cases.pickle")
        cases_file.write_bytes(pickle.dumps((outputs, cases)))
        trees = {"parent": args.parent, "change": args.change}
        sides = [run_side(tree.resolve(), cases_file, Path(tmp, name))
                 for name, tree in trees.items()]
        if any([p.wait() for p in sides]):
            print("a side failed to run", file=sys.stderr)
            return 2
        parent, change = (pickle.loads(Path(tmp, name).read_bytes()) for name in trees)
    fields = ("exit code", "stdout", "stderr", "--output bytes")
    diffs = [(argv, [f for f, a, b in zip(fields, old, new) if a != b], old, new)
             for (argv, _), old, new in zip(cases, parent, change) if old != new]
    print(f"{len(diffs)} of {len(cases)} invocations differ")
    for argv, which, old, new in diffs[:SHOWN]:
        print(f"  {argv}: {', '.join(which)}")
        for f, a, b in zip(fields, old, new):
            if f in which:
                print(f"    parent {f}: {str(a)[:200]!r}\n    change {f}: {str(b)[:200]!r}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
