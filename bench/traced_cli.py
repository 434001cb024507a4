"""Run the roeclass command line with spans around each layer.

    python traced_cli.py SPANS_OUT ARGS...

behaves like ``python -m roeclass.cli ARGS...`` (same stdout, stderr and exit
code) and also writes the spans, self times and counters of the run to
SPANS_OUT, with whether sympy was imported by the end.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import roeclass.cli as cli

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.span("cli.main", cli.main, argv)
    except SystemExit as e:  # argparse rejects bad arguments this way
        code = e.code
    finally:
        data = tracer.dump()
        data["sympy_loaded"] = "sympy" in sys.modules
        with open(out_path, "w") as f:
            json.dump(data, f, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
