"""Run one spinqec CLI command with the layer tracer installed, then dump its spans.

Usage: python cli_child.py SPANS_FILE COMMAND [OPTIONS...]

Stdout and the exit code are those of ``spinqec COMMAND [OPTIONS...]``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spinqec.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    code = 0
    with tracer:
        try:
            spinqec.cli.cli.main(args=argv, prog_name="spinqec")
        except SystemExit as exc:
            code = exc.code or 0
    tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
