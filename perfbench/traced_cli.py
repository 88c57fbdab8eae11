"""Run the flexcheck CLI with spans around its layers.

Usage: python3 perfbench/traced_cli.py SPANS_FILE SUBCOMMAND [ARGS...]
The spans go to SPANS_FILE; stdout, stderr and the exit code are the CLI's.
"""

import sys
from pathlib import Path

import flexcheck.cli

from spans import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return flexcheck.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
