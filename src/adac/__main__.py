"""`python -m adac`: the `adac` command, runnable from a source checkout
with `PYTHONPATH=src`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
