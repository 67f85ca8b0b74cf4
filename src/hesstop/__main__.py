"""``python -m hesstop``: the command-line interface of :mod:`hesstop.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
