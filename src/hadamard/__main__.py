"""``python -m hadamard``: the same command line as the ``hadamard`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
