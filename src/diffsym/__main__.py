"""``python -m diffsym``: the command line of ``diffsym.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
