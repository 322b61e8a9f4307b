"""``python -m wedderburn``: the command-line front end in wedderburn.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
