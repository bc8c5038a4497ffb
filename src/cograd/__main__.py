"""``python -m cograd``: the same command line as the ``cograd`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
