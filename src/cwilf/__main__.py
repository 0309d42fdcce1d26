"""`python -m cwilf`: the same command line as the `cwilf` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
