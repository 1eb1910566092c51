"""`python -m univchar`: the same command line as the `univchar` script."""

import sys

from .cli import main

sys.exit(main())
