"""``python -m multispace``: the command line of ``multispace.cli``."""

import sys

from .cli import main

sys.exit(main())
