"""``python -m treetrace``: the ``treetrace`` command."""

import sys

from . import cli

sys.exit(cli.main())
