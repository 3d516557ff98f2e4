"""``python -m splitcl``: the ``splitcl`` command line."""
from .cli import main

raise SystemExit(main())
