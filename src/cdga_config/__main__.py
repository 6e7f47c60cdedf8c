"""`python -m cdga_config` runs the command-line interface."""

from .cli import main

raise SystemExit(main())
