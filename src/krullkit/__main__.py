"""Run the command line interface: ``python -m krullkit``."""
from .cli import main

raise SystemExit(main())
