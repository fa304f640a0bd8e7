"""`python -m riskalloc ...` runs the command line (see cli.py)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
