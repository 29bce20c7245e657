"""``python -m ghzforge``: the command-line front end, as the ``ghzforge`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
