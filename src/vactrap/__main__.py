"""``python -m vactrap``: the command line of :mod:`.cli`."""
from .cli import main

if __name__ == "__main__":
    main()
