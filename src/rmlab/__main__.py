"""``python -m rmlab``: the rmlab command-line driver."""

from .cli import main

if __name__ == "__main__":
    main()
