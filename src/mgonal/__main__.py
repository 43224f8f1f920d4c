"""``python -m mgonal``: the same entry point as the ``mgonal`` command."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
