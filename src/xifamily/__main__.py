"""``python -m xifamily``: the same command line as the ``xifamily`` script."""

from .cli import run

if __name__ == "__main__":
    run()
