"""`python -m crossemo`: the same command line as the `crossemo` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
