"""`python -m sctomo ARGS` runs the `sct` command-line tool."""

from .cli import run

if __name__ == "__main__":
    run()
