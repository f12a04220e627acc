"""``python -m hessenpave``: the command line of :mod:`hessenpave.cli`,
ended through ``cli.run`` like the installed ``hessenpave`` script."""

from .cli import run

if __name__ == "__main__":
    run()
