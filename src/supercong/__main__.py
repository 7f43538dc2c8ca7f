"""Program entry of ``python -m supercong`` and the installed ``supercong``
script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run :func:`cli.main` on ``sys.argv`` and return its exit code, with
    every object then alive moved to the collector's permanent generation.

    At exit the interpreter clears each module and collects the reference
    cycles that leaves (module globals and functions, classes), about 7 ms
    per command once the package is loaded; a frozen object is skipped, so
    the only work left out is freeing memory the OS takes back anyway.
    Atexit handlers still run, stdout and stderr are still flushed, and an
    object freed by its reference count is still finalized; every report
    and pool is closed by its ``with`` block before ``main`` returns.
    ``main`` itself never freezes, since tests call it in-process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
