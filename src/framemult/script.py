"""The process entry of the installed ``framemult`` command.

A CLI process pins numpy's BLAS to one thread unless its caller has set a
thread count: ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` are set to 1 where they are not set, before numpy
loads. Loading OpenBLAS with its default thread pool costs a CLI run about
65 ms of start-up, and the numbers of a large report then depend on the
host's core count. ``python -m framemult.cli`` does the same in the main
block of ``cli``. This module imports nothing of the package at its own
import, so the installed command runs ``entry`` before numpy loads; a plain
``import framemult.cli`` changes no environment variable.
"""

import gc
import os

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_blas_thread() -> None:
    """Set each BLAS thread-count variable to 1 where the environment does not set it."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")


def entry(argv=None) -> int:
    """``cli.entry`` with one BLAS thread and the collector off from before numpy loads."""
    gc.disable()
    one_blas_thread()
    from .cli import entry as cli_entry

    return cli_entry(argv)
