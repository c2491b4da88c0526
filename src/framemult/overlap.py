"""Work done in a forked child while the process does other work.

Two steps of ``multiplier`` may each take a child: the decode of Psi's
file (``formats.load_frame_pair``) and, under ``--verify-all``, the
accumulation of the multiplier's matrix (``multipliers.build``). Both go
through ``Child``, and both ask ``may_fork``, the one platform predicate:
``os.fork``, more than one CPU in this process's affinity and a process of
one OS thread (forking one of more is unsafe). Each use adds its own size
threshold, below which the fork costs more than it saves.

A child runs one function and sends the 2-D complex array it returns over
a pipe, with the words of a returned tuple, and ends in ``os._exit``
whatever happens: it never returns into the caller, runs no atexit hook and
flushes no buffer it inherited. Any failure on the child's side (a failed
fork, an exception in the child, its death, a short read) leaves the work
to this process, when its result is asked for, so what is returned or
raised is what the call made here gives. No child outlives the block of
its ``Child``.
"""

from __future__ import annotations

import gc
import os

import numpy as np


def may_fork() -> bool:
    """Whether this process may fork a child to work beside it.

    It needs ``os.fork``, more than one CPU in the affinity and one OS
    thread. A platform that shows no affinity or no threads (no
    ``/proc/self/task``) gets no child.
    """
    try:
        return (hasattr(os, "fork") and len(os.sched_getaffinity(0)) > 1
                and len(os.listdir("/proc/self/task")) == 1)
    except (AttributeError, OSError):
        return False


class Child:
    """``work(*args)``, computed in a forked child where ``fork`` is true, else here.

    ``work`` returns a C-ordered 2-D complex128 array, or a tuple of one
    and words (strings without whitespace). With ``fork``, the child starts
    at once and sends a line "rows cols words..." and the array's bytes;
    without it, or where the fork fails, there is no child. ``result`` gives
    what the child sent, or the value of ``work(*args)`` called here where
    it sent nothing whole. Leaving the block of ``with Child(...)`` kills and
    reaps a child whose result was not taken.
    """

    def __init__(self, fork: bool, work, *args) -> None:
        self._work, self._args = work, args
        self._pid = self._pipe = None
        if not fork:
            return
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            return
        if pid == 0:
            code = 1
            try:
                gc.disable()  # a collection would write to, and so copy, the parent's pages
                os.close(read_end)
                result = work(*args)
                array, *words = result if isinstance(result, tuple) else (result,)
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(" ".join(map(str, (*array.shape, *words))).encode() + b"\n")
                    pipe.write(array)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        self._pid, self._pipe = pid, os.fdopen(read_end, "rb")

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self._reap(keep=False)

    def result(self):
        """What the child sent, or ``work(*args)`` called here."""
        received = self._reap(keep=True)
        return self._work(*self._args) if received is None else received

    def _reap(self, keep: bool):
        """What the child sent, if ``keep`` and it sent it whole; None for no child.

        The child is reaped in any case, and killed first unless all it
        sent was taken.
        """
        if self._pid is None:
            return None
        pid, pipe = self._pid, self._pipe
        self._pid = self._pipe = None
        received = None
        try:
            if keep:
                rows, cols, *words = pipe.readline().split()
                array = np.empty((int(rows), int(cols)), dtype=np.complex128)
                if pipe.readinto(array) == array.nbytes:
                    received = (array, *map(bytes.decode, words)) if words else array
        except (OSError, ValueError):  # ValueError: a header cut short
            pass
        finally:
            pipe.close()
            if received is None:
                import signal  # loaded only where a child is stopped

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        return received
