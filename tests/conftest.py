import collections
import gc

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that leaves the collector off: only a process that is ending may switch it off."""
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the test left the collector off; only cli.entry switches it off, as the process ends"


class Factorizations(list):
    """(name, matrix shape, stack size) of each numpy.linalg factorization call, in call order."""

    def matrices(self, name: str) -> list[tuple[int, int]]:
        """The shape of every matrix ``name`` factorized; a stack gives one entry per matrix."""
        return [shape for called, shape, stack in self if called == name for _ in range(stack)]

    def counts(self) -> collections.Counter:
        """The number of matrices each factorization took, stacks counted matrix by matrix."""
        counts = collections.Counter()
        for name, _, stack in self:
            counts[name] += stack
        return counts


@pytest.fixture
def factorizations(monkeypatch):
    """Every svd, eigvalsh, solve, inv and pinv of numpy.linalg, from here to the end of the test."""
    calls = Factorizations()
    for name in ("svd", "eigvalsh", "solve", "inv", "pinv"):
        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            shape = np.shape(a)
            calls.append((_name, shape[-2:], int(np.prod(shape[:-2], dtype=int))))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
