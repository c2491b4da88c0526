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


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes of the matrices np.linalg.svd is called on, from here to the end of the test."""
    shapes = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes
