import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that leaves the collector off: only a process that is ending may switch it off."""
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the test left the collector off; only cli.entry switches it off, as the process ends"
