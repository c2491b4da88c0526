import gc

import pytest


@pytest.fixture(autouse=True)
def nothing_left_frozen():
    """Fail a test that leaves objects frozen: only a process that is ending may freeze them."""
    yield
    frozen = gc.get_freeze_count()
    gc.unfreeze()
    assert frozen == 0, f"the test left {frozen} objects frozen; only cli.entry freezes, at its end"
