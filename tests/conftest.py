import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that ends with the cyclic garbage collector off.

    enumerate_homs pauses the collector, and its state is process-wide.
    The guard turns it back on before failing, so one leak fails only the
    test that leaked it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("test left the cyclic garbage collector off")
