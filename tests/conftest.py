"""Test-session setup shared by every test module.

The CLI imports entrokit before numpy, so its OpenBLAS runs one thread
(see ``entrokit/__init__.py``).  Test modules import numpy first; setting
the variable here, before any of them is imported, makes the tests run
BLAS the way the CLI does.  A value already in the environment is kept.
"""

import os
import sys

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture(autouse=True)
def series_table_left_empty():
    """Fail a test that leaves ``entrokit.pipeline._SERIES``, module state, filled.

    An autouse fixture is set up before the fixtures a test asks for, so it
    is torn down after them: the check sees the table once ``monkeypatch``
    has undone its patches.
    """
    yield
    pipeline = sys.modules.get("entrokit.pipeline")
    if pipeline is not None and pipeline._SERIES:
        pytest.fail(f"the test left {len(pipeline._SERIES)} series in entrokit.pipeline._SERIES")
