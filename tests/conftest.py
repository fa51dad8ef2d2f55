"""Test-session setup shared by every test module.

The CLI imports entrokit before numpy, so its OpenBLAS runs one thread
(see ``entrokit/__init__.py``).  Test modules import numpy first; setting
the variable here, before any of them is imported, makes the tests run
BLAS the way the CLI does.  A value already in the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
