"""Predictability analysis for discretized time series.

Entropy-rate estimation (Lempel-Ziv match lengths, Context Tree
Weighting), BDS iid testing, density comparison across sampling
frequencies, correlation-network filtering (MST/PMFG) and a simple
mean-reversion backtest, plus a batch CLI tying them together.  Importing
the package loads nothing else: each public name is imported from the
module that declares it, e.g. ``from entrokit.pipeline import run_pipeline``.

BLAS threads: importing any part of entrokit sets ``OPENBLAS_NUM_THREADS``
to 1 before numpy loads, unless the caller's environment already sets it.
The only BLAS calls in a report (``np.corrcoef`` on N x n returns, the
density test's matrix products) are too small for a second thread to pay,
and an idle OpenBLAS helper thread spins after every call: that costs
about a quarter of a report's CPU and halves the speed of two pool workers
on two cores.  Pool workers inherit the setting, so the process pool sized
by ``--jobs`` is entrokit's only parallelism.  A program that imports
numpy before entrokit keeps the BLAS threads it started with.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
