"""Predictability analysis for discretized time series.

Entropy-rate estimation (Lempel-Ziv match lengths, Context Tree
Weighting), BDS iid testing, density comparison across sampling
frequencies, correlation-network filtering (MST/PMFG) and a simple
mean-reversion backtest, plus a batch CLI tying them together.

BLAS threads: importing entrokit sets ``OPENBLAS_NUM_THREADS`` to 1 before
numpy loads, unless the caller's environment already sets it.  The only
BLAS calls in a report (``np.corrcoef`` on N x n returns, the density
test's matrix products) are too small for a second thread to pay, and an
idle OpenBLAS helper thread spins after every call: that costs about a
quarter of a report's CPU and halves the speed of two pool workers on two
cores.  Pool workers inherit the setting, so the process pool sized by
``--jobs`` is entrokit's only parallelism.  A program that imports numpy
before entrokit keeps the BLAS threads it started with.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .series import (
    EntropyEstimate,
    PriceSeries,
    log_returns,
    quantile_discretize,
)
from .lz import lz76_complexity, lz_entropy_rate, match_lengths
from .ctw import (
    CtwParams,
    CtwResult,
    ctw_entropy_rate,
    ctw_log_mixture,
    kt_log_probability,
    symbols_to_bits,
)
from .bds import BdsParams, BdsResult, bds_statistic, correlation_integral, entropy_bds_association
from .densities import density_equality_test, summary_stats
from .graphs import correlation_matrix, distance_graph, mst, pmfg
from .synth import (
    SyntheticSource,
    convergence_curve,
    generate,
    markov_entropy_rate,
    shift_register_chain,
)
from .backtest import (
    PerformanceReport,
    StrategyParams,
    entropy_cohort_report,
    mean_reversion_backtest,
)
from .ingest import ingest_csv
from .pipeline import AnalysisReport, RunConfig, run_pipeline
