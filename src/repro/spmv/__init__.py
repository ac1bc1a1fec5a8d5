"""SpMV and stencil workloads (the Alappat et al. ECM kernel family).

The two companion papers to the Ookami study — "ECM modeling and
performance tuning of SpMV and Lattice QCD on A64FX" (arXiv 2103.03013)
and "Performance Modeling of Streaming Kernels and SpMV on A64FX"
(arXiv 2009.13903) — validate their analytical ECM model on sparse
matrix-vector multiplication (CRS and SELL-C-sigma storage) and on
regular stencil sweeps.  This package reproduces that kernel family as
loop IR so the same kernels run on **all three prediction tiers**:

* the analytical ECM tier (:mod:`repro.ecm`) — microseconds,
* the fast engine (:mod:`repro.engine.scheduler`),
* the full simulation (``PipelineScheduler(march, extrapolate=False)``).

:mod:`repro.spmv.matrices` models the sparse-matrix storage formats
(row-length distributions, CRS, SELL-C-sigma chunk occupancy beta);
:mod:`repro.spmv.kernels` builds the IR loops and the numpy reference
numerics.
"""

from repro.spmv.kernels import (
    SPMV_KERNEL_NAMES,
    build_spmv_loop,
    spmv_reference_run,
)
from repro.spmv.matrices import (
    CrsLayout,
    SellLayout,
    SparseMatrix,
    hpcg_like,
    random_matrix,
)

__all__ = [
    "SPMV_KERNEL_NAMES",
    "build_spmv_loop",
    "spmv_reference_run",
    "SparseMatrix",
    "CrsLayout",
    "SellLayout",
    "hpcg_like",
    "random_matrix",
]
