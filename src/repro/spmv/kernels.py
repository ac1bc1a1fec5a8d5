"""IR builders and reference numerics for the SpMV/stencil kernel family.

Four kernels, mirroring the validation set of the A64FX ECM papers:

* ``spmv_crs``   — ``y[row] += val[j] * x[col[j]]`` over the nonzeros of
  a *scattered* matrix in CRS storage.  The ``x`` gather hits a fresh
  cache line almost every time (``random`` pattern), the classic
  low-alpha-locality SpMV.
* ``spmv_sell``  — the same streaming kernel over an HPCG-style banded
  matrix in SELL-C-sigma storage.  The trip count is the *padded*
  nonzero count (``nnz / beta``), and the sigma-sorted banded structure
  keeps gathered columns inside 128-byte windows (``window128`` — the
  A64FX pair-coalescing case).
* ``stencil2d``  — 5-point Jacobi sweep on a square grid.
* ``stencil3d``  — 7-point Jacobi sweep on a cubic grid.

**Layer conditions.**  The loop IR indexes arrays only through the
induction variable, so stencil neighbour accesses are modelled the way
analytical ECM tools (kerncraft) do after layer-condition analysis: each
*distinct reuse distance* becomes its own named stream with the
footprint of the data that must stay cached for the reuse to hit.  The
leading-edge stream (``xc``) and the store (``y``) carry the full grid
footprint (DRAM); neighbouring rows carry a 3-row footprint (inner
cache); neighbouring planes in 3D carry a 3-plane footprint; the
left/right neighbours are register/L1-resident.  Which cache level
serves each stream then falls out of the machine's capacity table — the
same classification on every tier.

**Sampling.**  Default problem sizes are DRAM-resident (millions of
rows).  Storage *statistics* (mean row length, SELL occupancy ``beta``)
converge after a few thousand rows, so builders sample
``min(n, SAMPLE_ROWS)`` rows and scale byte counts to the full ``n`` —
building a multi-million-entry row-length tuple would dwarf the cost of
the prediction itself.
"""

from __future__ import annotations

import functools

import numpy as np

from repro._util import require_in, require_positive
from repro.compilers.ir import ArrayInfo, BinOp, Const, Load, Loop, Reduce, Store
from repro.spmv.matrices import (
    INDEX_BYTES,
    VALUE_BYTES,
    SparseMatrix,
    grid_points,
    hpcg_like,
    random_matrix,
)

__all__ = [
    "SPMV_KERNEL_NAMES",
    "SAMPLE_ROWS",
    "SELL_CHUNK",
    "SELL_SIGMA",
    "build_spmv_loop",
    "spmv_reference_run",
]

#: kernels this package contributes to the unified catalog
SPMV_KERNEL_NAMES = ("spmv_crs", "spmv_sell", "stencil2d", "stencil3d")

#: rows sampled when estimating row-length statistics for large problems
SAMPLE_ROWS = 4096

#: SELL-C-sigma parameters: chunk height = one SVE vector of doubles,
#: sort window = 512 rows (the papers' C=8..32, sigma in the hundreds)
SELL_CHUNK = 8
SELL_SIGMA = 512

#: default problem sizes — chosen DRAM-resident on every studied machine
DEFAULT_SPMV_ROWS = 1 << 21       # x vector: 16 MiB
DEFAULT_STENCIL_POINTS = 1 << 24  # grids: 128 MiB per array


@functools.lru_cache(maxsize=128)
def _sampled(n: int, structured: bool) -> SparseMatrix:
    """Row-length sample used for statistics at problem size *n*.

    Memoized: the sample is a frozen, deterministic function of its
    arguments, and generating it is the bulk of an SpMV kernel build.
    """
    rows = min(n, SAMPLE_ROWS)
    return hpcg_like(rows) if structured else random_matrix(rows)


def _spmv_body() -> tuple[Reduce, ...]:
    """The per-nonzero statement: ``y += val[j] * x[col[j]]``.

    The row accumulator is a :class:`~repro.compilers.ir.Reduce`, so the
    lowered stream carries the loop-carried FMA chain (split over unroll
    copies into partial sums, exactly like compiled SpMV inner loops).
    The result-vector writeback (one store per *row*, not per nonzero)
    is ~``1/avg_row_length`` of the nonzero traffic and is left out of
    the per-nonzero stream set.
    """
    return (
        Reduce("y", "+",
               BinOp("*", Load("val"), Load("x", index=Load("col")))),
    )


def _stencil_sum(names: tuple[str, ...]) -> BinOp:
    """Balanced addition tree over neighbour loads."""
    exprs: list = [Load(name) for name in names]
    while len(exprs) > 1:
        exprs = [
            BinOp("+", exprs[k], exprs[k + 1]) if k + 1 < len(exprs)
            else exprs[k]
            for k in range(0, len(exprs), 2)
        ]
    return exprs[0]


def build_spmv_loop(name: str, n: int | None = None) -> Loop:
    """Build the named SpMV/stencil kernel as loop IR.

    ``n`` is the number of matrix *rows* for the SpMV kernels and the
    number of grid *points* for the stencils (rounded to a full grid);
    the loop length is the derived per-nonzero / per-point trip count.
    """
    require_in(name, SPMV_KERNEL_NAMES, "spmv kernel name")

    if name == "spmv_crs":
        n = n if n is not None else DEFAULT_SPMV_ROWS
        require_positive(n, "n")
        sample = _sampled(n, structured=False)
        nnz = max(1, round(n * sample.avg_row_length))
        arrays = {
            "val": ArrayInfo("val", footprint=float(nnz * VALUE_BYTES)),
            "col": ArrayInfo("col", footprint=float(nnz * INDEX_BYTES),
                             elem_size=INDEX_BYTES),
            "x": ArrayInfo("x", footprint=8.0 * n, pattern="random"),
        }
        return Loop("spmv_crs", nnz, _spmv_body(), arrays)

    if name == "spmv_sell":
        n = n if n is not None else DEFAULT_SPMV_ROWS
        require_positive(n, "n")
        sample = _sampled(n, structured=True)
        layout = sample.sell(chunk=SELL_CHUNK, sigma=SELL_SIGMA)
        padded = max(1, round(n * sample.avg_row_length / layout.beta))
        arrays = {
            "val": ArrayInfo("val", footprint=float(padded * VALUE_BYTES)),
            "col": ArrayInfo("col", footprint=float(padded * INDEX_BYTES),
                             elem_size=INDEX_BYTES),
            "x": ArrayInfo("x", footprint=8.0 * n, pattern="window128"),
        }
        return Loop("spmv_sell", padded, _spmv_body(), arrays)

    if name == "stencil2d":
        n = n if n is not None else DEFAULT_STENCIL_POINTS
        require_positive(n, "n")
        side = grid_points(n, 2)
        npts = side * side
        row = 8.0 * side
        arrays = {
            "xc": ArrayInfo("xc", footprint=8.0 * npts),
            "xn": ArrayInfo("xn", footprint=3.0 * row),
            "xs": ArrayInfo("xs", footprint=3.0 * row),
            "xw": ArrayInfo("xw", footprint=256.0),
            "xe": ArrayInfo("xe", footprint=256.0),
            "y": ArrayInfo("y", footprint=8.0 * npts),
        }
        body = Store(
            "y",
            BinOp("+", BinOp("*", Const(0.5), Load("xc")),
                  BinOp("*", Const(0.125),
                        _stencil_sum(("xn", "xs", "xw", "xe")))),
        )
        return Loop("stencil2d", npts, (body,), arrays)

    # stencil3d
    n = n if n is not None else DEFAULT_STENCIL_POINTS
    require_positive(n, "n")
    side = grid_points(n, 3)
    npts = side ** 3
    row = 8.0 * side
    plane = 8.0 * side * side
    arrays = {
        "xc": ArrayInfo("xc", footprint=8.0 * npts),
        "xd": ArrayInfo("xd", footprint=3.0 * plane),
        "xu": ArrayInfo("xu", footprint=3.0 * plane),
        "xn": ArrayInfo("xn", footprint=3.0 * row),
        "xs": ArrayInfo("xs", footprint=3.0 * row),
        "xw": ArrayInfo("xw", footprint=256.0),
        "xe": ArrayInfo("xe", footprint=256.0),
        "y": ArrayInfo("y", footprint=8.0 * npts),
    }
    body = Store(
        "y",
        BinOp("+", BinOp("*", Const(0.4), Load("xc")),
              BinOp("*", Const(0.1),
                    _stencil_sum(("xd", "xu", "xn", "xs", "xw", "xe")))),
    )
    return Loop("stencil3d", npts, (body,), arrays)


# ---------------------------------------------------------------------------
# numpy reference numerics (small problem sizes)
# ---------------------------------------------------------------------------


def _reference_matrix(n: int, structured: bool, seed: int):
    """Materialise actual CRS arrays (rowptr/col/val) for *n* rows."""
    rng = np.random.default_rng(seed)
    mat = hpcg_like(n) if structured else random_matrix(n, seed=seed)
    lengths = np.asarray(mat.row_lengths, dtype=np.int64)
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=rowptr[1:])
    nnz = int(rowptr[-1])
    if structured:
        # banded columns: offsets around the diagonal, wrapped
        col = np.concatenate([
            (row + np.arange(lengths[row]) - lengths[row] // 2) % n
            for row in range(n)
        ])
    else:
        col = rng.integers(0, n, size=nnz)
    val = rng.standard_normal(nnz)
    return rowptr, col.astype(np.int64), val


def _crs_spmv(rowptr, col, val, x):
    """Row-wise ``y = A @ x`` over CRS arrays."""
    prods = val * x[col]
    y = np.add.reduceat(prods, rowptr[:-1])
    y[rowptr[:-1] == rowptr[1:]] = 0.0  # empty rows (reduceat quirk)
    return y


def spmv_reference_run(name: str, n: int | None = None, seed: int = 7):
    """Run the named kernel's reference numerics on a small problem.

    Returns ``(inputs, output)`` like
    :func:`repro.kernels.loops.reference_run`.  SpMV kernels materialise
    a real CRS matrix (scattered or banded to match the modelled
    structure) and compute ``y = A @ x``; the SELL kernel additionally
    traverses the *padded* chunk layout to demonstrate that zero padding
    leaves the numerics unchanged.  Stencils run periodic 5-point /
    7-point Jacobi sweeps via ``np.roll``.
    """
    require_in(name, SPMV_KERNEL_NAMES, "spmv kernel name")
    n = n if n is not None else 512
    require_positive(n, "n")
    rng = np.random.default_rng(seed)

    if name in ("spmv_crs", "spmv_sell"):
        structured = name == "spmv_sell"
        rowptr, col, val, = _reference_matrix(n, structured, seed)
        x = rng.standard_normal(n)
        y = _crs_spmv(rowptr, col, val, x)
        if name == "spmv_sell":
            # padded SELL traversal: pad every row to its chunk's max
            # length with (val=0, col=0) and accumulate chunk-wise
            lengths = np.diff(rowptr)
            y_sell = np.zeros(n)
            for start in range(0, n, SELL_CHUNK):
                rows = range(start, min(start + SELL_CHUNK, n))
                width = int(max(lengths[r] for r in rows))
                for r in rows:
                    seg = slice(rowptr[r], rowptr[r + 1])
                    padded_val = np.zeros(width)
                    padded_col = np.zeros(width, dtype=np.int64)
                    padded_val[: lengths[r]] = val[seg]
                    padded_col[: lengths[r]] = col[seg]
                    y_sell[r] = float(padded_val @ x[padded_col])
            np.testing.assert_allclose(y_sell, y, rtol=1e-12, atol=1e-12)
        return {"rowptr": rowptr, "col": col, "val": val, "x": x}, y

    dims = 2 if name == "stencil2d" else 3
    side = grid_points(n, dims)
    grid = rng.standard_normal((side,) * dims)
    if dims == 2:
        out = 0.5 * grid + 0.125 * (
            np.roll(grid, 1, 0) + np.roll(grid, -1, 0)
            + np.roll(grid, 1, 1) + np.roll(grid, -1, 1)
        )
    else:
        out = 0.4 * grid + 0.1 * (
            np.roll(grid, 1, 0) + np.roll(grid, -1, 0)
            + np.roll(grid, 1, 1) + np.roll(grid, -1, 1)
            + np.roll(grid, 1, 2) + np.roll(grid, -1, 2)
        )
    return {"x": grid}, out


def padded_trip_count(n: int, structured: bool = True) -> int:
    """Padded SELL trip count for *n* rows (sampled statistics).

    Exposed for docs/tests that want the number without building IR.
    """
    require_positive(n, "n")
    sample = _sampled(n, structured)
    layout = sample.sell(chunk=SELL_CHUNK, sigma=SELL_SIGMA)
    return max(1, round(n * sample.avg_row_length / layout.beta))
