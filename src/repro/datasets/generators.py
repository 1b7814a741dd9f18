"""Structural families of synthetic sparse matrices.

Each generator returns a :class:`~repro.formats.coo.COOMatrix` built from a
seeded :class:`numpy.random.Generator`, so collections are reproducible.
The families map onto the SuiteSparse structure spectrum:

===================  =====================================================
Family               SuiteSparse analogue / format affinity
===================  =====================================================
banded               FD/FEM discretisations — DIA/ELL friendly
stencil_2d/3d        structured grids — uniform rows, ELL friendly
multi_diagonal       pure banded operators — DIA/ELL
random_uniform       Erdős–Rényi — Poisson rows, CSR territory
power_law_rows       web/social graphs — heavy skew, HYB/COO territory
rmat                 Graph500 R-MAT — skew + locality structure
block_diagonal       multibody/circuit — uniform blocks
arrow                bordered systems — one catastrophic row for ELL
row_blocks           mixed-physics stacks — few distinct row lengths
rectangular          least-squares / LP constraint matrices
small_world          Watts–Strogatz ring lattices — near-banded
scale_free_graph     Barabási–Albert adjacency — power-law degrees
===================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.formats.base import INDEX_DTYPE
from repro.formats.coo import COOMatrix


@dataclass(frozen=True)
class MatrixRecord:
    """A generated matrix plus its provenance metadata."""

    name: str
    family: str
    matrix: COOMatrix
    params: dict = field(default_factory=dict)

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonzero values: unit-scale, bounded away from zero."""
    v = rng.standard_normal(n)
    return np.where(np.abs(v) < 1e-3, 1e-3, v)


def _dedup_coo(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    rng: np.random.Generator,
) -> COOMatrix:
    """Assemble a COO matrix, letting the constructor collapse duplicates."""
    return COOMatrix(shape, rows, cols, _values(rng, len(rows)))


# ---------------------------------------------------------------------------
# Regular / banded families
# ---------------------------------------------------------------------------


def banded(
    rng: np.random.Generator,
    n: int = 1024,
    bandwidth: int = 5,
    density: float = 1.0,
) -> COOMatrix:
    """Entries within ``|col - row| <= bandwidth``, each kept with ``density``."""
    offsets = np.arange(-bandwidth, bandwidth + 1)
    rows_list, cols_list = [], []
    for off in offsets:
        i_lo, i_hi = max(0, -off), min(n, n - off)
        idx = np.arange(i_lo, i_hi, dtype=INDEX_DTYPE)
        if density < 1.0:
            idx = idx[rng.random(idx.shape[0]) < density]
        rows_list.append(idx)
        cols_list.append(idx + off)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return _dedup_coo((n, n), rows, cols, rng)


def multi_diagonal(
    rng: np.random.Generator,
    n: int = 2048,
    ndiags: int = 7,
    max_offset: int | None = None,
) -> COOMatrix:
    """``ndiags`` fully-populated diagonals at random distinct offsets."""
    if max_offset is None:
        max_offset = max(n // 4, ndiags)
    pool = np.arange(-max_offset, max_offset + 1)
    offsets = rng.choice(pool, size=min(ndiags, pool.size), replace=False)
    if 0 not in offsets:  # keep the main diagonal: realistic operators have it
        offsets[0] = 0
    rows_list, cols_list = [], []
    for off in np.unique(offsets):
        i_lo, i_hi = max(0, -off), min(n, n - off)
        idx = np.arange(i_lo, i_hi, dtype=INDEX_DTYPE)
        rows_list.append(idx)
        cols_list.append(idx + off)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return _dedup_coo((n, n), rows, cols, rng)


def stencil_2d(
    rng: np.random.Generator, nx: int = 48, ny: int = 48, points: int = 5
) -> COOMatrix:
    """5- or 9-point finite-difference stencil on an ``nx × ny`` grid."""
    if points == 5:
        offs = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
    elif points == 9:
        offs = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    else:
        raise ValueError(f"unsupported 2-D stencil: {points}-point")
    n = nx * ny
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    rows_list, cols_list = [], []
    for di, dj in offs:
        ni, nj = ii + di, jj + dj
        ok = (ni >= 0) & (ni < nx) & (nj >= 0) & (nj < ny)
        rows_list.append((ii[ok] * ny + jj[ok]).astype(INDEX_DTYPE))
        cols_list.append((ni[ok] * ny + nj[ok]).astype(INDEX_DTYPE))
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return _dedup_coo((n, n), rows, cols, rng)


def stencil_3d(
    rng: np.random.Generator, n1: int = 14, points: int = 7
) -> COOMatrix:
    """7- or 27-point stencil on an ``n1³`` grid."""
    if points == 7:
        offs = [
            (0, 0, 0),
            (-1, 0, 0),
            (1, 0, 0),
            (0, -1, 0),
            (0, 1, 0),
            (0, 0, -1),
            (0, 0, 1),
        ]
    elif points == 27:
        offs = [
            (a, b, c)
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
            for c in (-1, 0, 1)
        ]
    else:
        raise ValueError(f"unsupported 3-D stencil: {points}-point")
    n = n1**3
    grid = np.arange(n1)
    ii, jj, kk = np.meshgrid(grid, grid, grid, indexing="ij")
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    rows_list, cols_list = [], []
    for da, db, dc in offs:
        na, nb, nc = ii + da, jj + db, kk + dc
        ok = (
            (na >= 0)
            & (na < n1)
            & (nb >= 0)
            & (nb < n1)
            & (nc >= 0)
            & (nc < n1)
        )
        rows_list.append(
            ((ii[ok] * n1 + jj[ok]) * n1 + kk[ok]).astype(INDEX_DTYPE)
        )
        cols_list.append(
            ((na[ok] * n1 + nb[ok]) * n1 + nc[ok]).astype(INDEX_DTYPE)
        )
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return _dedup_coo((n, n), rows, cols, rng)


# ---------------------------------------------------------------------------
# Random / skewed families
# ---------------------------------------------------------------------------


def random_uniform(
    rng: np.random.Generator,
    nrows: int = 2048,
    ncols: int | None = None,
    density: float = 0.002,
) -> COOMatrix:
    """Erdős–Rényi: each entry present independently with ``density``."""
    if ncols is None:
        ncols = nrows
    target = max(1, int(round(density * nrows * ncols)))
    # Oversample to survive duplicate collapse, then trim.
    k = int(target * 1.15) + 8
    rows = rng.integers(0, nrows, size=k, dtype=INDEX_DTYPE)
    cols = rng.integers(0, ncols, size=k, dtype=INDEX_DTYPE)
    return _dedup_coo((nrows, ncols), rows[:k], cols[:k], rng)


def power_law_rows(
    rng: np.random.Generator,
    nrows: int = 2048,
    ncols: int | None = None,
    avg_nnz_per_row: float = 8.0,
    alpha: float = 1.8,
    max_over_mean: float | None = None,
) -> COOMatrix:
    """Row lengths follow a Zipf-like power law — the ELL worst case.

    ``max_over_mean`` bounds the skew (``nnz_max / nnz_mu``); values below
    CUSP's fill bound of 3 keep the matrix ELL-convertible, larger or
    unbounded values mimic the matrices the paper excludes because the ELL
    variant cannot be generated.
    """
    if ncols is None:
        ncols = nrows
    raw = rng.zipf(alpha, size=nrows).astype(np.float64)
    raw = np.minimum(raw, ncols)
    if max_over_mean is not None:
        # Clip to a fixed point: clipping lowers the mean, which can
        # re-violate the ratio for heavy tails (alpha < 2), so iterate.
        for _ in range(64):
            bound = max(1.0, max_over_mean * raw.mean())
            if raw.max() <= bound + 1e-9:
                break
            raw = np.minimum(raw, bound)
    lengths = np.maximum(
        1, np.round(raw * avg_nnz_per_row / max(raw.mean(), 1.0)).astype(int)
    )
    lengths = np.minimum(lengths, ncols)
    rows = np.repeat(
        np.arange(nrows, dtype=INDEX_DTYPE), lengths
    )
    cols = rng.integers(0, ncols, size=rows.shape[0], dtype=INDEX_DTYPE)
    return _dedup_coo((nrows, ncols), rows, cols, rng)


def rmat(
    rng: np.random.Generator,
    scale: int = 11,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> COOMatrix:
    """Graph500-style recursive Kronecker (R-MAT) adjacency matrix."""
    n = 1 << scale
    nedges = edge_factor * n
    rows = np.zeros(nedges, dtype=INDEX_DTYPE)
    cols = np.zeros(nedges, dtype=INDEX_DTYPE)
    for level in range(scale):
        r = rng.random(nedges)
        # Quadrant probabilities: a (TL), b (TR), c (BL), d (BR).
        right = (r >= a) & (r < a + b) | (r >= a + b + c)
        down = r >= a + b
        bit = 1 << (scale - 1 - level)
        rows += down * bit
        cols += right * bit
    return _dedup_coo((n, n), rows, cols, rng)


def scale_free_graph(
    rng: np.random.Generator, n: int = 2048, m_attach: int = 4
) -> COOMatrix:
    """Barabási–Albert preferential attachment adjacency (symmetrised).

    Implemented directly (repeated-endpoint sampling) so the dataset layer
    does not depend on networkx; networkx remains a dev-convenience for the
    examples.
    """
    # Endpoint pool: every edge end so far, filled in place.  Drawing
    # ``repeated[rng.integers(0, fill, m)]`` gives the values and leaves
    # the RNG state of ``rng.choice(repeated[:fill], m, replace=True)``.
    repeated = np.empty(2 * m_attach * max(n - m_attach, 0), dtype=np.int64)
    fill = 0
    src_list: list[int] = []
    dst_list: list[int] = []
    for v in range(m_attach, n):
        if fill:
            chosen = repeated[rng.integers(0, fill, m_attach)]
        else:
            chosen = np.arange(m_attach)
        chosen = np.unique(chosen)
        k = chosen.shape[0]
        src_list.extend([v] * k)
        dst_list.extend(chosen.tolist())
        repeated[fill:fill + k] = chosen
        repeated[fill + k:fill + 2 * k] = v
        fill += 2 * k
    src = np.asarray(src_list, dtype=INDEX_DTYPE)
    dst = np.asarray(dst_list, dtype=INDEX_DTYPE)
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    return _dedup_coo((n, n), rows, cols, rng)


def small_world(
    rng: np.random.Generator, n: int = 2048, k: int = 6, p_rewire: float = 0.05
) -> COOMatrix:
    """Watts–Strogatz ring lattice with random rewiring (near-banded)."""
    half = max(1, k // 2)
    src_list, dst_list = [], []
    base = np.arange(n, dtype=INDEX_DTYPE)
    for d in range(1, half + 1):
        dst = (base + d) % n
        rewire = rng.random(n) < p_rewire
        dst = np.where(rewire, rng.integers(0, n, size=n), dst)
        keep = dst != base
        src_list.append(base[keep])
        dst_list.append(dst[keep].astype(INDEX_DTYPE))
    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    return _dedup_coo((n, n), rows, cols, rng)


# ---------------------------------------------------------------------------
# Structured composites
# ---------------------------------------------------------------------------


def block_diagonal(
    rng: np.random.Generator,
    nblocks: int = 32,
    block_size: int = 48,
    density: float = 0.4,
) -> COOMatrix:
    """Dense-ish square blocks along the diagonal (uniform row lengths)."""
    n = nblocks * block_size
    per_block = max(1, int(density * block_size * block_size))
    rows_list, cols_list = [], []
    for blk in range(nblocks):
        base = blk * block_size
        r = rng.integers(0, block_size, size=per_block) + base
        c = rng.integers(0, block_size, size=per_block) + base
        rows_list.append(r.astype(INDEX_DTYPE))
        cols_list.append(c.astype(INDEX_DTYPE))
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return _dedup_coo((n, n), rows, cols, rng)


def arrow(
    rng: np.random.Generator,
    n: int = 2048,
    band: int = 2,
    arm_density: float = 1.0,
) -> COOMatrix:
    """Arrowhead: banded core plus a dense first row and column.

    One huge row makes ``nnz_max ≈ n`` while ``nnz_mu`` stays tiny — the
    canonical matrix where ELL explodes and HYB shines.
    """
    core = banded(rng, n=n, bandwidth=band, density=1.0)
    arm = np.arange(1, n, dtype=INDEX_DTYPE)
    if arm_density < 1.0:
        arm = arm[rng.random(arm.shape[0]) < arm_density]
    rows = np.concatenate([core.rows, np.zeros_like(arm), arm])
    cols = np.concatenate([core.cols, arm, np.zeros_like(arm)])
    return _dedup_coo((n, n), rows, cols, rng)


def row_blocks(
    rng: np.random.Generator,
    nrows: int = 2048,
    ncols: int | None = None,
    lengths: tuple[int, ...] = (2, 8, 32),
) -> COOMatrix:
    """Contiguous row groups with distinct fixed lengths (mixed physics)."""
    if ncols is None:
        ncols = nrows
    ngroups = len(lengths)
    bounds = np.linspace(0, nrows, ngroups + 1).astype(int)
    rows_list, cols_list = [], []
    for g, length in enumerate(lengths):
        length = min(length, ncols)
        group_rows = np.arange(bounds[g], bounds[g + 1], dtype=INDEX_DTYPE)
        rows_list.append(np.repeat(group_rows, length))
        cols_list.append(
            rng.integers(
                0, ncols, size=group_rows.shape[0] * length, dtype=INDEX_DTYPE
            )
        )
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return _dedup_coo((nrows, ncols), rows, cols, rng)


def rectangular(
    rng: np.random.Generator,
    nrows: int = 3072,
    ncols: int = 512,
    nnz_per_row: int = 6,
) -> COOMatrix:
    """Tall-skinny constraint-style matrix with near-uniform rows."""
    lengths = np.maximum(
        1, rng.poisson(nnz_per_row, size=nrows)
    )
    lengths = np.minimum(lengths, ncols)
    rows = np.repeat(np.arange(nrows, dtype=INDEX_DTYPE), lengths)
    cols = rng.integers(0, ncols, size=rows.shape[0], dtype=INDEX_DTYPE)
    return _dedup_coo((nrows, ncols), rows, cols, rng)


# ---------------------------------------------------------------------------
# DLMC-style pruned-weight families (deep-learning matrix collection)
# ---------------------------------------------------------------------------
#
# Sparse weight matrices left behind by neural-network pruning: a dense
# ``nrows x ncols`` weight tensor with a fraction ``sparsity`` of entries
# removed.  The three pruning regimes below produce structurally distinct
# survivors — magnitude pruning keeps the heavy tail of a Gaussian,
# random pruning is an unstructured Bernoulli mask, and block pruning
# keeps whole ``b x b`` tiles — which is exactly the structural variation
# the SpMM format-selection workload needs.


def magnitude_pruned(
    rng: np.random.Generator,
    nrows: int = 1024,
    ncols: int = 1024,
    sparsity: float = 0.9,
) -> COOMatrix:
    """Keep the largest-|w| entries of a dense Gaussian weight matrix.

    Magnitude pruning removes the smallest weights globally; survivors are
    i.i.d. positioned (the Gaussian has no spatial structure) but their
    *values* are the distribution's tails, and per-row populations vary
    binomially around ``(1 - sparsity) * ncols``.
    """
    if not 0.0 < sparsity < 1.0:
        raise ValueError("sparsity must be in (0, 1)")
    weights = rng.standard_normal((nrows, ncols))
    keep = max(1, int(round(nrows * ncols * (1.0 - sparsity))))
    flat = np.abs(weights).ravel()
    # Global magnitude threshold: exactly `keep` survivors (ties broken by
    # argpartition order, deterministic for a fixed rng draw).
    kept_idx = np.argpartition(flat, -keep)[-keep:]
    rows = (kept_idx // ncols).astype(INDEX_DTYPE)
    cols = (kept_idx % ncols).astype(INDEX_DTYPE)
    values = weights.ravel()[kept_idx]
    return COOMatrix((nrows, ncols), rows, cols, values)


def random_pruned(
    rng: np.random.Generator,
    nrows: int = 1024,
    ncols: int = 1024,
    sparsity: float = 0.9,
) -> COOMatrix:
    """Unstructured Bernoulli pruning: each weight survives i.i.d."""
    if not 0.0 < sparsity < 1.0:
        raise ValueError("sparsity must be in (0, 1)")
    mask = rng.random((nrows, ncols)) >= sparsity
    if not mask.any():
        mask[0, 0] = True
    rows, cols = np.nonzero(mask)
    rows = rows.astype(INDEX_DTYPE)
    cols = cols.astype(INDEX_DTYPE)
    return COOMatrix((nrows, ncols), rows, cols, _values(rng, rows.shape[0]))


def block_pruned(
    rng: np.random.Generator,
    nrows: int = 1024,
    ncols: int = 1024,
    sparsity: float = 0.9,
    block: int = 4,
) -> COOMatrix:
    """Structured pruning: whole ``block x block`` tiles survive or die.

    Dimensions are rounded up to a multiple of ``block`` so every
    surviving tile is complete — the property the metamorphic test
    checks.  Survivor tiles are drawn i.i.d. with probability
    ``1 - sparsity``; at least one tile always survives.
    """
    if not 0.0 < sparsity < 1.0:
        raise ValueError("sparsity must be in (0, 1)")
    if block < 1:
        raise ValueError("block must be >= 1")
    brows = -(-nrows // block)
    bcols = -(-ncols // block)
    nrows, ncols = brows * block, bcols * block
    tile_mask = rng.random((brows, bcols)) >= sparsity
    if not tile_mask.any():
        tile_mask[0, 0] = True
    trow, tcol = np.nonzero(tile_mask)
    # Expand each surviving tile into its block x block entries.
    within = np.arange(block, dtype=INDEX_DTYPE)
    dr, dc = np.meshgrid(within, within, indexing="ij")
    rows = (
        trow.astype(INDEX_DTYPE)[:, None] * block + dr.ravel()[None, :]
    ).ravel()
    cols = (
        tcol.astype(INDEX_DTYPE)[:, None] * block + dc.ravel()[None, :]
    ).ravel()
    return COOMatrix((nrows, ncols), rows, cols, _values(rng, rows.shape[0]))


#: Name → generator registry used by the collection builder.
GENERATORS: dict[str, Callable[..., COOMatrix]] = {
    "banded": banded,
    "multi_diagonal": multi_diagonal,
    "stencil_2d": stencil_2d,
    "stencil_3d": stencil_3d,
    "random_uniform": random_uniform,
    "power_law_rows": power_law_rows,
    "rmat": rmat,
    "scale_free_graph": scale_free_graph,
    "small_world": small_world,
    "block_diagonal": block_diagonal,
    "arrow": arrow,
    "row_blocks": row_blocks,
    "rectangular": rectangular,
    "magnitude_pruned": magnitude_pruned,
    "random_pruned": random_pruned,
    "block_pruned": block_pruned,
}

#: The pruned-weight trio (DLMC-style); the SpMM campaign mixes these
#: into the classic SpMV families.
PRUNED_FAMILIES: tuple[str, ...] = (
    "magnitude_pruned",
    "random_pruned",
    "block_pruned",
)
