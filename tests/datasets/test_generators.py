"""Structural invariants of every matrix family."""

import numpy as np
import pytest

from repro.datasets.generators import (
    GENERATORS,
    arrow,
    banded,
    block_diagonal,
    multi_diagonal,
    power_law_rows,
    random_uniform,
    rectangular,
    rmat,
    row_blocks,
    scale_free_graph,
    small_world,
    stencil_2d,
    stencil_3d,
)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_default_generation_is_valid_and_deterministic(family):
    gen = GENERATORS[family]
    m1 = gen(np.random.default_rng(42))
    m2 = gen(np.random.default_rng(42))
    assert m1.nnz > 0
    assert m1.shape == m2.shape
    np.testing.assert_array_equal(m1.rows, m2.rows)
    np.testing.assert_array_equal(m1.cols, m2.cols)
    np.testing.assert_allclose(m1.vals, m2.vals)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_different_seeds_differ(family):
    gen = GENERATORS[family]
    m1 = gen(np.random.default_rng(1))
    m2 = gen(np.random.default_rng(2))
    same = m1.nnz == m2.nnz and np.array_equal(m1.rows, m2.rows) and np.allclose(
        m1.vals, m2.vals
    ) if m1.nnz == m2.nnz else False
    assert not same


def test_banded_entries_within_band(rng):
    m = banded(rng, n=128, bandwidth=4)
    assert np.all(np.abs(m.cols - m.rows) <= 4)


def test_banded_full_density_row_lengths(rng):
    m = banded(rng, n=128, bandwidth=3, density=1.0)
    interior = m.row_lengths()[3:-3]
    assert np.all(interior == 7)


def test_multi_diagonal_has_requested_diagonals(rng):
    m = multi_diagonal(rng, n=256, ndiags=9)
    offs = m.diagonal_offsets()
    assert 0 in offs  # main diagonal always kept
    assert len(offs) <= 9


def test_stencil_2d_uniform_interior(rng):
    m = stencil_2d(rng, nx=12, ny=12, points=5)
    assert m.shape == (144, 144)
    lengths = m.row_lengths()
    assert lengths.max() == 5
    assert lengths.min() == 3  # corners


def test_stencil_2d_9pt(rng):
    m = stencil_2d(rng, nx=8, ny=8, points=9)
    assert m.row_lengths().max() == 9


def test_stencil_3d_7pt(rng):
    m = stencil_3d(rng, n1=6, points=7)
    assert m.shape == (216, 216)
    assert m.row_lengths().max() == 7


def test_stencil_rejects_unknown_points(rng):
    with pytest.raises(ValueError):
        stencil_2d(rng, points=7)
    with pytest.raises(ValueError):
        stencil_3d(rng, points=9)


def test_stencil_is_symmetric_pattern(rng):
    m = stencil_2d(rng, nx=7, ny=9, points=5)
    d = m.to_dense()
    np.testing.assert_array_equal(d != 0, (d != 0).T)


def test_random_uniform_density(rng):
    m = random_uniform(rng, nrows=400, density=0.01)
    realised = m.nnz / (400 * 400)
    assert 0.005 < realised < 0.02


def test_power_law_skew_bounded(rng):
    m = power_law_rows(
        rng, nrows=800, avg_nnz_per_row=8, alpha=1.7, max_over_mean=2.5
    )
    lengths = m.row_lengths()
    # Duplicate collapse can only shrink rows; the cap must hold loosely.
    assert lengths.max() <= 2.5 * lengths.mean() * 1.3


def test_power_law_unbounded_is_skewed(rng):
    m = power_law_rows(rng, nrows=2000, avg_nnz_per_row=6, alpha=1.6)
    lengths = m.row_lengths()
    assert lengths.max() > 5 * lengths.mean()


def test_rmat_shape_and_skew(rng):
    m = rmat(rng, scale=9, edge_factor=8)
    assert m.shape == (512, 512)
    lengths = m.row_lengths()
    assert lengths.max() > 4 * max(lengths.mean(), 1)


def test_scale_free_symmetric(rng):
    m = scale_free_graph(rng, n=300, m_attach=3)
    d = m.to_dense()
    np.testing.assert_array_equal(d != 0, (d != 0).T)


def test_small_world_symmetric_and_near_banded(rng):
    m = small_world(rng, n=400, k=6, p_rewire=0.0)
    d = m.to_dense()
    np.testing.assert_array_equal(d != 0, (d != 0).T)
    # Without rewiring all edges are ring-local (mod wrap-around).
    off = np.abs(m.cols - m.rows)
    assert np.all((off <= 3) | (off >= 397))


def test_block_diagonal_stays_in_blocks(rng):
    m = block_diagonal(rng, nblocks=4, block_size=16)
    assert np.all((m.rows // 16) == (m.cols // 16))


def test_arrow_has_dense_first_row_and_col(rng):
    m = arrow(rng, n=200, band=1, arm_density=1.0)
    lengths = m.row_lengths()
    assert lengths[0] == 200  # full first row (arm + diagonal + band)
    d = m.to_dense()
    assert np.count_nonzero(d[:, 0]) == 200


def test_row_blocks_distinct_lengths(rng):
    m = row_blocks(rng, nrows=300, lengths=(2, 30))
    lengths = m.row_lengths()
    # First group short, second long (duplicates may shave a little).
    assert lengths[:150].mean() < 5
    assert lengths[150:].mean() > 20


def test_rectangular_shape(rng):
    m = rectangular(rng, nrows=500, ncols=64, nnz_per_row=4)
    assert m.shape == (500, 64)
    assert np.all(m.cols < 64)


def _scale_free_reference(rng, n, m_attach):
    """The list-based attachment loop: ``rng.choice`` over every edge end."""
    repeated, src, dst = [], [], []
    for v in range(m_attach, n):
        if repeated:
            chosen = rng.choice(np.asarray(repeated), m_attach, replace=True)
        else:
            chosen = np.arange(m_attach)
        chosen = np.unique(chosen)
        src += [v] * len(chosen)
        dst += chosen.tolist()
        repeated += chosen.tolist() + [v] * len(chosen)
    return src, dst


@pytest.mark.parametrize("seed", range(5))
def test_scale_free_edge_draws_match_the_list_reference(seed, monkeypatch):
    """Same edges and same RNG state left as the list-based loop."""
    from repro.datasets import generators

    seen = {}
    monkeypatch.setattr(
        generators, "_dedup_coo",
        lambda shape, rows, cols, rng: seen.update(rows=rows, cols=cols),
    )
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    scale_free_graph(ours, n=200, m_attach=3)
    src, dst = _scale_free_reference(ref, 200, 3)
    np.testing.assert_array_equal(seen["rows"], src + dst)
    np.testing.assert_array_equal(seen["cols"], dst + src)
    assert ours.bit_generator.state == ref.bit_generator.state
