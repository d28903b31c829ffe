"""Counter-based stream protocol: reproducibility, slicing, independence."""
import numpy as np
import pytest
from scipy.special import ndtri

from mirrormfld import rngstream


def test_blocks_reproducible():
    a = rngstream.normal_block(7, 3, 1, 0, 100, 2)
    b = rngstream.normal_block(7, 3, 1, 0, 100, 2)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8])
def test_slices_match_full_block(dim):
    full = rngstream.normal_block(123, 9, 2, 0, 64, dim)
    for lo, hi in ((0, 64), (7, 13), (63, 64), (32, 64)):
        part = rngstream.normal_block(123, 9, 2, lo, hi, dim)
        assert part.shape == (dim, hi - lo) and part.flags.c_contiguous
        assert np.array_equal(full[:, lo:hi], part)


@pytest.mark.parametrize("lo, hi, dim", [(123, 10_123, 2), (0, 2000, 49)])
def test_blocks_drawn_in_pieces_equal_one_shot_block(lo, hi, dim):
    # several pieces, the last one short
    rows_per_piece = rngstream.PIECE_WORDS // (4 * ((dim + 3) // 4))
    assert (hi - lo) > 3 * rows_per_piece and (hi - lo) % rows_per_piece
    u = (rngstream.raw_block(11, 6, 2, lo, hi, dim) >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    uniform = rngstream.uniform_block(11, 6, 2, lo, hi, dim)
    normal = rngstream.normal_block(11, 6, 2, lo, hi, dim)
    assert uniform.flags.c_contiguous and normal.flags.c_contiguous
    assert np.array_equal(uniform.view(np.uint64), u.view(np.uint64))
    assert np.array_equal(normal.view(np.uint64), ndtri(u).view(np.uint64))


def test_distinct_keys_decorrelate():
    base = rngstream.normal_block(1, 5, 0, 0, 20_000, 2)
    for seed, it, sub in ((2, 5, 0), (1, 6, 0), (1, 5, 1)):
        other = rngstream.normal_block(seed, it, sub, 0, 20_000, 2)
        assert not np.array_equal(base, other)
        assert abs(np.corrcoef(base.ravel(), other.ravel())[0, 1]) < 0.02


def test_uniforms_strictly_inside_unit_interval():
    u = rngstream.uniform_block(42, 0, 0, 0, 10_000, 4)
    assert 0.0 < u.min() and u.max() < 1.0


def test_normals_moments():
    z = rngstream.normal_block(0, 1, 0, 0, 200_000, 2)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_counter_layout_rejected_out_of_range():
    with pytest.raises(ValueError):
        rngstream.raw_block(-1, 0, 0, 0, 4, 2)
    with pytest.raises(ValueError):
        rngstream.raw_block(0, -1, 0, 0, 4, 2)
    with pytest.raises(ValueError):
        rngstream.raw_block(0, 0, 0, 5, 4, 2)
