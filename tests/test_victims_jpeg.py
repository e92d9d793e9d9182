"""JPEG-like codec: DCT math, compression round-trip, IDCT leak structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bpu import haswell
from repro.cpu import PhysicalCore
from repro.victims.dct import (
    BLOCK,
    dct2_8x8,
    dct_matrix,
    dequantize,
    idct2_8x8,
    quantize,
)
from repro.victims.jpeg import (
    JpegDecoderVictim,
    decode_image,
    encode_image,
)


class TestDCT:
    def test_matrix_is_orthonormal(self):
        c = dct_matrix()
        assert np.allclose(c @ c.T, np.eye(BLOCK), atol=1e-12)

    def test_roundtrip_is_identity(self, rng):
        block = rng.uniform(-128, 127, (BLOCK, BLOCK))
        assert np.allclose(idct2_8x8(dct2_8x8(block)), block, atol=1e-9)

    def test_dc_coefficient_is_scaled_mean(self):
        block = np.full((BLOCK, BLOCK), 100.0)
        coefficients = dct2_8x8(block)
        assert coefficients[0, 0] == pytest.approx(100.0 * 8)
        assert np.allclose(coefficients.flatten()[1:], 0, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dct2_8x8(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            idct2_8x8(np.zeros((4, 4)))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25)
    def test_parseval_energy_preserved(self, seed):
        block = np.random.default_rng(seed).uniform(-100, 100, (BLOCK, BLOCK))
        assert np.sum(block**2) == pytest.approx(
            np.sum(dct2_8x8(block) ** 2), rel=1e-9
        )

    def test_quantize_dequantize_bounded_error(self, rng):
        coefficients = rng.uniform(-200, 200, (BLOCK, BLOCK))
        from repro.victims.dct import STANDARD_LUMINANCE_QTABLE as q
        restored = dequantize(quantize(coefficients))
        assert (np.abs(restored - coefficients) <= q / 2 + 1e-9).all()


class TestCodec:
    def _image(self, rng, shape=(24, 32)):
        # Smooth gradient + noise: mixes sparse and dense blocks.
        rows, cols = shape
        y, x = np.mgrid[0:rows, 0:cols]
        return np.clip(
            120 + 40 * np.sin(x / 6.0) + rng.normal(0, 6, shape), 0, 255
        )

    def test_roundtrip_quality(self, rng):
        image = self._image(rng)
        decoded = decode_image(encode_image(image))
        rmse = np.sqrt(np.mean((decoded - image) ** 2))
        assert rmse < 12.0

    def test_handles_non_multiple_of_8(self, rng):
        image = self._image(rng, (13, 21))
        encoded = encode_image(image)
        assert decode_image(encoded).shape == (13, 21)
        assert encoded.block_grid == (2, 3)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros((4, 4, 3)))

    def test_flat_image_gives_sparse_blocks(self):
        encoded = encode_image(np.full((16, 16), 130.0))
        assert encoded.zero_row_map()[:, :, 1:].all()

    def test_nonzero_counts_track_complexity(self, rng):
        flat = encode_image(np.full((8, 8), 99.0))
        busy = encode_image(rng.uniform(0, 255, (8, 8)))
        # Non-zero coefficients over all blocks: the image's "complexity".
        assert (busy.blocks != 0).sum() > (flat.blocks != 0).sum()


class TestDecoderVictim:
    def test_branch_schedule_length(self, rng):
        image = encode_image(rng.uniform(0, 255, (16, 24)))
        victim = JpegDecoderVictim(image)
        blocks = image.block_grid[0] * image.block_grid[1]
        # One zero-check branch per row and per column of each block.
        assert victim.steps_remaining() == blocks * 2 * BLOCK

    def test_row_branch_directions_equal_zero_map(self, rng):
        """The leak: row-check branch direction == row non-zero."""
        core = PhysicalCore(haswell().scaled(16), seed=3)
        image = encode_image(self_image(rng))
        victim = JpegDecoderVictim(image)
        taken = []
        original = core.execute_branch

        def recording(process, address, taken_flag=None, target=None, **kw):
            flag = kw.get("taken", taken_flag)
            if address == victim.row_branch_address:
                taken.append(flag)
            return original(process, address, flag, target)

        core.execute_branch = recording
        while not victim.finished:
            victim.step(core)
        expected = (~image.zero_row_map()).flatten().tolist()
        assert taken == expected

    def test_pixels_available_after_decode(self, rng):
        core = PhysicalCore(haswell().scaled(16), seed=3)
        image = encode_image(self_image(rng))
        victim = JpegDecoderVictim(image)
        assert victim.pixels is None
        while not victim.finished:
            victim.step(core)
        assert victim.pixels is not None
        assert np.allclose(victim.pixels, decode_image(image))

    def test_step_after_finish_raises(self, rng):
        core = PhysicalCore(haswell().scaled(16), seed=3)
        victim = JpegDecoderVictim(encode_image(np.full((8, 8), 1.0)))
        while not victim.finished:
            victim.step(core)
        with pytest.raises(RuntimeError):
            victim.step(core)


def self_image(rng, shape=(16, 16)):
    rows, cols = shape
    y, x = np.mgrid[0:rows, 0:cols]
    return np.clip(
        120 + 50 * np.sin(x / 5.0) + rng.normal(0, 8, shape), 0, 255
    )
