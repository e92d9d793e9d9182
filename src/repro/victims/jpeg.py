"""JPEG-like codec victim (paper §9.2 "libjpeg").

libjpeg's inverse DCT skips all-zero rows/columns of the coefficient
matrix to save arithmetic; "each such comparison is realized as an
individual branch instruction.  By spying on these branches the
BranchScope is capable of recovering information about relative
complexity of decoded pixel blocks" — and unlike the page-fault attacks,
it learns *which* element is non-zero.

We implement the codec from scratch (:mod:`repro.victims.dct` provides
the math) with exactly that optimisation structure: during decompression
each 8x8 block runs eight row-zero checks (first 1-D IDCT pass) and
eight column-zero checks (second pass), each check a conditional branch
at a fixed virtual address, *taken* when the row/column is non-zero.
The attacker who recovers the row-check directions reconstructs the
block-by-block sparsity map — a coarse image of the picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.victims.dct import (
    BLOCK,
    STANDARD_LUMINANCE_QTABLE,
    dct2_8x8,
    dct_matrix,
    dequantize,
    idct2_8x8,
    quantize,
)

__all__ = ["JpegImage", "encode_image", "decode_image", "JpegDecoderVictim"]

#: Link-time addresses of the two zero-check branches in the IDCT loops.
ROW_CHECK_LINK_ADDRESS = 0x40A210
COLUMN_CHECK_LINK_ADDRESS = 0x40A3F4


@dataclass(frozen=True)
class JpegImage:
    """A compressed image: quantised DCT coefficients per 8x8 block."""

    #: Quantised coefficients, shape (blocks_y, blocks_x, 8, 8).
    blocks: np.ndarray
    #: Original image dimensions (rows, cols) before padding.
    shape: Tuple[int, int]
    qtable: np.ndarray

    @property
    def block_grid(self) -> Tuple[int, int]:
        """Number of blocks vertically and horizontally."""
        return self.blocks.shape[0], self.blocks.shape[1]

    def zero_row_map(self) -> np.ndarray:
        """Ground truth: which coefficient rows are all-zero.

        Shape (blocks_y, blocks_x, 8), True where the IDCT may skip the
        row — the exact information the row-check branches leak.
        """
        return (self.blocks == 0).all(axis=3)


def encode_image(
    pixels: np.ndarray, qtable: np.ndarray = STANDARD_LUMINANCE_QTABLE
) -> JpegImage:
    """Compress a grayscale image (values 0..255) block by block."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    rows, cols = pixels.shape
    pad_rows = (-rows) % BLOCK
    pad_cols = (-cols) % BLOCK
    padded = np.pad(pixels, ((0, pad_rows), (0, pad_cols)), mode="edge")
    blocks_y = padded.shape[0] // BLOCK
    blocks_x = padded.shape[1] // BLOCK
    blocks = np.empty((blocks_y, blocks_x, BLOCK, BLOCK), dtype=np.int32)
    for by in range(blocks_y):
        for bx in range(blocks_x):
            tile = padded[
                by * BLOCK : (by + 1) * BLOCK, bx * BLOCK : (bx + 1) * BLOCK
            ]
            blocks[by, bx] = quantize(dct2_8x8(tile - 128.0), qtable)
    return JpegImage(blocks=blocks, shape=(rows, cols), qtable=qtable)


def decode_image(image: JpegImage) -> np.ndarray:
    """Reference decompression (no core interaction)."""
    blocks_y, blocks_x = image.block_grid
    out = np.empty((blocks_y * BLOCK, blocks_x * BLOCK), dtype=np.float64)
    for by in range(blocks_y):
        for bx in range(blocks_x):
            coefficients = dequantize(image.blocks[by, bx], image.qtable)
            out[
                by * BLOCK : (by + 1) * BLOCK, bx * BLOCK : (bx + 1) * BLOCK
            ] = idct2_8x8(coefficients) + 128.0
    rows, cols = image.shape
    return np.clip(out[:rows, :cols], 0, 255)


@dataclass(frozen=True)
class _PendingBranch:
    """One zero-check branch the decoder will execute."""

    address: int
    taken: bool


class JpegDecoderVictim:
    """A decompression service leaking block sparsity through its IDCT.

    Each :meth:`step` executes the decoder's next zero-check branch on
    the core (victim-slowdown granularity); :attr:`pixels` holds the
    decoded image once all checks have executed.
    """

    def __init__(
        self,
        image: JpegImage,
        *,
        process: Optional[Process] = None,
        row_check_link_address: int = ROW_CHECK_LINK_ADDRESS,
        column_check_link_address: int = COLUMN_CHECK_LINK_ADDRESS,
    ) -> None:
        self.image = image
        self.process = process or Process("jpeg-victim")
        self.row_branch_address = self.process.branch_address(
            row_check_link_address
        )
        self.column_branch_address = self.process.branch_address(
            column_check_link_address
        )
        self.pixels: Optional[np.ndarray] = None
        self._pending: List[_PendingBranch] = self._plan_branches()

    def _plan_branches(self) -> List[_PendingBranch]:
        """The decoder's zero-check branch schedule, in execution order.

        Pass 1 checks each coefficient *row* (skip its 1-D IDCT when all
        zero); pass 2 checks each intermediate *column*.  Branch taken =
        non-zero = work performed.
        """
        pending: List[_PendingBranch] = []
        blocks_y, blocks_x = self.image.block_grid
        for by in range(blocks_y):
            for bx in range(blocks_x):
                quantized = self.image.blocks[by, bx]
                coefficients = dequantize(quantized, self.image.qtable)
                for r in range(BLOCK):
                    pending.append(
                        _PendingBranch(
                            self.row_branch_address,
                            taken=bool(np.any(quantized[r] != 0)),
                        )
                    )
                # Pass 1 output (rows transformed): Y = X @ C, since the
                # 2-D inverse is C.T @ X @ C.  Pass 2 checks Y's columns.
                intermediate = coefficients @ dct_matrix()
                for c in range(BLOCK):
                    pending.append(
                        _PendingBranch(
                            self.column_branch_address,
                            taken=bool(
                                np.any(np.abs(intermediate[:, c]) > 1e-9)
                            ),
                        )
                    )
        return pending

    @property
    def finished(self) -> bool:
        """Whether decompression has executed every check."""
        return not self._pending

    def step(self, core: PhysicalCore) -> None:
        """Execute the decoder's next zero-check branch."""
        if not self._pending:
            raise RuntimeError("decode finished")
        branch = self._pending.pop(0)
        core.execute_branch(self.process, branch.address, taken=branch.taken)
        if not self._pending:
            self.pixels = decode_image(self.image)

    def steps_remaining(self) -> int:
        """How many zero-check branches are still pending."""
        return len(self._pending)

    def next_branch_address(self) -> Optional[int]:
        """Address of the next check branch, or None when finished.

        The attacker knows this *statically* — the decoder's control flow
        (8 row checks then 8 column checks per block) is public code — so
        exposing it models the attacker's disassembly knowledge, not a
        secret leak.
        """
        return self._pending[0].address if self._pending else None
