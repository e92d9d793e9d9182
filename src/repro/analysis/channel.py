"""Covert-channel quality metrics.

The paper reports raw error rates (Tables 2-3); channel quality is the
standard way to compare them across configurations: a covert channel
with bit-error probability ``p`` is a binary symmetric channel whose
capacity is ``1 - H(p)`` bits per transmitted bit, and the transmission
*rate* follows from the cycles one prime/target/probe round costs.
Used by the Table 2 bench's extended output and the channel examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["binary_entropy", "bsc_capacity", "ChannelEstimate"]


def binary_entropy(p: float) -> float:
    """Shannon entropy H(p) of a Bernoulli(p) source, in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def bsc_capacity(error_rate: float) -> float:
    """Capacity of a binary symmetric channel, bits per channel use.

    ``1 - H(p)``: 1.0 for a perfect channel, 0.0 at p = 0.5 (the channel
    is destroyed — what a working §10 mitigation achieves).
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError("error_rate must be a probability")
    return 1.0 - binary_entropy(error_rate)


@dataclass(frozen=True)
class ChannelEstimate:
    """Throughput estimate for one covert-channel configuration."""

    #: Measured bit-error probability.
    error_rate: float
    #: Simulated cycles consumed per transmitted bit (prime + gaps +
    #: victim slice + probe).
    cycles_per_bit: float
    #: Assumed core frequency for wall-clock rates.
    clock_hz: float = 2.0e9

    @property
    def capacity_per_use(self) -> float:
        """Error-corrected bits per transmitted bit (BSC capacity)."""
        return bsc_capacity(self.error_rate)

    @property
    def raw_bits_per_second(self) -> float:
        """Transmitted (uncorrected) bits per second."""
        if self.cycles_per_bit <= 0:
            raise ValueError("cycles_per_bit must be positive")
        return self.clock_hz / self.cycles_per_bit

    @property
    def corrected_bits_per_second(self) -> float:
        """Error-free information rate after ideal coding."""
        return self.raw_bits_per_second * self.capacity_per_use
