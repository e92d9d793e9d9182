"""Timestamp counter: the unprivileged measurement channel (paper §8).

When the attacker cannot read branch-misprediction performance counters
(which need at least partially elevated privileges), the paper falls back
to ``rdtsc``/``rdtscp``, which "provide user processes with direct access
to timekeeping hardware, bypassing system software layers".  We model a
TSC read as the current cycle clock plus a small serialisation overhead.

The §10.2 "noisy timer" mitigation wraps this class (see
:mod:`repro.mitigations.noisy_timer`).
"""

from __future__ import annotations


from repro.cpu.clock import CycleClock

__all__ = ["TimestampCounter"]


class TimestampCounter:
    """``rdtscp``-style reads of the core's cycle clock."""

    def __init__(
        self,
        clock: CycleClock,
        read_overhead: int = 0,
    ) -> None:
        """``read_overhead`` cycles are consumed by the read itself.

        The paper's plotted latencies *include* the measurement overhead,
        so the default timing model folds it into ``base_latency`` and
        this defaults to zero; set it explicitly to study overhead
        sensitivity.
        """
        if read_overhead < 0:
            raise ValueError("read_overhead cannot be negative")
        self.clock = clock
        self.read_overhead = int(read_overhead)

    def read(self) -> int:
        """Execute one TSC read; returns the timestamp."""
        value = self.clock.now
        if self.read_overhead:
            self.clock.advance(self.read_overhead)
        return value

    def time(self, fn, *args, **kwargs):
        """Time a callable with two TSC reads; returns (result, cycles).

        Both reads' serialisation overhead is charged to the measured
        interval symmetrically: the opening read's timestamp precedes its
        own overhead, so the closing boundary must be taken *after* the
        closing read's overhead has elapsed — the measured cost of a
        no-op is exactly ``2 * read_overhead``.
        """
        start = self.read()
        result = fn(*args, **kwargs)
        self.read()
        end = self.clock.now
        return result, end - start
