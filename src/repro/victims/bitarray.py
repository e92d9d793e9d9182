"""The Listing 2 victim: a branch conditioned on a secret bit array.

.. code-block:: c

    int sec_data[] = {1, 0, 1, 1, ...};
    void victim_f() {
        if (sec_data[i])      // <- the spied branch
            asm("nop; nop");
        i++;
    }

In the paper's disassembly the ``je`` jumps (is *taken*) when the secret
value is zero; the convention is configurable here because the covert
channel's dictionary handles either polarity.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process

__all__ = ["SecretBitArrayVictim"]

#: Link-time address of the ``je`` in Listing 2(B)'s disassembly
#: (``300006d <victim_f+0x6d>``).
LISTING2_BRANCH_LINK_ADDRESS = 0x300006D


class SecretBitArrayVictim:
    """A process whose branch directions spell out a secret bit array."""

    def __init__(
        self,
        secret_bits: Sequence[int],
        *,
        process: Optional[Process] = None,
        branch_link_address: int = LISTING2_BRANCH_LINK_ADDRESS,
        taken_when_bit: int = 1,
        cyclic: bool = True,
    ) -> None:
        """``taken_when_bit`` selects the encoding polarity: with the
        default, a secret 1 makes the branch taken (the paper's ``je``
        has the opposite polarity; both are attackable identically).
        With ``cyclic`` (the default, matching Listing 2's endless loop
        over the array) the victim wraps around after the last bit;
        otherwise running off the end raises ``IndexError``."""
        if any(b not in (0, 1) for b in secret_bits):
            raise ValueError("secret bits must be 0/1")
        if not secret_bits:
            raise ValueError("secret must not be empty")
        self._secret = list(secret_bits)
        self.process = process or Process("bitarray-victim")
        self.branch_address = self.process.branch_address(branch_link_address)
        self.taken_when_bit = taken_when_bit
        self.cyclic = cyclic
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._secret)

    @property
    def exhausted(self) -> bool:
        """Whether every secret bit has been consumed (never, if cyclic)."""
        return not self.cyclic and self._cursor >= len(self._secret)

    def execute_next(self, core: PhysicalCore) -> None:
        """Execute the branch for the next secret bit (Listing 2's loop body)."""
        if self.exhausted:
            raise IndexError("secret exhausted")
        bit = self._secret[self._cursor % len(self._secret)]
        self._cursor += 1
        core.execute_branch(
            self.process,
            self.branch_address,
            taken=(bit == self.taken_when_bit),
        )

    def reveal_secret(self) -> Sequence[int]:
        """Ground truth for evaluation harnesses only.

        The spy never calls this; benchmarks use it to compute error
        rates against what the attack recovered.
        """
        return tuple(self._secret)
