"""Early-exit secret comparison victim (a classic branchy leak).

``memcmp``-style checks compare a guess against a secret byte-by-byte
and bail out at the first mismatch — the textbook "branch instruction
conditioned on a bit of a secret" the paper's introduction motivates.
Timing attacks read the *number* of loop iterations; BranchScope reads
the *direction of each comparison branch* directly, so the attacker
learns exactly which position mismatched, and can therefore recover the
secret with ``alphabet x length`` guesses instead of brute force.

The attack driver :func:`crack_secret` does exactly that with the
standard :class:`repro.core.attack.BranchScope` facade.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process

__all__ = ["EarlyExitComparatorVictim", "crack_secret"]

#: Link-time address of the per-position comparison branch.
COMPARE_BRANCH_LINK_ADDRESS = 0x40_2C10


class EarlyExitComparatorVictim:
    """A service that checks guesses against a secret, leakily.

    Each :meth:`submit_guess` plans one check; :meth:`step` executes the
    check's next comparison branch on the core (victim-slowdown
    granularity).  The comparison branch is *taken* while characters
    match ("continue the loop") and not-taken at the first mismatch
    ("exit"), after which the check is over.
    """

    def __init__(
        self,
        secret: Sequence[int],
        *,
        process: Optional[Process] = None,
        branch_link_address: int = COMPARE_BRANCH_LINK_ADDRESS,
    ) -> None:
        if not secret:
            raise ValueError("secret must not be empty")
        self._secret = list(secret)
        self.process = process or Process("comparator-victim")
        self.branch_address = self.process.branch_address(branch_link_address)
        self._pending: List[bool] = []
        self.last_result: Optional[bool] = None

    def __len__(self) -> int:
        return len(self._secret)

    def submit_guess(self, guess: Sequence[int]) -> None:
        """Start one comparison of ``guess`` against the secret."""
        if len(guess) != len(self._secret):
            raise ValueError("guess length must match the secret's")
        directions: List[bool] = []
        for guessed, true in zip(guess, self._secret):
            if guessed == true:
                directions.append(True)  # match: loop continues
            else:
                directions.append(False)  # mismatch: early exit
                break
        self._pending = directions
        self.last_result = all(directions) and len(directions) == len(
            self._secret
        )

    @property
    def check_finished(self) -> bool:
        """Whether the current comparison has run all its branches."""
        return not self._pending

    def step(self, core: PhysicalCore) -> None:
        """Execute the next comparison branch of the current check."""
        if not self._pending:
            raise RuntimeError("no check in progress; submit a guess")
        core.execute_branch(
            self.process, self.branch_address, self._pending.pop(0)
        )

    def reveal_secret(self) -> Sequence[int]:
        """Ground truth for evaluation harnesses only."""
        return tuple(self._secret)


def crack_secret(
    attack,
    victim: EarlyExitComparatorVictim,
    core: PhysicalCore,
    alphabet: Sequence[int],
    *,
    filler: Optional[int] = None,
) -> List[int]:
    """Recover the victim's secret position by position.

    ``attack`` is a :class:`repro.core.attack.BranchScope` configured on
    ``victim.branch_address``.  For each position, try alphabet symbols
    until the spied direction of that position's comparison branch is
    *taken* (match).  Earlier positions use already-recovered symbols,
    so each check reaches the position under test — unless one of them
    was misread, and then the check ends early and the symbol under
    test reads as a mismatch.
    """
    filler = alphabet[0] if filler is None else filler
    recovered: List[int] = []
    length = len(victim)
    for position in range(length):
        found = None
        for symbol in alphabet:
            guess = recovered + [symbol] + [filler] * (
                length - position - 1
            )
            victim.submit_guess(guess)
            # Run the check up to the position under test, unobserved —
            # those directions are known if the recovered prefix is right.
            for _ in range(position):
                if victim.check_finished:
                    break
                victim.step(core)
            if victim.check_finished:
                # A misread earlier position ended the check before the
                # position under test: that reads as a mismatch.
                continue
            spied = attack.spy_on_branch(lambda: victim.step(core))
            # Drain the rest of the check, if any.
            while not victim.check_finished:
                victim.step(core)
            if spied.taken:
                found = symbol
                break
        if found is None:
            # All symbols read as mismatch (noise): fall back to the
            # filler; the caller sees the error in the final comparison.
            found = filler
        recovered.append(found)
    return recovered
