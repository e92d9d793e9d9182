"""Montgomery-ladder victims (paper §9.2 "Montgomery ladder").

The Montgomery ladder computes ``base^k`` (or ``k·P`` on an elliptic
curve) with a uniform operation sequence per key bit — a classic defense
against *timing* side channels — but its loop still contains a branch
whose direction **is** the key bit:

.. code-block:: text

    for i = bits-1 .. 0:
        if k_i == 1:      # <- the spied branch
            R0 = R0*R1; R1 = R1^2
        else:
            R1 = R0*R1; R0 = R0^2

Both arms perform the same operations, so execution *time* is constant —
yet the direction predictor learns the branch outcome, and BranchScope
reads it back bit by bit.  "BranchScope can directly recover the
direction of such branch."

Implemented from scratch: modular-exponentiation ladder and a ladder
scalar multiplication over a short-Weierstrass curve with affine
arithmetic (a small curve keeps tests fast; the branch structure is what
matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process

__all__ = [
    "montgomery_ladder_pow",
    "TinyCurve",
    "CurvePoint",
    "ladder_scalar_mult",
    "MontgomeryLadderVictim",
]

#: Link-time address of the ladder's key-bit branch.
LADDER_BRANCH_LINK_ADDRESS = 0x4017A2

BranchHook = Callable[[bool], None]


def montgomery_ladder_pow(
    base: int,
    exponent: int,
    modulus: int,
    branch_hook: Optional[BranchHook] = None,
) -> int:
    """``base ** exponent % modulus`` by the Montgomery powering ladder.

    ``branch_hook(bit)`` is invoked once per key bit at the point where
    the real implementation's conditional branch executes; victims wire
    it to the simulated core.  With no hook this is just a reference
    modular exponentiation (tested against :func:`pow`).
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    r0, r1 = 1, base % modulus
    for i in reversed(range(exponent.bit_length())):
        bit = (exponent >> i) & 1
        if branch_hook is not None:
            branch_hook(bool(bit))
        if bit:
            r0 = (r0 * r1) % modulus
            r1 = (r1 * r1) % modulus
        else:
            r1 = (r0 * r1) % modulus
            r0 = (r0 * r0) % modulus
    return r0


@dataclass(frozen=True)
class CurvePoint:
    """Affine point; ``None`` coordinates encode the point at infinity."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(None, None)


@dataclass(frozen=True)
class TinyCurve:
    """Short Weierstrass curve  y² = x³ + ax + b  over GF(p).

    The default parameters give a small prime-order group — large enough
    to exercise multi-word scalars, small enough for fast tests.
    """

    p: int = 0xFFFFFFFB  # 2^32 - 5, prime
    a: int = 3
    b: int = 7

    def is_on_curve(self, point: CurvePoint) -> bool:
        """Whether ``point`` satisfies the curve equation."""
        if point.is_infinity:
            return True
        x, y = point.x % self.p, point.y % self.p
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def _inv(self, value: int) -> int:
        return pow(value, self.p - 2, self.p)

    def add(self, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
        """Group law (affine)."""
        if p1.is_infinity:
            return p2
        if p2.is_infinity:
            return p1
        if p1.x == p2.x and (p1.y + p2.y) % self.p == 0:
            return CurvePoint.infinity()
        if p1 == p2:
            slope = (
                (3 * p1.x * p1.x + self.a) * self._inv(2 * p1.y)
            ) % self.p
        else:
            slope = ((p2.y - p1.y) * self._inv(p2.x - p1.x)) % self.p
        x3 = (slope * slope - p1.x - p2.x) % self.p
        y3 = (slope * (p1.x - x3) - p1.y) % self.p
        return CurvePoint(x3, y3)

    def double(self, point: CurvePoint) -> CurvePoint:
        """Point doubling."""
        return self.add(point, point)

    def base_point(self) -> CurvePoint:
        """A fixed valid generator-ish point for examples/tests."""
        # x=2: y^2 = 8 + 6 + 7 = 21; search upward for a quadratic residue.
        x = 2
        while True:
            rhs = (x * x * x + self.a * x + self.b) % self.p
            y = pow(rhs, (self.p + 1) // 4, self.p)
            if (y * y) % self.p == rhs:
                return CurvePoint(x, y)
            x += 1


def ladder_scalar_mult(
    curve: TinyCurve,
    scalar: int,
    point: CurvePoint,
    branch_hook: Optional[BranchHook] = None,
) -> CurvePoint:
    """``scalar · point`` by the Montgomery ladder (uniform operations)."""
    if scalar < 0:
        raise ValueError("negative scalars are not supported")
    r0, r1 = CurvePoint.infinity(), point
    for i in reversed(range(scalar.bit_length())):
        bit = (scalar >> i) & 1
        if branch_hook is not None:
            branch_hook(bool(bit))
        if bit:
            r0 = curve.add(r0, r1)
            r1 = curve.double(r1)
        else:
            r1 = curve.add(r0, r1)
            r0 = curve.double(r0)
    return r0


class MontgomeryLadderVictim:
    """A decryption/signing service leaking its key through the ladder.

    The attacker triggers one *step* at a time (victim-slowdown
    assumption): each :meth:`step` executes exactly one key-bit branch on
    the core; the surrounding arithmetic happens between steps.  When the
    key is exhausted the result becomes available and a fresh operation
    can be started with :meth:`begin`.
    """

    def __init__(
        self,
        secret_exponent: int,
        *,
        base: int = 0x10001,
        modulus: int = (1 << 61) - 1,  # Mersenne prime
        process: Optional[Process] = None,
        branch_link_address: int = LADDER_BRANCH_LINK_ADDRESS,
    ) -> None:
        if secret_exponent <= 0:
            raise ValueError("secret exponent must be positive")
        self._exponent = secret_exponent
        self.base = base
        self.modulus = modulus
        self.process = process or Process("rsa-victim")
        self.branch_address = self.process.branch_address(branch_link_address)
        self.result: Optional[int] = None
        self._pending: List[bool] = []
        self.begin()

    @property
    def n_bits(self) -> int:
        """Key length in bits (public knowledge — e.g. RSA-2048)."""
        return self._exponent.bit_length()

    def begin(self) -> None:
        """Start one exponentiation; bits will leak as steps execute."""
        self._pending = [
            bool((self._exponent >> i) & 1)
            for i in reversed(range(self._exponent.bit_length()))
        ]
        self.result = None

    def step(self, core: PhysicalCore) -> None:
        """Execute the next key-bit branch (one ladder iteration)."""
        if not self._pending:
            raise RuntimeError("operation finished; call begin() again")
        bit = self._pending.pop(0)
        core.execute_branch(self.process, self.branch_address, taken=bit)
        if not self._pending:
            # Operation complete: compute the architectural result.
            self.result = montgomery_ladder_pow(
                self.base, self._exponent, self.modulus
            )

    @property
    def finished(self) -> bool:
        """Whether the current exponentiation has consumed every bit."""
        return not self._pending

    def reveal_exponent(self) -> int:
        """Ground truth for evaluation harnesses only."""
        return self._exponent
