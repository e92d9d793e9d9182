"""Deterministic network fault injection for the lease transport.

The lease protocol's recovery paths — retried requests, idempotent
completions, torn-frame rejection, lease expiry — only count as
working if CI can *exercise* them on every push.  Real network faults
are rare and unschedulable, so this module manufactures them on
demand, deterministically: :class:`NetworkFaultSpec` /
:class:`NetworkFaultInjector` decide — as a pure function of ``(seed,
endpoint key, attempt)`` — whether one transport request should be
dropped before sending, have its *response* discarded (the request
executed, the caller never learns), be delayed, be sent twice
(exercising server-side idempotence), or be truncated mid-frame
(tripping the receiver's SHA-256 integrity check).

Purity of :meth:`NetworkFaultInjector.decide` matters: a decision
drawn from a *shared* RNG stream would depend on request scheduling
across threads.  Instead every decision hashes its own
``SeedSequence``, so the fault schedule of a whole chaos storm is
reproducible from one integer — and because the attempt number is part
of the key, a request dropped on attempt 0 can deterministically
succeed on a later attempt, which is what lets the distributed chaos
suite assert that the merged campaign digest still equals the
unfaulted single-host run.  For exact-shape tests a ``plan`` pins
specific ``(endpoint key, attempt)`` pairs to specific faults,
bypassing the rates entirely.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "NetworkFaultKind",
    "NetworkFaultSpec",
    "NetworkFaultInjector",
]


#: The injectable transport faults (also the ``plan`` values).
NetworkFaultKind = str
DROP = "drop"
DROP_RESPONSE = "drop_response"
DELAY = "delay"
DUPLICATE = "duplicate"
TRUNCATE = "truncate"
_NETWORK_KINDS = (DROP, DROP_RESPONSE, DELAY, DUPLICATE, TRUNCATE)


def _endpoint_token(endpoint: str) -> int:
    """Stable integer key of one endpoint string (for SeedSequence)."""
    return int.from_bytes(
        hashlib.sha256(endpoint.encode("utf-8")).digest()[:8], "big"
    )


@dataclass(frozen=True)
class NetworkFaultSpec:
    """Which transport faults to inject, and how often.

    Rates are independent per-request probabilities evaluated in the
    order drop → drop_response → delay → duplicate → truncate over one
    uniform draw (their sum must stay <= 1).  The five kinds cover the
    distributed failure surface the lease protocol must absorb:

    * ``drop`` — the request is never sent (a connection that died
      before the bytes left);
    * ``drop_response`` — the request is sent and *executed*, but the
      response is discarded (a connection that died on the way back) —
      the caller retries an operation that already happened, which is
      what forces every endpoint to be idempotent;
    * ``delay`` — the request is stalled ``delay_seconds`` before
      sending (reordering pressure; long enough delays expire leases);
    * ``duplicate`` — the request is sent twice back-to-back (a
      retransmit razor against double-claim / double-complete bugs);
    * ``truncate`` — the request body is cut mid-frame, so the
      receiver's SHA-256 framing check rejects it (a torn write on the
      wire must read as *no* request, never as a different request).

    ``plan`` overrides the rates for exact ``(endpoint_key, attempt)``
    pairs; an entry of ``None`` forces no fault for that key.
    """

    drop_rate: float = 0.0
    drop_response_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    truncate_rate: float = 0.0
    #: How long an injected delay stalls the request.
    delay_seconds: float = 0.05
    #: Exact-script overrides: ``{(endpoint_key, attempt): kind | None}``.
    plan: Dict[Tuple[str, int], Optional[NetworkFaultKind]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        total = (
            self.drop_rate + self.drop_response_rate + self.delay_rate
            + self.duplicate_rate + self.truncate_rate
        )
        if not 0.0 <= total <= 1.0:
            raise ValueError(
                f"network fault rates must sum to [0, 1], got {total}"
            )
        for key, kind in self.plan.items():
            if kind is not None and kind not in _NETWORK_KINDS:
                raise ValueError(
                    f"unknown network fault kind {kind!r} for {key}; "
                    f"known: {_NETWORK_KINDS}"
                )


class NetworkFaultInjector:
    """Seeded oracle deciding which transport requests misbehave.

    The decision for ``(endpoint_key, attempt)`` is a pure function of
    the seed, so a chaos storm's whole fault schedule is reproducible
    from one integer, and a request dropped on attempt 0
    deterministically goes through on a later attempt — which is what
    lets the distributed chaos suite assert *recovery to bit-identical
    digests* rather than mere survival.  The endpoint key is whatever string the transport hands
    in; :class:`repro.service.transport.TransportClient` uses
    ``"<endpoint>#<per-endpoint request number>"`` so two different
    requests to one endpoint draw independent fates.
    """

    def __init__(self, spec: NetworkFaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)

    def decide(
        self, endpoint_key: str, attempt: int
    ) -> Optional[NetworkFaultKind]:
        """The fault (or ``None``) for one attempt of one request."""
        key = (str(endpoint_key), int(attempt))
        if key in self.spec.plan:
            return self.spec.plan[key]
        spec = self.spec
        rates = (
            (DROP, spec.drop_rate),
            (DROP_RESPONSE, spec.drop_response_rate),
            (DELAY, spec.delay_rate),
            (DUPLICATE, spec.duplicate_rate),
            (TRUNCATE, spec.truncate_rate),
        )
        if all(rate == 0.0 for _, rate in rates):
            return None
        draw = np.random.default_rng(
            np.random.SeedSequence(
                [self.seed, _endpoint_token(key[0]), key[1], 0x7E7]
            )
        ).random()
        threshold = 0.0
        for kind, rate in rates:
            threshold += rate
            if draw < threshold:
                return kind
        return None

    def truncate_bytes(self, data: bytes) -> bytes:
        """A torn wire frame: the first half of ``data`` (at least one
        byte short, so the integrity check must fail)."""
        if len(data) <= 1:
            return b""
        return data[: len(data) // 2]
