"""The ``"fuzz"`` campaign workload: one trial = one oracle program.

Registered lazily via :data:`repro.service.workload.LAZY_WORKLOADS`, so
the service core never imports the fuzzer unless a spec names it.  The
spec's ``params`` JSON carries the generation's program descriptors;
trial ``index`` runs descriptor ``index`` against the opaque preset
oracle and returns a plain-JSON record.  Determinism contract: the
record depends only on ``(spec, index)`` — the program is decoded from
the descriptor and the oracle starts from power-up state — so shard
layout, worker count and store replays cannot change a bit.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, Dict, Optional, Tuple

from repro.fuzz.generate import program_from_descriptor
from repro.fuzz.oracle import PresetOracle
from repro.service.aggregate import RecordListAggregate
from repro.service.workload import Workload, register_workload

__all__ = ["fuzz_trial"]


@functools.lru_cache(maxsize=16)
def _oracle(preset: str, scale: int) -> PresetOracle:
    """One shared oracle per ``(preset, scale)``: an oracle is immutable
    and its ``run`` pure, so trials may share it."""
    return PresetOracle(preset, scale=scale)


@functools.lru_cache(maxsize=16)
def _descriptors(params: str) -> Tuple[Dict[str, Any], ...]:
    """A generation's program descriptors, decoded once per ``params``
    string rather than once per trial.  Every trial (and its record)
    shares these dicts: read them, never mutate them."""
    return tuple(json.loads(params)["descriptors"])


def fuzz_trial(
    spec: Any,
    index: int,
    *,
    pre_trial: Optional[Callable[[int], None]] = None,
) -> Dict[str, Any]:
    """Run one generation program against the spec's opaque preset."""
    if pre_trial is not None:
        pre_trial(index)
    descriptors = _descriptors(spec.params)
    if not 0 <= index < len(descriptors):
        raise IndexError(
            f"trial index {index} outside the generation's "
            f"{len(descriptors)} descriptors"
        )
    descriptor = descriptors[index]
    program = program_from_descriptor(descriptor)
    hits = _oracle(spec.preset, spec.scale).run(program)
    return {
        "index": index,
        "descriptor": descriptor,
        "hits": [int(hit) for hit in hits],
    }


register_workload(
    Workload(
        name="fuzz",
        run_trial=fuzz_trial,
        aggregate=RecordListAggregate,
    )
)
