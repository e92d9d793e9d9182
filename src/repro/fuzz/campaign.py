"""The closed fuzzing loop: generate → dispatch → eliminate → repeat.

:func:`run_fuzz` drives the whole reverse-engineering session.  Each
**generation** is one :class:`~repro.service.campaign.CampaignSpec`
(workload ``"fuzz"``) submitted through a
:class:`~repro.service.CampaignService`: generation 0 is the
deterministic probe battery, later generations are seeded random pools
ranked by how finely their agreed-signature partitions split the
current survivors.  Because every piece is deterministic given
``(preset, seed)`` — descriptor planning, oracle trials, aggregation,
elimination — the loop is *stateless-resumable*: re-running the same
invocation over the same service root re-derives each generation's
spec exactly, so completed generations are served from the content
store (zero trials dispatched), a killed generation resumes from its
per-campaign checkpoint, and the final verdict digest is bit-identical
to the uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bpu.presets import PRESETS
from repro.fuzz.generate import (
    battery_descriptors,
    program_from_descriptor,
    random_descriptor,
)
from repro.fuzz.infer import (
    FSM_VARIANTS,
    Hypothesis,
    HypothesisLattice,
)
from repro.service.campaign import CampaignSpec
from repro.service.scheduler import CampaignService

__all__ = [
    "FuzzVerdict",
    "plan_generation",
    "run_fuzz",
    "true_hypothesis",
]

#: Candidate programs drawn per refinement generation...
_POOL_SIZE = 24
#: ...and the best-ranked subset actually dispatched.
_PICK = 8


def true_hypothesis(preset: str) -> Hypothesis:
    """The lattice point a preset actually occupies (ground truth).

    Derived from the preset's own :class:`~repro.bpu.presets.
    PredictorConfig` — used only to *verify* a verdict (the closed-loop
    self-test and ``repro fuzz --expect-truth``), never by the
    inference itself.
    """
    config = PRESETS[preset]()
    for name, factory in FSM_VARIANTS.items():
        if config.fsm_factory is factory:
            fsm_name = name
            break
    else:
        raise ValueError(
            f"preset {preset!r} uses an FSM outside the fuzz lattice"
        )
    return Hypothesis(
        table_entries=config.bimodal_entries,
        index_hash=config.index_hash,
        fsm_name=fsm_name,
        ghr_bits=config.ghr_bits,
    )


def plan_generation(
    lattice: HypothesisLattice, generation: int, seed: int
) -> List[Dict[str, Any]]:
    """Descriptors for one generation, deterministic given the inputs.

    Generation 0 is the fixed battery; later generations draw a seeded
    random pool, score it in one :meth:`~repro.fuzz.infer.
    HypothesisLattice.partition_scores` call and keep the leaders — the
    programs whose nuisance-agreed bits split the surviving hypotheses
    most finely.
    """
    if generation == 0:
        return battery_descriptors(seed)
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(1000 + generation,))
    )
    pool = [random_descriptor(rng) for _ in range(_POOL_SIZE)]
    scores = lattice.partition_scores(
        [program_from_descriptor(desc) for desc in pool]
    )
    scored = [
        (score, -i, desc) for i, (score, desc) in enumerate(zip(scores, pool))
    ]
    scored.sort(key=lambda item: (item[0], item[1]), reverse=True)
    return [desc for _, _, desc in scored[:_PICK]]


@dataclass(frozen=True)
class FuzzVerdict:
    """Outcome of one fuzzing session."""

    preset: str
    seed: int
    scale: int
    generations_run: int
    n_trials: int
    survivors: Tuple[Hypothesis, ...]
    #: Scheduling provenance (excluded from the digest: a resumed or
    #: store-served run must digest identically to a cold one).
    resumed_shards: int
    cached_shards: int

    @property
    def converged(self) -> bool:
        return len(self.survivors) == 1

    def matches_truth(self) -> bool:
        """True iff the session converged to the preset's true geometry."""
        return self.converged and self.survivors[0] == true_hypothesis(
            self.preset
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "scale": self.scale,
            "generations_run": self.generations_run,
            "n_trials": self.n_trials,
            "survivors": [h.to_dict() for h in self.survivors],
            "resumed_shards": self.resumed_shards,
            "cached_shards": self.cached_shards,
            "digest": self.digest(),
        }

    def digest(self) -> str:
        """Canonical SHA-256 of the science (not the scheduling path)."""
        payload = json.dumps(
            {
                "preset": self.preset,
                "seed": self.seed,
                "scale": self.scale,
                "generations_run": self.generations_run,
                "n_trials": self.n_trials,
                "survivors": [h.to_dict() for h in self.survivors],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_fuzz(
    preset: str,
    *,
    seed: int = 0,
    generations: int = 6,
    shards: int = 4,
    scale: int = 1,
    root=None,
    store=None,
    checkpoint_dir=None,
    pre_trial: Optional[Callable[[int], None]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzVerdict:
    """Reverse-engineer ``preset``'s geometry through the service.

    ``root`` wires the standard service layout (``root/store`` content
    store shared with every other tenant, ``root/checkpoints`` for
    per-generation resume); ``store``/``checkpoint_dir`` override the
    pieces individually.  ``scale`` shrinks the oracle's tables by the
    usual divisor for fast smoke runs — the *lattice* always reasons at
    full-size geometry, so only ``scale=1`` verdicts are meaningful
    against :func:`true_hypothesis`.
    """
    PRESETS[preset]  # fail fast, with the registry's KeyError message
    if root is not None:
        from repro import store as repro_store
        from repro.service.server import service_dirs

        dirs = service_dirs(root)
        if store is None:
            store = repro_store.ContentStore(dirs["store"])
        if checkpoint_dir is None:
            checkpoint_dir = dirs["checkpoints"]
    service = CampaignService(
        store=store,
        checkpoint_dir=checkpoint_dir,
        pre_trial=pre_trial,
    )
    lattice = HypothesisLattice()
    generations_run = 0
    n_trials = 0
    resumed = 0
    cached = 0
    for generation in range(generations):
        descriptors = plan_generation(lattice, generation, seed)
        spec = CampaignSpec(
            name=f"fuzz-{preset}-g{generation}",
            tenant="fuzz",
            preset=preset,
            scale=scale,
            seed=seed,
            n_blocks=len(descriptors),
            shards=min(shards, len(descriptors)),
            workload="fuzz",
            params=json.dumps(
                {"descriptors": descriptors}, sort_keys=True
            ),
        )
        cid = service.submit(spec)
        service.run_until_complete()
        state = service.campaign(cid)
        aggregate = state.aggregate()
        resumed += state.resumed_shards
        cached += state.cached_shards
        n_trials += aggregate.n_trials
        generations_run += 1
        records = aggregate.records()
        lattice.observe(
            [program_from_descriptor(r["descriptor"]) for r in records],
            [r["hits"] for r in records],
        )
        if log is not None:
            log(
                f"generation {generation}: {len(descriptors)} programs, "
                f"{int(lattice.alive.sum())} hypotheses alive "
                f"(resumed={state.resumed_shards} "
                f"cached={state.cached_shards})"
            )
        if lattice.converged:
            break
    return FuzzVerdict(
        preset=preset,
        seed=seed,
        scale=scale,
        generations_run=generations_run,
        n_trials=n_trials,
        survivors=lattice.survivors(),
        resumed_shards=resumed,
        cached_shards=cached,
    )
