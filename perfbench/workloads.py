"""The four benchmark workloads.

Each workload turns the benchmark seed into its inputs, pays its
one-time set-up in :meth:`setup`, then runs *units* — one small campaign
each, on inputs no earlier unit used — until the time is up.  A unit
returns how many trials it completed and a digest of its result.
:meth:`check` runs after the timed window and compares unit 0 against an
independent reference path (the per-trial engine for the in-process
workloads, in-process ``run_campaign`` for the wire workload, the
preset's true geometry for the fuzzer); every disagreement is returned
as a failure message.

Every workload keeps its service roots, stores and checkpoints in a
fresh temporary directory, so nothing a unit computes can be served
from an earlier unit's or an earlier run's cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bpu.presets import PRESETS
from repro.core.calibration import stability_experiment
from repro.cpu import PhysicalCore
from repro.fuzz.campaign import run_fuzz
from repro.service import CampaignSpec, run_campaign, run_worker
from repro.service.coordinator import Coordinator
from repro.service.transport import CoordinatorServer, TransportClient
from repro.store import ContentStore
from repro.system.noise import NoiseModel

#: The target PHT address of the paper's Fig. 4 campaign.
TARGET = 0x30006D

#: Presets in the zoo workloads, in a fixed order.
ZOO = tuple(PRESETS)


@dataclass(frozen=True)
class Size:
    """Per-unit input sizes (``full`` is the benchmark, ``smoke`` the test)."""

    #: fig4-inproc: blocks per campaign, branches per block, probes.
    fig4_blocks: int
    fig4_branches: int
    fig4_probes: int
    #: fig4-wire: blocks and shards per campaign (branches/probes as fig4).
    wire_blocks: int
    wire_shards: int
    #: zoo-inproc: blocks per preset, branches per block, probes.
    zoo_blocks: int
    zoo_branches: int
    zoo_probes: int


SIZES = {
    "full": Size(64, 100_000, 1000, 16, 8, 4, 20_000, 200),
    "smoke": Size(4, 2_000, 20, 4, 2, 2, 2_000, 20),
}

#: Blocks of unit 0 (per preset) re-run through the per-trial engine.
REFERENCE_BLOCKS = 2


def unit_seed(seed: int, unit: int) -> int:
    """A 32-bit input seed for one unit, pure in ``(seed, unit)``."""
    state = np.random.SeedSequence([seed, unit]).generate_state(1)
    return int(state[0])


#: Seed of the warm-up inputs (set-up runs them once before timing).
WARMUP_SEED = 2**31 - 1


def assessments_digest(assessments) -> str:
    """SHA-256 over the assessment list's science fields, in order."""
    rows = [
        [a.seed, a.tt_pattern, a.tt_frequency, a.nn_pattern, a.nn_frequency]
        for a in assessments
    ]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _quiet(*_args) -> None:
    pass


@dataclass
class UnitResult:
    trials: int
    #: Digest(s) of the unit's science, by label.
    digests: Dict[str, str]


class Workload:
    """Base class: input derivation, attempt accounting, temp roots."""

    name = ""

    def __init__(self, seed: int, size: Size, tmp: Path) -> None:
        self.seed = seed
        self.size = size
        self.tmp = tmp
        self.units: List[UnitResult] = []
        #: Operations besides trials that count as attempts.
        self.extra_attempts = 0

    def setup(self) -> None:
        """Pay the one-time cost (server start, first-campaign warm-up)."""

    def run_unit(self, index: int) -> UnitResult:
        raise NotImplementedError

    def check(self) -> List[str]:
        return []

    def close(self) -> None:
        pass

    def stores(self) -> List[ContentStore]:
        """The service content stores this workload wrote to."""
        return []


def _campaign(preset: str, core_seed: int, seed_start: int, n_blocks: int,
              branches: int, probes: int, backend: str = "manycore"):
    return stability_experiment(
        lambda: PhysicalCore(PRESETS[preset](), seed=core_seed),
        TARGET,
        n_blocks=n_blocks,
        block_branches=branches,
        repetitions=probes,
        noise=NoiseModel.isolated(),
        seed_start=seed_start,
        backend=backend,
    )


class Fig4InProc(Workload):
    """The paper's Fig. 4 campaign through the manycore engine."""

    name = "fig4-inproc"

    def _run(self, seed: int, n_blocks: int, backend: str = "manycore"):
        s = self.size
        return _campaign("skylake", seed & 0xFFFF, seed, n_blocks,
                         s.fig4_branches, s.fig4_probes, backend)

    def setup(self) -> None:
        self._run(WARMUP_SEED, 2)

    def run_unit(self, index: int) -> UnitResult:
        seed = unit_seed(self.seed, index)
        assessments = self._run(seed, self.size.fig4_blocks)
        if index == 0:
            self._unit0 = assessments
        return UnitResult(len(assessments),
                          {"skylake": assessments_digest(assessments)})

    def check(self) -> List[str]:
        n = REFERENCE_BLOCKS
        reference = self._run(unit_seed(self.seed, 0), n, backend="process")
        if assessments_digest(reference) != assessments_digest(self._unit0[:n]):
            return ["fig4-inproc: manycore disagrees with the per-trial engine"]
        return []


class ZooInProc(Workload):
    """A small Fig.-4-shaped campaign on every zoo preset (manycore)."""

    name = "zoo-inproc"

    def _run(self, preset: str, seed: int, n_blocks: int,
             backend: str = "manycore"):
        s = self.size
        return _campaign(preset, seed & 0xFFFF, seed, n_blocks,
                         s.zoo_branches, s.zoo_probes, backend)

    def setup(self) -> None:
        for preset in ZOO:
            self._run(preset, WARMUP_SEED, 1)

    def run_unit(self, index: int) -> UnitResult:
        seed = unit_seed(self.seed, index)
        digests, trials, first = {}, 0, {}
        for preset in ZOO:
            assessments = self._run(preset, seed, self.size.zoo_blocks)
            digests[preset] = assessments_digest(assessments)
            first[preset] = assessments
            trials += len(assessments)
        if index == 0:
            self._unit0 = first
        return UnitResult(trials, digests)

    def check(self) -> List[str]:
        n = REFERENCE_BLOCKS
        seed = unit_seed(self.seed, 0)
        failures = []
        for preset in ZOO:
            reference = self._run(preset, seed, n, backend="process")
            if assessments_digest(reference) != assessments_digest(
                    self._unit0[preset][:n]):
                failures.append(
                    f"zoo-inproc: {preset} manycore disagrees with the "
                    "per-trial engine")
        return failures


class Fig4Wire(Workload):
    """The Fig. 4 campaign as a leased, sharded service campaign.

    Submitted over loopback HTTP to an in-process coordinator and
    drained by ``min(2, nproc)`` ``run_worker`` threads.
    """

    name = "fig4-wire"

    def __init__(self, seed: int, size: Size, tmp: Path) -> None:
        super().__init__(seed, size, tmp)
        self.workers = min(2, os.cpu_count() or 1)
        self.server: Optional[CoordinatorServer] = None

    def spec(self, seed: int, n_blocks: int, shards: int, label: str):
        s = self.size
        return CampaignSpec(
            name=label,
            scale=1,
            seed=seed & 0xFFFF,
            target_address=TARGET,
            n_blocks=n_blocks,
            block_branches=s.fig4_branches,
            repetitions=s.fig4_probes,
            seed_start=seed,
            shards=shards,
        )

    def setup(self) -> None:
        self.coordinator = Coordinator(self.tmp / "service", log=_quiet)
        self.server = CoordinatorServer(self.coordinator)
        self.server.__enter__()
        self.client = TransportClient(self.server.url)
        self._drain(self.spec(WARMUP_SEED, 2, 2, "warmup"))

    def _drain(self, spec: CampaignSpec) -> Dict[str, Any]:
        """Submit ``spec`` and run workers until the coordinator drains."""
        self.client.call("submit", {"spec": spec.to_dict()})
        errors: List[BaseException] = []

        def work(k: int) -> None:
            try:
                code = run_worker(self.server.url, worker_id=f"bench-{k}",
                                  once=True, poll_seconds=0.02, log=_quiet)
            except Exception as exc:  # reported as a failed unit
                errors.append(exc)
                return
            if code != 0:
                errors.append(RuntimeError(f"worker exited {code}"))

        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(self.workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError(f"fig4-wire worker failed: {errors[0]!r}")
        path = (self.tmp / "service" / "results"
                / f"{spec.campaign_id()}.json")
        return json.loads(path.read_text())

    def run_unit(self, index: int) -> UnitResult:
        spec = self.spec(unit_seed(self.seed, index), self.size.wire_blocks,
                         self.size.wire_shards, f"wire-{index}")
        result = self._drain(spec)
        # One submit call plus one upload per shard.
        self.extra_attempts += 1 + spec.shards
        if index == 0:
            self._spec0 = spec
        return UnitResult(int(result["n_trials"]), {"skylake": result["digest"]})

    def check(self) -> List[str]:
        reference = run_campaign(self._spec0).digest()
        if reference != self.units[0].digests["skylake"]:
            return ["fig4-wire: wire digest disagrees with run_campaign"]
        return []

    def close(self) -> None:
        if self.server is not None:
            self.server.__exit__(None, None, None)
            self.server = None

    def stores(self) -> List[ContentStore]:
        return [self.coordinator.store]


class FuzzZoo(Workload):
    """Closed-loop fuzzing sessions, one preset after another."""

    name = "fuzz-zoo"

    def __init__(self, seed: int, size: Size, tmp: Path) -> None:
        super().__init__(seed, size, tmp)
        self._stores: List[ContentStore] = []
        self.mismatches: List[str] = []

    def _session(self, preset: str, seed: int, label: str):
        root = self.tmp / label
        store = ContentStore(root / "store")
        self._stores.append(store)
        return run_fuzz(preset, seed=seed, store=store,
                        checkpoint_dir=root / "checkpoints")

    def setup(self) -> None:
        self._session("skylake", WARMUP_SEED, "warmup")

    def run_unit(self, index: int) -> UnitResult:
        preset = ZOO[index % len(ZOO)]
        verdict = self._session(preset, unit_seed(self.seed, index),
                                f"unit-{index}")
        if not verdict.matches_truth():
            self.mismatches.append(
                f"fuzz-zoo: unit {index} ({preset}) did not converge to "
                "the preset's true geometry")
        return UnitResult(verdict.n_trials, {preset: verdict.digest()})

    def check(self) -> List[str]:
        return list(self.mismatches)

    def stores(self) -> List[ContentStore]:
        return list(self._stores)


WORKLOADS = {
    cls.name: cls for cls in (Fig4InProc, Fig4Wire, FuzzZoo, ZooInProc)
}
