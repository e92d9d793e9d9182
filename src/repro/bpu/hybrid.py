"""Combined (hybrid) branch predictor — paper Figure 1.

This is the structure the whole paper is about: a bimodal 1-level
predictor and a gshare 2-level predictor sharing the direction-prediction
role, arbitrated by a selector table, with a BTB on the side for targets.

Selection logic
---------------
For a branch the BPU has *not* seen recently (it misses the branch
identification table), the 1-level predictor supplies the prediction —
the §5.1 observation ("for new branches whose information is not stored
in the predictor history, the 1-level predictor is used").  For known
branches, the selector's choice counter decides.  On update, both
component PHTs train, the selector trains toward whichever component was
right when they disagree, the outcome shifts into the GHR, the branch is
recorded in the identification table, and taken branches refresh the BTB.

The whole object is shared per *physical core* — both hardware threads
see the same tables — which is the sharing BranchScope exploits (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bpu.bimodal import BimodalPredictor
from repro.bpu.bit import BranchIdentificationTable
from repro.bpu.btb import BranchTargetBuffer
from repro.bpu.ghr import GlobalHistoryRegister
from repro.bpu.gshare import GSharePredictor
from repro.bpu.pht import PatternHistoryTable
from repro.bpu.selector import Choice, SelectorTable
from repro.obs import trace as obs

__all__ = ["Component", "Prediction", "HybridPredictor"]

# Re-export the selector's Choice enum under the name used throughout the
# attack code; "component" is the paper's terminology.
Component = Choice


@dataclass(frozen=True)
class Prediction:
    """Outcome of a single prediction lookup (before resolution)."""

    #: Final predicted direction.
    taken: bool
    #: Which component produced the final prediction.
    component: Component
    #: True when the branch missed the identification table — i.e. the
    #: BPU treated it as new and forced the 1-level component (§5.1).
    cold: bool
    #: Index into the bimodal PHT this branch used.
    bimodal_index: int
    #: Index into the gshare PHT this branch used (under the GHR at
    #: prediction time).
    gshare_index: int
    #: The bimodal component's own prediction.
    bimodal_taken: bool
    #: The gshare component's own prediction.
    gshare_taken: bool
    #: Predicted target from the BTB, or None on BTB miss.
    target: Optional[int]


class HybridPredictor:
    """Figure 1's combined predictor, assembled from its components."""

    def __init__(
        self,
        bimodal_pht: PatternHistoryTable,
        gshare_pht: PatternHistoryTable,
        ghr: GlobalHistoryRegister,
        selector: SelectorTable,
        bit: BranchIdentificationTable,
        btb: BranchTargetBuffer,
        index_hash: str = "mod",
    ) -> None:
        self.index_hash = index_hash
        self.bimodal = BimodalPredictor(bimodal_pht, index_hash=index_hash)
        self.gshare = GSharePredictor(gshare_pht, ghr, index_hash=index_hash)
        self.ghr = ghr
        self.selector = selector
        self.bit = bit
        self.btb = btb

    # -- prediction ---------------------------------------------------------

    def predict(
        self,
        address: int,
        key: int = 0,
        partition=None,
    ) -> Prediction:
        """Look up the prediction for a branch at ``address``.

        ``key`` is the per-context index-randomisation key and
        ``partition`` the per-context table slice; both are identity
        (0 / None) unless a §10.2 mitigation is installed.
        """
        bimodal_index = self.bimodal.index(address, key, partition)
        gshare_index = self.gshare.index(address, key, partition)
        bimodal_taken = self.bimodal.pht.predict(bimodal_index)
        gshare_taken = self.gshare.pht.predict(gshare_index)

        cold = not self.bit.contains(address)
        if cold:
            component = Component.BIMODAL
        else:
            component = self.selector.choose(address)
        taken = bimodal_taken if component is Component.BIMODAL else gshare_taken

        entry = self.btb.lookup(address)
        target = entry.target if entry is not None else None
        return Prediction(
            taken=taken,
            component=component,
            cold=cold,
            bimodal_index=bimodal_index,
            gshare_index=gshare_index,
            bimodal_taken=bimodal_taken,
            gshare_taken=gshare_taken,
            target=target,
        )

    # -- training -----------------------------------------------------------

    def update(
        self,
        address: int,
        taken: bool,
        prediction: Prediction,
        *,
        target: Optional[int] = None,
        train_outcome: Optional[bool] = None,
    ) -> None:
        """Resolve a branch: train every structure with the actual outcome.

        Must be called with the :class:`Prediction` returned by the
        matching :meth:`predict` call so the same PHT entries are trained
        that produced the prediction (the GHR may have moved otherwise);
        the recorded per-component indices already encode any index key
        or partition in force at prediction time.

        ``train_outcome`` is the outcome recorded into the PHT FSMs,
        normally the architectural outcome ``taken``.  The stochastic-FSM
        mitigation (§10.2) passes a possibly-corrupted value: only PHT
        contents become unreliable, while selector training, the GHR,
        identification-table insertion and BTB allocation — everything an
        in-order resolution derives from the *architectural* outcome —
        still use the true one.

        A cold branch (identification-table miss) was forced onto the
        1-level predictor, so no component competition happened: its
        chooser entry is *reset* to the initial bias rather than trained
        (§5.1 — a new branch starts its life in 1-level mode).

        This is the single training path: :meth:`execute` and
        :meth:`repro.cpu.core.PhysicalCore.execute_branch` both resolve
        through here, so the select/train/GHR/BIT/BTB sequence exists
        exactly once.
        """
        train = taken if train_outcome is None else train_outcome
        tracer = obs.TRACER
        # Reading the before/after FSM levels costs several array lookups,
        # so the "bpu" transition event carries its own category gate on
        # top of the tracer-enabled gate.
        trace_bpu = tracer is not None and tracer.wants("bpu")
        if trace_bpu:
            selector_index = self.selector.index(address)
            before = (
                int(self.bimodal.pht.levels[prediction.bimodal_index]),
                int(self.gshare.pht.levels[prediction.gshare_index]),
                int(self.selector.counters[selector_index]),
            )
        self.bimodal.pht.update(prediction.bimodal_index, train)
        self.gshare.update(address, train, index=prediction.gshare_index)
        if prediction.cold:
            self.selector.reset_entry(address)
        else:
            self.selector.update(
                address,
                bimodal_correct=(prediction.bimodal_taken == taken),
                gshare_correct=(prediction.gshare_taken == taken),
            )
        self.ghr.shift_in(taken)
        self.bit.insert(address)
        if taken and target is not None:
            self.btb.allocate(address, target)
        if trace_bpu:
            tracer.emit(
                "bpu",
                "train",
                address=address,
                taken=taken,
                trained=train,
                component=prediction.component.name,
                cold=prediction.cold,
                bimodal_level=(
                    before[0],
                    int(self.bimodal.pht.levels[prediction.bimodal_index]),
                ),
                gshare_level=(
                    before[1],
                    int(self.gshare.pht.levels[prediction.gshare_index]),
                ),
                selector_counter=(
                    before[2],
                    int(self.selector.counters[selector_index]),
                ),
            )

    def execute(
        self,
        address: int,
        taken: bool,
        key: int = 0,
        partition=None,
        target: Optional[int] = None,
    ) -> Prediction:
        """Predict then immediately resolve one branch; returns the prediction."""
        prediction = self.predict(address, key, partition)
        self.update(address, taken, prediction, target=target)
        return prediction

    # -- checkpointing --------------------------------------------------------

    def snapshot(self) -> dict:
        """Deep copy of all predictor state (pair with :meth:`restore`)."""
        return {
            "bimodal": self.bimodal.pht.snapshot(),
            "gshare": self.gshare.pht.snapshot(),
            "ghr": self.ghr.snapshot(),
            "selector": self.selector.snapshot(),
            "bit": self.bit.snapshot(),
            "btb": self.btb.snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        """Restore predictor state captured by :meth:`snapshot`."""
        self.bimodal.pht.restore(snapshot["bimodal"])
        self.gshare.pht.restore(snapshot["gshare"])
        self.ghr.restore(snapshot["ghr"])
        self.selector.restore(snapshot["selector"])
        self.bit.restore(snapshot["bit"])
        self.btb.restore(snapshot["btb"])
