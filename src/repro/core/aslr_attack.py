"""ASLR derandomisation via directional-predictor collisions (paper §9.2).

"The attacker may learn not only whether a certain branch was taken or
not, but also detect the location of branch instruction in a victim's
virtual memory by observing branch collisions."

The 1-level PHT is indexed by ``address mod N`` (N = table size), so a
victim branch *collides* with a spy branch exactly when their addresses
are congruent mod N.  The attacker knows the branch's link-time offset in
the victim binary; ASLR hides the load base.  By priming a candidate
address to a strong state, triggering the victim, and probing, the
attacker detects whether the victim's branch landed on that entry —
scanning candidate congruence classes recovers ``load_base mod N``, i.e.
``log2(N)`` bits of ASLR entropy beyond the alignment bits (14 bits on
the 16384-entry table, which is why the paper calls the direction
predictor "a unique candidate for this class of attacks" now that
BTB-based variants are mitigated).

Detection must work whatever direction the victim's branch takes, so each
candidate is tested from both strong states:

* prime SN, probe TT: a taken victim branch moves SN→WN and the second
  probe hits (``MH`` instead of the ``MM`` baseline);
* prime WN, probe TT: baseline ``MH``; a taken victim branch yields
  ``HH`` and a not-taken one ``MM`` — discriminative in both directions
  on every modelled FSM, including Skylake's sticky-taken variant.

A candidate is flagged when either test observes a state change across
several trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence


from repro.bpu.fsm import State
from repro.core.prime_probe import prime_direct, probe_pair
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.system.scheduler import AttackScheduler, NoiseSetting

__all__ = ["CandidateScore", "probe_collision", "recover_load_base"]


@dataclass(frozen=True)
class CandidateScore:
    """Collision evidence for one candidate congruence class."""

    candidate_address: int
    #: Fraction of trials in which a collision-consistent change was seen.
    score: float


def probe_collision(
    core: PhysicalCore,
    spy: Process,
    candidate_address: int,
    trigger: Callable[[], None],
    *,
    trials: int = 8,
    scheduler: Optional[AttackScheduler] = None,
) -> float:
    """Fraction of trials showing a victim-induced change at a candidate.

    Uses direct priming with the spy's own branch at the candidate
    address (no randomisation block needed: only this one entry must be
    controlled, and the spy's branch is freshly placed so it runs in
    1-level mode).
    """
    scheduler = scheduler or AttackScheduler(core, NoiseSetting.ISOLATED)
    hits = 0
    for trial in range(trials):
        # Alternate prime polarity.  SN/TT turns a taken victim branch
        # into MH (vs. MM baseline); WN/TT is sensitive in *both*
        # directions (victim taken -> HH, victim not-taken -> MM, vs. MH
        # baseline) and, unlike ST/NN, stays discriminative under the
        # Skylake sticky-taken FSM.
        if trial % 2 == 0:
            prime, probe, baseline = State.SN, (True, True), "MM"
        else:
            prime, probe, baseline = State.WN, (True, True), "MH"
        prime_direct(core, spy, candidate_address, prime)
        scheduler.stage_gap()
        scheduler.victim_turn(trigger)
        scheduler.stage_gap()
        pattern = probe_pair(core, spy, candidate_address, probe).pattern
        if pattern != baseline:
            hits += 1
    return hits / trials


def recover_load_base(
    core: PhysicalCore,
    spy: Process,
    branch_link_offset: int,
    trigger: Callable[[], None],
    candidate_bases: Sequence[int],
    *,
    trials: int = 8,
    scheduler: Optional[AttackScheduler] = None,
) -> List[CandidateScore]:
    """Score every candidate load base by collision evidence.

    ``branch_link_offset`` is the spied branch's offset from the binary's
    link base (known from the victim binary); ``candidate_bases`` are the
    load bases ASLR could have chosen.  Bases congruent mod the PHT size
    are indistinguishable to this attack, so callers typically pass one
    representative per congruence class (see
    ``examples/aslr_bypass.py``).  Returns scores sorted descending; the
    true class should dominate.
    """
    pht_size = core.predictor.bimodal.pht.n_entries
    seen_classes = set()
    scores: List[CandidateScore] = []
    for base in candidate_bases:
        candidate = int(base) + int(branch_link_offset)
        congruence = candidate % pht_size
        if congruence in seen_classes:
            continue
        seen_classes.add(congruence)
        score = probe_collision(
            core,
            spy,
            candidate,
            trigger,
            trials=trials,
            scheduler=scheduler,
        )
        scores.append(CandidateScore(candidate_address=candidate, score=score))
    return sorted(scores, key=lambda s: s.score, reverse=True)
