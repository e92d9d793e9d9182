"""Prime and probe primitives (paper §4 stages 1 and 3, §6).

* *Prime*: put the target PHT entry into a chosen state by executing the
  spy's colliding branch with chosen outcomes (three same-direction
  executions saturate a strong state; one more opposite execution reaches
  a weak state).  In the full attack the randomisation block does the
  priming; :func:`prime_direct` is the in-process variant used by the
  Table 1 experiment.
* *Probe*: execute the colliding branch twice with chosen outcomes,
  bracketing each execution with reads of the spy's own
  branch-misprediction counter — Listing 3's ``spy_function`` — and
  report the H/M pattern.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.bpu.fsm import FSMSpec, State
from repro.core.patterns import DecodedState, ProbeResult, decode_state
from repro.cpu.core import PhysicalCore
from repro.cpu.counters import CounterKind
from repro.cpu.process import Process

__all__ = [
    "prime_sequence_for",
    "prime_direct",
    "probe_pair",
    "probe_timed",
    "read_entry_state",
]


def prime_sequence_for(fsm: FSMSpec, state: State) -> Tuple[bool, ...]:
    """Branch outcomes that drive any FSM level to ``state``.

    Three same-direction executions saturate a 2-bit counter from any
    starting level (the paper primes with ``TTT``/``NNN``); weak states
    take one additional opposite-direction execution.  For the Skylake
    FSM the weak-taken state reached this way is the canonical (lower)
    one.
    """
    if state is State.ST:
        return (True,) * fsm.n_levels
    if state is State.SN:
        return (False,) * fsm.n_levels
    if state is State.WN:
        return (False,) * fsm.n_levels + (True,)
    # State.WT — saturate not-taken then take twice: SN -> WN -> WT.
    return (False,) * fsm.n_levels + (True, True)


def prime_direct(
    core: PhysicalCore,
    process: Process,
    address: int,
    state: State,
) -> List[bool]:
    """Stage 1, in-process variant: prime via the branch itself.

    Executes the branch at ``address`` with the outcome sequence from
    :func:`prime_sequence_for`; returns the per-execution hit flags (the
    Table 1 experiment records these too).
    """
    fsm = core.predictor.bimodal.pht.fsm
    outcomes = prime_sequence_for(fsm, state)
    return [
        core.execute_branch(process, address, taken).hit for taken in outcomes
    ]


def probe_pair(
    core: PhysicalCore,
    process: Process,
    address: int,
    outcomes: Sequence[bool] = (True, True),
) -> ProbeResult:
    """Stage 3: two probing branches, misprediction counter around each.

    This is Listing 3's ``spy_function``: for each probe branch, read the
    spy's branch-misprediction counter, execute the branch with the
    chosen outcome, read the counter again, and classify the execution
    as M (counter advanced) or H.  Counter reads go through
    :meth:`PhysicalCore.read_counter`, so noisy-counter mitigations
    corrupt exactly this observation.
    """
    if len(outcomes) != 2:
        raise ValueError("a probe is exactly two branch executions")
    hits = []
    for taken in outcomes:
        before = core.read_counter(process, CounterKind.BRANCH_MISSES)
        core.execute_branch(process, address, taken)
        after = core.read_counter(process, CounterKind.BRANCH_MISSES)
        hits.append(after - before <= 0)
    return ProbeResult(first_hit=hits[0], second_hit=hits[1])


def probe_timed(
    core: PhysicalCore,
    process: Process,
    address: int,
    outcomes: Sequence[bool] = (True, True),
) -> Tuple[int, int]:
    """Stage 3 without counters: rdtscp-timed probe (paper §8).

    Returns the observable latencies of the two probe executions; the
    caller classifies them against a timing calibration
    (:mod:`repro.core.timing_detect`).
    """
    if len(outcomes) != 2:
        raise ValueError("a probe is exactly two branch executions")
    latencies = [
        core.execute_branch(process, address, taken).latency
        for taken in outcomes
    ]
    return latencies[0], latencies[1]


def read_entry_state(
    core: PhysicalCore,
    process: Process,
    address: int,
    prepare: Callable[[], None],
) -> DecodedState:
    """Measure a PHT entry's state via the two-variant probe dictionary.

    ``prepare`` must recreate the state under measurement (e.g. re-apply
    a randomisation block); it is invoked once before each probe variant
    because probing is destructive.  Microarchitectural state is
    checkpointed/restored around the whole measurement so the caller's
    context is undisturbed.

    Only tests call it, and it is kept on purpose: it is the one-entry
    form of the §6.3 scan that MODELING.md §6 and §7 describe and time,
    and ``tests/test_prime_probe.py`` pins its decode against the
    known state of every entry it primes.
    """
    fsm = core.predictor.bimodal.pht.fsm
    checkpoint = core.checkpoint()
    prepare()
    tt = probe_pair(core, process, address, (True, True)).pattern
    core.restore(checkpoint)
    prepare()
    nn = probe_pair(core, process, address, (False, False)).pattern
    core.restore(checkpoint)
    return decode_state(fsm, tt, nn)
