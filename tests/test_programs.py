"""Programs and the slice scheduler."""

import numpy as np
import pytest

from repro.bpu import haswell
from repro.bpu.fsm import State
from repro.core.calibration import find_block
from repro.core.covert import build_dictionary, error_rate
from repro.core.patterns import DecodedState
from repro.cpu import PhysicalCore, Process
from repro.cpu.counters import CounterKind
from repro.mitigations import BtbFlushOnContextSwitch
from repro.system.programs import BranchOp, Program, SliceScheduler, Yield


def program_from_branches(process: Process, branches) -> Program:
    """Wrap a plain iterable of ``(address, taken)`` pairs as a Program."""

    def body(_program: Program):
        for address, taken in branches:
            yield BranchOp(address, taken)

    return Program(process, body)


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(16), seed=101)


class TestProgram:
    def test_runs_branches_until_slice_limit(self, core):
        program = program_from_branches(
            Process("p"), [(0x100 + i, True) for i in range(10)]
        )
        assert program.run_slice(core, 4) == 4
        assert not program.finished
        assert len(program.executions) == 4

    def test_finishes_when_stream_ends(self, core):
        program = program_from_branches(Process("p"), [(0x1, True)])
        assert program.run_slice(core, 10) == 1
        assert program.finished
        assert program.run_slice(core, 10) == 0

    def test_yield_ends_slice_early(self, core):
        def body(_):
            yield BranchOp(0x1, True)
            yield Yield()
            yield BranchOp(0x2, False)

        program = Program(Process("p"), body)
        assert program.run_slice(core, 10) == 1
        assert not program.finished
        assert program.run_slice(core, 10) == 1
        assert program.finished

    def test_last_execution(self, core):
        program = program_from_branches(Process("p"), [(0x5, True)])
        assert program.executions == []
        program.run_slice(core, 1)
        assert program.executions[-1].address == 0x5

    def test_program_logic_can_react_to_its_counters(self, core):
        """A program reading its own PMCs between branches — the spy's
        modus operandi."""
        observations = []

        def body(program):
            for _ in range(3):
                before = core.read_counter(
                    program.process, CounterKind.BRANCHES
                )
                yield BranchOp(0x9, True)
                after = core.read_counter(
                    program.process, CounterKind.BRANCHES
                )
                observations.append(after - before)

        program = Program(Process("p"), body)
        program.run_slice(core, 10)
        assert observations == [1, 1, 1]


class TestSliceScheduler:
    def test_round_robin_interleaving(self, core):
        order = []

        def make_body(tag, count):
            def body(_):
                for i in range(count):
                    order.append(tag)
                    yield BranchOp(0x1000 * (tag + 1) + i, True)

            return body

        a = Program(Process("a"), make_body(0, 4))
        b = Program(Process("b"), make_body(1, 4))
        scheduler = SliceScheduler(core, [a, b], default_slice=2)
        scheduler.run()
        assert order == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_victim_slowdown_slice_of_one(self, core):
        victim = program_from_branches(
            Process("victim"), [(0x30_0006D, True)] * 5
        )
        spy = program_from_branches(
            Process("spy"), [(0x200 + i, False) for i in range(50)]
        )
        scheduler = SliceScheduler(
            core, [spy, victim], slices={victim: 1, spy: 10}
        )
        scheduler.run_round()
        assert len(victim.executions) == 1
        assert len(spy.executions) == 10

    def test_run_returns_rounds(self, core):
        program = program_from_branches(
            Process("p"), [(i, True) for i in range(10)]
        )
        scheduler = SliceScheduler(core, [program], default_slice=3)
        rounds = scheduler.run()
        assert rounds == 4  # 3+3+3+1
        assert scheduler.all_finished

    def test_max_rounds_guard(self, core):
        def endless(_):
            while True:
                yield BranchOp(0x1, True)

        program = Program(Process("p"), endless)
        scheduler = SliceScheduler(core, [program], default_slice=1)
        with pytest.raises(RuntimeError):
            scheduler.run(max_rounds=5)

    def test_context_switch_hooks_fire(self, core):
        defense = BtbFlushOnContextSwitch()
        core.install_mitigation(defense)
        programs = [
            program_from_branches(Process("p"), [(0x1, True)] * 3),
            program_from_branches(Process("q"), [(0x2, True)] * 3),
        ]
        scheduler = SliceScheduler(core, programs, default_slice=1)
        scheduler.run()
        assert defense.flush_count >= 6

    def test_validation(self, core):
        with pytest.raises(ValueError):
            SliceScheduler(core, [])
        with pytest.raises(ValueError):
            SliceScheduler(
                core,
                [program_from_branches(Process("p"), [])],
                default_slice=0,
            )


class TestFullyScheduledAttack:
    def test_covert_channel_through_the_scheduler(self, core):
        """The complete attack loop with every branch scheduler-driven."""
        spy_process = Process("spy")
        victim_process = Process("victim")
        secret = np.random.default_rng(7).integers(0, 2, 12).tolist()
        address = victim_process.branch_address(0x30_0006D)

        compiled = find_block(
            core, spy_process, address, DecodedState.SN,
            block_branches=6000, repetitions=10,
        )
        block = compiled.block
        dictionary = build_dictionary(
            core.predictor.bimodal.pht.fsm, State.SN, (True, True)
        )
        received = []

        def spy_body(_program):
            for _ in secret:
                for a, t in zip(block.addresses, block.outcomes):
                    yield BranchOp(int(a), bool(t))
                yield Yield()
                hits = []
                for outcome in (True, True):
                    before = core.read_counter(
                        spy_process, CounterKind.BRANCH_MISSES
                    )
                    yield BranchOp(address, outcome)
                    after = core.read_counter(
                        spy_process, CounterKind.BRANCH_MISSES
                    )
                    hits.append(after - before <= 0)
                received.append(
                    dictionary[
                        ("H" if hits[0] else "M") + ("H" if hits[1] else "M")
                    ]
                )

        def victim_body(_program):
            for bit in secret:
                yield BranchOp(address, bit == 1)

        spy = Program(spy_process, spy_body)
        victim = Program(victim_process, victim_body)
        scheduler = SliceScheduler(
            core, [spy, victim], slices={spy: len(block) + 10, victim: 1}
        )
        scheduler.run()
        assert error_rate(secret, received) == 0.0
