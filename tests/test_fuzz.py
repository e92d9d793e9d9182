"""The reverse-engineering fuzzer (:mod:`repro.fuzz`).

Coverage layers, cheapest first: generator/oracle determinism, the
``hypothesis_hits`` op against the scalar reference and the reference
against the oracle, the batched-vs-per-program call and
chunked-vs-sequential observation differentials, the battery's
dimension separation, the closed-loop self-rediscovery of every zoo
preset (with its pinned seed-0 verdict digests), and
the service-tenancy contracts (worker-count invariance, warm-store
zero-dispatch reruns, partial-run resume) the acceptance criteria pin.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.bpu.hashes import fold_history, history_fold_width
from repro.bpu.presets import PRESETS
from repro.fuzz import workload
from repro.fuzz.campaign import (
    FuzzVerdict,
    plan_generation,
    run_fuzz,
    true_hypothesis,
)
from repro.fuzz.generate import (
    CANDIDATE_HISTORY_BITS,
    CANDIDATE_TABLE_SIZES,
    MAX_ADDRESS,
    BranchProgram,
    battery_descriptors,
    program_from_descriptor,
    random_descriptor,
)
from repro.fuzz.infer import (
    _CHUNK_WORK,
    SELECTOR_INITIALS,
    Hypothesis,
    HypothesisLattice,
    _columns,
    _fsm_space,
    _programs,
    _rows,
    default_lattice,
    simulate_program,
)
from repro.fuzz.oracle import PresetOracle
from repro.fuzz.workload import fuzz_trial
from repro.service.aggregate import RecordListAggregate
from repro.service.campaign import CampaignSpec
from repro.service.scheduler import CampaignService
from tests.conftest import chooser_programs, hybrid_hits

INTEL_PRESETS = ("skylake", "haswell", "sandy_bridge")

#: ``run_fuzz(preset, seed=0)`` verdict digests (the CI ``fuzz-smoke``
#: job checks the CLI against the same values).
PINNED_VERDICTS = {
    "skylake": "a885cec98cc48bdff1c78e250d71b90a"
    "9ec1d392c0af33938e8fdcb5c70231a4",
    "haswell": "43ba5ec4c580546484fc4b82bf3008ef"
    "c600e5e694d9b437da40b343aafc22f1",
    "sandy_bridge": "16319d48f99508db43c664d469ed7d07"
    "5d5b094177729656728db20d645f2a57",
    "tage_like": "f0e104c2795516a2e8cfb97c031a366d"
    "1987a15515971e4514d1685e52c5093f",
    "firestorm_like": "063816a47c02e022ea273d25eade3177"
    "ab0a7d1fecda031705960be9a8cdc3b5",
    "oryon_like": "0d5ca377ae95e14874f0662809ea227c"
    "2870c85da56ac743db7ab85ef57b1d19",
}


class TestGenerate:
    def test_battery_is_deterministic(self):
        assert battery_descriptors(7) == battery_descriptors(7)
        assert battery_descriptors(7) != battery_descriptors(8)

    def test_battery_descriptors_are_json_plain(self):
        descs = battery_descriptors(0)
        assert json.loads(json.dumps(descs)) == descs

    def test_decoder_is_pure(self):
        desc = {"family": "collision", "train": 10, "probe": 20}
        assert program_from_descriptor(desc) == program_from_descriptor(desc)

    def test_collision_family_shape(self):
        program = program_from_descriptor(
            {"family": "collision", "train": 0x100, "probe": 0x200}
        )
        assert program.addresses == (0x100, 0x100, 0x100, 0x200)
        assert program.outcomes == (True,) * 4
        assert program.observed == (3,)

    def test_history_family_shape(self):
        program = program_from_descriptor(
            {"family": "history", "address": 5, "period": 4, "repeats": 2}
        )
        assert program.outcomes == (True, True, True, False) * 2
        assert program.observed == tuple(range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            BranchProgram(addresses=(1,), outcomes=(), observed=())
        for address in (-1, MAX_ADDRESS):
            with pytest.raises(
                ValueError, match=r"addresses must lie in \[0, 16777216\)"
            ):
                BranchProgram((5, address), (True, True), ())
        assert len(BranchProgram((0, MAX_ADDRESS - 1), (True, True), ())) == 2
        with pytest.raises(ValueError):
            BranchProgram(
                addresses=(1, 2), outcomes=(True, True), observed=(1, 0)
            )
        with pytest.raises(ValueError):
            program_from_descriptor({"family": "nope"})
        with pytest.raises(ValueError):
            program_from_descriptor(
                {"family": "fsm", "address": 1, "taken": 0, "not_taken": 1}
            )

    def test_random_descriptor_reproducible(self):
        a = [random_descriptor(np.random.default_rng(3)) for _ in range(5)]
        b = [random_descriptor(np.random.default_rng(3)) for _ in range(5)]
        assert a == b

    def test_random_descriptors_decode(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            program = program_from_descriptor(random_descriptor(rng))
            assert len(program) >= 1


class TestOracle:
    def test_fresh_predictor_per_run(self):
        oracle = PresetOracle("haswell")
        program = program_from_descriptor(
            {"family": "fsm", "address": 0x999, "taken": 3, "not_taken": 3}
        )
        assert oracle.run(program) == oracle.run(program)

    def test_only_observed_bits_cross(self):
        oracle = PresetOracle("sandy_bridge")
        program = program_from_descriptor(
            {"family": "collision", "train": 0x10, "probe": 0x20}
        )
        assert len(oracle.run(program)) == 1

    def test_unknown_preset_fails_helpfully(self):
        with pytest.raises(KeyError, match="valid presets"):
            PresetOracle("sklake")

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_oracle_matches_hybrid_predictor(self, preset):
        """The oracle's one kernel call per program equals stepping a
        fresh ``HybridPredictor`` through it, under the active backend."""
        config = PRESETS[preset]()
        oracle = PresetOracle(preset)
        rng = np.random.default_rng(23)
        descs = battery_descriptors(0) + [
            random_descriptor(rng) for _ in range(30)
        ]
        programs = [program_from_descriptor(desc) for desc in descs]
        for program in programs + chooser_programs(config):
            assert oracle.run(program) == hybrid_hits(config, program)

    def test_one_kernel_op_per_program(self):
        oracle = PresetOracle("skylake")
        program = program_from_descriptor(
            {"family": "history", "address": 5, "period": 4, "repeats": 3}
        )
        kernels.reset_kernel_dispatch_counts()
        hits = oracle.run(program)
        assert sum(kernels.kernel_dispatch_counts().values()) == 1
        assert len(hits) == 12 and all(type(hit) is bool for hit in hits)

    def test_trials_share_one_oracle(self):
        descriptors = battery_descriptors(0)[:3]
        spec = CampaignSpec(
            name="fuzz-oracle",
            tenant="fuzz",
            preset="sandy_bridge",
            n_blocks=len(descriptors),
            workload="fuzz",
            params=json.dumps({"descriptors": descriptors}, sort_keys=True),
        )
        workload._oracle.cache_clear()
        for index in range(len(descriptors)):
            fuzz_trial(spec, index)
        info = workload._oracle.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestFoldHistory:
    def test_identity_when_history_fits(self):
        assert fold_history(0b1011, 12, 4096) == 0b1011
        assert history_fold_width(4096) == 12

    def test_chunked_xor(self):
        # 16-bit history into a 14-bit index: top 2 bits fold onto the
        # low end.  h = high2 || low14  ->  low14 ^ high2.
        low, high = 0x1ABC, 0b10
        h = (high << 14) | low
        assert fold_history(h, 16, 16384) == low ^ high

    def test_elementwise_on_arrays(self):
        values = np.array([0, 1, (1 << 20) | 5], dtype=np.int64)
        folded = fold_history(values, 24, 16384)
        expected = [fold_history(int(v), 24, 16384) for v in values]
        assert folded.tolist() == expected


def _scalar_bits(program, biases):
    """Scalar reference bits, shape (biases, K, observed)."""
    return np.array(
        [
            [simulate_program(program, h, bias) for h in default_lattice()]
            for bias in biases
        ],
        dtype=bool,
    )


def _op_bits(programs, biases, hypotheses=None):
    """One ``hypothesis_hits`` call: (biases, K, observed) over the
    default lattice (or ``hypotheses``), every program side by side."""
    step_table, predict_taken, _ = _fsm_space()
    return kernels.hypothesis_hits(
        *_programs(programs),
        *_rows(default_lattice() if hypotheses is None else hypotheses),
        step_table, predict_taken, biases, 7,
    )


@functools.lru_cache(maxsize=None)
def _battery_reference():
    programs = [program_from_descriptor(d) for d in battery_descriptors(0)]
    return [(p, _scalar_bits(p, SELECTOR_INITIALS)) for p in programs]


@st.composite
def descriptors(draw):
    """Program descriptors from all three families, within the decoder's
    validity ranges (collision probes biased toward near-collisions)."""
    family = draw(st.sampled_from(["collision", "fsm", "history"]))
    address = draw(st.integers(0, MAX_ADDRESS - 1))
    if family == "collision":
        bit = draw(st.integers(0, 23))
        probe = draw(
            st.sampled_from(
                [
                    address + (1 << bit),
                    address ^ (1 << bit),
                    address ^ 2 ^ (2 << bit),
                ]
            )
        ) % MAX_ADDRESS
        return {
            "family": "collision",
            "train": address,
            "probe": probe if probe != address else address ^ 1,
        }
    if family == "fsm":
        return {
            "family": "fsm",
            "address": address,
            "taken": draw(st.integers(1, 5)),
            "not_taken": draw(st.integers(1, 6)),
        }
    return {
        "family": "history",
        "address": address,
        "period": draw(st.integers(2, 27)),
        "repeats": draw(st.integers(1, 12)),
    }


class TestSimulatorDifferential:
    """``hypothesis_hits`` on the active backend == the scalar reference,
    bit for bit, on the whole lattice, and the reference == the oracle
    at each preset's true geometry and bias.  (``tests/test_kernels.py::
    TestHypothesisHits`` runs the op on every backend.)"""

    def test_full_lattice_on_battery(self):
        """Each battery program alone, and one bias at a time."""
        for program, reference in _battery_reference():
            got = _op_bits([program], SELECTOR_INITIALS)
            assert np.array_equal(got, reference), program
            for b, bias in enumerate(SELECTOR_INITIALS):
                assert np.array_equal(
                    _op_bits([program], (bias,))[0], reference[b]
                )

    @given(desc=descriptors())
    @settings(max_examples=25, deadline=None)
    def test_full_lattice_on_drawn_descriptors(self, desc):
        program = program_from_descriptor(desc)
        assert np.array_equal(
            _op_bits([program], SELECTOR_INITIALS),
            _scalar_bits(program, SELECTOR_INITIALS),
        ), desc

    def test_counter_saturation_ends(self):
        """Biases 0 and 7 start the choice counter at either saturated
        end: gshare from the second visit on, or only after seven
        gshare-only wins."""
        for program, _ in _battery_reference():
            if program.addresses[0] != program.addresses[-1]:
                continue  # collision probes: the probe runs cold
            assert np.array_equal(
                _op_bits([program], (0, 7)), _scalar_bits(program, (0, 7))
            ), program

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_reference_at_the_truth_equals_the_oracle(self, preset):
        """The soundness premise, against an independent predictor: the
        true geometry under the preset's own bias reproduces the oracle
        (``HybridPredictor`` semantics through ``predictor_hits``) on the
        battery and on random programs."""
        oracle = PresetOracle(preset)
        truth = true_hypothesis(preset)
        bias = PRESETS[preset]().selector_initial
        rng = np.random.default_rng(np.random.SeedSequence([31, 0]))
        for desc in battery_descriptors(0) + [
            random_descriptor(rng) for _ in range(20)
        ]:
            program = program_from_descriptor(desc)
            assert simulate_program(program, truth, bias) == oracle.run(
                program
            ), desc

    def test_masked_agreement_equals_two_scalar_runs(self):
        lattice = HypothesisLattice()
        for program, reference in _battery_reference():
            first, mask, _ = lattice._masked([program])
            assert np.array_equal(first, reference[0])
            assert np.array_equal(mask, reference[0] == reference[1])

    def test_transient_memory_stays_small(self):
        """The largest battery program (312 steps) simulates in well
        under 2.5 MB of transient allocations."""
        import tracemalloc

        program = max(
            (p for p, _ in _battery_reference()), key=lambda p: len(p)
        )
        assert len(program) == 312
        lattice = HypothesisLattice()
        lattice._masked([program])  # warm caches outside the measurement
        tracemalloc.start()
        try:
            lattice._masked([program])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 1024 * 1024

    def test_rejects_bias_outside_counter_range(self):
        program = program_from_descriptor(battery_descriptors(0)[0])
        with pytest.raises(ValueError, match="biases"):
            _op_bits([program], (8,))
        with pytest.raises(ValueError, match="biases"):
            simulate_program(program, default_lattice()[0], 8)

    @pytest.mark.parametrize(
        "program",
        [
            BranchProgram((), (), ()),
            BranchProgram((0x40, 0x40), (True, False), ()),
        ],
        ids=["empty-program", "no-observed-steps"],
    )
    def test_no_observed_steps_gives_empty_rows(self, program):
        lattice = HypothesisLattice()
        k = len(lattice.hypotheses)
        assert _op_bits([program], (1,)).shape == (1, k, 0)
        assert simulate_program(program, lattice.hypotheses[0], 1) == ()
        assert lattice.observe([program], [[]]) == k
        assert lattice.partition_scores([program]) == [1]


class TestBatterySeparation:
    def test_collisions_separate_all_size_hash_classes(self):
        """The 8 (size, hash) classes get pairwise-distinct agreed
        signatures from the battery's collision programs alone."""
        points = [
            Hypothesis(size, index_hash, "textbook", 12)
            for size in CANDIDATE_TABLE_SIZES
            for index_hash in ("mod", "fold")
        ]
        lattice = HypothesisLattice(points)
        keys = [[] for _ in points]
        for desc in battery_descriptors(0):
            if desc["family"] != "collision":
                continue
            program = program_from_descriptor(desc)
            signatures, mask, _ = lattice._masked([program])
            for j in range(len(points)):
                keys[j].append(
                    tuple(
                        int(s) if m else 2
                        for s, m in zip(signatures[j], mask[j])
                    )
                )
        assert len({tuple(k) for k in keys}) == len(points)

    def test_history_periods_separate_ghr_classes(self):
        """With folded history, the period sweep splits every candidate
        GHR length (this was architecturally impossible pre-fold)."""
        points = [
            Hypothesis(16384, "mod", "textbook", bits)
            for bits in CANDIDATE_HISTORY_BITS
        ]
        lattice = HypothesisLattice(points)
        keys = [[] for _ in points]
        for desc in battery_descriptors(0):
            if desc["family"] != "history":
                continue
            program = program_from_descriptor(desc)
            signatures, mask, _ = lattice._masked([program])
            for j in range(len(points)):
                keys[j].append(
                    tuple(
                        int(s) if m else 2
                        for s, m in zip(signatures[j], mask[j])
                    )
                )
        assert len({tuple(k) for k in keys}) == len(points)


class TestSelfRediscovery:
    """The acceptance criterion: geometry recovered from probes alone."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_full_zoo_converges_to_truth(self, preset):
        verdict = run_fuzz(preset, seed=0, generations=6)
        assert verdict.matches_truth(), verdict.survivors
        assert verdict.survivors[0] == true_hypothesis(preset)

    @pytest.mark.parametrize("preset", sorted(PINNED_VERDICTS))
    def test_default_verdict_digest_is_pinned(self, preset):
        verdict = run_fuzz(preset, seed=0)
        assert (verdict.generations_run, verdict.n_trials) == (1, 30)
        assert verdict.digest() == PINNED_VERDICTS[preset]

    def test_truth_never_eliminated_midway(self):
        lattice = HypothesisLattice()
        oracle = PresetOracle("skylake")
        truth = true_hypothesis("skylake")
        truth_index = lattice.hypotheses.index(truth)
        for desc in battery_descriptors(0):
            program = program_from_descriptor(desc)
            lattice.observe([program], [oracle.run(program)])
            assert lattice.alive[truth_index]

    def test_verdict_digest_excludes_scheduling(self):
        a = run_fuzz("sandy_bridge", seed=0)
        forged = FuzzVerdict(
            preset=a.preset,
            seed=a.seed,
            scale=a.scale,
            generations_run=a.generations_run,
            n_trials=a.n_trials,
            survivors=a.survivors,
            resumed_shards=a.resumed_shards + 3,
            cached_shards=a.cached_shards + 1,
        )
        assert forged.digest() == a.digest()

    def test_true_hypothesis_rejects_foreign_fsm(self):
        import dataclasses

        from repro.bpu import presets as presets_mod
        from repro.bpu.fsm import textbook_2bit_fsm

        def weird_fsm():
            return dataclasses.replace(textbook_2bit_fsm(), name="weird")

        assert weird_fsm().name == "weird"  # a broken factory fails here
        config = dataclasses.replace(
            presets_mod.haswell(), fsm_factory=weird_fsm
        )
        presets_mod.PRESETS["_weird"] = lambda: config
        try:
            with pytest.raises(ValueError, match="outside the fuzz lattice"):
                true_hypothesis("_weird")
        finally:
            del presets_mod.PRESETS["_weird"]


class TestPlanGeneration:
    def test_generation_zero_is_the_battery(self):
        lattice = HypothesisLattice()
        assert plan_generation(lattice, 0, 4) == battery_descriptors(4)

    def test_refinement_is_deterministic_and_ranked(self):
        lattice = HypothesisLattice()
        a = plan_generation(lattice, 1, 4)
        b = plan_generation(lattice, 1, 4)
        assert a == b
        assert len(a) == 8
        assert a != plan_generation(lattice, 2, 4)
        scores = lattice.partition_scores(
            [program_from_descriptor(d) for d in a]
        )
        assert scores == sorted(scores, reverse=True)


def _full_masked(program, hypotheses=None):
    """Reference: the signatures and agreed mask of every lattice row,
    dead or alive, from one op call over ``program`` alone."""
    by_bias = _op_bits([program], SELECTOR_INITIALS, hypotheses)
    return by_bias[0], (by_bias == by_bias[0]).all(axis=0)


class _FullWidthLattice(HypothesisLattice):
    """Reference scorer: every row of the lattice, dead rows filtered
    out afterwards (the lattice's computation before it simulated the
    survivors only)."""

    def partition_scores(self, programs):
        if not self.alive.any():
            return [0] * len(programs)
        scores = []
        for program in programs:
            signatures, mask = _full_masked(program, self.hypotheses)
            keys = np.where(mask, signatures.astype(np.int8), np.int8(2))
            scores.append(len({row.tobytes() for row in keys[self.alive]}))
        return scores


def _partial_masks():
    """Chosen partial survivor sets over the default lattice's rows."""
    lattice = default_lattice()
    truth = lattice.index(true_hypothesis("skylake"))
    near = [
        i
        for i, h in enumerate(lattice)
        if sum(
            a != b
            for a, b in zip(
                h.to_dict().values(), lattice[truth].to_dict().values()
            )
        )
        <= 1
    ]
    masks = {
        "every-third": np.arange(len(lattice)) % 3 == 0,
        "truth-neighbourhood": np.isin(np.arange(len(lattice)), near),
        "one-fsm": np.array([h.fsm_name == "skylake" for h in lattice]),
        "single": np.arange(len(lattice)) == truth,
        "all-but-first": np.arange(len(lattice)) != 0,
    }
    rng = np.random.default_rng(18)
    for k in (2, 7, 40):
        mask = np.zeros(len(lattice), dtype=bool)
        mask[rng.choice(len(lattice), size=k, replace=False)] = True
        masks[f"random-{k}"] = mask
    return masks


@pytest.fixture
def op_calls(monkeypatch):
    """Records the rows, programs and steps of every ``hypothesis_hits``
    call."""
    calls = []
    op = kernels.hypothesis_hits

    def counting(addresses, outcomes, starts, observed, sizes, *rest):
        calls.append((len(sizes), len(starts), len(addresses)))
        return op(addresses, outcomes, starts, observed, sizes, *rest)

    monkeypatch.setattr(kernels, "hypothesis_hits", counting)
    return calls


class TestSurvivorBank:
    """Programs simulate only the surviving rows (the op's row bank is
    the survivors), and that never changes what the lattice
    concludes."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_alive_matches_full_bank_reference(self, preset):
        """Seed-0 battery plus 8 random programs: after every observe,
        ``alive`` equals masking every lattice row's result by hand."""
        oracle = PresetOracle(preset)
        rng = np.random.default_rng(np.random.SeedSequence([18, 0]))
        descs = battery_descriptors(0) + [
            random_descriptor(rng) for _ in range(8)
        ]
        lattice = HypothesisLattice()
        reference = np.ones(len(lattice.hypotheses), dtype=bool)
        for desc in descs:
            program = program_from_descriptor(desc)
            hits = oracle.run(program)
            signatures, mask = _full_masked(program)
            refuted = (mask & (signatures != np.array(hits, bool))).any(1)
            reference &= ~refuted
            assert lattice.observe([program], [hits]) == reference.sum()
            assert np.array_equal(lattice.alive, reference), desc
        assert true_hypothesis(preset) in lattice.survivors()

    @pytest.mark.parametrize("name", sorted(_partial_masks()))
    def test_partial_survivors_score_and_plan_like_full_bank(self, name):
        alive = _partial_masks()[name]
        lattice, reference = HypothesisLattice(), _FullWidthLattice()
        lattice.alive[:] = alive
        reference.alive[:] = alive
        rng = np.random.default_rng(5)
        programs = [
            program_from_descriptor(d) for d in battery_descriptors(0)[::4]
        ] + [
            program_from_descriptor(random_descriptor(rng)) for _ in range(6)
        ]
        assert lattice.partition_scores(
            programs
        ) == reference.partition_scores(programs)
        for seed in (0, 3):
            assert plan_generation(lattice, 1, seed) == plan_generation(
                reference, 1, seed
            )

    @given(
        alive=st.lists(st.booleans(), min_size=120, max_size=120).filter(
            any
        ),
        desc=descriptors(),
    )
    @settings(max_examples=25, deadline=None)
    def test_survivor_rows_equal_full_bank_rows(self, alive, desc):
        program = program_from_descriptor(desc)
        lattice = HypothesisLattice()
        lattice.alive[:] = alive
        rows = np.flatnonzero(alive)
        signatures, mask, _ = lattice._masked([program])
        full_signatures, full_mask = _full_masked(program)
        assert np.array_equal(signatures, full_signatures[rows])
        assert np.array_equal(mask, full_mask[rows])

    def test_zero_survivors(self, op_calls):
        """Once nothing survives, nothing is simulated: no op call over
        zero rows (what "no bank over zero rows" pinned), and a lattice
        of no hypotheses is refused."""
        truth = true_hypothesis("skylake")
        lattice = HypothesisLattice([truth])
        program = program_from_descriptor(battery_descriptors(0)[-1])
        hits = PresetOracle("skylake").run(program)
        # Inverted hits refute the only hypothesis on its agreed bits.
        assert lattice.observe([program], [[not h for h in hits]]) == 0
        assert op_calls == [(1, 1, len(program))]
        assert not lattice.alive.any() and lattice.survivors() == ()
        assert lattice.observe([program], [hits]) == 0
        assert lattice.partition_scores([program, program]) == [0, 0]
        signatures, mask, rows = lattice._masked([program])
        assert signatures.shape == mask.shape == (0, len(hits))
        assert rows.shape == (0,)
        with pytest.raises(ValueError, match="hit bits"):
            lattice.observe([program], [hits[:-1]])
        assert op_calls == [(1, 1, len(program))]
        with pytest.raises(ValueError, match="at least one hypothesis"):
            HypothesisLattice([])

    def test_work_follows_survivors_on_skylake_battery(self, op_calls):
        """The battery observed in one call takes two op calls: the 24
        short programs share one over the full lattice, the six history
        programs one over at most 5 rows.  Each call covers exactly the
        survivors before its first program (the survivors bank's rows)
        and stays within the chunk bound."""
        oracle = PresetOracle("skylake")
        programs = [program_from_descriptor(d) for d in battery_descriptors(0)]
        hits = [oracle.run(p) for p in programs]
        sequential, before = HypothesisLattice(), []
        for program, bits in zip(programs, hits):
            before.append(int(sequential.alive.sum()))
            sequential.observe([program], [bits])
        op_calls.clear()
        lattice = HypothesisLattice()
        lattice.observe(programs, hits)
        assert np.array_equal(lattice.alive, sequential.alive)
        assert [(rows, n) for rows, n, _ in op_calls] == [
            (120, 24),
            (before[24], 6),
        ]
        assert before[24] <= 5
        for rows, _, steps in op_calls:
            assert rows * steps <= _CHUNK_WORK


def _sequential_alive(programs, hits, hypotheses=None):
    """Reference: ``alive`` after observing one program per call."""
    lattice = HypothesisLattice(hypotheses)
    for program, bits in zip(programs, hits):
        lattice.observe([program], [bits])
    return lattice.alive


@st.composite
def program_lists(draw):
    """1-5 drawn programs; some share one address (each must still start
    cold), some have their observed steps stripped."""
    descs = draw(st.lists(descriptors(), min_size=1, max_size=5))
    if draw(st.booleans()):
        shared = descs[0].get("address", descs[0].get("train"))
        for desc in descs:
            if desc["family"] == "collision":
                desc["train"] = shared
                if desc["probe"] == shared:
                    desc["probe"] = shared ^ 1
            else:
                desc["address"] = shared
    programs = []
    for desc in descs:
        program = program_from_descriptor(desc)
        if draw(st.booleans()):
            program = BranchProgram(program.addresses, program.outcomes, ())
        programs.append(program)
    return programs


class TestBatchedObservation:
    """One op call over a list of programs equals the scalar reference
    program by program, and chunked ``observe`` equals sequential
    ``observe``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_battery_pass_equals_per_program_passes(self, seed):
        """The battery twice over in one call: each program's second run
        shares all its addresses with the first and must still start
        cold."""
        programs = 2 * [
            program_from_descriptor(d) for d in battery_descriptors(seed)
        ]
        bits = _op_bits(programs, SELECTOR_INITIALS)
        if seed == 0:
            once = [ref for _, ref in _battery_reference()]
        else:
            once = [_scalar_bits(p, SELECTOR_INITIALS) for p in programs[:30]]
        assert np.array_equal(bits, np.concatenate(2 * once, axis=2))
        lattice = HypothesisLattice()
        signatures, mask, rows = lattice._masked(programs)
        assert np.array_equal(signatures, bits[0])
        assert np.array_equal(rows, np.arange(len(default_lattice())))

    @given(programs=program_lists())
    @settings(max_examples=25, deadline=None)
    def test_drawn_lists_equal_per_program_passes(self, programs):
        """Drawn lists, some sharing one address and some with nothing
        observed, under four biases, against the scalar reference.  The
        column bounds ``partition_scores`` splits a chunk at give each
        program exactly its own columns (what the deleted owner array
        pinned), so batched scores equal per-program scores."""
        biases = (0, 1, 2, 7)
        bits = _op_bits(programs, biases)
        bounds = _columns(programs)
        assert bounds[-1] == bits.shape[2]
        for i, program in enumerate(programs):
            assert np.array_equal(
                bits[:, :, bounds[i]:bounds[i + 1]],
                _scalar_bits(program, biases),
            )
        lattice = HypothesisLattice()
        assert lattice.partition_scores(
            programs
        ) == _FullWidthLattice().partition_scores(programs)

    def test_empty_list(self):
        k = len(default_lattice())
        assert _op_bits([], SELECTOR_INITIALS).shape == (2, k, 0)
        lattice = HypothesisLattice()
        assert lattice._masked([])[0].shape == (k, 0)
        assert _columns([]) == [0]
        assert lattice.observe([], []) == k
        assert lattice.partition_scores([]) == []

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_chunked_observe_equals_sequential(self, preset):
        oracle = PresetOracle(preset)
        rng = np.random.default_rng(np.random.SeedSequence([27, 0]))
        programs = [
            program_from_descriptor(d)
            for d in battery_descriptors(0)
            + [random_descriptor(rng) for _ in range(8)]
        ]
        hits = [oracle.run(p) for p in programs]
        lattice = HypothesisLattice()
        survivors = lattice.observe(programs, hits)
        reference = _sequential_alive(programs, hits)
        assert np.array_equal(lattice.alive, reference)
        assert survivors == reference.sum()
        assert true_hypothesis(preset) in lattice.survivors()

    @given(programs=program_lists(), flips=st.integers(0, 31))
    @settings(max_examples=25, deadline=None)
    def test_drawn_lists_observe_like_sequential(self, programs, flips):
        """Oracle hits with some programs' bits inverted refute
        hypotheses in any chunk, the truth included; the chunked walk
        still ends on the sequential set."""
        oracle = PresetOracle("haswell")
        hits = []
        for i, program in enumerate(programs):
            bits = oracle.run(program)
            hits.append([b != bool(flips >> i & 1) for b in bits])
        lattice = HypothesisLattice()
        lattice.observe(programs, hits)
        assert np.array_equal(lattice.alive, _sequential_alive(programs, hits))

    def test_chunk_crossing_zero_survivors(self, op_calls):
        """Wrong hits that refute every hypothesis inside the first chunk
        end the walk: the later chunks get no op call (and none runs
        over zero rows), and sequential observation ends just as
        empty."""
        oracle = PresetOracle("skylake")
        programs = [program_from_descriptor(d) for d in battery_descriptors(0)]
        hits = [[not h for h in oracle.run(p)] for p in programs]
        assert not _sequential_alive(programs, hits).any()
        lattice = HypothesisLattice()
        op_calls.clear()
        assert lattice.observe(programs, hits) == 0
        assert op_calls == [(120, 24, 116)]
        assert lattice.partition_scores(programs) == [0] * len(programs)
        assert op_calls == [(120, 24, 116)]

    def test_hit_length_mismatch_names_the_program(self):
        programs = [
            program_from_descriptor(d) for d in battery_descriptors(0)[:5]
        ]
        hits = [PresetOracle("haswell").run(p) for p in programs]
        lattice = HypothesisLattice()
        with pytest.raises(ValueError, match="program 3: got 0 hit bits"):
            lattice.observe(programs, hits[:3] + [()] + hits[4:])
        with pytest.raises(ValueError, match="hit bits for 4 programs"):
            lattice.observe(programs, hits[:4])
        assert lattice.alive.all()  # nothing observed before the check


class TestServiceTenancy:
    """Fuzz generations are campaign-service tenants, with the full
    determinism contract: store serving, resume, shard layout."""

    def test_warm_store_rerun_dispatches_zero_trials(self, tmp_path):
        from repro.store import ContentStore

        store = ContentStore(tmp_path / "store")
        cold = run_fuzz(
            "sandy_bridge",
            seed=0,
            store=store,
            checkpoint_dir=tmp_path / "ck1",
        )
        published = store.stats_dict()["puts"]
        before = store.stats_dict()
        dispatched = []
        warm = run_fuzz(
            "sandy_bridge",
            seed=0,
            store=store,
            checkpoint_dir=tmp_path / "ck2",
            pre_trial=dispatched.append,
        )
        assert dispatched == []
        assert warm.digest() == cold.digest()
        # Exactly one disk hit per published shard and nothing else: the
        # service publishes to disk only, so a warm session never hits
        # the memory tier, misses or writes.
        after = store.stats_dict()
        assert published > 0
        assert after["disk_hits"] - before["disk_hits"] == published
        for key in ("memory_hits", "misses", "puts"):
            assert after[key] == before[key], key
        assert warm.cached_shards == published

    def test_killed_generation_resumes_to_same_digest(self, tmp_path):
        class Killed(RuntimeError):
            pass

        calls = []

        def die_midway(index):
            calls.append(index)
            if len(calls) == 9:
                raise Killed()

        with pytest.raises(Killed):
            run_fuzz(
                "sandy_bridge",
                seed=0,
                checkpoint_dir=tmp_path / "ck",
                pre_trial=die_midway,
            )
        resumed = run_fuzz(
            "sandy_bridge",
            seed=0,
            checkpoint_dir=tmp_path / "ck",
        )
        assert resumed.resumed_shards > 0
        reference = run_fuzz("sandy_bridge", seed=0)
        assert resumed.digest() == reference.digest()

    def test_fuzz_spec_round_trips_params(self):
        descriptors = battery_descriptors(0)[:4]
        spec = CampaignSpec(
            name="fuzz-rt",
            tenant="fuzz",
            preset="sandy_bridge",
            n_blocks=len(descriptors),
            shards=2,
            workload="fuzz",
            params=json.dumps({"descriptors": descriptors}, sort_keys=True),
        )
        again = CampaignSpec.from_json(spec.to_json())
        assert again.params == spec.params
        assert json.loads(again.params)["descriptors"] == descriptors

    def test_shard_layout_does_not_change_digest(self):
        descriptors = battery_descriptors(0)[:6]

        def digest_with(shards):
            service = CampaignService()
            spec = CampaignSpec(
                name="fuzz-shards",
                tenant="fuzz",
                preset="sandy_bridge",
                n_blocks=len(descriptors),
                shards=shards,
                workload="fuzz",
                params=json.dumps(
                    {"descriptors": descriptors}, sort_keys=True
                ),
            )
            cid = service.submit(spec)
            service.run_until_complete()
            return service.campaign(cid).aggregate().digest()

        assert digest_with(1) == digest_with(3)


class TestRecordListAggregate:
    def _record(self, index):
        return {"index": index, "descriptor": {"x": index}, "hits": [1]}

    def test_records_sorted_by_index(self):
        agg = RecordListAggregate()
        for index in (2, 0, 1):
            agg.add_trial(self._record(index))
        assert [r["index"] for r in agg.records()] == [0, 1, 2]

    def test_duplicate_index_rejected(self):
        agg = RecordListAggregate()
        agg.add_trial(self._record(0))
        with pytest.raises(ValueError, match="duplicate trial index"):
            agg.add_trial(self._record(0))

    def test_merge_equals_serial_fold(self):
        serial = RecordListAggregate()
        left, right = RecordListAggregate(), RecordListAggregate()
        for index in range(6):
            serial.add_trial(self._record(index))
            (left if index < 3 else right).add_trial(self._record(index))
        merged = RecordListAggregate.merged([left, right])
        assert merged.digest() == serial.digest()

    def test_merge_rejects_overlap(self):
        left, right = RecordListAggregate(), RecordListAggregate()
        left.add_trial(self._record(0))
        right.add_trial(self._record(0))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_state_round_trip_preserves_digest(self):
        agg = RecordListAggregate()
        for index in range(4):
            agg.add_trial(self._record(index))
        clone = RecordListAggregate.from_state(agg.to_state())
        assert clone.digest() == agg.digest()
        assert clone.records() == agg.records()


class TestCli:
    def test_fuzz_verb_expect_truth(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "fuzz",
                    "--preset",
                    "sandy_bridge",
                    "--expect-truth",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "verdict digest:" in out
        assert "table=4096" in out
