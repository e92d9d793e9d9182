"""A trial plan's noise, read straight off numpy's PCG64 stream.

:func:`~repro.core.calibration.draw_trial_plan` records where the noise
starts and moves the generator past it with
:func:`repro.kernels.noise_advance`; the manycore structure then reads
what it keeps with :func:`~repro.kernels.noise_front` and
:func:`~repro.kernels.noise_back`.  Pinned here, every backend against
the numpy reference (which draws with ``draw_noise`` itself):

* the end position, for every range the noise uses plus ranges that
  reject often (2^31 + 1), rarely (a non-power-of-two gshare table) or
  draw nothing (1), at n = 0, 1, odd and even, from a stream with a
  half-word pending;
* both passes' outputs on the same inputs, through both table-size
  paths of the C pass, with and without rejected nudges;
* the structure the manycore engine builds, on all six presets under
  isolated and noisy noise;
* the lazy ``plan.bulk``: equal to the eager draw and drawn once.
"""

import numpy as np
import pytest

from repro import kernels
from repro.bpu.presets import PRESETS
from repro.core.calibration import draw_trial_plan
from repro.core.manycore import _SharedStructure
from repro.cpu.core import PhysicalCore
from repro.kernels import numpy_backend
from repro.resilience.checkpoint import rng_state_digest
from repro.system.noise import (
    NOISE_REGION,
    NoiseModel,
    draw_noise,
    draw_noise_at,
    pcg64_state,
    pcg64_stream,
)

BACKENDS = kernels.available_backends()

TARGET = 0x30_006D

#: Noise lengths: empty, one, odd and even, and past one C draw chunk.
LENGTHS = [0, 1, 2, 7, 1000, 2049]


@pytest.fixture(autouse=True)
def _reset_backend():
    kernels.set_backend(None)
    yield
    kernels.set_backend(None)


def _stream(seed, pending):
    """A PCG64 position, with a half-word pending when ``pending``."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2, size=3 if pending else 2)
    stream = pcg64_stream(rng)
    assert stream[2] == int(pending)
    return stream


def _numpy_end(stream, n, n_gshare, region):
    return draw_noise_at(stream, n, n_gshare, region)[1]


def _same(got, ref):
    if isinstance(ref, tuple):
        return len(got) == len(ref) and all(map(_same, got, ref))
    return np.array_equal(got, ref)


#: numpy's PCG64 multiplier.
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _zero_word_stream(word, inc=(0x5851F42D4C957F2D << 1) | 1):
    """A stream whose ``word``-th 64-bit output is 0: the LCG state
    that output comes from has equal halves, so its XSL-RR folds to 0;
    step back from there."""
    mask = (1 << 128) - 1
    inverse = pow(_PCG_MULT, -1, 1 << 128)
    state = (0x0123456789ABCDEF << 64) | 0x0123456789ABCDEF
    for _ in range(word + 1):
        state = ((state - inc) * inverse) & mask
    return (state, inc, 0, 0)


def _offsets(n, seed):
    """Gap boundaries over ``n`` branches, with some empty gaps."""
    cuts = np.sort(np.random.default_rng(seed).integers(0, n + 1, size=9))
    return np.concatenate([[0], cuts, [n, n]]).astype(np.int64)


class TestAdvance:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize(
        "n_gshare, region",
        [
            (16384, NOISE_REGION),  # every range a plan draws
            (4096, NOISE_REGION),
            (32768, NOISE_REGION),
            (12289, NOISE_REGION),  # gshare range rejects rarely
            (2**31 + 1, (0, 2**31 + 1)),  # about half the draws reject
            (1, (5, 6)),  # ranges of one draw nothing
            (2**32, (0, 2**32)),  # raw half-words
        ],
    )
    def test_end_position_matches_draw_noise(
        self, backend, pending, n, n_gshare, region
    ):
        stream = _stream(n + n_gshare, pending)
        kernels.set_backend(backend)
        got = kernels.noise_advance(stream, n, n_gshare, region)
        assert got == _numpy_end(stream, n, n_gshare, region)

    def test_numpy_backend_draws_into_the_cache_once(self):
        stream = _stream(5, False)
        cache = {}
        end = numpy_backend.noise_advance(stream, 50, 64, NOISE_REGION, cache)
        draw, cached_end = cache["noise"]
        assert cached_end == end
        assert draw_noise_at(stream, 50, 64, NOISE_REGION, cache)[0] is draw


class TestPasses:
    """noise_front / noise_back against the numpy reference."""

    def _run(self, stream, n, n_gshare, region, tables, seed):
        n_b, n_sel, n_sets = tables
        rng = np.random.default_rng(seed)
        offsets = _offsets(n, seed)
        r2 = len(offsets) - 1
        last_b = rng.integers(-1, r2 + 1, size=n_b)
        last_g = rng.integers(-1, r2 + 1, size=n_gshare)
        noise = (n, n_gshare, region)
        front_args = (
            offsets, n_b, last_b, n_sel, n_sel // 4, n_sets, n_sets // 2,
            0x3FF, 13,
        )
        out = {}
        for backend in BACKENDS:
            kernels.set_backend(backend)
            end = kernels.noise_advance(stream, *noise)
            front = kernels.noise_front(stream, *noise, *front_args)
            back = kernels.noise_back(
                stream, *noise, offsets, front[4], front[3], last_g
            )
            out[backend] = (end, front, back)
        for backend in BACKENDS:
            assert _same(out[backend], out["numpy"]), backend
        return out["numpy"]

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize(
        "tables", [(256, 64, 32), (300, 7, 12)], ids=["pow2", "generic"]
    )
    def test_front_and_back_match(self, pending, n, tables):
        stream = _stream(n + 11, pending)
        end, front, back = self._run(
            stream, n, 4096, NOISE_REGION, tables, seed=n
        )
        tails, noise_tag, hits_b, on_tsel, outcomes = front
        assert len(outcomes) == n
        if n >= 1000:  # the comparison saw hits, tags and drift
            assert len(hits_b[0]) and len(on_tsel) and len(back[1][0])
            assert (noise_tag >= 0).any() and back[0].any()

    @pytest.mark.parametrize("n_gshare", [3, 12289])
    def test_gshare_range_not_a_power_of_two(self, n_gshare):
        self._run(
            _stream(8, True), 2049, n_gshare, NOISE_REGION, (256, 64, 32), 8
        )

    def test_address_range_with_half_rejected(self):
        self._run(
            _stream(9, False), 1000, 64, (0, 2**31 + 1), (256, 7, 12), 9
        )

    def test_rejected_nudges(self):
        """A stream whose nudge fill meets a zero word: both its
        half-words are rejected, so every later nudge moves two
        half-words on.  The word is put where no selector branch reads
        it but later ones do, so reading those nudges by a jump from
        the fill's start would read the wrong half-words: the C pass
        must draw the nudges in full."""
        n, tables = 40, (256, 4, 32)
        for word in range(3 * n // 2, 2 * n):
            stream = _zero_word_stream(word)
            on_tsel = numpy_backend.noise_front(
                stream, n, 64, NOISE_REGION, [0, n], 256,
                np.full(256, -1), 4, 1, 32, 16, 0x3FF, 13,
            )[3].tolist()
            rejected = {2 * word - 3 * n, 2 * word - 3 * n + 1}
            if not rejected & set(on_tsel) and on_tsel[-1] > max(rejected):
                break
        out = self._run(stream, n, 64, NOISE_REGION, tables, seed=1)
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = pcg64_state(stream)
        rng.integers(0, 2, size=4 * n)  # 4n half-words, none rejected
        assert pcg64_stream(rng) != out[0]  # the nudges took more


def _structure(preset, noise, seed):
    core = PhysicalCore(PRESETS[preset](), seed=seed)
    core.rng.integers(0, 2, size=seed % 2)  # odd seeds start mid-word
    plan = draw_trial_plan(
        core.rng, core, repetitions=25, noise=getattr(NoiseModel, noise)()
    )
    shared = _SharedStructure(core, TARGET, plan, None, 2000)
    return rng_state_digest(core.rng), shared


class TestStructure:
    @pytest.mark.parametrize("noise", ["isolated", "noisy"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_equal_structures_and_stream_position(self, preset, noise):
        fields = {}
        for backend in BACKENDS:
            kernels.set_backend(backend)
            digest, s = _structure(preset, noise, seed=len(preset))
            fields[backend] = (
                digest, s.drift_tsel, s.noise_tag, s.outcomes,
                s.plan_b.hit_pos, s.plan_b.hit_time, s.plan_b.hit_step,
                s.plan_g.hit_pos, s.plan_g.hit_time, s.plan_g.hit_step,
                s.plan_g.read_pos,
            )
        for backend in BACKENDS:
            assert _same(fields[backend], fields["numpy"]), backend

    def test_bimodal_pruning_checked_against_closed_form(self, monkeypatch):
        """The bimodal hits are pruned by the target's bimodal entry; a
        closed form that reads another entry fails loudly."""
        from repro.core import manycore

        real = manycore._closed_form

        def shifted(*args):
            static, outcomes, b_idx, g_idx = real(*args)
            return static, outcomes, b_idx + 1, g_idx

        monkeypatch.setattr(manycore, "_closed_form", shifted)
        with pytest.raises(RuntimeError, match="bimodal"):
            _structure("skylake", "isolated", seed=2)

    def test_structure_matches_eager_bulk(self):
        """The structure's per-gap noise aggregates equal the ones
        computed from the plan's full numpy draw."""
        _, s = _structure("skylake", "noisy", seed=3)
        bulk = s.plan.bulk
        epochs = np.repeat(np.arange(s.R2), np.diff(s.plan.offsets))
        on_tsel = bulk.addresses % s.n_sel == s.tsel
        drift = np.zeros(s.R2, dtype=np.int64)
        np.add.at(drift, epochs[on_tsel], bulk.nudges[on_tsel])
        assert np.array_equal(s.drift_tsel, drift)
        on_tset = np.flatnonzero(bulk.addresses % s.n_sets == s.tset)
        tags = np.full(s.R2, -1)
        for i in on_tset:
            tags[epochs[i]] = (bulk.addresses[i] // s.n_sets) & s.tag_mask
        assert np.array_equal(s.noise_tag, tags)


class TestLazyBulk:
    def _plan(self):
        core = PhysicalCore(PRESETS["haswell"](), seed=4)
        core.rng.integers(0, 2)
        eager = np.random.Generator(np.random.PCG64())
        eager.bit_generator.state = core.rng.bit_generator.state
        plan = draw_trial_plan(core.rng, core, repetitions=30)
        # The eager reference: the same calls on a twin generator.
        eager.integers(0, 2, size=plan.scrambles.shape)
        NoiseModel.isolated().gap_array(eager, 60)
        bulk = draw_noise(eager, plan.n_noise, plan.n_gshare)
        assert eager.bit_generator.state == core.rng.bit_generator.state
        return plan, bulk

    @staticmethod
    def _equal(a, b):
        return a.n == b.n and all(
            np.array_equal(getattr(a, f), getattr(b, f))
            for f in ("addresses", "outcomes", "gshare_indices", "nudges")
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lazy_bulk_equals_eager_draw(self, backend):
        kernels.set_backend(backend)
        plan, bulk = self._plan()
        assert self._equal(plan.bulk, bulk)
        assert plan.bulk is plan.bulk  # drawn once

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plan_noise_drawn_at_most_once(self, backend, monkeypatch):
        """Plan, structure and ``bulk``: the numpy backend draws the
        noise once, into the plan's memo; cffi only for ``bulk``."""
        from repro.system import noise as noise_module

        calls = []
        real = noise_module.draw_noise

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(noise_module, "draw_noise", counting)
        kernels.set_backend(backend)
        _, shared = _structure("skylake", "isolated", seed=2)
        assert len(calls) == (1 if backend == "numpy" else 0)
        shared.plan.bulk
        shared.plan.bulk
        assert calls == [shared.plan.n_noise]

    def test_non_pcg64_generator_refused(self):
        core = PhysicalCore(PRESETS["haswell"](), seed=4)
        rng = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(TypeError, match="PCG64"):
            draw_trial_plan(rng, core, repetitions=2)


@pytest.mark.skipif("cffi" not in BACKENDS, reason="needs cffi")
class TestCInputChecks:
    """Sizes the C passes index by are checked before any pointer is
    passed."""

    def _front(self, **over):
        from repro.kernels import cffi_backend

        args = dict(
            stream=_stream(1, False), n=10, n_gshare=64,
            region=NOISE_REGION, offsets=np.array([0, 4, 10]), n_b=16,
            last_b=np.full(16, 2), n_sel=8, tsel=1, n_sets=8, tset=1,
            tag_mask=0xFF, ghr_len=8,
        )
        args.update(over)
        return cffi_backend.noise_front(**args)

    @pytest.mark.parametrize(
        "over",
        [
            {"offsets": np.array([0, 4, 9])},
            {"offsets": np.array([0, 6, 4, 10])},
            {"n_b": 0},
            {"n_sets": 0},
            {"last_b": np.full(8, 2)},
        ],
    )
    def test_front_rejects_bad_sizes(self, over):
        with pytest.raises(ValueError):
            self._front(**over)

    def test_back_rejects_bad_sizes(self):
        from repro.kernels import cffi_backend

        stream = _stream(1, False)
        offsets = np.array([0, 4, 10])
        _, _, _, on_tsel, outcomes = self._front()
        last_g = np.full(64, 2)
        for bad in (
            (outcomes[:9], on_tsel, last_g),  # too few outcome bits
            (outcomes, on_tsel, last_g[:63]),  # too few gshare entries
            (outcomes, np.array([3, 10]), last_g),  # position past n
            (outcomes, np.array([5, 2]), last_g),  # not increasing
        ):
            with pytest.raises(ValueError):
                cffi_backend.noise_back(
                    stream, 10, 64, NOISE_REGION, offsets, *bad
                )

    @pytest.mark.parametrize(
        "n_gshare, region",
        [(7, (0, 2**33)), (2**32 + 1, NOISE_REGION), (7, (-4, 4))],
    )
    def test_ranges_the_c_draw_cannot_take_rejected(self, n_gshare, region):
        """A range past numpy's 32-bit bounded draw (or a negative
        address) is refused, not drawn some other way."""
        from repro.kernels import cffi_backend

        stream = _stream(3, True)
        with pytest.raises(ValueError, match="noise"):
            cffi_backend.noise_advance(stream, 9, n_gshare, region)


class TestCanary:
    def _lib(self):
        from repro.kernels import cffi_backend

        try:
            cffi_backend._load_lib()
        except Exception as exc:  # no cffi or no C compiler
            pytest.skip(f"cffi extension unavailable: {exc}")
        return cffi_backend

    def test_noise_canary_passes_wherever_cffi_builds(self):
        """A wrong C pass must fail here, not just drop cffi from
        ``BACKENDS`` and leave the comparisons above numpy-only."""
        self._lib()._check_stream()

    def test_noise_mismatch_refuses_the_backend(self, monkeypatch):
        cffi_backend = self._lib()
        real = cffi_backend._stream_words

        def shifted(stream):
            words = real(stream)
            words[1] ^= 1 << 9
            return words

        monkeypatch.setattr(cffi_backend, "_stream_words", shifted)
        with pytest.raises(cffi_backend.StreamMismatch, match="noise"):
            cffi_backend._check_stream()
