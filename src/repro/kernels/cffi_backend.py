"""Generated-C kernel backend (cffi API mode, compiled once, cached).

The five ops become plain sequential C loops over int64 arrays.  The
extension is compiled a single time into a content-addressed cache
directory — keyed by a hash of the C source plus the cffi/python
versions — and re-loaded from disk on every later run (and in every
forked worker) without invoking the compiler again.  Cache location:
``$REPRO_KERNEL_CACHE``, else ``~/.cache/repro/kernels``.

Correctness note: the sequential loops and the numpy backend's
segmented scans are the same fold in different association orders;
TransitionMonoid ids are canonical and composition associative, so the
results are bit-identical (pinned by ``tests/test_kernels.py``).

``summarize_block`` draws its block itself.  The wrapper reads the
PCG64 state ``np.random.default_rng(seed)`` starts from, and the C loop
replays the two ``Generator.integers`` calls of
``RandomizationBlock.generate`` with two cursors over numpy's PCG64
stream: one from half-word 0 for the address steps, one jumped ahead to
half-word ``n`` for the directions.  Neither of the block's arrays is
ever allocated.  :func:`load` checks one fused summary against the numpy
backend's on a fixed odd-length block and refuses to load
(:class:`StreamMismatch`) if numpy's stream mapping has changed.

Speed note: the ``summarize_block`` loop is branch-free per branch,
because mispredictions, not arithmetic, set its cost.  The history fold
runs a fixed number of passes per call, and an untracked gshare entry
folds into a spare accumulator slot past the tracked ones, which the
wrapper allocates and drops.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import numpy_backend

NAME = "cffi"

#: Environment knob for the compiled-extension cache directory.
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

_CDEF = """
void repro_fold_ids(const int64_t *positions, const int64_t *ids,
                    int64_t n, const int64_t *ct, int64_t size,
                    int64_t *acc);
int64_t repro_reduce_ids(const int64_t *ids, int64_t n,
                         const int64_t *ct, int64_t size,
                         int64_t identity);
void repro_summarize_block(uint64_t state_hi, uint64_t state_lo,
                           uint64_t inc_hi, uint64_t inc_lo, int64_t n,
                           int64_t base, const int64_t *oid,
                           const int64_t *ct, int64_t size, int64_t n_b,
                           int64_t shift_b, int64_t tb, int64_t n_g,
                           int64_t shift_g, const int64_t *pos_table,
                           int64_t ghr_mask, int64_t n_sel,
                           int64_t tsel, int64_t n_sets, int64_t tset,
                           int64_t tag_mask, int64_t identity,
                           int64_t n_tracked, int64_t *g_acc,
                           int64_t *scalars);
void repro_read_levels_ids(const int64_t *lift0, int64_t chunk,
                           int64_t n_tracked, const int64_t *read_pos,
                           const int64_t *read_step, int64_t r2,
                           int64_t n_slots, int64_t d,
                           const int64_t *hit_pos,
                           const int64_t *hit_time,
                           const int64_t *hit_step, int64_t n_hits,
                           const int64_t *v0, const int64_t *pow_flat,
                           int64_t pow_k, const int64_t *maps,
                           int64_t n_levels, int64_t *cur,
                           int64_t *last, int64_t *out);
void repro_read_levels_maps(const int64_t *tracked_maps,
                            const int64_t *p_sorted,
                            const int64_t *remaining,
                            const int64_t *node_sel,
                            const uint8_t *first, const int64_t *v0,
                            const int64_t *out_slot, int64_t n_nodes,
                            const int64_t *step4, int64_t n_levels,
                            int64_t *out);
"""

_SOURCE = """
#include <stdint.h>

void repro_fold_ids(const int64_t *positions, const int64_t *ids,
                    int64_t n, const int64_t *ct, int64_t size,
                    int64_t *acc)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t p = positions[i];
        if (p >= 0)
            acc[p] = ct[acc[p] * size + ids[i]];
    }
}

int64_t repro_reduce_ids(const int64_t *ids, int64_t n,
                         const int64_t *ct, int64_t size,
                         int64_t identity)
{
    int64_t a = identity;
    for (int64_t i = 0; i < n; i++)
        a = ct[a * size + ids[i]];
    return a;
}

/* a mod n for non-negative a, one AND when n is a power of two (the
 * runtime divide otherwise dominates the whole loop). */
static inline int64_t repro_mod(int64_t a, int64_t n)
{
    if ((n & (n - 1)) == 0)
        return a & (n - 1);
    return a % n;
}

/* PHT index under a kernel hash encoding: XOR-fold by s first when
 * s > 0 (repro.bpu.hashes.kernel_shift; 0 is plain modulo). */
static inline int64_t repro_index(int64_t a, int64_t n, int64_t s)
{
    if (s > 0)
        a ^= a >> s;
    return repro_mod(a, n);
}

/* numpy's PCG64: a 128-bit LCG stepped before each draw, with the
 * XSL-RR output of the new state. */
typedef unsigned __int128 repro_u128;

#define REPRO_PCG_MULT \
    ((((repro_u128)2549297995355413924ULL) << 64) | 4865540595714422341ULL)

static inline uint64_t repro_pcg_next(repro_u128 *state, repro_u128 inc)
{
    *state = *state * REPRO_PCG_MULT + inc;
    uint64_t x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

/* The LCG state delta steps on (jump-ahead by repeated squaring). */
static repro_u128 repro_pcg_advance(repro_u128 state, repro_u128 inc,
                                    uint64_t delta)
{
    repro_u128 mult = REPRO_PCG_MULT, plus = inc;
    repro_u128 acc_mult = 1, acc_plus = 0;
    for (; delta > 0; delta >>= 1) {
        if (delta & 1) {
            acc_mult *= mult;
            acc_plus = acc_plus * mult + plus;
        }
        plus = (mult + 1) * plus;
        mult *= mult;
    }
    return acc_mult * state + acc_plus;
}

/* A cursor over the 32-bit half-words of one PCG64 stream, low half
 * first, as numpy's next_uint32 hands them out (the high half waits in
 * buf).  Each half-word h yields the bit h >> 31: what
 * Generator.integers draws for a range of two, which Lemire's method
 * never rejects. */
typedef struct {
    repro_u128 state, inc;
    uint8_t buf;
    int have;
} repro_cursor;

static inline void repro_cursor_bits(repro_cursor *c, uint8_t *out,
                                     int64_t count)
{
    int64_t k = 0;
    if (c->have && count > 0) {
        out[k++] = c->buf;
        c->have = 0;
    }
    for (; k + 1 < count; k += 2) {
        uint64_t w = repro_pcg_next(&c->state, c->inc);
        out[k] = (uint8_t)((w >> 31) & 1);
        out[k + 1] = (uint8_t)(w >> 63);
    }
    if (k < count) {
        uint64_t w = repro_pcg_next(&c->state, c->inc);
        out[k] = (uint8_t)((w >> 31) & 1);
        c->buf = (uint8_t)(w >> 63);
        c->have = 1;
    }
}

/* Branches drawn per refill of the two bit buffers. */
#define REPRO_DRAW_CHUNK 1024

/* The summary loop, specialised by the caller on the hash shifts:
 * always inlined, so the all-modulo call compiles to the plain modulo
 * loop and the hash branch is taken once per block, not per branch.
 *
 * The block is drawn as RandomizationBlock.generate draws it, one chunk
 * at a time: cursor a hands out the address-step bits (half-words
 * 0 .. n-1, step 0 forced to 0) and cursor b the outcome bits
 * (half-words n .. 2n-1).
 *
 * No per-branch step branches on data.  The history fold runs a fixed
 * n_folds passes set once per call, and an untracked gshare entry
 * (p < 0) folds into the spare slot g_acc[n_tracked], which the caller
 * allocates and never reads back. */
static inline __attribute__((always_inline)) void
repro_summarize_loop(repro_cursor *ca, repro_cursor *cb, int64_t n,
                     int64_t base, const int64_t *oid, const int64_t *ct,
                     int64_t size, int64_t n_b, int64_t shift_b,
                     int64_t tb, int64_t n_g, int64_t shift_g,
                     const int64_t *pos_table, int64_t ghr_mask,
                     int64_t n_sel, int64_t tsel, int64_t n_sets,
                     int64_t tset, int64_t tag_mask, int64_t identity,
                     int64_t n_tracked, int64_t *g_acc, int64_t *scalars)
{
    int64_t bim = identity, ghr = 0, touched = 0, block_tag = -1;
    int64_t fold_w = 0, ng_bits = n_g;
    while (ng_bits > 1) { fold_w++; ng_bits >>= 1; }
    if (fold_w < 1)
        fold_w = 1;
    int64_t fold_mask = ((int64_t)1 << fold_w) - 1;
    /* Circular-XOR fold of the (pre-masked) history down to the index
     * width w = floor(log2(n_g)), in max(1, ceil(ghr_len / w)) passes:
     * enough for the widest history, and a pass past its top bits XORs
     * zeros.  Identity when the history fits in w bits (one pass). */
    int64_t n_folds = 1;
    for (int64_t m = ghr_mask >> fold_w; m != 0; m >>= fold_w)
        n_folds++;
    uint8_t step_bits[REPRO_DRAW_CHUNK], taken[REPRO_DRAW_CHUNK];
    int64_t a = base;
    for (int64_t start = 0; start < n; start += REPRO_DRAW_CHUNK) {
        int64_t m = n - start < REPRO_DRAW_CHUNK ? n - start
                                                 : REPRO_DRAW_CHUNK;
        repro_cursor_bits(ca, step_bits, m);
        repro_cursor_bits(cb, taken, m);
        if (start == 0)
            a -= 2 + step_bits[0];  /* the first branch sits at base */
        for (int64_t j = 0; j < m; j++) {
            a += 2 + step_bits[j];
            int64_t o = oid[taken[j]];
            if (repro_index(a, n_b, shift_b) == tb)
                bim = ct[bim * size + o];
            int64_t folded = 0, h = ghr;
            for (int64_t k = 0; k < n_folds; k++) {
                folded ^= h & fold_mask;
                h >>= fold_w;
            }
            int64_t p = pos_table[repro_index(a ^ folded, n_g, shift_g)];
            int64_t q = p >= 0 ? p : n_tracked;
            g_acc[q] = ct[g_acc[q] * size + o];
            ghr = ((ghr << 1) | (int64_t)taken[j]) & ghr_mask;
            if (repro_mod(a, n_sel) == tsel)
                touched = 1;
            if (repro_mod(a, n_sets) == tset)
                block_tag = (a / n_sets) & tag_mask;
        }
    }
    scalars[0] = bim;
    scalars[1] = touched;
    scalars[2] = block_tag;
}

/* One block's summary, drawn from the PCG64 state (state, inc) that
 * np.random.default_rng(seed) starts from.  Cursor b starts n
 * half-words in: on the high half of word n / 2 when n is odd. */
void repro_summarize_block(uint64_t state_hi, uint64_t state_lo,
                           uint64_t inc_hi, uint64_t inc_lo, int64_t n,
                           int64_t base, const int64_t *oid,
                           const int64_t *ct, int64_t size, int64_t n_b,
                           int64_t shift_b, int64_t tb, int64_t n_g,
                           int64_t shift_g, const int64_t *pos_table,
                           int64_t ghr_mask, int64_t n_sel,
                           int64_t tsel, int64_t n_sets, int64_t tset,
                           int64_t tag_mask, int64_t identity,
                           int64_t n_tracked, int64_t *g_acc,
                           int64_t *scalars)
{
    repro_cursor ca, cb;
    ca.state = ((repro_u128)state_hi << 64) | state_lo;
    ca.inc = ((repro_u128)inc_hi << 64) | inc_lo;
    ca.buf = 0;
    ca.have = 0;
    cb = ca;
    cb.state = repro_pcg_advance(ca.state, ca.inc, (uint64_t)(n / 2));
    if (n & 1) {
        uint8_t low;  /* the low half of word n / 2 is cursor a's */
        repro_cursor_bits(&cb, &low, 1);
    }
    if (shift_b == 0 && shift_g == 0)
        repro_summarize_loop(&ca, &cb, n, base, oid, ct, size, n_b, 0, tb,
                             n_g, 0, pos_table, ghr_mask, n_sel, tsel,
                             n_sets, tset, tag_mask, identity, n_tracked,
                             g_acc, scalars);
    else
        repro_summarize_loop(&ca, &cb, n, base, oid, ct, size, n_b,
                             shift_b, tb, n_g, shift_g, pos_table,
                             ghr_mask, n_sel, tsel, n_sets, tset,
                             tag_mask, identity, n_tracked, g_acc,
                             scalars);
}

/* One phase-2 event at entry p and time t: jump the entry's level over
 * the epochs since its last event (the block fold to the power
 * t - last[p]), then step it.  Returns the level the event reads. */
static inline int64_t repro_visit(const int64_t *l0, int64_t p, int64_t t,
                                  int64_t step, const int64_t *pow_flat,
                                  int64_t pow_k, const int64_t *maps,
                                  int64_t n_levels, int64_t *cur,
                                  int64_t *last)
{
    int64_t jump = pow_flat[l0[p] * pow_k + t - last[p]];
    int64_t val = maps[jump * n_levels + cur[p]];
    cur[p] = maps[step * n_levels + val];
    last[p] = t;
    return val;
}

/* Phase 2 in program order, one pass per instance: each repetition
 * applies the hits due by time r, reads the scramble slots at r, applies
 * the hits due by r + 1 and reads the probe slots at r + 1.  cur/last
 * are the caller's per-call scratch (n_tracked each). */
void repro_read_levels_ids(const int64_t *lift0, int64_t chunk,
                           int64_t n_tracked, const int64_t *read_pos,
                           const int64_t *read_step, int64_t r2,
                           int64_t n_slots, int64_t d,
                           const int64_t *hit_pos,
                           const int64_t *hit_time,
                           const int64_t *hit_step, int64_t n_hits,
                           const int64_t *v0, const int64_t *pow_flat,
                           int64_t pow_k, const int64_t *maps,
                           int64_t n_levels, int64_t *cur,
                           int64_t *last, int64_t *out)
{
    for (int64_t c = 0; c < chunk; c++) {
        const int64_t *l0 = lift0 + c * n_tracked;
        int64_t *o = out + c * r2 * n_slots;
        for (int64_t p = 0; p < n_tracked; p++) {
            cur[p] = v0[p];
            last[p] = 0;
        }
        int64_t h = 0;
        for (int64_t r = 0; r < r2; r++) {
            for (int64_t half = 0; half < 2; half++) {
                int64_t t = r + half;
                for (; h < n_hits && hit_time[h] <= t; h++)
                    repro_visit(l0, hit_pos[h], hit_time[h], hit_step[h],
                                pow_flat, pow_k, maps, n_levels, cur,
                                last);
                int64_t j_end = half ? n_slots : d;
                for (int64_t j = half ? d : 0; j < j_end; j++) {
                    int64_t s = r * n_slots + j;
                    o[s] = repro_visit(l0, read_pos[s], t, read_step[s],
                                       pow_flat, pow_k, maps, n_levels,
                                       cur, last);
                }
            }
        }
    }
}

void repro_read_levels_maps(const int64_t *tracked_maps,
                            const int64_t *p_sorted,
                            const int64_t *remaining,
                            const int64_t *node_sel,
                            const uint8_t *first, const int64_t *v0,
                            const int64_t *out_slot, int64_t n_nodes,
                            const int64_t *step4, int64_t n_levels,
                            int64_t *out)
{
    int64_t cur = 0;
    for (int64_t j = 0; j < n_nodes; j++) {
        if (first[j])
            cur = v0[j];
        const int64_t *row = tracked_maps + p_sorted[j] * n_levels;
        int64_t val = cur;
        for (int64_t k = remaining[j]; k > 0; k--)
            val = row[val];
        int64_t slot = out_slot[j];
        if (slot >= 0)
            out[slot] = val;
        cur = step4[node_sel[j] * n_levels + val];
    }
}
"""

_lib = None
_ffi = None


def _cache_dir() -> Path:
    root = os.environ.get(KERNEL_CACHE_ENV)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro" / "kernels"


def _module_name() -> str:
    import cffi

    digest = hashlib.blake2b(digest_size=8)
    digest.update(_SOURCE.encode())
    digest.update(_CDEF.encode())
    digest.update(cffi.__version__.encode())
    digest.update(f"py{sys.version_info[0]}.{sys.version_info[1]}".encode())
    return f"_repro_kernels_{digest.hexdigest()}"


def _find_cached(cache: Path, modname: str):
    for path in sorted(cache.glob(f"{modname}*")):
        if path.suffix in (".so", ".pyd", ".dylib"):
            return path
    return None


def _build(cache: Path, modname: str) -> Path:
    """Compile the extension into the cache dir (atomic rename)."""
    import cffi

    ffibuilder = cffi.FFI()
    ffibuilder.cdef(_CDEF)
    ffibuilder.set_source(modname, _SOURCE, extra_compile_args=["-O2"])
    cache.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".build-", dir=str(cache))
    try:
        built = Path(ffibuilder.compile(tmpdir=tmp))
        target = cache / built.name
        os.replace(built, target)  # racing builders converge on one file
        return target
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _load_lib():
    global _lib, _ffi
    if _lib is not None:
        return
    import cffi  # noqa: F401  (unavailability should fail here, cleanly)

    cache = _cache_dir()
    modname = _module_name()
    path = _find_cached(cache, modname)
    if path is None:
        path = _build(cache, modname)
    spec = importlib.util.spec_from_file_location(modname, str(path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _lib = module.lib
    _ffi = module.ffi


class StreamMismatch(RuntimeError):
    """The fused block draw disagrees with ``RandomizationBlock.generate``
    (numpy changed how ``Generator.integers`` maps the PCG64 stream)."""

    #: The ``kernel_init`` fallback reason the dispatcher records.
    fallback_reason = "cffi_stream_mismatch"


#: Whether the stream canary has passed in this process.
_stream_checked = False


def _check_stream() -> None:
    """Compare one fused summary with the numpy backend's on a fixed
    odd-length block; raise :class:`StreamMismatch` when they differ.

    Every branch folds the target bimodal entry, every gshare entry is
    tracked and the one BIT set records the last address, under a
    sum-mod-61 monoid, so a changed address step or direction shows.
    """
    from repro.core.randomizer import DEFAULT_BLOCK_BASE

    m = 61
    ct = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    oid = np.array([1, 2], dtype=np.int64)
    n_g = 64
    args = (
        17, 1001, DEFAULT_BLOCK_BASE, oid, ct, 1, 0, 0, n_g, 0,
        np.arange(n_g, dtype=np.int64), 16, 7, 3, 1, 0, (1 << 40) - 1,
        n_g, 0,
    )
    got = summarize_block(*args)
    ref = numpy_backend.summarize_block(*args)
    if not (
        got[0] == ref[0] and np.array_equal(got[1], ref[1])
        and got[2] == ref[2] and got[3] == ref[3]
    ):
        raise StreamMismatch(
            f"fused block summary {got[0]}/{got[2]}/{got[3]} != "
            f"numpy {ref[0]}/{ref[2]}/{ref[3]} on numpy {np.__version__}"
        )


def load():
    """Initialise (compile or re-load) the extension and check its block
    draw against numpy's stream once; returns this module."""
    global _stream_checked
    _load_lib()
    if not _stream_checked:
        _check_stream()
        _stream_checked = True
    return sys.modules[__name__]


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _u8(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.uint8)


def _p(a: np.ndarray):
    return _ffi.cast("int64_t *", _ffi.from_buffer(a))


_MASK64 = (1 << 64) - 1


def _pu8(a: np.ndarray):
    return _ffi.cast("uint8_t *", _ffi.from_buffer(a))


# -- ops --------------------------------------------------------------------


def fold_ids(positions, ids, compose_table, n_out, identity=0):
    positions = _i64(positions)
    ids = _i64(ids)
    ct = _i64(compose_table)
    acc = np.full(int(n_out), identity, dtype=np.int64)
    _lib.repro_fold_ids(
        _p(positions), _p(ids), len(positions), _p(ct), ct.shape[1],
        _p(acc),
    )
    return acc


def reduce_ids(ids, compose_table, identity=0):
    ids = _i64(ids)
    ct = _i64(compose_table)
    return int(
        _lib.repro_reduce_ids(
            _p(ids), len(ids), _p(ct), ct.shape[1], int(identity)
        )
    )


def _pcg_state(seed):
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(seed)``
    starts from: numpy's own SeedSequence does the seeding."""
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


def summarize_block(
    seed, n_branches, base_address, outcome_ids, compose_table, n_b,
    shift_b, tb, n_g, shift_g, pos_table, ghr_len, n_sel, tsel, n_sets,
    tset, tag_mask, n_tracked, identity=0,
):
    n = int(n_branches)
    if n <= 0:
        raise ValueError("block needs at least one branch")
    state, inc = _pcg_state(seed)
    oid = _i64(outcome_ids)
    ct = _i64(compose_table)
    pos_table = _i64(pos_table)
    n_tracked = int(n_tracked)
    # One spare slot past the tracked entries absorbs untracked hits.
    g_acc = np.full(n_tracked + 1, identity, dtype=np.int64)
    scalars = np.empty(3, dtype=np.int64)
    _lib.repro_summarize_block(
        state >> 64, state & _MASK64, inc >> 64, inc & _MASK64, n,
        int(base_address), _p(oid), _p(ct), ct.shape[1], int(n_b),
        int(shift_b), int(tb), int(n_g), int(shift_g), _p(pos_table),
        (1 << int(ghr_len)) - 1, int(n_sel), int(tsel), int(n_sets),
        int(tset), int(tag_mask), int(identity), n_tracked, _p(g_acc),
        _p(scalars),
    )
    return (
        int(scalars[0]), g_acc[:n_tracked], bool(scalars[1]),
        int(scalars[2]),
    )


def read_levels_ids(
    lift0, read_pos, read_step, d, hit_pos, hit_time, hit_step, v0,
    pow_flat, pow_k, ct_flat, ct_size, maps_flat, n_levels, cache=None,
):
    lift0 = _i64(lift0)
    chunk, n_tracked = lift0.shape
    read_pos = _i64(read_pos)
    read_step = _i64(read_step)
    r2, n_slots = read_pos.shape
    hit_pos = _i64(hit_pos)
    hit_time = _i64(hit_time)
    hit_step = _i64(hit_step)
    v0 = _i64(v0)
    pow_flat = _i64(pow_flat)
    maps = _i64(maps_flat)
    # Per-call scratch, so concurrent callers on one plan share nothing.
    cur = np.empty(n_tracked, dtype=np.int64)
    last = np.empty(n_tracked, dtype=np.int64)
    out = np.empty((chunk, r2, n_slots), dtype=np.int64)
    _lib.repro_read_levels_ids(
        _p(lift0), chunk, n_tracked, _p(read_pos), _p(read_step), r2,
        n_slots, int(d), _p(hit_pos), _p(hit_time), _p(hit_step),
        len(hit_pos), _p(v0), _p(pow_flat), int(pow_k), _p(maps),
        int(n_levels), _p(cur), _p(last), _p(out),
    )
    return out


def read_levels_maps(
    tracked_maps, p_sorted, remaining, node_sel, first, v0_nodes,
    out_slot, step4_flat, n_levels, out_width,
):
    tracked_maps = _i64(tracked_maps)
    p_sorted = _i64(p_sorted)
    remaining = _i64(remaining)
    node_sel = _i64(node_sel)
    first_u8 = _u8(first)
    v0_nodes = _i64(v0_nodes)
    out_slot = _i64(out_slot)
    step4_flat = _i64(step4_flat)
    out = np.zeros(int(out_width), dtype=np.int64)
    _lib.repro_read_levels_maps(
        _p(tracked_maps), _p(p_sorted), _p(remaining), _p(node_sel),
        _pu8(first_u8), _p(v0_nodes), _p(out_slot), len(p_sorted),
        _p(step4_flat), int(n_levels), _p(out),
    )
    return out
