"""Generated-C kernel backend (cffi API mode, compiled once, cached).

The ten ops become plain sequential C loops over int64 arrays.  The
extension is compiled a single time into a content-addressed cache
directory — keyed by a hash of the C source plus the cffi/python
versions — and re-loaded from disk on every later run (and in every
worker process) without invoking the compiler again.  The compile runs
in a child interpreter, so the build toolchain never loads into (or
stays resident in) the calling process.  Cache location:
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
ever allocated.

The three noise ops read a trial plan's noise — ``draw_noise``'s four
``Generator.integers`` fills of ``n`` values — off numpy's stream from
a PCG64 position passed as a plain value (state, increment and the
pending half-word of ``next_uint32``'s buffer, which every 32-bit
bounded fill shares).  A fill whose range cannot reject (a power of
two) is jumped over in O(log n); one that can is scanned value by
value with numpy's Lemire rejection.  ``noise_advance`` returns where
the draw ends; ``noise_front`` draws the addresses and outcomes,
``noise_back`` the gshare indices and the selector nudges, and neither
allocates the four arrays.

:func:`load` checks one fused summary and the three noise ops against
the numpy backend on fixed draws and refuses to load
(:class:`StreamMismatch`) if numpy's stream mapping has changed.

``hypothesis_hits`` walks rows × programs × steps without clearing a
table between (row, program) pairs: PHT entries and addresses carry an
epoch stamp, and an older stamp reads as power-up state.

Speed note: the ``summarize_block`` loop is branch-free per branch,
because mispredictions, not arithmetic, set its cost.  The history fold
runs a fixed number of passes per call, and an untracked gshare entry
folds into a spare accumulator slot past the tracked ones, which the
wrapper allocates and drops.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
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
void repro_noise_advance(uint64_t *stream, int64_t n, uint32_t rng_a,
                         uint32_t rng_g);
void repro_noise_front(const uint64_t *stream, int64_t n, int64_t low,
                       uint32_t rng_a, const int64_t *offsets, int64_t r2,
                       int64_t n_b, const int64_t *last_b, int64_t n_sel,
                       int64_t tsel, int64_t n_sets, int64_t tset,
                       int64_t tag_mask, int64_t ghr_mask, int64_t *tails,
                       int64_t *noise_tag, int64_t *hit_idx,
                       int64_t *hit_epoch, int64_t *hit_out,
                       int64_t *on_tsel, uint8_t *outcomes,
                       int64_t *counts);
void repro_noise_back(const uint64_t *stream, int64_t n, uint32_t rng_a,
                      uint32_t rng_g, const int64_t *offsets, int64_t r2,
                      const uint8_t *outcomes, const int64_t *on_tsel,
                      int64_t n_tsel, const int64_t *last_g,
                      int64_t *drift, int64_t *hit_idx, int64_t *hit_key,
                      int64_t *counts);
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
int repro_predictor_hits(const int64_t *addr, const uint8_t *taken,
                         int64_t n, const int64_t *observed,
                         int64_t n_obs, int64_t n_b, int64_t shift_b,
                         int64_t n_g, int64_t shift_g, int64_t ghr_len,
                         int64_t n_sel, int64_t sel_init, int64_t sel_max,
                         int64_t n_sets, int64_t tag_mask,
                         const int8_t *step, int64_t n_levels,
                         const uint8_t *predict, int64_t init_level,
                         uint8_t *hits);
int repro_hypothesis_hits(const int64_t *addr, const uint8_t *taken,
                          const int64_t *aid, int64_t n_ids, int64_t n,
                          const int64_t *starts, int64_t n_programs,
                          const int64_t *observed, int64_t n_obs,
                          const int64_t *rows, int64_t n_rows,
                          const int8_t *step, int64_t n_levels,
                          const uint8_t *predict, const int64_t *biases,
                          int64_t n_biases, int64_t sel_max,
                          uint8_t *hits);
"""

_SOURCE = """
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* repro.bpu.hashes.fold_history's chunk width for an n-entry table:
 * floor(log2(n)), at least 1. */
static inline int64_t repro_fold_width(int64_t n)
{
    int64_t w = 0;
    for (int64_t m = n; m > 1; m >>= 1)
        w++;
    return w < 1 ? 1 : w;
}

/* fold_history itself: XOR of the w-bit chunks of a history. */
static inline int64_t repro_fold(int64_t ghr, int64_t w)
{
    int64_t folded = 0, w_mask = ((int64_t)1 << w) - 1;
    for (int64_t h = ghr; h != 0; h >>= w)
        folded ^= h & w_mask;
    return folded;
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

/* A numpy PCG64 bit generator as a plain value: the LCG state and
 * increment, plus the half-word next_uint32 keeps buffered (has: one
 * is pending; u: its value, which stays put once handed out).  Every
 * 32-bit bounded Generator.integers draw goes through that buffer, so
 * successive draws share one run of half-words, and poisson/random
 * (64-bit draws) leave it alone.  Passed in and out as six uint64:
 * state hi/lo, inc hi/lo, has, u. */
typedef struct {
    repro_u128 state, inc;
    uint32_t u;
    int has;
} repro_pcg32;

static void repro_pcg32_load(repro_pcg32 *g, const uint64_t *v)
{
    g->state = ((repro_u128)v[0] << 64) | v[1];
    g->inc = ((repro_u128)v[2] << 64) | v[3];
    g->has = (int)v[4];
    g->u = (uint32_t)v[5];
}

static void repro_pcg32_store(const repro_pcg32 *g, uint64_t *v)
{
    v[0] = (uint64_t)(g->state >> 64);
    v[1] = (uint64_t)g->state;
    v[4] = (uint64_t)g->has;
    v[5] = g->u;
}

/* Hand out k half-words unseen: the pending one, then a jump to the
 * last word they reach, whose high half stays pending when the count
 * left after the pending one is odd. */
static void repro_skip_halves(repro_pcg32 *g, uint64_t k)
{
    if (k > 0 && g->has) {
        g->has = 0;
        k--;
    }
    if (k == 0)
        return;
    g->state = repro_pcg_advance(g->state, g->inc, (k + 1) / 2 - 1);
    uint64_t w = repro_pcg_next(&g->state, g->inc);
    g->u = (uint32_t)(w >> 32);
    g->has = (int)(k & 1);
}

/* count outcome bits (range 2: the half-word's top bit, which
 * Lemire's method never rejects) as bytes: what Generator.integers
 * draws for a range of two. */
static inline void repro_draw_bits(repro_pcg32 *g, uint8_t *out,
                                   int64_t count)
{
    int64_t k = 0;
    if (g->has && count > 0) {
        out[k++] = (uint8_t)(g->u >> 31);
        g->has = 0;
    }
    for (; k + 1 < count; k += 2) {
        uint64_t w = repro_pcg_next(&g->state, g->inc);
        g->u = (uint32_t)(w >> 32);
        out[k] = (uint8_t)((w >> 31) & 1);
        out[k + 1] = (uint8_t)(w >> 63);
    }
    if (k < count) {
        uint64_t w = repro_pcg_next(&g->state, g->inc);
        g->u = (uint32_t)(w >> 32);
        out[k] = (uint8_t)((w >> 31) & 1);
        g->has = 1;
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
repro_summarize_loop(repro_pcg32 *ca, repro_pcg32 *cb, int64_t n,
                     int64_t base, const int64_t *oid, const int64_t *ct,
                     int64_t size, int64_t n_b, int64_t shift_b,
                     int64_t tb, int64_t n_g, int64_t shift_g,
                     const int64_t *pos_table, int64_t ghr_mask,
                     int64_t n_sel, int64_t tsel, int64_t n_sets,
                     int64_t tset, int64_t tag_mask, int64_t identity,
                     int64_t n_tracked, int64_t *g_acc, int64_t *scalars)
{
    int64_t bim = identity, ghr = 0, touched = 0, block_tag = -1;
    int64_t fold_w = repro_fold_width(n_g);
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
        repro_draw_bits(ca, step_bits, m);
        repro_draw_bits(cb, taken, m);
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
    repro_pcg32 ca, cb;
    ca.state = ((repro_u128)state_hi << 64) | state_lo;
    ca.inc = ((repro_u128)inc_hi << 64) | inc_lo;
    ca.u = 0;
    ca.has = 0;
    cb = ca;
    repro_skip_halves(&cb, (uint64_t)n);
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

/* Lemire's method as numpy's 32-bit bounded fill runs it over a range
 * of rng + 1 (at most 2^32): a half-word h gives (h * range) >> 32,
 * unless the product's low half is below (2^32 - range) % range, when
 * h is rejected and the next half-word tried.  That threshold is 0
 * for a power of two (never rejects) and 1 for a range of 3 (rejects
 * only a zero half-word).  numpy takes range 2^32 raw, which the same
 * formula gives, and draws nothing at all for range 1. */
typedef struct {
    uint64_t range;
    uint32_t threshold;
} repro_lemire;

static repro_lemire repro_lemire_of(uint32_t rng)
{
    repro_lemire r;
    r.range = (uint64_t)rng + 1;
    r.threshold = (uint32_t)(((uint64_t)1 << 32) % r.range);
    return r;
}

/* Lemire's accept step: a half-word h of a fill over r yields a value
 * into out[k] (only counted when out is NULL) unless it is rejected. */
#define REPRO_TAKE(r, h, out, k)                        \
    do {                                                \
        uint64_t m_ = (uint64_t)(h) * (r).range;        \
        if ((uint32_t)m_ >= (r).threshold) {            \
            if (out)                                    \
                (out)[k] = (uint32_t)(m_ >> 32);        \
            (k)++;                                      \
        }                                               \
    } while (0)

/* count values of one integers fill, a word at a time: the pending
 * half-word first, then low and high halves, the last word's high half
 * left pending when the count runs out on its low half.  out == NULL
 * only skips them. */
static inline __attribute__((always_inline)) void
repro_draw(repro_pcg32 *g, repro_lemire r, uint32_t *out, int64_t count)
{
    int64_t k = 0;
    if (r.range == 1) {  /* numpy draws nothing */
        for (; out && k < count; k++)
            out[k] = 0;
        return;
    }
    if (count > 0 && g->has) {
        g->has = 0;
        REPRO_TAKE(r, g->u, out, k);
    }
    while (k < count) {
        uint64_t w = repro_pcg_next(&g->state, g->inc);
        g->u = (uint32_t)(w >> 32);
        REPRO_TAKE(r, (uint32_t)w, out, k);
        if (k == count) {
            g->has = 1;
            break;
        }
        REPRO_TAKE(r, g->u, out, k);
    }
}

/* Skip count values over a range of rng + 1: one jump when none can
 * reject (range 1, a power of two, 2^32), else a scan. */
static void repro_skip(repro_pcg32 *g, uint32_t rng, int64_t count)
{
    if (rng == 0 || count <= 0)
        return;
    if ((rng & (rng + 1)) == 0)  /* rng + 1 wraps to 0 at 2^32 */
        repro_skip_halves(g, (uint64_t)count);
    else
        repro_draw(g, repro_lemire_of(rng), 0, count);
}

/* A trial plan's noise is draw_noise's four integers fills of n values
 * on one stream: addresses (range rng_a + 1), outcomes (range 2),
 * gshare indices (range rng_g + 1), nudges (range 3).  Each pass reads
 * its fills from cursors jumped (or, past a range that can reject,
 * scanned) to their starts. */

/* The stream position the whole draw ends at, in place. */
void repro_noise_advance(uint64_t *stream, int64_t n, uint32_t rng_a,
                         uint32_t rng_g)
{
    repro_pcg32 g;
    repro_pcg32_load(&g, stream);
    repro_skip(&g, rng_a, n);
    repro_skip(&g, 1, n);
    repro_skip(&g, rng_g, n);
    repro_skip(&g, 2, n);
    repro_pcg32_store(&g, stream);
}

/* Pass 1's body, specialised by the caller on pow2 (every table size a
 * power of two, so each modulo is one AND): always inlined, as the
 * summary loop is.  The outcome bits go straight into outcomes. */
static inline __attribute__((always_inline)) void
repro_front_loop(repro_pcg32 *ga, repro_pcg32 *gb, repro_lemire la,
                 int64_t n, int64_t low, const int64_t *offsets,
                 int64_t r2, int64_t n_b, const int64_t *last_b,
                 int64_t n_sel, int64_t tsel, int64_t n_sets, int64_t tset,
                 int64_t tag_mask, int64_t ghr_mask, int pow2,
                 int64_t *tails, int64_t *noise_tag, int64_t *hit_idx,
                 int64_t *hit_epoch, int64_t *hit_out, int64_t *on_tsel,
                 uint8_t *outcomes, int64_t *counts)
{
    uint32_t va[REPRO_DRAW_CHUNK];
    int64_t n_hits = 0, n_tsel = 0, e = 0, tag = -1, h = 0;
    for (int64_t start = 0; start < n; start += REPRO_DRAW_CHUNK) {
        int64_t m = n - start < REPRO_DRAW_CHUNK ? n - start
                                                 : REPRO_DRAW_CHUNK;
        repro_draw(ga, la, va, m);
        repro_draw_bits(gb, outcomes + start, m);
        for (int64_t j = 0; j < m; j++) {
            int64_t i = start + j;
            while (i >= offsets[e + 1]) {
                noise_tag[e] = tag;
                tails[e++] = h;
                tag = -1;
                h = 0;
            }
            int64_t a = low + (int64_t)va[j];
            int64_t bit = (int64_t)outcomes[i];
            int64_t b = pow2 ? a & (n_b - 1) : a % n_b;
            h = ((h << 1) | bit) & ghr_mask;
            if (e < last_b[b]) {
                hit_idx[n_hits] = b;
                hit_epoch[n_hits] = e;
                hit_out[n_hits++] = bit;
            }
            if ((pow2 ? a & (n_sel - 1) : a % n_sel) == tsel)
                on_tsel[n_tsel++] = i;
            if ((pow2 ? a & (n_sets - 1) : a % n_sets) == tset)
                tag = (a / n_sets) & tag_mask;
        }
    }
    for (; e < r2; e++) {
        noise_tag[e] = tag;
        tails[e] = h;
        tag = -1;
        h = 0;
    }
    counts[0] = n_hits;
    counts[1] = n_tsel;
}

/* Pass 1, addresses and outcomes, gap by gap (offsets: r2 + 1 prefix
 * offsets ending at n).  Per gap: the tag of its last address on BIT
 * set tset (-1 if none) and its GHR tail.  The bimodal hits before
 * their entry's last read come out as (entry, gap, outcome) in time
 * order, and the positions of the addresses on selector entry tsel in
 * order; counts gets how many of each. */
void repro_noise_front(const uint64_t *stream, int64_t n, int64_t low,
                       uint32_t rng_a, const int64_t *offsets, int64_t r2,
                       int64_t n_b, const int64_t *last_b, int64_t n_sel,
                       int64_t tsel, int64_t n_sets, int64_t tset,
                       int64_t tag_mask, int64_t ghr_mask, int64_t *tails,
                       int64_t *noise_tag, int64_t *hit_idx,
                       int64_t *hit_epoch, int64_t *hit_out,
                       int64_t *on_tsel, uint8_t *outcomes,
                       int64_t *counts)
{
    repro_pcg32 ga, gb;
    repro_pcg32_load(&ga, stream);
    gb = ga;
    repro_skip(&gb, rng_a, n);
    repro_lemire la = repro_lemire_of(rng_a);
    if ((n_b & (n_b - 1)) == 0 && (n_sel & (n_sel - 1)) == 0
        && (n_sets & (n_sets - 1)) == 0)
        repro_front_loop(&ga, &gb, la, n, low, offsets, r2, n_b, last_b,
                         n_sel, tsel, n_sets, tset, tag_mask, ghr_mask, 1,
                         tails, noise_tag, hit_idx, hit_epoch, hit_out,
                         on_tsel, outcomes, counts);
    else
        repro_front_loop(&ga, &gb, la, n, low, offsets, r2, n_b, last_b,
                         n_sel, tsel, n_sets, tset, tag_mask, ghr_mask, 0,
                         tails, noise_tag, hit_idx, hit_epoch, hit_out,
                         on_tsel, outcomes, counts);
}

/* Pass 2, gshare indices and nudges, with pass 1's outcome bits and
 * tsel positions.  The gshare hits before their entry's last read come
 * out as entries in hit_idx and (gap << 1 | outcome) in hit_key, in
 * time order, counted in counts[0]; about half the noise hits a read
 * gshare entry, so each candidate is written one slot past the count
 * (the lists hold n + 1) and counted by the test, off the branch
 * predictor.  drift gets each gap's summed nudge on tsel: the nudge
 * fill is drawn up to the last tsel branch, keeping only theirs. */
void repro_noise_back(const uint64_t *stream, int64_t n, uint32_t rng_a,
                      uint32_t rng_g, const int64_t *offsets, int64_t r2,
                      const uint8_t *outcomes, const int64_t *on_tsel,
                      int64_t n_tsel, const int64_t *last_g,
                      int64_t *drift, int64_t *hit_idx, int64_t *hit_key,
                      int64_t *counts)
{
    repro_pcg32 gc, gd;
    repro_pcg32_load(&gc, stream);
    repro_skip(&gc, rng_a, n);
    repro_skip(&gc, 1, n);
    gd = gc;
    repro_skip(&gd, rng_g, n);
    repro_lemire lc = repro_lemire_of(rng_g), ld = repro_lemire_of(2);
    uint32_t vc[REPRO_DRAW_CHUNK];
    int64_t n_hits = 0, e = 0;
    for (int64_t start = 0; start < n; start += REPRO_DRAW_CHUNK) {
        int64_t m = n - start < REPRO_DRAW_CHUNK ? n - start
                                                 : REPRO_DRAW_CHUNK;
        repro_draw(&gc, lc, vc, m);
        for (int64_t j = 0; j < m; j++) {
            int64_t i = start + j;
            while (i >= offsets[e + 1])
                e++;
            int64_t x = (int64_t)vc[j];
            hit_idx[n_hits] = x;
            hit_key[n_hits] = (e << 1) | outcomes[i];
            n_hits += e < last_g[x];
        }
    }
    counts[0] = n_hits;

    for (e = 0; e < r2; e++)
        drift[e] = 0;
    int64_t at = 0;  /* gd's value position */
    e = 0;
    for (int64_t k = 0; k < n_tsel; k++) {
        int64_t i = on_tsel[k];
        uint32_t v;
        while (i >= offsets[e + 1])
            e++;
        repro_draw(&gd, ld, 0, i - at);
        repro_draw(&gd, ld, &v, 1);
        at = i + 1;
        drift[e] += (int64_t)v - 1;
    }
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

/* One program on a power-up hybrid predictor (Figure 1): hits[j] is
 * whether the final prediction at step observed[j] matched its
 * outcome.  The four tables live for this call only, sized from the
 * geometry (int8 levels and choice counters: the wrapper refuses more
 * than 127 of either; a BIT set holds its tag, -1 while empty).
 * Returns -1, with no hit written, when they cannot be allocated. */
int repro_predictor_hits(const int64_t *addr, const uint8_t *taken,
                         int64_t n, const int64_t *observed,
                         int64_t n_obs, int64_t n_b, int64_t shift_b,
                         int64_t n_g, int64_t shift_g, int64_t ghr_len,
                         int64_t n_sel, int64_t sel_init, int64_t sel_max,
                         int64_t n_sets, int64_t tag_mask,
                         const int8_t *step, int64_t n_levels,
                         const uint8_t *predict, int64_t init_level,
                         uint8_t *hits)
{
    int8_t *bim = malloc(n_b), *gsh = malloc(n_g), *sel = malloc(n_sel);
    int64_t *tags = malloc(n_sets * sizeof(int64_t));
    int ok = bim && gsh && sel && tags;
    if (ok) {
        memset(bim, (int)init_level, n_b);
        memset(gsh, (int)init_level, n_g);
        memset(sel, (int)sel_init, n_sel);
        for (int64_t i = 0; i < n_sets; i++)
            tags[i] = -1;
        int64_t w = repro_fold_width(n_g);
        int64_t ghr_mask = ((int64_t)1 << ghr_len) - 1, ghr = 0, j = 0;
        for (int64_t t = 0; t < n; t++) {
            int64_t a = addr[t], o = taken[t];
            int64_t b = repro_index(a, n_b, shift_b);
            int64_t g = repro_index(a ^ repro_fold(ghr, w), n_g, shift_g);
            int64_t b_taken = predict[bim[b]], g_taken = predict[gsh[g]];
            int64_t s = repro_mod(a, n_sel), set = repro_mod(a, n_sets);
            int64_t tag = (a / n_sets) & tag_mask;
            int cold = tags[set] != tag;
            int64_t predicted =
                !cold && sel[s] >= sel_max ? g_taken : b_taken;
            if (j < n_obs && observed[j] == t)
                hits[j++] = predicted == o;
            bim[b] = step[o * n_levels + bim[b]];
            gsh[g] = step[o * n_levels + gsh[g]];
            if (cold)
                sel[s] = (int8_t)sel_init;
            else if (b_taken != g_taken) {
                if (g_taken == o) {
                    if (sel[s] < sel_max)
                        sel[s]++;
                } else if (sel[s] > 0) {
                    sel[s]--;
                }
            }
            ghr = ((ghr << 1) | o) & ghr_mask;
            tags[set] = tag;
        }
    }
    free(bim);
    free(gsh);
    free(sel);
    free(tags);
    return ok ? 0 : -1;
}

/* Many programs under many candidate geometries (the fuzz lattice):
 * hits[(k * n_rows + r) * n_obs + j] is whether row r under selector
 * bias biases[k] predicts the outcome of step observed[j].  Program p
 * runs steps starts[p] up to the next start (the last to n); rows is
 * (4, n_rows): table size, kernel hash shift, history bits and initial
 * level per row.  aid[t] is a dense id of addr[t], below n_ids.
 *
 * Every (row, program) starts from power-up state without clearing a
 * table: each PHT entry and each address carries the epoch of the
 * (row, program) that last wrote it, and an older stamp reads as the
 * initial level, or as "cold" for an address.  The PHT levels and
 * cold steps do not depend on the bias, so one walk keeps a choice
 * counter per (bias, address).  Returns -1, with no hit written, when
 * the scratch tables cannot be allocated. */
int repro_hypothesis_hits(const int64_t *addr, const uint8_t *taken,
                          const int64_t *aid, int64_t n_ids, int64_t n,
                          const int64_t *starts, int64_t n_programs,
                          const int64_t *observed, int64_t n_obs,
                          const int64_t *rows, int64_t n_rows,
                          const int8_t *step, int64_t n_levels,
                          const uint8_t *predict, const int64_t *biases,
                          int64_t n_biases, int64_t sel_max,
                          uint8_t *hits)
{
    const int64_t *sizes = rows, *shifts = rows + n_rows;
    const int64_t *ghr_bits = rows + 2 * n_rows, *init = rows + 3 * n_rows;
    int64_t max_n = 1;
    for (int64_t r = 0; r < n_rows; r++)
        if (sizes[r] > max_n)
            max_n = sizes[r];
    int8_t *bim = malloc(max_n), *gsh = malloc(max_n);
    uint32_t *bim_at = calloc(max_n, sizeof(uint32_t));
    uint32_t *gsh_at = calloc(max_n, sizeof(uint32_t));
    uint32_t *seen = calloc(n_ids + 1, sizeof(uint32_t));
    int8_t *sel = malloc(n_biases * n_ids + 1);
    int ok = bim && gsh && bim_at && gsh_at && seen && sel;
    uint32_t epoch = 0;
    for (int64_t r = 0; ok && r < n_rows; r++) {
        int64_t n_e = sizes[r], s = shifts[r], lvl0 = init[r];
        int64_t w = repro_fold_width(n_e);
        int64_t ghr_mask = ((int64_t)1 << ghr_bits[r]) - 1, j = 0;
        for (int64_t p = 0; p < n_programs; p++) {
            if (++epoch == 0) {  /* wrapped: no stamp is current */
                memset(bim_at, 0, max_n * sizeof(uint32_t));
                memset(gsh_at, 0, max_n * sizeof(uint32_t));
                memset(seen, 0, (n_ids + 1) * sizeof(uint32_t));
                epoch = 1;
            }
            int64_t end = p + 1 < n_programs ? starts[p + 1] : n, ghr = 0;
            for (int64_t t = starts[p]; t < end; t++) {
                int64_t a = addr[t], o = taken[t], id = aid[t];
                int64_t b = repro_index(a, n_e, s);
                int64_t g = repro_index(a ^ repro_fold(ghr, w), n_e, s);
                int64_t bl = bim_at[b] == epoch ? bim[b] : lvl0;
                int64_t gl = gsh_at[g] == epoch ? gsh[g] : lvl0;
                int64_t b_taken = predict[bl], g_taken = predict[gl];
                int cold = seen[id] != epoch;
                int8_t *count = sel + id;  /* bias k at count[k * n_ids] */
                if (j < n_obs && observed[j] == t) {
                    for (int64_t k = 0; k < n_biases; k++) {
                        int64_t predicted =
                            !cold && count[k * n_ids] >= sel_max
                                ? g_taken : b_taken;
                        hits[(k * n_rows + r) * n_obs + j] = predicted == o;
                    }
                    j++;
                }
                bim[b] = step[o * n_levels + bl];
                bim_at[b] = epoch;
                gsh[g] = step[o * n_levels + gl];
                gsh_at[g] = epoch;
                if (cold) {
                    seen[id] = epoch;
                    for (int64_t k = 0; k < n_biases; k++)
                        count[k * n_ids] = (int8_t)biases[k];
                } else if (b_taken != g_taken) {
                    for (int64_t k = 0; k < n_biases; k++) {
                        int8_t *c = count + k * n_ids;
                        if (g_taken == o) {
                            if (*c < sel_max)
                                (*c)++;
                        } else if (*c > 0) {
                            (*c)--;
                        }
                    }
                }
                ghr = ((ghr << 1) | o) & ghr_mask;
            }
        }
    }
    free(bim);
    free(gsh);
    free(bim_at);
    free(gsh_at);
    free(seen);
    free(sel);
    return ok ? 0 : -1;
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


#: Compiles the extension described by the JSON job on stdin.  Run in a
#: child interpreter, so the build toolchain (setuptools, distutils and
#: the C compiler's wrappers) never loads into the calling process.
_BUILD_SCRIPT = """
import json, sys
import cffi
job = json.load(sys.stdin)
ffibuilder = cffi.FFI()
ffibuilder.cdef(job["cdef"])
ffibuilder.set_source(
    job["modname"], job["source"], extra_compile_args=["-O2"]
)
ffibuilder.compile(tmpdir=job["tmpdir"])
"""


def _build(cache: Path, modname: str) -> Path:
    """Compile the extension into the cache dir in a child interpreter
    (atomic rename); raises ``RuntimeError`` if the build fails."""
    cache.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".build-", dir=str(cache))
    try:
        job = {"cdef": _CDEF, "source": _SOURCE, "modname": modname,
               "tmpdir": tmp}
        done = subprocess.run(
            [sys.executable, "-c", _BUILD_SCRIPT],
            input=json.dumps(job),
            capture_output=True,
            text=True,
        )
        built = _find_cached(Path(tmp), modname)
        if done.returncode or built is None:
            raise RuntimeError(
                f"building {modname} failed (exit {done.returncode}): "
                f"{done.stderr.strip()[-2000:]}"
            )
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
    """A fused draw disagrees with numpy's own (``RandomizationBlock.
    generate``'s block or ``draw_noise``'s noise): numpy changed how
    ``Generator.integers`` maps the PCG64 stream."""

    #: The ``kernel_init`` fallback reason the dispatcher records.
    fallback_reason = "cffi_stream_mismatch"


#: Whether the stream canary has passed in this process.
_stream_checked = False


def _same(got, ref) -> bool:
    if isinstance(ref, tuple):
        return len(got) == len(ref) and all(map(_same, got, ref))
    return np.array_equal(got, ref)


def _check_noise() -> None:
    """Compare the three noise ops with the numpy backend's on a fixed
    odd-length draw that starts on a pending half-word, with a gshare
    range that is not a power of two and an empty gap; raise
    :class:`StreamMismatch` when they differ.

    Every bimodal and gshare entry is read to the end, so every
    branch's address, outcome and gshare index lands in a hit, and a
    quarter of the nudges in the drift.
    """
    from repro.system.noise import NOISE_REGION, pcg64_stream

    rng = np.random.default_rng(17)
    rng.integers(0, 2)
    stream = pcg64_stream(rng)
    n, n_g = 1001, 12289
    offsets = np.array([0, 100, 100, 350, 600, 601, 900, n])
    r2 = len(offsets) - 1
    noise = (n, n_g, NOISE_REGION)
    front_args = (offsets, 64, np.full(64, r2), 4, 3, 8, 5, 0xFF, 13)
    results = []
    for impl in (sys.modules[__name__], numpy_backend):
        end = impl.noise_advance(stream, *noise)
        front = impl.noise_front(stream, *noise, *front_args)
        back = impl.noise_back(
            stream, *noise, offsets, front[4], front[3], np.full(n_g, r2)
        )
        results.append((end, front, back))
    if not _same(*results):
        raise StreamMismatch(
            f"fused noise passes disagree with draw_noise on numpy "
            f"{np.__version__}"
        )


def _check_stream() -> None:
    """Compare one fused summary with the numpy backend's on a fixed
    odd-length block, and the noise passes on a fixed draw
    (:func:`_check_noise`); raise :class:`StreamMismatch` when they
    differ.

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
    _check_noise()


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


def _pi8(a: np.ndarray):
    return _ffi.cast("int8_t *", _ffi.from_buffer(a))


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


def _stream_words(stream) -> np.ndarray:
    """A PCG64 stream value as the six uint64 the C side reads."""
    state, inc, has_uint32, uinteger = stream
    return np.array(
        [state >> 64, state & _MASK64, inc >> 64, inc & _MASK64,
         has_uint32, uinteger],
        dtype=np.uint64,
    )


def _stream_value(words: np.ndarray):
    hi, lo, inc_hi, inc_lo, has_uint32, uinteger = (int(w) for w in words)
    return ((hi << 64) | lo, (inc_hi << 64) | inc_lo, has_uint32, uinteger)


def _pu64(a: np.ndarray):
    return _ffi.cast("uint64_t *", _ffi.from_buffer(a))


def _noise_ranges(n, n_gshare, region):
    """``(n, rng_a, rng_g)`` for the C noise passes; ValueError for a
    range outside numpy's 32-bit bounded draw (or an address that could
    go negative or overflow), which the C passes cannot draw."""
    low, high = (int(v) for v in region)
    n_gshare = int(n_gshare)
    if not (0 < high - low <= 1 << 32 and 0 < n_gshare <= 1 << 32):
        raise ValueError("noise ranges must fit a 32-bit bounded draw")
    if low < 0 or high > 1 << 62:
        raise ValueError("noise addresses must lie in [0, 2**62]")
    return max(int(n), 0), high - low - 1, n_gshare - 1


def _gap_offsets(offsets, n) -> np.ndarray:
    offsets = _i64(offsets)
    if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != n or (
        np.diff(offsets) < 0
    ).any():
        raise ValueError("noise gap offsets must run from 0 up to n")
    return offsets


def noise_advance(stream, n, n_gshare, region, cache=None):
    n, rng_a, rng_g = _noise_ranges(n, n_gshare, region)
    words = _stream_words(stream)
    _lib.repro_noise_advance(_pu64(words), n, rng_a, rng_g)
    return _stream_value(words)


def noise_front(
    stream, n, n_gshare, region, offsets, n_b, last_b, n_sel, tsel,
    n_sets, tset, tag_mask, ghr_len, cache=None,
):
    n, rng_a, _ = _noise_ranges(n, n_gshare, region)
    offsets = _gap_offsets(offsets, n)
    last_b = _i64(last_b)
    if min(int(n_b), int(n_sel), int(n_sets)) < 1:
        raise ValueError("table sizes must be positive")
    if len(last_b) < int(n_b):
        raise ValueError("last_b needs one entry per bimodal entry")
    r2 = len(offsets) - 1
    tails = np.empty(r2, dtype=np.int64)
    noise_tag = np.empty(r2, dtype=np.int64)
    # Sized for the worst case; only the used prefix is ever touched.
    hit_idx = np.empty(n, dtype=np.int64)
    hit_epoch = np.empty(n, dtype=np.int64)
    hit_out = np.empty(n, dtype=np.int64)
    on_tsel = np.empty(n, dtype=np.int64)
    outcomes = np.empty(n, dtype=np.uint8)
    counts = np.zeros(2, dtype=np.int64)
    start = _stream_words(stream)
    _lib.repro_noise_front(
        _pu64(start), n, int(region[0]), rng_a,
        _p(offsets), r2, int(n_b), _p(last_b), int(n_sel), int(tsel),
        int(n_sets), int(tset), int(tag_mask), (1 << int(ghr_len)) - 1,
        _p(tails), _p(noise_tag), _p(hit_idx), _p(hit_epoch),
        _p(hit_out), _p(on_tsel), _pu8(outcomes), _p(counts),
    )
    k, m = int(counts[0]), int(counts[1])
    hits = (hit_idx[:k].copy(), hit_epoch[:k].copy(), hit_out[:k].copy())
    return tails, noise_tag, hits, on_tsel[:m].copy(), outcomes.view(bool)


def noise_back(
    stream, n, n_gshare, region, offsets, outcomes, on_tsel, last_g,
    cache=None,
):
    n, rng_a, rng_g = _noise_ranges(n, n_gshare, region)
    offsets = _gap_offsets(offsets, n)
    last_g = _i64(last_g)
    if len(last_g) < int(n_gshare):
        raise ValueError("last_g needs one entry per gshare index")
    outcomes = _u8(outcomes)
    if len(outcomes) < n:
        raise ValueError("outcomes needs one bit per noise branch")
    on_tsel = _i64(on_tsel)
    if len(on_tsel) and (
        on_tsel[0] < 0 or on_tsel[-1] >= n or (np.diff(on_tsel) <= 0).any()
    ):
        raise ValueError("on_tsel must be increasing positions below n")
    drift = np.empty(len(offsets) - 1, dtype=np.int64)
    # One slot past the worst case: the C side writes each candidate hit
    # before counting it.
    hit_idx = np.empty(n + 1, dtype=np.int64)
    hit_key = np.empty(n + 1, dtype=np.int64)
    counts = np.zeros(1, dtype=np.int64)
    # A local keeps the buffer alive across the call (a cast pointer
    # does not).
    start = _stream_words(stream)
    _lib.repro_noise_back(
        _pu64(start), n, rng_a, rng_g, _p(offsets), len(drift),
        _pu8(outcomes), _p(on_tsel), len(on_tsel), _p(last_g), _p(drift), _p(hit_idx), _p(hit_key),
        _p(counts),
    )
    k = int(counts[0])
    key = hit_key[:k]
    return drift, (hit_idx[:k].copy(), key >> 1, key & 1)


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


def predictor_hits(
    addresses, outcomes, observed, n_b, shift_b, n_g, shift_g, ghr_len,
    n_sel, sel_init, sel_max, n_sets, tag_bits, step_table, predict_taken,
    init_level,
):
    addresses, outcomes, observed, step_table, predict_taken = (
        numpy_backend.predictor_program(
            addresses, outcomes, observed, n_b, shift_b, n_g, shift_g,
            ghr_len, n_sel, sel_init, sel_max, n_sets, tag_bits,
            step_table, predict_taken, init_level,
        )
    )
    addresses = _i64(addresses)
    outcomes = _u8(outcomes)
    observed = _i64(observed)
    predict = _u8(predict_taken)
    step = np.ascontiguousarray(step_table)
    hits = np.zeros(len(observed), dtype=np.uint8)
    # Tags are at most 63 bits: the address is.
    tag_mask = (1 << min(int(tag_bits), 63)) - 1
    failed = _lib.repro_predictor_hits(
        _p(addresses), _pu8(outcomes), len(addresses), _p(observed),
        len(observed), int(n_b), int(shift_b), int(n_g), int(shift_g),
        int(ghr_len), int(n_sel), int(sel_init), int(sel_max),
        int(n_sets), tag_mask, _pi8(step), step.shape[1], _pu8(predict),
        int(init_level), _pu8(hits),
    )
    if failed:
        raise MemoryError("cannot allocate the predictor tables")
    return hits.view(bool)


def hypothesis_hits(
    addresses, outcomes, starts, observed, sizes, shifts, ghr_bits,
    init_levels, step_table, predict_taken, biases, sel_max,
):
    addresses, outcomes, starts, observed, rows, step, predict, biases = (
        numpy_backend.hypothesis_program(
            addresses, outcomes, starts, observed, sizes, shifts, ghr_bits,
            init_levels, step_table, predict_taken, biases, sel_max,
        )
    )
    # Dense address ids for the per-address choice counters and cold
    # stamps; the epoch stamps restart them per program.
    ids = _i64(np.unique(addresses, return_inverse=True)[1])
    addresses, starts, observed, biases = map(
        _i64, (addresses, starts, observed, biases)
    )
    outcomes = _u8(outcomes)
    predict = _u8(predict)
    step = np.ascontiguousarray(step)
    hits = np.zeros((len(biases), rows.shape[1], len(observed)), np.uint8)
    failed = _lib.repro_hypothesis_hits(
        _p(addresses), _pu8(outcomes), _p(ids),
        int(ids.max()) + 1 if len(ids) else 0, len(addresses), _p(starts),
        len(starts), _p(observed), len(observed), _p(rows), rows.shape[1],
        _pi8(step), step.shape[1], _pu8(predict), _p(biases), len(biases),
        int(sel_max), _pu8(hits),
    )
    if failed:
        raise MemoryError("cannot allocate the hypothesis tables")
    return hits.view(bool)
