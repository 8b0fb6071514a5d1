"""Vectorized set-partitioned cache-simulation kernels.

The reference simulator in :mod:`repro.sim.cache` replays one access at a
time against lists-of-lists state — exact, readable, and slow (~1 µs per
access).  This module replays the same trace with NumPy array state and is
bit-exact with the reference for every policy: same hit bits, same
final tags/RRPVs and PSEL / access-position state after chained
``simulate`` calls.

Architecture (see DESIGN.md for the long version):

1.  **Set partitioning.**  Accesses to different cache sets never share
    tag/RRPV state, so the trace is grouped by set index with one stable
    argsort (int16 keys hit NumPy's radix sort).  Tags are stored
    compressed as ``line // num_sets`` — the set index is implicit — which
    usually fits int16 and halves compare bandwidth.

2.  **Run dedup.**  Consecutive accesses to the same line *within a set
    stream* are guaranteed hits that consume no BRRIP draw and no PSEL
    update; for RRIP policies a run of length ≥ 2 leaves the line at
    RRPV 0, equivalent to inserting the head of the run with RRPV 0.
    The kernel therefore simulates only run heads and force-fills hits
    for the tail — exact, and 25–60 % fewer simulated accesses on real
    SpMV traces.

3.  **Chunked lockstep replay.**  Each set stream is split into chunks of
    ``chunk_len`` accesses; every (set, chunk) pair becomes one *stream*,
    one column of a padded ``(chunk_len, num_streams)`` matrix.  One
    Python-level loop over rows then steps thousands of streams at once
    with O(10) NumPy ops per step.

4.  **Exact LRU chunk entries via a prefix scan.**  LRU state after a
    sequence is exactly the last ``ways`` distinct lines touched, in
    recency order.  That summary is a monoid (concatenate, keep last
    occurrence of each line, truncate), so per-chunk summaries — read off
    the tail of each chunk — combine into exact chunk-entry states with a
    segmented Hillis–Steele scan in ``log2(chunks)`` vectorized rounds.
    LRU therefore needs a *single* lockstep pass.  No iteration.

5.  **Fixed-point iteration for SRRIP/BRRIP/DRRIP.**  RRIP state does not
    form a compact monoid, so the kernel guesses chunk-entry states,
    replays all streams in lockstep, then propagates corrected exits and
    re-simulates only the *dirty* streams until nothing changes.  Any
    fixed point of that process equals the sequential reference replay
    (induction on the first differing program position: its set's entry
    state and insertion inputs match the reference, so the kernel would
    have produced the reference outcome there).  Convergence is typically
    2 full passes plus a sparse tail; a work budget bounds pathological
    cases, falling back to the reference loop (observable through the
    ``sim.kernel_fallback`` counter and a one-shot warning).

6.  **Per-access insertion draws.**  BRRIP's bimodal draw for the access
    at lifetime position ``p`` is the counter-hash ``_draws.long_insert
    (key, p)`` — a pure function of the seed and ``p``, never of the
    hit/miss history (:mod:`repro.sim._draws`).  A flipped hit bit
    therefore reassigns **no** later draw, so BRRIP's insertion RRPVs
    are known *before* replay and BRRIP drops into exactly the SRRIP
    fixed point.  DRRIP layers set dueling on top: leader-set insertions
    are fixed by role (+ the per-access draw for BRRIP leaders), and
    follower insertions read the PSEL trajectory — a pure function of
    the *leader* heads' miss bits, reconstructed with an exact parallel
    prefix scan over clamp-add compositions (``_saturating_walk``) and
    reduced to a *crossing signature*: the initial sign of ``PSEL >=
    INIT`` plus the program positions where that sign flips.  A pass
    recomputes the trajectory only when leader miss bits changed, and
    rematerializes insertion values only when the signature moved;
    leader bits typically jiggle for a few passes without moving any
    crossing, so the recompute is usually skipped entirely.  This
    locality is what makes the DRRIP fixed point converge where the old
    global miss-rank draw consumption kept it in a limit cycle (see
    DESIGN.md §7 for the history).  Auto dispatch still declines
    BRRIP/DRRIP on set-skewed traces (``_RRIP_MIN_DENSITY``): ripple
    corrections travel one chunk per pass, so fixed-point cost tracks
    the busiest set's access count while the reference loop tracks n.

Everything here treats the cache's canonical list state as the interface:
arrays in, arrays out, with conversion at the boundary, so kernel and
reference calls can interleave on the same cache object bit-exactly.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.lint.contracts import declares_effects
from repro.obs import metrics as _obs_metrics
from repro.obs import span as _obs_span
from repro.sim import _draws

if TYPE_CHECKING:  # pragma: no cover - cache.py imports this module
    from repro.sim.cache import CacheConfig, SetAssociativeCache

__all__ = [
    "kernel_mode",
    "kernel_supported",
    "kernel_simulate",
]

_RRPV_MAX = 3
_PSEL_MAX = 1023
_PSEL_INIT = 512

MODE_ENV = "REPRO_SIM_KERNEL"
_MODES = ("auto", "kernel", "reference")

# Dispatch heuristics: below these the reference loop's ~1 µs/access beats
# the kernel's fixed grouping/padding overhead.
_MIN_ACCESSES = 8192
_MIN_SETS = 4

# Chunking: aim for this many concurrent streams per lockstep pass
# (empirically the sweet spot between NumPy per-call overhead at small
# widths and cache pressure at large widths), never below _MIN_CHUNK rows.
_TARGET_STREAMS = 8192
_MIN_CHUNK = 32

# Fixed-point work budget, in units of full-pass work (RRIP family only).
_PASS_BUDGET = 12

# RRIP-family chunk chains are bounded so corrections (which travel one
# chunk per pass) settle within a few passes; LRU needs no bound (its
# entry states come from an exact prefix scan, not iteration).
_RRIP_MAX_CHAIN = 24

# BRRIP/DRRIP fixed-point cost scales with the busiest set's access count
# (corrections ripple one chunk per pass, each pass sweeping ~chunk_len
# rows of NumPy-call overhead), while the reference loop scales with n.
# The kernel only wins when the trace spreads wide across sets:
# empirically ~1.5x at n/max_count ~ 120, break-even near ~70, and a
# clear loss below ~60 (see BENCH_cache_kernel.json).  SRRIP is exempt:
# frequent aging forgets state quickly, so its fixed point converges in
# a handful of passes regardless of skew.
_RRIP_MIN_DENSITY = 80


@declares_effects("env-read")
def kernel_mode(explicit: str = "auto") -> str:
    """Resolve the dispatch mode: the env var is the escape hatch.

    Declared carve-out: the env var only selects *which* bit-exact
    implementation runs — kernels and the reference loop are lockstep
    twins, so the read can never change simulated state or artifacts.
    """
    env = os.environ.get(MODE_ENV, "").strip().lower()
    if env in _MODES:
        return env
    if explicit in _MODES:
        return explicit
    raise SimulationError(
        f"unknown kernel mode {explicit!r}; expected one of {_MODES}"
    )


def kernel_possible(config: CacheConfig, lines: np.ndarray) -> bool:
    """Hard requirements: can the kernel replay this call at all?"""
    if config.policy not in ("lru", "srrip", "brrip", "drrip"):
        return False
    if config.ways > _MIN_CHUNK:
        return False
    n = lines.shape[0]
    if n == 0:
        return False
    if int(lines.min()) < 0:
        return False
    return True


def kernel_profitable(config: CacheConfig, lines: np.ndarray) -> bool:
    """Size heuristics: is the kernel path likely to beat the reference?"""
    if lines.shape[0] < _MIN_ACCESSES:
        return False
    if config.num_sets < _MIN_SETS:
        return False
    if config.policy in ("brrip", "drrip"):
        # Skew guard: the bimodal fixed point pays ~max_count rows of
        # ripple regardless of chunking, so a trace concentrated on few
        # sets converges slower than the reference loop replays it.
        max_count = int(np.bincount(lines % config.num_sets).max())
        if lines.shape[0] < _RRIP_MIN_DENSITY * max_count:
            return False
    return True


def kernel_supported(config: CacheConfig, lines: np.ndarray) -> bool:
    """Is the kernel path worthwhile (and valid) for this simulate call?"""
    return kernel_possible(config, lines) and kernel_profitable(config, lines)


# ---------------------------------------------------------------------------
# State conversion: canonical list state <-> arrays
# ---------------------------------------------------------------------------


def _state_arrays(cache: SetAssociativeCache) -> Tuple[np.ndarray, np.ndarray]:
    """Cache list state -> (tags, rrpv) int64/int8 arrays, (num_sets, ways).

    Tags hold *compressed* values ``line // num_sets`` (-1 for invalid).
    For LRU the way axis is recency order (way 0 = LRU), matching the
    reference list layout; for RRIP it is positional.
    """
    num_sets = cache.config.num_sets
    tags = np.asarray(cache._tags, dtype=np.int64)
    rrpv = np.asarray(cache._rrpv, dtype=np.int8)
    comp = np.where(tags >= 0, tags // num_sets, -1)
    return comp, rrpv


def _write_state(
    cache: SetAssociativeCache, tags: np.ndarray, rrpv: Optional[np.ndarray]
) -> None:
    num_sets = cache.config.num_sets
    sets = np.arange(num_sets, dtype=np.int64)[:, None]
    lines = np.where(tags >= 0, tags.astype(np.int64) * num_sets + sets, -1)
    cache._tags = lines.tolist()
    if rrpv is not None:
        cache._rrpv = rrpv.astype(np.int64).tolist()


# ---------------------------------------------------------------------------
# Trace preparation: grouping, dedup, stream tables
# ---------------------------------------------------------------------------


class _Streams:
    """Per-batch stream table shared by all policies."""

    __slots__ = (
        "n", "nd", "order", "keep", "didx", "run2", "head_prog",
        "ded_sets", "counts_d", "chunk_len", "nchunks", "stream_base",
        "num_streams", "sm_set", "sm_chunk", "sm_len", "col_of", "colperm",
        "lens_desc", "steps", "pos_flat", "tag_dtype", "ded_tags",
        "set_start",
    )

    n: int
    nd: int
    order: np.ndarray
    keep: np.ndarray
    didx: np.ndarray
    run2: np.ndarray
    head_prog: np.ndarray
    ded_sets: np.ndarray
    counts_d: np.ndarray
    chunk_len: int
    nchunks: np.ndarray
    stream_base: np.ndarray
    num_streams: int
    sm_set: np.ndarray
    sm_chunk: np.ndarray
    sm_len: np.ndarray
    col_of: np.ndarray
    colperm: np.ndarray
    lens_desc: np.ndarray
    steps: List[int]
    pos_flat: np.ndarray
    tag_dtype: type
    ded_tags: np.ndarray
    set_start: np.ndarray


def _build_streams(
    lines: np.ndarray, num_sets: int, max_chain: Optional[int] = None
) -> _Streams:
    st = _Streams()
    n = lines.shape[0]
    st.n = n

    # Power-of-two geometries (the common case) take the shift/mask path;
    # int64 mod/div over the whole trace is one of the larger fixed costs.
    pow2 = num_sets & (num_sets - 1) == 0
    if num_sets <= 1:
        sets_full = np.zeros(n, dtype=np.int64)
        tags_full = lines
    elif pow2:
        shift = num_sets.bit_length() - 1
        sets_full = lines & (num_sets - 1)
        tags_full = lines >> shift
    else:
        sets_full = lines % num_sets
        tags_full = lines // num_sets
    if num_sets <= (1 << 15):
        sets = sets_full.astype(np.int16)
    else:
        sets = sets_full.astype(np.int32)

    max_tag = int(lines.max()) // num_sets if n else 0
    tag_dtype = np.int16 if max_tag < (1 << 15) - 1 else np.int32
    st.tag_dtype = tag_dtype
    tags_of = tags_full.astype(tag_dtype)

    # Stable sort on narrow keys selects NumPy's radix sort.
    order = np.argsort(sets, kind="stable")
    st.order = order
    sorted_tags = tags_of[order]
    sorted_sets = sets[order]

    # Run dedup: equal lines are always in the same set, so adjacent equal
    # (set, tag) pairs in the sorted stream are consecutive same-line
    # accesses of one set stream.
    keep = np.empty(n, dtype=bool)
    if n:
        keep[0] = True
        np.logical_or(
            sorted_tags[1:] != sorted_tags[:-1],
            sorted_sets[1:] != sorted_sets[:-1],
            out=keep[1:],
        )
    st.keep = keep
    didx = np.cumsum(keep, dtype=np.int64) - 1
    st.didx = didx
    heads = np.flatnonzero(keep)
    nd = heads.shape[0]
    st.nd = nd
    run_len = np.diff(np.append(heads, n))
    st.run2 = run_len >= 2
    st.head_prog = order[heads]
    st.ded_tags = sorted_tags[heads]
    ded_sets = sorted_sets[heads].astype(np.int64)
    st.ded_sets = ded_sets

    counts_d = np.bincount(ded_sets, minlength=num_sets)
    st.counts_d = counts_d
    max_count = int(counts_d.max()) if num_sets else 0

    chunk_len = max(_MIN_CHUNK, -(-nd // _TARGET_STREAMS))
    if max_chain is not None and max_count:
        # RRIP-family fixed-point convergence walks corrections down each
        # set's chunk chain; bound the chain length so chunks are long
        # enough to "forget" their speculative entry state.
        chunk_len = max(chunk_len, -(-max_count // max_chain))
    st.chunk_len = chunk_len
    nchunks = -(-counts_d // chunk_len)
    st.nchunks = nchunks
    stream_base = np.concatenate(([0], np.cumsum(nchunks)))
    st.stream_base = stream_base
    T = int(stream_base[-1])
    st.num_streams = T

    sm_set = np.repeat(np.arange(num_sets, dtype=np.int64), nchunks)
    st.sm_set = sm_set
    sm_chunk = np.arange(T, dtype=np.int64) - stream_base[sm_set]
    st.sm_chunk = sm_chunk
    sm_len = np.minimum(chunk_len, counts_d[sm_set] - sm_chunk * chunk_len)
    st.sm_len = sm_len

    # Column order: longest streams first, so the active streams at row k
    # are exactly the first A_per_step[k] columns.
    colperm = np.argsort(-sm_len, kind="stable")
    st.colperm = colperm
    col_of = np.empty(T, dtype=np.int64)
    col_of[colperm] = np.arange(T, dtype=np.int64)
    st.col_of = col_of
    lens_desc = sm_len[colperm]
    st.lens_desc = lens_desc
    st.steps = np.searchsorted(
        -lens_desc, -(np.arange(chunk_len, dtype=np.int64) + 1), side="right"
    ).tolist()

    # Flat (row-major) index of every deduped access in the padded
    # (chunk_len, T) matrices: reused for the P/I scatters and H gather.
    set_start_d = np.concatenate(([0], np.cumsum(counts_d)))
    st.set_start = set_start_d
    rank = np.arange(nd, dtype=np.int64) - set_start_d[ded_sets]
    stream_sm = stream_base[ded_sets] + rank // chunk_len
    row = rank % chunk_len
    st.pos_flat = row * T + col_of[stream_sm]
    return st


def _pad_matrix(st: _Streams, values: np.ndarray, fill: int, dtype: type) -> np.ndarray:
    M = np.full((st.chunk_len, st.num_streams), fill, dtype=dtype)
    M.ravel()[st.pos_flat] = values
    return M


# ---------------------------------------------------------------------------
# LRU recency summaries and the segmented merge scan
# ---------------------------------------------------------------------------


def _merge_recency(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise LRU-summary monoid combine.

    Rows of ``A`` and ``B`` are recency lists (-1-padded at the LRU front,
    most-recent last).  Result row = last ``ways`` distinct entries of
    ``concat(A_row, B_row)``, keeping the *last* occurrence of each value.
    """
    ways = A.shape[1]
    C = np.concatenate((A, B), axis=1)
    w2 = C.shape[1]
    # keep[j]: valid and not repeated later in the row.
    dup_later = np.zeros(C.shape, dtype=bool)
    eqm = C[:, :, None] == C[:, None, :]
    tri = np.triu(np.ones((w2, w2), dtype=bool), k=1)
    np.any(eqm & tri[None, :, :], axis=2, out=dup_later)
    keep = (C != -1) & ~dup_later
    idx = np.argsort(keep, axis=1, kind="stable")  # kept entries sort last
    tail = idx[:, -ways:]
    out = np.take_along_axis(C, tail, axis=1)
    kept = np.take_along_axis(keep, tail, axis=1)
    out[~kept] = -1
    return out


def _chunk_summaries(
    st: _Streams, P: np.ndarray, ways: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact per-stream summary R(chunk): last ``ways`` distinct tags.

    Computed from a suffix window of each chunk, doubling the window for
    the rare streams whose tail has fewer than ``ways`` distinct lines.
    ``P``'s -1 padding doubles as "before start of stream" filler.
    Returns ``(summ, summ_row)``, both (num_streams, ways) in set-major
    stream order: the tags, and the chunk-row of each tag's *last*
    occurrence (-1 for empty slots) — the RRIP entry-guess uses the row
    to look up that occurrence's insertion value.
    """
    T = st.num_streams
    CL = st.chunk_len
    lens = st.sm_len
    cols = st.col_of
    summ = np.full((T, ways), -1, dtype=P.dtype)
    summ_row = np.full((T, ways), -1, dtype=np.int64)
    pending = np.arange(T, dtype=np.int64)
    W = min(max(2 * ways, 4), CL)
    while pending.shape[0]:
        L = lens[pending]
        off = np.maximum(0, L - W)
        rows = off[:, None] + np.arange(W, dtype=np.int64)[None, :]
        rows = np.minimum(rows, CL - 1)  # only padded (-1) rows are clamped
        C = P.ravel()[rows * T + cols[pending, None]]
        w2 = C.shape[1]
        eqm = C[:, :, None] == C[:, None, :]
        tri = np.triu(np.ones((w2, w2), dtype=bool), k=1)
        dup_later = np.any(eqm & tri[None, :, :], axis=2)
        keep = (C != -1) & ~dup_later
        count = keep.sum(axis=1)
        idx = np.argsort(keep, axis=1, kind="stable")
        tail = idx[:, -ways:]
        got = np.take_along_axis(C, tail, axis=1)
        got_row = np.take_along_axis(rows, tail, axis=1)
        kept = np.take_along_axis(keep, tail, axis=1)
        got[~kept] = -1
        got_row[~kept] = -1
        done = (count >= ways) | (off == 0)
        summ[pending[done]] = got[done]
        summ_row[pending[done]] = got_row[done]
        pending = pending[~done]
        W = min(2 * W, CL)
    return summ, summ_row


def _lru_entries(st: _Streams, P: np.ndarray, state_tags: np.ndarray,
                 ways: int) -> np.ndarray:
    """Exact LRU entry state for every stream via a segmented prefix scan.

    Returns (num_streams, ways) recency rows: entry state each chunk sees.
    """
    T = st.num_streams
    summ, _ = _chunk_summaries(st, P, ways)
    # Segmented inclusive Hillis-Steele scan of the summary monoid along
    # each set's chunk chain (chains are contiguous in set-major order).
    pref = summ.copy()
    max_chunk = int(st.sm_chunk.max(initial=0))
    d = 1
    while d <= max_chunk:
        # Rows already full cannot change (merge(X, full) == full).
        todo = np.flatnonzero((st.sm_chunk >= d) & (pref[:, 0] == -1))
        if todo.shape[0]:
            pref[todo] = _merge_recency(pref[todo - d], pref[todo])
        d <<= 1

    entries = np.empty((T, ways), dtype=P.dtype)
    first = st.sm_chunk == 0
    init = state_tags[st.sm_set].astype(P.dtype)
    entries[first] = init[first]
    later = ~first
    if np.any(later):
        entries[later] = _merge_recency(init[later], pref[np.flatnonzero(later) - 1])
    return entries


# ---------------------------------------------------------------------------
# Lockstep replay loops
# ---------------------------------------------------------------------------


def _lockstep_lru(
    P: np.ndarray,
    steps: List[int],
    tagsT: np.ndarray,
    negT: np.ndarray,
    H: np.ndarray,
) -> None:
    """One exact LRU pass over all columns. State arrays are (ways, S).

    ``negT`` holds *negated* last-use times, so one argmax yields the
    way to write: scattering a sentinel at the matched position makes
    hit columns pick their match while miss columns pick the LRU victim
    (max negated time == min time).  The sentinel needs no cleanup — the
    chosen way's time is overwritten right after, every step.
    """
    ways, S = tagsT.shape
    ar = np.arange(S, dtype=np.int64)
    tflat = tagsT.ravel()
    nflat = negT.ravel()
    big = np.iinfo(negT.dtype).max
    eqb = np.empty((ways, S), dtype=bool)
    hitb = np.empty(S, dtype=bool)
    wayb = np.empty(S, dtype=np.int64)
    for k in range(P.shape[0]):
        A = steps[k]
        if A == 0:
            break
        cur = P[k, :A]
        eq = eqb[:, :A]
        np.equal(tagsT[:, :A], cur[None, :], out=eq)
        hit = hitb[:A]
        eq.any(axis=0, out=hit)
        H[k, :A] = hit
        negT[:, :A][eq] = big
        way = wayb[:A]
        negT[:, :A].argmax(axis=0, out=way)
        way *= S
        way += ar[:A]
        tflat[way] = cur
        nflat[way] = -k


def _lockstep_rrip(
    P: np.ndarray,
    I: np.ndarray,
    steps: List[int],
    tagsT: np.ndarray,
    rrpvT: np.ndarray,
    H: np.ndarray,
) -> None:
    """One RRIP-family pass. ``I`` carries each access's insertion RRPV.

    Sentinel trick: scattering ``_RRPV_MAX + 1`` at the matching way
    makes a single RRPV argmax serve both cases — hit columns pick their
    match (the sentinel beats every legal RRPV), miss columns pick the
    victim (first way at the maximum, matching the reference's scan
    order; the uniform aging increment keeps that argmax position, so
    picking before aging is exact).  The sentinel needs no cleanup: the
    chosen way's RRPV is overwritten right after, every step, and hit
    columns age by ``max(_RRPV_MAX - sentinel, 0) == 0``.
    """
    ways, S = tagsT.shape
    ar = np.arange(S, dtype=np.int64)
    tflat = tagsT.ravel()
    rflat = rrpvT.ravel()
    zero8 = np.int8(0)
    max8 = np.int8(_RRPV_MAX)
    sent = np.int8(_RRPV_MAX + 1)
    eqb = np.empty((ways, S), dtype=bool)
    vb = np.empty(S, dtype=np.int64)
    defb = np.empty(S, dtype=np.int8)
    insb = np.empty(S, dtype=np.int8)
    for k in range(P.shape[0]):
        A = steps[k]
        if A == 0:
            break
        cur = P[k, :A]
        eq = eqb[:, :A]
        np.equal(tagsT[:, :A], cur[None, :], out=eq)
        rrpvT[:, :A][eq] = sent
        victim = vb[:A]
        rrpvT[:, :A].argmax(axis=0, out=victim)
        victim *= S
        victim += ar[:A]
        vr = rflat[victim]
        hit = vr == sent  # sentinel present iff the tag matched
        H[k, :A] = hit
        deficit = defb[:A]
        np.subtract(max8, vr, out=deficit)
        np.maximum(deficit, zero8, out=deficit)
        if deficit.any():
            rrpvT[:, :A] += deficit[None, :]
        ins = insb[:A]
        np.copyto(ins, I[k, :A])
        ins[hit] = zero8
        tflat[victim] = cur
        rflat[victim] = ins


# ---------------------------------------------------------------------------
# Program-order insertion values (BRRIP draws + DRRIP PSEL)
# ---------------------------------------------------------------------------


def _saturating_walk(p0: int, deltas: np.ndarray) -> np.ndarray:
    """PSEL trajectory: p[i] = clip(p[i-1] + deltas[i], 0, _PSEL_MAX).

    Fast path: if the raw cumulative walk never leaves the valid range the
    clamps never fire and a plain cumsum is exact.  Otherwise run an
    exact parallel prefix scan over the clamp-add functions.  Each step
    is ``f(x) = min(c, max(b, x + s))`` with ``(s, b, c) = (delta, 0,
    PSEL_MAX)``, and that family is closed under composition::

        (f_r . f_l)(x) = min(c', max(b', x + s'))
        s' = s_l + s_r
        b' = max(b_r, b_l + s_r)
        c' = min(c_r, max(b_r, c_l + s_r))

    so a Hillis-Steele doubling scan yields every prefix composition in
    ``O(n log n)`` vector work — no scalar replay however often the
    counter saturates (thrashing workloads pin PSEL at a rail for most
    of the trace, which made restart-based replays degenerate).
    """
    raw = np.cumsum(deltas, dtype=np.int64) + p0
    if raw.shape[0] == 0:
        return raw
    if 0 <= raw.min() and raw.max() <= _PSEL_MAX:
        return raw
    n = deltas.shape[0]
    s = deltas.astype(np.int64, copy=True)
    b = np.zeros(n, dtype=np.int64)
    c = np.full(n, _PSEL_MAX, dtype=np.int64)
    k = 1
    while k < n:
        s_r, b_r, c_r = s[k:], b[k:], c[k:]
        s_l, b_l, c_l = s[:-k], b[:-k], c[:-k]
        s2 = s_l + s_r
        b2 = np.maximum(b_r, b_l + s_r)
        c2 = np.minimum(c_r, np.maximum(b_r, c_l + s_r))
        s[k:], b[k:], c[k:] = s2, b2, c2
        k *= 2
    return np.minimum(c, np.maximum(b, p0 + s))


# ---------------------------------------------------------------------------
# Per-policy drivers
# ---------------------------------------------------------------------------


def _hits_program_order(st: _Streams, H: np.ndarray) -> np.ndarray:
    """Scatter padded-matrix hit bits back to program order (uint8)."""
    hit_sorted = H.ravel()[st.pos_flat][st.didx]
    np.logical_or(hit_sorted, ~st.keep, out=hit_sorted)
    hits = np.empty(st.n, dtype=np.uint8)
    hits[st.order] = hit_sorted
    return hits


def _replay_lru(
    st: _Streams, state_tags: np.ndarray, ways: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-pass exact LRU replay of one batch."""
    T = st.num_streams
    CL = st.chunk_len
    P = _pad_matrix(st, st.ded_tags, -1, st.tag_dtype)
    entries = _lru_entries(st, P, state_tags, ways)

    tagsT = np.ascontiguousarray(entries[st.colperm].T)
    # Negated last-use times; init way 0 (LRU front) with the largest
    # value so it is evicted first.  Values stay distinct per column.
    neg_dtype = np.int16 if CL < (1 << 15) - 1 else np.int32
    negT = np.broadcast_to(
        np.arange(ways, 0, -1, dtype=neg_dtype)[:, None], (ways, T)
    ).copy()
    H = np.zeros((CL, T), dtype=bool)
    _lockstep_lru(P, st.steps, tagsT, negT, H)

    # Final state: canonicalize only each set's last chunk back to recency
    # order (descending negated time = ascending last-use = LRU..MRU).
    has = np.flatnonzero(st.nchunks > 0)
    last_stream = st.stream_base[has] + st.nchunks[has] - 1
    cols = st.col_of[last_stream]
    order = np.argsort(negT[:, cols], axis=0, kind="stable")[::-1, :]
    out_tags = state_tags.copy()
    out_tags[has] = np.take_along_axis(tagsT[:, cols], order, axis=0).T
    return _hits_program_order(st, H), out_tags


def _replay_rrip(
    st: _Streams,
    policy: str,
    state_tags: np.ndarray,
    state_rrpv: np.ndarray,
    ways: int,
    psel0: int,
    long_ins: Optional[np.ndarray],
    role_acc: Optional[np.ndarray],
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Fixed-point replay of one batch for srrip/brrip/drrip.

    ``long_ins`` carries the batch's per-access bimodal draws (None
    for SRRIP, which never reads them).  Returns ``(hits, out_tags,
    out_rrpv, psel)`` or ``None`` when the work budget is exhausted
    (caller falls back to the reference).
    """
    T = st.num_streams
    CL = st.chunk_len
    P = _pad_matrix(st, st.ded_tags, -1, st.tag_dtype)

    # Per-access insertion RRPVs at the deduped positions.  SRRIP inserts
    # a constant; BRRIP reads the position-keyed draw, so its I matrix is
    # exact before any replay.  DRRIP insertion values depend only on the
    # *leader* sets' miss stream (leaders vote PSEL by role, followers
    # read the reconstructed trajectory — follower misses never feed
    # back), so its insert fixed point iterates on leader hit bits alone,
    # starting from an assume-every-leader-head-misses guess.  A run of
    # length >= 2 pins its line at RRPV 0 whatever the insertion policy
    # says (the duplicate hits promote it).
    need_inserts = policy == "drrip"
    psel_final = psel0
    if policy != "srrip":
        assert long_ins is not None
        long_h = long_ins[st.head_prog]
    if policy == "srrip":
        ins_ded0 = np.full(st.nd, _RRPV_MAX - 1, dtype=np.int8)
    elif policy == "brrip":
        ins_ded0 = np.where(long_h, _RRPV_MAX - 1, _RRPV_MAX).astype(np.int8)
    else:
        assert role_acc is not None
        role_h = role_acc[st.head_prog]
        lead_sorted = np.flatnonzero(role_h != 0)
        lead_sorted = lead_sorted[
            np.argsort(st.head_prog[lead_sorted], kind="stable")
        ]
        lp_sorted = st.head_prog[lead_sorted]
        ldelta_sorted = np.where(role_h[lead_sorted] == 1, 1, -1).astype(
            np.int64
        )
        follower = role_h == 0

        def _psel_signature(
            lmiss_sorted: np.ndarray,
        ) -> Tuple[bool, np.ndarray, int]:
            """Crossing signature of the PSEL trajectory + final value.

            Follower insertions read only ``sign(PSEL >= INIT)`` at their
            position, and that sign is piecewise constant between midpoint
            crossings — so ``(initial sign, crossing positions)`` fully
            determines every insertion value.  Computing it costs O(leader
            misses), which lets the fixed-point loop skip the O(nd) insert
            materialization whenever the signature is unchanged (leader
            miss bits often jiggle without moving any crossing).
            """
            traj = _saturating_walk(psel0, ldelta_sorted[lmiss_sorted])
            sign = np.empty(traj.shape[0] + 1, dtype=bool)
            sign[0] = psel0 >= _PSEL_INIT
            np.greater_equal(traj, _PSEL_INIT, out=sign[1:])
            flips = np.flatnonzero(sign[1:] != sign[:-1])
            cross = lp_sorted[lmiss_sorted][flips]
            pf = int(traj[-1]) if traj.shape[0] else psel0
            return bool(sign[0]), cross, pf

        def _drrip_inserts(s0: bool, cross: np.ndarray) -> np.ndarray:
            """Exact per-head inserts from the PSEL crossing signature.

            A head at program position p reads PSEL after every leader
            miss strictly before p (its own vote, if any, is by role), so
            its sign is ``s0`` flipped once per crossing before p.
            """
            odd = (np.searchsorted(cross, st.head_prog, side="left") & 1) == 1
            sign_at = odd != s0  # XOR: s0 flipped (crossings % 2) times
            use_b = (role_h == 2) | (follower & sign_at)
            ins = np.full(st.nd, _RRPV_MAX - 1, dtype=np.int8)
            t = np.flatnonzero(use_b)
            ins[t] = np.where(
                long_h[t], _RRPV_MAX - 1, _RRPV_MAX
            ).astype(np.int8)
            return ins

        lmiss_prev = np.ones(lead_sorted.shape[0], dtype=bool)
        s0_prev, cross_prev, psel_final = _psel_signature(lmiss_prev)
        ins_ded0 = _drrip_inserts(s0_prev, cross_prev)
    ins_ded0[st.run2] = 0
    I = np.full((CL, T), _RRPV_MAX - 1, dtype=np.int8)
    I.ravel()[st.pos_flat] = ins_ded0
    ins_ded_prev = ins_ded0  # read only when need_inserts

    # Entry guesses: chunk 0 gets the real state; later chunks borrow the
    # previous chunk's recency summary.  For SRRIP the RRPV guess is a
    # flat RRPV-2 (frequent aging under SRRIP makes the constant insert a
    # better prior than any stale per-access value); for BRRIP/DRRIP —
    # where aging is rare, so insertion values stick — each summary tag
    # is guessed at its *last occurrence's* insertion value (0 after a
    # run of >= 2), looked up through the occurrence row the summary
    # records.
    summ, summ_row = _chunk_summaries(st, P, ways)
    ent_tags_sm = np.empty((T, ways), dtype=st.tag_dtype)
    ent_rrpv_sm = np.empty((T, ways), dtype=np.int8)
    first = st.sm_chunk == 0
    ent_tags_sm[first] = state_tags[st.sm_set[first]].astype(st.tag_dtype)
    ent_rrpv_sm[first] = state_rrpv[st.sm_set[first]]
    later = np.flatnonzero(~first)
    prev = later - 1
    ent_tags_sm[later] = summ[prev]
    if policy == "srrip":
        ent_rrpv_sm[later] = np.where(
            summ[prev] == -1, _RRPV_MAX, _RRPV_MAX - 1
        )
    else:
        valid = summ[prev] != -1
        ded = (
            st.set_start[st.sm_set[prev]][:, None]
            + st.sm_chunk[prev][:, None] * CL
            + summ_row[prev]
        )
        ded_safe = np.where(valid, ded, 0)
        ent_rrpv_sm[later] = np.where(valid, ins_ded0[ded_safe], _RRPV_MAX)

    E_tags = np.ascontiguousarray(ent_tags_sm[st.colperm].T)
    E_rrpv = np.ascontiguousarray(ent_rrpv_sm[st.colperm].T)
    X_tags = np.full((ways, T), -2, dtype=st.tag_dtype)
    X_rrpv = np.zeros((ways, T), dtype=np.int8)
    H = np.zeros((CL, T), dtype=bool)

    # Successor column of each column's stream (or -1): the next chunk of
    # the same set, mapped from set-major stream ids to column ids.
    has_next = np.flatnonzero(st.sm_chunk + 1 < st.nchunks[st.sm_set])
    succ_col = np.full(T, -1, dtype=np.int64)
    succ_col[st.col_of[has_next]] = st.col_of[has_next + 1]

    dirty = np.ones(T, dtype=bool)
    budget = _PASS_BUDGET * T

    while True:
        cols = np.flatnonzero(dirty)
        budget -= cols.shape[0]
        if budget < 0:
            return None
        if cols.shape[0] == T:
            subP, subI = P, I
            sub_tags, sub_rrpv = E_tags.copy(), E_rrpv.copy()
            subH = H
            sub_steps = st.steps
        else:
            subP = P[:, cols]
            subI = I[:, cols]
            sub_tags = E_tags[:, cols].copy()
            sub_rrpv = E_rrpv[:, cols].copy()
            subH = np.zeros((CL, cols.shape[0]), dtype=bool)
            sub_lens = st.lens_desc[cols]  # cols ascending => still desc
            sub_steps = np.searchsorted(
                -sub_lens, -(np.arange(CL, dtype=np.int64) + 1), side="right"
            ).tolist()
        _lockstep_rrip(subP, subI, sub_steps, sub_tags, sub_rrpv, subH)
        if cols.shape[0] != T:
            H[:, cols] = subH

        exit_changed = np.any(sub_tags != X_tags[:, cols], axis=0)
        exit_changed |= np.any(sub_rrpv != X_rrpv[:, cols], axis=0)
        X_tags[:, cols] = sub_tags
        X_rrpv[:, cols] = sub_rrpv

        dirty = np.zeros(T, dtype=bool)
        src = cols[exit_changed]
        dst = succ_col[src]
        src, dst = src[dst >= 0], dst[dst >= 0]
        if src.shape[0]:
            entry_changed = np.any(E_tags[:, dst] != X_tags[:, src], axis=0)
            entry_changed |= np.any(E_rrpv[:, dst] != X_rrpv[:, src], axis=0)
            E_tags[:, dst] = X_tags[:, src]
            E_rrpv[:, dst] = X_rrpv[:, src]
            dirty[dst[entry_changed]] = True

        if need_inserts:
            # Inserts are a function of the leader heads' miss bits only;
            # skip the recompute entirely while those are unchanged.
            lmiss = ~H.ravel()[st.pos_flat[lead_sorted]]
            if not np.array_equal(lmiss, lmiss_prev):
                lmiss_prev = lmiss
                s0_new, cross_new, psel_final = _psel_signature(lmiss)
                if s0_new != s0_prev or not np.array_equal(
                    cross_new, cross_prev
                ):
                    s0_prev, cross_prev = s0_new, cross_new
                    ins_ded = _drrip_inserts(s0_new, cross_new)
                    ins_ded[st.run2] = 0
                    chg = np.flatnonzero(ins_ded != ins_ded_prev)
                    if chg.shape[0]:
                        flat = st.pos_flat[chg]
                        I.ravel()[flat] = ins_ded[chg]
                        dirty[flat % T] = True
                    ins_ded_prev = ins_ded

        if not dirty.any():
            break

    hits = _hits_program_order(st, H)
    has = np.flatnonzero(st.nchunks > 0)
    last_stream = st.stream_base[has] + st.nchunks[has] - 1
    cols = st.col_of[last_stream]
    out_tags = state_tags.copy()
    out_rrpv = state_rrpv.copy()
    out_tags[has] = X_tags[:, cols].T
    out_rrpv[has] = X_rrpv[:, cols].T
    return hits, out_tags, out_rrpv, psel_final


# ---------------------------------------------------------------------------
# Top-level entry point
# ---------------------------------------------------------------------------


def kernel_simulate(
    cache: SetAssociativeCache, lines: np.ndarray
) -> Optional[np.ndarray]:
    """Kernel-path replacement for ``SetAssociativeCache.simulate``.

    Returns the hit bits and mutates the cache state exactly as the
    reference loop would, or ``None`` if the kernel declined (caller
    must then run the reference loop on the *unmodified* cache).
    """
    policy = cache.config.policy
    with _obs_span("sim.kernel", policy=policy, accesses=lines.shape[0]) as sp:
        hits = _kernel_simulate_inner(cache, lines)
        if hits is None:
            sp.set(declined=True)
            _obs_metrics.registry.counter("cache.kernel_declined").inc()
    return hits


def _kernel_simulate_inner(
    cache: SetAssociativeCache, lines: np.ndarray
) -> Optional[np.ndarray]:
    config = cache.config
    policy = config.policy
    num_sets, ways = config.num_sets, config.ways
    n = lines.shape[0]
    state_tags, state_rrpv = _state_arrays(cache)
    psel = cache._psel
    pos0 = cache._access_pos
    st = _build_streams(
        lines, num_sets, max_chain=None if policy == "lru" else _RRIP_MAX_CHAIN
    )
    if policy == "lru":
        hits, state_tags = _replay_lru(st, state_tags, ways)
    else:
        # Per-access bimodal draws, keyed by the cache's lifetime access
        # position (bit-exact with the scalar and reference paths by
        # construction — same hash, same keys).  SRRIP never reads them.
        long_all = (
            None
            if policy == "srrip"
            else _draws.long_inserts(cache._draw_key, pos0, n)
        )
        role_acc = (
            np.asarray(cache._role, dtype=np.int8)[lines % num_sets]
            if policy == "drrip"
            else None
        )
        res = _replay_rrip(
            st, policy, state_tags, state_rrpv, ways, psel, long_all, role_acc
        )
        if res is None:
            return None
        hits, state_tags, state_rrpv, psel = res

    # Reference LRU never touches RRPV state; keep it bit-identical.
    _write_state(cache, state_tags, state_rrpv if policy != "lru" else None)
    cache._psel = psel
    cache._access_pos = pos0 + n
    return hits
