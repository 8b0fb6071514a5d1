"""Vectorized set-partitioned cache-simulation kernels.

The reference simulator in :mod:`repro.sim.cache` replays one access at a
time against lists-of-lists state — exact, readable, and slow.  This
module replays the same trace with NumPy array state and is bit-exact
with the reference for every policy: same hit bits, same final
tags/RRPVs and PSEL / access-position state after chained ``simulate``
calls.

Architecture (see DESIGN.md for the long version):

1.  **Set partitioning.**  Accesses to different cache sets never share
    tag/RRPV state, so the trace is grouped by set index with one stable
    argsort (int16 keys hit NumPy's radix sort).  The set ids are
    computed once per batch (:func:`set_ids`) and shared by dispatch and
    replay.  Tags are stored compressed as ``line // num_sets`` — the
    set index is implicit — in the narrowest of int16/int32/int64 that
    holds every tag of the batch and of the cache state.

2.  **Run dedup.**  Consecutive accesses to the same line *within a set
    stream* are guaranteed hits that consume no BRRIP draw and no PSEL
    update; for RRIP policies a run of length ≥ 2 leaves the line at
    RRPV 0, equivalent to inserting the head of the run with RRPV 0.
    The kernel therefore simulates only run heads and force-fills hits
    for the tail — exact, and 25–60 % fewer simulated accesses on real
    SpMV traces.  A batch is kept only as its run heads (program
    position, tag, run length >= 2), and every batch-length temporary
    is narrow (int32 positions and gather indices, bool masks) and freed
    after its last use, so a replay peaks at ~20 B per access.

3.  **Ragged lockstep replay.**  Each access stream is one column; one
    Python-level loop over rows then steps every column at once with
    O(10) NumPy ops per step.  Columns are sorted longest first, so the
    columns still active at row ``k`` are exactly the first
    ``steps[k]``, and rows are stored ragged — row ``k`` is the slice
    ``[off[k], off[k] + steps[k])`` of one flat array — so a pass holds
    O(batch) memory, not longest-stream × columns.

4.  **LRU: chunked streams, exact entries via a prefix scan.**  Each set
    stream is split into chunks so thousands of columns step together.
    LRU state after a sequence is exactly the last ``ways`` distinct
    lines touched, in recency order.  That summary is a monoid
    (concatenate, keep last occurrence of each line, truncate), so
    per-chunk summaries — read off the tail of each chunk — combine into
    exact chunk-entry states with a segmented Hillis–Steele scan in
    ``log2(chunks)`` vectorized rounds, and one pass is exact.

5.  **RRIP: one column per cache set, one exact pass.**  RRIP state has
    no compact summary, so SRRIP/BRRIP/DRRIP give each set its own
    column, which enters with the set's real state.  Every insertion
    value is known before its set replays (point 6), so one pass is
    exact.  DRRIP replays its leader sets first: leader insertions are
    fixed by role and never read PSEL.  The leader heads' miss bits,
    in program order, then give the exact PSEL trajectory through a
    parallel prefix scan over clamp-add compositions
    (:func:`_saturating_walk`), each follower head reads its insertion
    policy off that trajectory, and the followers replay in one more
    pass.  The row count is the busiest set's access count, so
    dispatch (:func:`use_kernel`) sends an RRIP batch here only when
    ``n >= _RRIP_MIN_DENSITY * max_set_count``.

6.  **Per-access insertion draws.**  BRRIP's bimodal draw for the access
    at lifetime position ``p`` is the counter-hash ``_draws.long_insert
    (key, p)`` — a pure function of the seed and ``p``, never of the
    hit/miss history (:mod:`repro.sim._draws`).  So SRRIP and BRRIP
    insertion RRPVs are known before replay, and so are DRRIP's leader
    insertions; only DRRIP followers wait for the leader pass.  Only run
    heads insert, so only their positions are hashed.

Everything here treats the cache's canonical list state as the interface:
arrays in, arrays out, with conversion at the boundary, so kernel and
reference calls can interleave on the same cache object bit-exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.obs import span as _obs_span
from repro.sim import _draws
from repro.sim.cache import _PSEL_INIT, _PSEL_MAX, _RRPV_MAX

if TYPE_CHECKING:  # pragma: no cover - defined after cache.py imports us
    from repro.sim.cache import CacheConfig, SetAssociativeCache

__all__ = [
    "kernel_possible",
    "kernel_replay",
    "kernel_simulate",
    "set_ids",
    "use_kernel",
]

# Dispatch heuristics: below these the reference loop beats the
# kernel's fixed grouping overhead.
_MIN_ACCESSES = 8192
_MIN_SETS = 4

# LRU chunking: aim for this many concurrent streams per lockstep pass
# (empirically the sweet spot between NumPy per-call overhead at small
# widths and cache pressure at large widths), never below _MIN_CHUNK rows.
_TARGET_STREAMS = 8192
_MIN_CHUNK = 32

# RRIP replay steps one row per access of the busiest set, each row
# costing a fixed ~10 NumPy calls, while the reference loop pays per
# access.  So the kernel wins only when the batch spreads across sets:
# n / max_set_count is at most num_sets, and the kernel needs at least
# this much of it (see BENCH_cache_kernel.json and DESIGN.md §7).
_RRIP_MIN_DENSITY = 30

# Victim RRPV read back by the RRIP pass for a tag hit (see _lockstep_rrip).
_HIT = _RRPV_MAX + 1
# Aging deficit by victim RRPV: age every way until the victim reads max.
_AGE = np.maximum(_RRPV_MAX - np.arange(_HIT + 1, dtype=np.int8), 0).astype(np.int8)
# RRPV written, by insertion RRPV * _CODE + victim RRPV: a hit writes 0.
_CODE = _HIT + 1
_WRITE = np.repeat(np.arange(_RRPV_MAX + 1, dtype=np.int8), _CODE)
_WRITE[_HIT::_CODE] = 0


def set_ids(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Set index of every line, as int16 (int32 beyond 32768 sets).

    Power-of-two geometries (the common case) take a mask; an int64
    ``%`` over a large batch costs about ten times as much.  Either is
    computed in int64 and written straight into the narrow result.
    """
    dtype = np.int16 if num_sets <= (1 << 15) else np.int32
    sets = np.empty(lines.shape[0], dtype=dtype)
    if num_sets & (num_sets - 1) == 0:
        np.bitwise_and(lines, num_sets - 1, out=sets, casting="unsafe")
    else:
        np.remainder(lines, num_sets, out=sets, casting="unsafe")
    return sets


def kernel_possible(config: CacheConfig, lines: np.ndarray) -> bool:
    """Hard requirements: can the kernel replay this call at all?"""
    if config.ways > _MIN_CHUNK:
        return False
    if lines.shape[0] == 0:
        return False
    return int(lines.min()) >= 0


def use_kernel(
    config: CacheConfig, lines: np.ndarray, sets: Optional[np.ndarray] = None
) -> bool:
    """The one dispatch rule: does this batch go to the kernel?

    The kernel must be able to replay the batch and, by the size
    heuristics, likely beat the reference loop; everything else runs
    the reference loop.  ``sets`` are the batch's :func:`set_ids`, if
    the caller already has them.
    """
    if not kernel_possible(config, lines):
        return False
    if lines.shape[0] < _MIN_ACCESSES:
        return False
    if config.num_sets < _MIN_SETS:
        return False
    if config.policy != "lru":
        # RRIP replay steps one row per access of the busiest set.
        if sets is None:
            sets = set_ids(lines, config.num_sets)
        max_count = int(np.bincount(sets).max())
        if lines.shape[0] < _RRIP_MIN_DENSITY * max_count:
            return False
    return True


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
# Trace preparation: grouping, dedup, ragged layouts
# ---------------------------------------------------------------------------


class _Streams:
    """One batch grouped by set and run-deduplicated (set-major order).

    Only run heads are kept: every other access is a hit, so
    ``head_prog`` (each head's program position) is all the replay
    needs to scatter hit bits back.
    """

    __slots__ = (
        "n", "nd", "head_prog", "run2", "ded_tags", "counts_d", "set_start",
        "tag_dtype",
    )

    n: int
    nd: int
    head_prog: np.ndarray
    run2: np.ndarray
    ded_tags: np.ndarray
    counts_d: np.ndarray
    set_start: np.ndarray
    tag_dtype: type


def _tag_dtype(max_tag: int) -> type:
    """Narrowest signed dtype holding every tag and the -1 invalid mark."""
    if max_tag < (1 << 15) - 1:
        return np.int16
    if max_tag < (1 << 31) - 1:
        return np.int32
    return np.int64


def _index_dtype(n: int) -> type:
    """Positions and gather indices of an ``n``-access batch."""
    return np.int32 if n < (1 << 31) else np.int64


def _build_streams(
    lines: np.ndarray, sets: np.ndarray, num_sets: int, state_max_tag: int
) -> _Streams:
    """Group a batch by set and dedup its runs, in O(batch) memory.

    Batch-length temporaries are narrow (int16/int32 tags and set ids,
    int32 positions, bool masks) and freed after their last use.  Only
    ``argsort``'s result and the head indices come as int64; the sort
    order is narrowed at once, the head indices die with the gathers.
    """
    st = _Streams()
    n = lines.shape[0]
    st.n = n

    # The state's tags share the dtype, so it must hold theirs too.
    pow2 = num_sets & (num_sets - 1) == 0
    shift = num_sets.bit_length() - 1
    max_tag = int(lines.max()) >> shift if pow2 else int(lines.max()) // num_sets
    st.tag_dtype = _tag_dtype(max(max_tag, state_max_tag))
    tags = np.empty(n, dtype=st.tag_dtype)
    if pow2:
        np.right_shift(lines, shift, out=tags, casting="unsafe")
    else:
        np.floor_divide(lines, num_sets, out=tags, casting="unsafe")

    # Stable sort on narrow keys selects NumPy's radix sort.
    order = np.argsort(sets, kind="stable")
    sorted_tags = tags[order]
    del tags
    order = order.astype(_index_dtype(n))
    sorted_sets = sets[order]

    # Run dedup: equal lines are always in the same set, so adjacent equal
    # (set, tag) pairs in the sorted stream are consecutive same-line
    # accesses of one set stream.
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(sorted_tags[1:], sorted_tags[:-1], out=keep[1:])
    keep[1:] |= sorted_sets[1:] != sorted_sets[:-1]
    # Gathers by index beat boolean-mask selection several times over.
    heads = np.flatnonzero(keep)
    st.nd = heads.shape[0]
    st.ded_tags = sorted_tags[heads]
    del sorted_tags
    ded_sets = sorted_sets[heads]
    del sorted_sets
    st.head_prog = order[heads]
    del order
    # A head whose next access is no head starts a run of length >= 2.
    keep[:-1] = keep[1:]
    keep[-1] = True
    st.run2 = keep[heads]
    np.logical_not(st.run2, out=st.run2)
    del keep, heads

    st.set_start = np.append(
        np.searchsorted(ded_sets, np.arange(num_sets, dtype=ded_sets.dtype)), st.nd
    )
    st.counts_d = np.diff(st.set_start)
    return st


def _layout(
    starts: np.ndarray, lens: np.ndarray
) -> Tuple[np.ndarray, List[int], np.ndarray]:
    """Ragged lockstep layout of streams over the deduped accesses.

    Stream ``j`` is the deduped accesses ``starts[j] ..
    starts[j] + lens[j] - 1`` (all ``lens >= 1``).  Returns ``(colperm,
    steps, src)``: column ``c`` replays stream ``colperm[c]`` (longest
    first), row ``k`` has the ``steps[k]`` active columns, and ``src[i]``
    is the deduped access at slot ``i`` of the row-major ragged array.
    """
    colperm = np.argsort(-lens, kind="stable")
    lens_desc = lens[colperm]
    rows = int(lens_desc[0])
    steps = np.searchsorted(
        -lens_desc, -np.arange(1, rows + 1, dtype=np.int64), side="right"
    )
    idx = _index_dtype(int(lens_desc.sum()))
    row = np.repeat(np.arange(rows, dtype=idx), steps)
    src = np.arange(row.shape[0], dtype=idx)
    src -= np.concatenate(([0], np.cumsum(steps[:-1]))).astype(idx)[row]  # column
    src = starts[colperm].astype(idx)[src]
    src += row
    return colperm, steps.tolist(), src


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
    ded_tags: np.ndarray, starts: np.ndarray, lens: np.ndarray, ways: int
) -> np.ndarray:
    """Exact per-stream summary R(chunk): last ``ways`` distinct tags.

    Computed from a suffix window of each chunk, doubling the window for
    the rare streams whose tail has fewer than ``ways`` distinct lines.
    Returns (num_streams, ways) recency rows, -1-padded.
    """
    T = starts.shape[0]
    summ = np.full((T, ways), -1, dtype=ded_tags.dtype)
    pending = np.arange(T, dtype=np.int64)
    W = max(2 * ways, 4)
    while pending.shape[0]:
        L = lens[pending]
        off = np.maximum(0, L - W)
        pos = off[:, None] + np.arange(W, dtype=np.int64)[None, :]
        C = np.where(
            pos < L[:, None],
            ded_tags[starts[pending, None] + np.minimum(pos, L[:, None] - 1)],
            -1,
        ).astype(ded_tags.dtype)
        w2 = C.shape[1]
        eqm = C[:, :, None] == C[:, None, :]
        tri = np.triu(np.ones((w2, w2), dtype=bool), k=1)
        dup_later = np.any(eqm & tri[None, :, :], axis=2)
        keep = (C != -1) & ~dup_later
        count = keep.sum(axis=1)
        idx = np.argsort(keep, axis=1, kind="stable")
        tail = idx[:, -ways:]
        got = np.take_along_axis(C, tail, axis=1)
        got[~np.take_along_axis(keep, tail, axis=1)] = -1
        done = (count >= ways) | (off == 0)
        summ[pending[done]] = got[done]
        pending = pending[~done]
        W *= 2
    return summ


def _lru_entries(
    summ: np.ndarray, sm_set: np.ndarray, sm_chunk: np.ndarray,
    state_tags: np.ndarray,
) -> np.ndarray:
    """Exact LRU entry state for every stream via a segmented prefix scan.

    Returns (num_streams, ways) recency rows: entry state each chunk sees.
    """
    # Segmented inclusive Hillis-Steele scan of the summary monoid along
    # each set's chunk chain (chains are contiguous in set-major order).
    pref = summ.copy()
    max_chunk = int(sm_chunk.max(initial=0))
    d = 1
    while d <= max_chunk:
        # Rows already full cannot change (merge(X, full) == full).
        todo = np.flatnonzero((sm_chunk >= d) & (pref[:, 0] == -1))
        if todo.shape[0]:
            pref[todo] = _merge_recency(pref[todo - d], pref[todo])
        d <<= 1

    entries = np.empty_like(summ)
    first = sm_chunk == 0
    init = state_tags[sm_set]
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
    """One exact LRU pass over ragged rows. State arrays are (ways, S).

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
    wayb = np.empty(S, dtype=np.int64)
    off = 0
    width = -1
    for k, A in enumerate(steps):
        if A != width:
            width = A
            tv, nv, eq, way, arv = tagsT[:, :A], negT[:, :A], eqb[:, :A], wayb[:A], ar[:A]
        end = off + A
        cur = P[off:end]
        np.equal(tv, cur, out=eq)
        eq.any(axis=0, out=H[off:end])
        nv[eq] = big
        nv.argmax(axis=0, out=way)
        way *= S
        way += arv
        tflat[way] = cur
        nflat[way] = -k
        off = end


def _lockstep_rrip(
    P: np.ndarray,
    code: np.ndarray,
    steps: List[int],
    tags: np.ndarray,
    rrpv: np.ndarray,
    VR: np.ndarray,
) -> None:
    """One exact RRIP pass over ragged rows. State arrays are (S, ways).

    ``code`` holds each access's insertion RRPV times ``_CODE``.  ``VR``
    receives each access's victim RRPV, ``_HIT`` on a tag hit.

    Sentinel trick: writing ``_HIT`` (one above any legal RRPV) at the
    matching way makes a single RRPV argmax serve both cases — hit
    columns pick their match, miss columns pick the victim (first way at
    the maximum, matching the reference's scan order; the uniform aging
    increment keeps that argmax position, so picking before aging is
    exact).  Two lookup tables finish the row: ``_AGE`` turns the victim
    RRPV into the aging increment (0 on a hit) and ``_WRITE`` turns
    ``code + victim RRPV`` into the RRPV written (0 on a hit).  The
    sentinel needs no cleanup: the chosen way is overwritten every step.
    Views are rebuilt only when the active width changes.
    """
    S, ways = tags.shape
    tflat = tags.reshape(-1)
    rflat = rrpv.reshape(-1)
    P2 = P[:, None]
    base = np.arange(S, dtype=np.intp) * ways
    eqb = np.empty((S, ways), dtype=bool)
    wayb = np.empty(S, dtype=np.intp)
    ageb = np.empty(S, dtype=np.int8)
    keyb = np.empty(S, dtype=np.int8)
    insb = np.empty(S, dtype=np.int8)
    hit = np.int8(_HIT)
    off = 0
    width = -1
    for A in steps:
        if A != width:
            width = A
            tv, rv, eq, way, bv = tags[:A], rrpv[:A], eqb[:A], wayb[:A], base[:A]
            age, age2, key, ins = ageb[:A], ageb[:A, None], keyb[:A], insb[:A]
        end = off + A
        np.equal(tv, P2[off:end], out=eq)
        np.copyto(rv, hit, where=eq)
        rv.argmax(axis=1, out=way)
        way += bv
        vr = VR[off:end]
        rflat.take(way, out=vr, mode="clip")
        _AGE.take(vr, out=age, mode="clip")
        rv += age2
        np.add(code[off:end], vr, out=key)
        _WRITE.take(key, out=ins, mode="clip")
        tflat[way] = P[off:end]
        rflat[way] = ins
        off = end


# ---------------------------------------------------------------------------
# DRRIP's PSEL trajectory
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


def _hits_program_order(st: _Streams, hit_ded: np.ndarray) -> np.ndarray:
    """Scatter run heads' hit bits back to program order (uint8); every
    other access repeats its run head's line, so it hits."""
    hits = np.ones(st.n, dtype=np.uint8)
    hits[st.head_prog] = hit_ded
    return hits


def _replay_lru(st: _Streams, tags: np.ndarray, ways: int) -> np.ndarray:
    """Single-pass exact LRU replay of one batch over chunked streams.

    ``tags`` (num_sets, ways), in recency order, are updated in place.
    Returns the hit bits.
    """
    counts_d = st.counts_d
    chunk_len = max(_MIN_CHUNK, -(-st.nd // _TARGET_STREAMS))
    nchunks = -(-counts_d // chunk_len)
    stream_base = np.concatenate(([0], np.cumsum(nchunks)))
    T = int(stream_base[-1])
    sm_set = np.repeat(np.arange(counts_d.shape[0], dtype=np.int64), nchunks)
    sm_chunk = np.arange(T, dtype=np.int64) - stream_base[sm_set]
    starts = st.set_start[sm_set] + sm_chunk * chunk_len
    lens = np.minimum(chunk_len, counts_d[sm_set] - sm_chunk * chunk_len)

    summ = _chunk_summaries(st.ded_tags, starts, lens, ways)
    entries = _lru_entries(summ, sm_set, sm_chunk, tags)

    colperm, steps, src = _layout(starts, lens)
    tagsT = np.ascontiguousarray(entries[colperm].T)
    # Negated last-use times; init way 0 (LRU front) with the largest
    # value so it is evicted first.  Values stay distinct per column.
    neg_dtype = np.int16 if chunk_len < (1 << 15) - 1 else np.int32
    negT = np.broadcast_to(
        np.arange(ways, 0, -1, dtype=neg_dtype)[:, None], (ways, T)
    ).copy()
    H = np.empty(src.shape[0], dtype=bool)
    _lockstep_lru(st.ded_tags[src], steps, tagsT, negT, H)
    hit_ded = np.empty(st.nd, dtype=bool)
    hit_ded[src] = H

    # Final state: canonicalize only each set's last chunk back to recency
    # order (descending negated time = ascending last-use = LRU..MRU).
    has = np.flatnonzero(nchunks > 0)
    col_of = np.empty(T, dtype=np.int64)
    col_of[colperm] = np.arange(T, dtype=np.int64)
    cols = col_of[stream_base[has] + nchunks[has] - 1]
    order = np.argsort(negT[:, cols], axis=0, kind="stable")[::-1, :]
    tags[has] = np.take_along_axis(tagsT[:, cols], order, axis=0).T
    return _hits_program_order(st, hit_ded)


def _replay_sets(
    st: _Streams,
    sets: np.ndarray,
    ins: np.ndarray,
    tags: np.ndarray,
    rrpv: np.ndarray,
    hit_ded: np.ndarray,
) -> None:
    """One exact RRIP pass over ``sets`` (non-empty), one column each.

    ``ins`` is every deduped access's insertion RRPV; only those of
    ``sets`` are read.  Updates those sets' rows of ``tags``/``rrpv``
    and their accesses' entries of ``hit_ded`` in place.
    """
    colperm, steps, src = _layout(st.set_start[sets], st.counts_d[sets])
    cols = sets[colperm]
    t, r = tags[cols], rrpv[cols]
    code = ins[src]
    code *= _CODE
    VR = np.empty(src.shape[0], dtype=np.int8)
    _lockstep_rrip(st.ded_tags[src], code, steps, t, r, VR)
    tags[cols], rrpv[cols] = t, r
    hit_ded[src] = VR == _HIT


def _replay_rrip(
    st: _Streams,
    policy: str,
    tags: np.ndarray,
    rrpv: np.ndarray,
    psel: int,
    draw: Tuple[int, int],
    roles: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Exact replay of one batch for srrip/brrip/drrip.

    ``tags``/``rrpv`` (num_sets, ways) are updated in place.  ``draw``
    is the cache's ``(draw key, batch start position)``, which BRRIP and
    DRRIP hash at their run heads' positions (SRRIP never draws), and
    ``roles`` DRRIP's per-set dueling roles.  Returns ``(hits, psel)``.
    """
    ins = np.full(st.nd, _RRPV_MAX - 1, dtype=np.int8)
    if policy != "srrip":
        bimodal = np.where(
            _draws.long_inserts_at(draw[0], draw[1], st.head_prog),
            np.int8(_RRPV_MAX - 1),
            np.int8(_RRPV_MAX),
        )
        if policy == "brrip":
            ins = bimodal
    hit_ded = np.empty(st.nd, dtype=bool)
    present = st.counts_d > 0
    if policy != "drrip":
        # A run of length >= 2 pins its line at RRPV 0 whatever the policy.
        ins[st.run2] = 0
        _replay_sets(st, np.flatnonzero(present), ins, tags, rrpv, hit_ded)
        return _hits_program_order(st, hit_ded), psel

    # Leaders first: their insertions are fixed by role.
    role_d = np.repeat(roles, st.counts_d)
    np.copyto(ins, bimodal, where=role_d == 2)
    ins[st.run2] = 0
    leaders = np.flatnonzero(present & (roles != 0))
    if leaders.shape[0]:
        _replay_sets(st, leaders, ins, tags, rrpv, hit_ded)
    # Leader-head misses vote on PSEL in program order.
    lead_miss = np.flatnonzero((role_d != 0) & ~hit_ded)
    vote_pos = st.head_prog[lead_miss]
    by_pos = np.argsort(vote_pos)
    vote_pos = vote_pos[by_pos]
    votes = np.where(role_d[lead_miss[by_pos]] == 1, 1, -1)
    traj = np.concatenate(([psel], _saturating_walk(psel, votes)))
    followers = np.flatnonzero(present & (roles == 0))
    if followers.shape[0]:
        # A head at program position p reads PSEL after every vote before
        # p: traj[j] holds from just after vote j-1 through vote j's own
        # position, which is never a follower's.
        span_len = np.diff(np.concatenate(([0], vote_pos + 1, [st.n])))
        use_b = np.repeat(traj >= _PSEL_INIT, span_len)[st.head_prog]
        use_b &= role_d == 0
        use_b &= ~st.run2
        np.copyto(ins, bimodal, where=use_b)
        _replay_sets(st, followers, ins, tags, rrpv, hit_ded)
    return _hits_program_order(st, hit_ded), int(traj[-1])


# ---------------------------------------------------------------------------
# Top-level entry points
# ---------------------------------------------------------------------------


def kernel_simulate(
    cache: SetAssociativeCache, lines: np.ndarray
) -> Optional[np.ndarray]:
    """Kernel-path replacement for ``SetAssociativeCache.simulate``.

    Returns the hit bits and mutates the cache state exactly as the
    reference loop would, or ``None``, with the cache untouched, for a
    batch the kernel cannot replay (:func:`kernel_possible`).
    """
    if not kernel_possible(cache.config, lines):
        return None
    return kernel_replay(cache, lines, set_ids(lines, cache.config.num_sets))


def kernel_replay(
    cache: SetAssociativeCache, lines: np.ndarray, sets: np.ndarray
) -> np.ndarray:
    """Replay a batch :func:`kernel_possible` accepts; ``sets`` are its
    :func:`set_ids`.  Returns the hit bits and updates the cache."""
    config = cache.config
    policy = config.policy
    n = lines.shape[0]
    with _obs_span("sim.kernel", policy=policy, accesses=n):
        tags, rrpv = _state_arrays(cache)
        pos0 = cache._access_pos
        st = _build_streams(lines, sets, config.num_sets, int(tags.max()))
        tags = tags.astype(st.tag_dtype)
        if policy == "lru":
            hits = _replay_lru(st, tags, config.ways)
        else:
            # Bimodal draws are keyed by the cache's lifetime access
            # position (bit-exact with the reference by construction —
            # same hash, same keys).
            hits, cache._psel = _replay_rrip(
                st, policy, tags, rrpv, cache._psel, (cache._draw_key, pos0),
                np.asarray(cache._role, dtype=np.int8),
            )
        # Reference LRU never touches RRPV state; keep it bit-identical.
        _write_state(cache, tags, rrpv if policy != "lru" else None)
        cache._access_pos = pos0 + n
    return hits
