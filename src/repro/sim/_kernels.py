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

5.  **RRIP: one column per (cache, set), one exact pass.**  RRIP state
    has no compact summary, so SRRIP/BRRIP/DRRIP give each set its own
    column, which enters with the set's real state.  A batch may hold
    the accesses of K independent caches of one config: cache ``k``'s
    set ``s`` is column ``k * num_sets + s``, so K caches are just
    K x S columns of one pass, and one cache is the K = 1 case.  Every
    insertion value is known before its set replays (point 6), so one
    pass is exact.  DRRIP replays every cache's leader sets first:
    leader insertions are fixed by role and never read PSEL.  The
    leader heads' miss bits, in each cache's program order, then give
    each cache's exact PSEL trajectory through one parallel prefix scan
    over clamp-add compositions (:func:`_saturating_walks`), each
    follower head reads its insertion policy off its own cache's
    trajectory, and every cache's followers replay in one more pass.
    Over a run of batches (:class:`LockstepReplay`) that pass is the
    next batch's leader pass, so a batch costs one pass, not two.
    The row count is the busiest column's access count, so dispatch
    (:func:`use_kernel`) sends an RRIP batch here only when the whole
    combined batch has ``n >= _RRIP_MIN_DENSITY * max_column_count``.

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

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import span as _obs_span
from repro.sim import _draws
from repro.sim.cache import _PSEL_INIT, _PSEL_MAX, _RRPV_MAX

if TYPE_CHECKING:  # pragma: no cover - defined after cache.py imports us
    from repro.sim.cache import CacheConfig, SetAssociativeCache

__all__ = [
    "LockstepReplay",
    "kernel_possible",
    "kernel_replay",
    "kernel_simulate",
    "set_ids",
    "use_kernel",
]

#: Where each cache's accesses sit in a combined batch: cache ``k``'s are
#: ``lines[bounds[k]:bounds[k + 1]]``.
Bounds = Union[Sequence[int], np.ndarray]

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


def set_ids(
    lines: np.ndarray, num_sets: int, bounds: Optional[Bounds] = None
) -> np.ndarray:
    """Set index of every line, as int16 (int32 beyond 32768 columns).

    With ``bounds``, ``lines`` is the combined batch of K caches (cache
    ``k``'s accesses are ``lines[bounds[k]:bounds[k + 1]]``) and the
    result is each line's column, ``k * num_sets + set``.  Power-of-two
    geometries (the common case) take a mask; an int64 ``%`` over a
    large batch costs about ten times as much.  Either is computed in
    the lines' width and written straight into the narrow result.
    """
    caches = 1 if bounds is None else len(bounds) - 1
    dtype = np.int16 if caches * num_sets <= (1 << 15) else np.int32
    sets = np.empty(lines.shape[0], dtype=dtype)
    if num_sets & (num_sets - 1) == 0:
        np.bitwise_and(lines, num_sets - 1, out=sets, casting="unsafe")
    else:
        np.remainder(lines, num_sets, out=sets, casting="unsafe")
    if caches > 1:
        sets += np.repeat(
            np.arange(0, caches * num_sets, num_sets, dtype=dtype), np.diff(bounds)
        )
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
    the caller already has them; for the combined batch of several
    caches they are its columns, so the density rule weighs the busiest
    (cache, set) column against the whole combined batch.
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


def _state_arrays(
    caches: Sequence[SetAssociativeCache],
) -> Tuple[np.ndarray, np.ndarray]:
    """Caches' list state -> (tags, rrpv) int64/int8 arrays, (K * num_sets, ways).

    Cache ``k`` holds rows ``k * num_sets`` onwards.  Tags hold
    *compressed* values ``line // num_sets`` (-1 for invalid).  For LRU
    the way axis is recency order (way 0 = LRU), matching the reference
    list layout; for RRIP it is positional.
    """
    config = caches[0].config
    tags = np.asarray([c._tags for c in caches], dtype=np.int64)
    rrpv = np.asarray([c._rrpv for c in caches], dtype=np.int8)
    tags = tags.reshape(-1, config.ways)
    comp = np.where(tags >= 0, tags // config.num_sets, -1)
    return comp, rrpv.reshape(-1, config.ways)


def _write_state(
    caches: Sequence[SetAssociativeCache], tags: np.ndarray, rrpv: Optional[np.ndarray]
) -> None:
    config = caches[0].config
    num_sets = config.num_sets
    shape = (len(caches), num_sets, config.ways)
    comp = tags.reshape(shape).astype(np.int64)
    sets = np.arange(num_sets, dtype=np.int64)[:, None]
    lines = np.where(comp >= 0, comp * num_sets + sets, -1).tolist()
    rows = rrpv.reshape(shape).astype(np.int64).tolist() if rrpv is not None else None
    for k, cache in enumerate(caches):
        cache._tags = lines[k]
        if rows is not None:
            cache._rrpv = rows[k]


# ---------------------------------------------------------------------------
# Trace preparation: grouping, dedup, ragged layouts
# ---------------------------------------------------------------------------


class _Streams:
    """One batch grouped by column and run-deduplicated (column-major order).

    Only run heads are kept: every other access is a hit, so
    ``head_prog`` (each head's program position) is all the replay
    needs to scatter hit bits back.
    """

    __slots__ = (
        "n", "nd", "head_prog", "run2", "ded_tags", "counts_d", "set_start",
        "max_tag", "tag_dtype",
    )

    n: int
    nd: int
    head_prog: np.ndarray
    run2: np.ndarray
    ded_tags: np.ndarray
    counts_d: np.ndarray
    set_start: np.ndarray
    max_tag: int
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
    lines: np.ndarray,
    sets: np.ndarray,
    num_columns: int,
    num_sets: int,
    state_max_tag: int,
) -> _Streams:
    """Group a batch by column and dedup its runs, in O(batch) memory.

    ``sets`` are the batch's :func:`set_ids`, ``num_columns`` of them
    (``num_sets`` per cache).  Batch-length temporaries are narrow
    (int16/int32 tags and set ids, int32 positions, bool masks) and
    freed after their last use.  Only ``argsort``'s result and the head
    indices come as int64; the sort order is narrowed at once, the head
    indices die with the gathers.
    """
    st = _Streams()
    n = lines.shape[0]
    st.n = n

    # The state's tags share the dtype, so it must hold theirs too.
    pow2 = num_sets & (num_sets - 1) == 0
    shift = num_sets.bit_length() - 1
    st.max_tag = int(lines.max()) >> shift if pow2 else int(lines.max()) // num_sets
    st.tag_dtype = _tag_dtype(max(st.max_tag, state_max_tag))
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

    # Run dedup: equal lines of one cache are always in the same column,
    # so adjacent equal (column, tag) pairs in the sorted stream are
    # consecutive same-line accesses of one set stream.
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
        np.searchsorted(ded_sets, np.arange(num_columns, dtype=ded_sets.dtype)), st.nd
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
    # each set's chunk chain (chains are contiguous in column-major order).
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


def _saturating_walks(
    p0: np.ndarray, deltas: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """PSEL trajectories of K caches: p[i] = clip(p[i-1] + deltas[i], 0, _PSEL_MAX).

    Cache ``k``'s walk is ``deltas[bounds[k]:bounds[k + 1]]``, starting
    from ``p0[k]``; the result is aligned with ``deltas``.

    Fast path: a walk whose raw cumulative sum never leaves the valid
    range never clamps, so a plain cumsum is exact.  The walks that do
    clamp run one exact parallel prefix scan over the clamp-add
    functions.  Each step is ``f(x) = min(c, max(b, x + s))`` with
    ``(s, b, c) = (delta, 0, PSEL_MAX)``, and that family is closed under
    composition::

        (f_r . f_l)(x) = min(c', max(b', x + s'))
        s' = s_l + s_r
        b' = max(b_r, b_l + s_r)
        c' = min(c_r, max(b_r, c_l + s_r))

    so a Hillis-Steele doubling scan yields every prefix composition in
    ``O(n log n)`` vector work — no scalar replay however often the
    counter saturates (thrashing workloads pin PSEL at a rail for most
    of the trace, which made restart-based replays degenerate).  The
    walks share one scan: each starts with the constant function
    ``(0, p0, p0)``, which no composition with earlier steps can change.
    """
    p0 = np.asarray(p0, dtype=np.int64)
    lens = np.diff(bounds)
    walk = np.cumsum(deltas, dtype=np.int64)
    if walk.shape[0] == 0:
        return walk
    before = np.concatenate(([0], walk))[bounds[:-1]]
    walk += np.repeat(p0 - before, lens)
    out = (walk < 0) | (walk > _PSEL_MAX)
    if not out.any():
        return walk
    walk_of = np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)
    clamped = np.zeros(lens.shape[0], dtype=bool)
    clamped[walk_of[out]] = True
    idx = np.flatnonzero(clamped[walk_of])
    clamps = np.flatnonzero(clamped)
    # Each clamped walk's steps, after its constant start.
    starts = np.concatenate(([0], np.cumsum(lens[clamps])[:-1]))
    s = np.insert(deltas[idx].astype(np.int64), starts, 0)
    b = np.insert(np.zeros(idx.shape[0], dtype=np.int64), starts, p0[clamps])
    c = np.insert(np.full(idx.shape[0], _PSEL_MAX, dtype=np.int64), starts, p0[clamps])
    n = s.shape[0]
    k = 1
    while k < n:
        s_r, b_r, c_r = s[k:], b[k:], c[k:]
        s_l, b_l, c_l = s[:-k], b[:-k], c[:-k]
        s2 = s_l + s_r
        b2 = np.maximum(b_r, b_l + s_r)
        c2 = np.minimum(c_r, np.maximum(b_r, c_l + s_r))
        s[k:], b[k:], c[k:] = s2, b2, c2
        k *= 2
    steps = np.ones(n, dtype=bool)
    steps[starts + np.arange(starts.shape[0], dtype=np.int64)] = False
    walk[idx] = np.minimum(c, np.maximum(b, s))[steps]
    return walk


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

    ``tags`` (columns, ways), in recency order, are updated in place.
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


def _replay_columns(
    parts: Sequence[Tuple[_Streams, np.ndarray, np.ndarray, np.ndarray]],
    tags: np.ndarray,
    rrpv: np.ndarray,
) -> None:
    """One exact RRIP pass over the columns of one or more batches.

    Each part is ``(st, columns, ins, hit_ded)``: a batch's streams, the
    non-empty columns of it this pass replays, every deduped access's
    insertion RRPV (only those of ``columns`` are read) and the array
    that receives their hit bits.  The parts' columns are disjoint, so
    they step together in one ragged lockstep pass.  Updates those
    columns' rows of ``tags``/``rrpv`` in place.
    """
    offsets = np.cumsum([0] + [st.nd for st, _, _, _ in parts])
    starts = np.concatenate(
        [st.set_start[cols] + off for (st, cols, _, _), off in zip(parts, offsets)]
    )
    lens = np.concatenate([st.counts_d[cols] for st, cols, _, _ in parts])
    if len(parts) == 1:
        ded, ins = parts[0][0].ded_tags, parts[0][2]
    else:
        ded = np.concatenate([st.ded_tags for st, _, _, _ in parts])
        ins = np.concatenate([part[2] for part in parts])
    colperm, steps, src = _layout(starts, lens)
    cols = np.concatenate([part[1] for part in parts])[colperm]
    t, r = tags[cols], rrpv[cols]
    code = ins[src]
    code *= _CODE
    VR = np.empty(src.shape[0], dtype=np.int8)
    _lockstep_rrip(ded[src].astype(tags.dtype, copy=False), code, steps, t, r, VR)
    tags[cols], rrpv[cols] = t, r
    hit = VR == _HIT
    if len(parts) == 1:
        parts[0][3][src] = hit
        return
    for (_, _, _, hit_ded), lo, hi in zip(parts, offsets, offsets[1:]):
        mine = (src >= lo) & (src < hi)
        hit_ded[src[mine] - lo] = hit[mine]


def _long_inserts(
    st: _Streams, key: int, shift: np.ndarray, num_sets: int
) -> np.ndarray:
    """Each run head's bimodal draw: is its insertion long?

    Cache ``k``'s head at batch position ``q`` sits at lifetime position
    ``q + shift[k]``.  Heads are column-major, so each cache's heads
    are one contiguous range.
    """
    base = int(shift.min())
    if (shift == base).all():
        return _draws.long_inserts_at(key, base, st.head_prog)
    heads = np.diff(st.set_start[::num_sets])
    return _draws.long_inserts_at(
        key, base, st.head_prog + np.repeat(shift - base, heads)
    )


class LockstepReplay:
    """K caches of one config, replayed as arrays over combined batches.

    A combined batch holds cache ``k``'s next accesses at positions
    ``bounds[k]:bounds[k + 1]`` (possibly none).  :meth:`kernel` replays
    one in lockstep passes with one column per (cache, set);
    :meth:`reference` sends one through each cache's own ``simulate``.
    Both return the batches completed so far, in order, each as
    ``(hits, tags)``: its hit bits and every cache's compressed tags
    (``line // num_sets``, -1 invalid; rows ``k * num_sets`` onwards are
    cache ``k``'s) right after it.  :meth:`finish` completes the rest and
    writes the state back to the caches.

    SRRIP, BRRIP and LRU complete each batch in its own pass.  DRRIP
    completes a batch one call late: each pass replays the leader sets
    of the new batch together with the follower sets of the batch
    before.  Leaders never read PSEL, and a batch's followers need only
    its own leaders' votes, so a batch costs one pass rather than two.
    """

    def __init__(self, caches: Sequence[SetAssociativeCache]) -> None:
        self.caches = caches
        config = caches[0].config
        self._config = config
        self._roles = np.tile(np.asarray(caches[0]._role, dtype=np.int8), len(caches))
        self._leaders = np.flatnonzero(self._roles != 0)
        # The DRRIP batch whose followers wait for the next pass: its
        # pass part and its leader rows' tags right after it.
        self._waiting: Optional[
            Tuple[Tuple[_Streams, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
        ] = None
        self._load()

    def _load(self) -> None:
        tags, self.rrpv = _state_arrays(self.caches)
        self._max_tag = int(tags.max())
        self.tags = tags.astype(_tag_dtype(self._max_tag))
        self.psel = np.asarray([c._psel for c in self.caches], dtype=np.int64)
        self.pos = np.asarray([c._access_pos for c in self.caches], dtype=np.int64)

    def _store(self) -> None:
        lru = self._config.policy == "lru"
        # Reference LRU never touches RRPV state; keep it bit-identical.
        _write_state(self.caches, self.tags, None if lru else self.rrpv)
        for cache, psel, pos in zip(self.caches, self.psel.tolist(), self.pos.tolist()):
            cache._psel = psel
            cache._access_pos = pos

    def kernel(
        self, lines: np.ndarray, sets: np.ndarray, bounds: Bounds
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Replay a combined batch :func:`kernel_possible` accepts; ``sets``
        are its :func:`set_ids` with the same ``bounds``."""
        config = self._config
        num_sets = config.num_sets
        cuts = np.asarray(bounds, dtype=np.int64)
        st = _build_streams(
            lines, sets, len(self.caches) * num_sets, num_sets, self._max_tag
        )
        self._max_tag = max(self._max_tag, st.max_tag)
        self.tags = self.tags.astype(st.tag_dtype, copy=False)
        policy = config.policy
        if policy == "lru":
            self.pos += np.diff(cuts)
            return [(_replay_lru(st, self.tags, config.ways), self.tags.copy())]
        ins = np.full(st.nd, _RRPV_MAX - 1, dtype=np.int8)
        bimodal = ins
        if policy != "srrip":
            # Bimodal draws are keyed by each cache's lifetime access
            # position (bit-exact with the reference by construction —
            # same hash, same keys).
            bimodal = np.where(
                _long_inserts(st, self.caches[0]._draw_key, self.pos - cuts[:-1], num_sets),
                np.int8(_RRPV_MAX - 1),
                np.int8(_RRPV_MAX),
            )
        self.pos += np.diff(cuts)
        hit_ded = np.empty(st.nd, dtype=bool)
        present = st.counts_d > 0
        if policy != "drrip":
            if policy == "brrip":
                ins = bimodal
            # A run of length >= 2 pins its line at RRPV 0 whatever the policy.
            ins[st.run2] = 0
            _replay_columns(
                [(st, np.flatnonzero(present), ins, hit_ded)], self.tags, self.rrpv
            )
            return [(_hits_program_order(st, hit_ded), self.tags.copy())]

        # Leaders' insertions are fixed by role.
        role_d = np.repeat(self._roles, st.counts_d)
        np.copyto(ins, bimodal, where=role_d == 2)
        ins[st.run2] = 0
        parts = [(st, np.flatnonzero(present & (self._roles != 0)), ins, hit_ded)]
        if self._waiting is not None:
            parts.append(self._waiting[0])
        parts = [part for part in parts if part[1].shape[0]]
        if parts:
            _replay_columns(parts, self.tags, self.rrpv)
        done = self._complete()
        leader_tags = self.tags[self._leaders]
        self._follower_insertions(st, ins, bimodal, role_d, hit_ded, cuts)
        followers = np.flatnonzero(present & (self._roles == 0))
        self._waiting = ((st, followers, ins, hit_ded), leader_tags)
        return done

    def _follower_insertions(
        self,
        st: _Streams,
        ins: np.ndarray,
        bimodal: np.ndarray,
        role_d: np.ndarray,
        hit_ded: np.ndarray,
        cuts: np.ndarray,
    ) -> None:
        """Walk each cache's PSEL over its leader heads' misses and set
        its follower heads' insertions (in ``ins``) from it."""
        # Leader-head misses vote on their cache's PSEL in program order;
        # batch positions are cache-major, so sorting them groups the
        # votes by cache.
        lead_miss = np.flatnonzero((role_d != 0) & ~hit_ded)
        vote_pos = st.head_prog[lead_miss]
        by_pos = np.argsort(vote_pos)
        vote_pos = vote_pos[by_pos]
        votes = np.where(role_d[lead_miss[by_pos]] == 1, 1, -1)
        vote_cuts = np.searchsorted(vote_pos, cuts)
        walk = _saturating_walks(self.psel, votes, vote_cuts)
        # A head at batch position p reads its cache's PSEL after every
        # vote of that cache before p: each vote's value holds from just
        # after its position, which is never a follower's, and each
        # cache's batch starts at the PSEL it entered with.  A cache's
        # start sorts after a vote of the cache before at the same
        # position, so the start wins.
        starts = vote_cuts[:-1]
        change = np.insert(vote_pos + 1, starts, cuts[:-1])
        value = np.insert(walk, starts, self.psel)
        span_len = np.diff(np.append(change, st.n))
        use_b = np.repeat(value >= _PSEL_INIT, span_len)[st.head_prog]
        use_b &= role_d == 0
        use_b &= ~st.run2
        np.copyto(ins, bimodal, where=use_b)
        voted = np.diff(vote_cuts) > 0
        self.psel[voted] = walk[vote_cuts[1:][voted] - 1]

    def _complete(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The waiting DRRIP batch, once its followers have replayed."""
        if self._waiting is None:
            return []
        (st, _, _, hit_ded), leader_tags = self._waiting
        self._waiting = None
        tags = self.tags.copy()
        tags[self._leaders] = leader_tags
        return [(_hits_program_order(st, hit_ded), tags)]

    def _flush(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Replay the waiting batch's followers in a pass of their own."""
        if self._waiting is not None and self._waiting[0][1].shape[0]:
            _replay_columns([self._waiting[0]], self.tags, self.rrpv)
        return self._complete()

    def reference(
        self, lines: np.ndarray, bounds: Bounds
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Replay a combined batch through each cache's own ``simulate``."""
        done = self._flush()
        self._store()
        hits = np.concatenate(
            [np.zeros(0, dtype=np.uint8)]
            + [
                cache.simulate(lines[lo:hi]).hits
                for cache, lo, hi in zip(self.caches, bounds, bounds[1:])
                if hi > lo
            ]
        )
        self._load()
        return done + [(hits, self.tags.copy())]

    def finish(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Complete every batch and write the state back to the caches."""
        done = self._flush()
        self._store()
        return done


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
    bounds = (0, lines.shape[0])
    return kernel_replay([cache], lines, set_ids(lines, cache.config.num_sets), bounds)


def kernel_replay(
    caches: Sequence[SetAssociativeCache],
    lines: np.ndarray,
    sets: np.ndarray,
    bounds: Bounds,
) -> np.ndarray:
    """Replay one combined batch :func:`kernel_possible` accepts.

    ``caches`` share one config; cache ``k``'s next accesses are
    ``lines[bounds[k]:bounds[k + 1]]``, in its program order, and
    ``sets`` are the batch's :func:`set_ids` with the same ``bounds``.
    Returns the hit bits of the combined batch and updates every cache
    exactly as replaying its own accesses alone would.
    """
    config = caches[0].config
    with _obs_span(
        "sim.kernel", policy=config.policy, accesses=lines.shape[0], caches=len(caches)
    ):
        replay = LockstepReplay(caches)
        done = replay.kernel(lines, sets, bounds) + replay.finish()
    return done[0][0]
