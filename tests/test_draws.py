"""Unit and regression tests for the per-access bimodal draw stream.

The retired implementation pre-generated a 65,536-entry pool and
consumed it by global miss rank, wrapping modulo the pool size — any
trace with more misses than the pool silently recycled draws and
correlated BRRIP insertion decisions across epochs (the validation
workloads alone have ~250K misses).  These tests pin the replacement's
contract: a counter-hash keyed by ``(seed, access position)`` that
never recycles, never depends on hit/miss history, and is bit-exact
between its scalar and vectorized twins.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import _draws

#: Size of the retired wrapping pool; the regression traces exceed it.
_OLD_POOL = 1 << 16


class TestDrawStream:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        start=st.integers(min_value=0, max_value=2**40),
        n=st.integers(min_value=1, max_value=300),
    )
    def test_scalar_vector_bit_exact(self, seed, start, n):
        """``long_inserts`` equals ``n`` calls to ``long_insert``."""
        key = _draws.draw_key(seed)
        vec = _draws.long_inserts(key, start, n)
        scalar = [_draws.long_insert(key, start + i) for i in range(n)]
        assert vec.tolist() == scalar

    def test_draws_never_recycle_past_old_pool(self):
        """Regression: no repeats on traces longer than the old pool.

        The wrapping pool made draw ``i`` equal draw ``i % 65536``; the
        counter-hash's finalizer is bijective on 64-bit words, so every
        position must yield a distinct word — checked well past the old
        wraparound horizon, including the exact old-period lags.
        """
        key = _draws.draw_key(42)
        n = 4 * _OLD_POOL + 1
        words = _draws.draw_words(key, 0, n)
        assert np.unique(words).shape[0] == n
        # The old bug's signature specifically: equality at lag 65536.
        assert not np.any(words[_OLD_POOL:] == words[:-_OLD_POOL])

    def test_long_rate_is_one_in_32(self):
        """The threshold carves exactly 1/32 of the word space.

        Statistical check on a large window: the long-insert rate lands
        within a few standard deviations of 1/32.
        """
        key = _draws.draw_key(7)
        n = 1 << 20
        rate = _draws.long_inserts(key, 0, n).mean()
        p = 1.0 / 32.0
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(rate - p) < 6 * sigma

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=2**31 - 1),
        b=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_distinct_seeds_get_distinct_keys(self, a, b):
        if a == b:
            assert _draws.draw_key(a) == _draws.draw_key(b)
        else:
            assert _draws.draw_key(a) != _draws.draw_key(b)

    def test_words_at_positions_match_the_contiguous_stream(self):
        """Draws at arbitrary positions, in any order and across the
        hashing blocks, are the contiguous stream's words there."""
        key = _draws.draw_key(11)
        start = 2**40 + 17
        n = 3 * _draws._BLOCK + 5
        offsets = np.random.default_rng(1).permutation(n)[: n - 7].astype(np.int32)
        words = _draws.draw_words(key, start, n)
        np.testing.assert_array_equal(
            _draws.draw_words_at(key, start, offsets), words[offsets]
        )
        np.testing.assert_array_equal(
            _draws.long_inserts_at(key, start, offsets),
            _draws.long_inserts(key, start, n)[offsets],
        )

    def test_position_keying_is_stateless(self):
        """Draws are pure in (key, position): order of evaluation is moot."""
        key = _draws.draw_key(3)
        forward = [_draws.long_insert(key, p) for p in range(100)]
        shuffled_positions = list(range(100))[::-1]
        backward = {p: _draws.long_insert(key, p) for p in shuffled_positions}
        assert forward == [backward[p] for p in range(100)]
        # And the vectorized twin agrees from any window start.
        assert _draws.long_inserts(key, 40, 20).tolist() == forward[40:60]
