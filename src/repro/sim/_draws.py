"""Per-access bimodal draw stream for the BRRIP/DRRIP insertion policy.

The BRRIP throttle inserts a missing line with a *long* re-reference
prediction (RRPV ``max-1``) with probability 1/32 and a distant one
(RRPV ``max``) otherwise [Jaleel et al., ISCA'10].  Earlier revisions
drew these decisions from a finite pre-generated pool consumed by
*global miss rank*, which had two structural problems:

1.  the pool wrapped modulo 2**16, recycling draws (and thereby
    correlating insertion decisions) on any trace with more than 65,536
    BRRIP-mode misses — the validation workloads alone have ~250 K; and
2.  draw consumption by miss *rank* coupled every cache set through the
    global miss sequence: flipping one hit bit anywhere reassigned every
    later draw, which forced the vectorized kernels to route BRRIP/DRRIP
    through the scalar reference loop (DESIGN.md §7).

This module replaces the pool with a **counter-hash**: the draw for the
access at global position ``p`` (the cache's lifetime access counter) is
a pure function of ``(seed, p)``, so it never recycles and never depends
on the hit/miss history.  The hash is the splitmix64 output function —
its finalizer is bijective on 64-bit words, so distinct positions give
distinct draw words with the full 2**64 period of the underlying
Weyl sequence.

Draw specification (the test oracle re-implements this independently):

- ``GAMMA = 0x9E3779B97F4A7C15`` (the splitmix64 Weyl increment),
- ``key(seed)   = finalize((seed + 1) * GAMMA mod 2**64)``,
- ``word(key,p) = finalize((key + p * GAMMA) mod 2**64)``,
- the insertion is *long* (RRPV ``max-1``) iff ``word < 2**59``
  (exactly 1/32 of the 64-bit space),

where ``finalize`` is splitmix64's three-step mix::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Both entry points below compute the identical bit pattern: the scalar
path (``long_insert``) transcribes the specification one position at a
time, the vectorized path (``long_inserts_at``) serves the reference
batch loop, which draws a contiguous run of positions, and the kernels,
which draw only at the positions of run heads; so reference and kernel
replay stay bit-exact by construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GAMMA",
    "LONG_THRESHOLD",
    "draw_key",
    "draw_words",
    "draw_words_at",
    "long_insert",
    "long_inserts",
    "long_inserts_at",
]

_MASK64 = (1 << 64) - 1

#: splitmix64 Weyl-sequence increment (odd, hence bijective mod 2**64).
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: ``word < LONG_THRESHOLD`` selects the 1/32 long-insertion draws.
LONG_THRESHOLD = 1 << 59  # == 2**64 * (1/32)

# Positions hashed at a time by long_inserts_at.
_BLOCK = 1 << 16


def _finalize(z: int) -> int:
    """Scalar splitmix64 finalizer over Python ints masked to 64 bits."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def draw_key(seed: int) -> int:
    """Per-cache stream key derived from the config seed.

    ``seed + 1`` keeps seed 0 off the finalizer's 0 -> 0 fixed point;
    multiplication by the odd ``GAMMA`` is bijective mod 2**64, so
    distinct seeds always get distinct keys.
    """
    return _finalize(((int(seed) + 1) * GAMMA) & _MASK64)


def long_insert(key: int, pos: int) -> bool:
    """Scalar draw: does the access at position ``pos`` insert long?"""
    word = _finalize((key + (pos & _MASK64) * GAMMA) & _MASK64)
    return word < LONG_THRESHOLD


def draw_words(key: int, start: int, n: int) -> np.ndarray:
    """Raw 64-bit draw words for positions ``start .. start+n-1``.

    Exposed (rather than only the thresholded booleans) so tests can pin
    the no-recycling property of the stream itself.
    """
    return draw_words_at(key, start, np.arange(n, dtype=np.uint64))


def draw_words_at(key: int, start: int, offsets: np.ndarray) -> np.ndarray:
    """Raw 64-bit draw words for positions ``start + offsets[i]``.

    ``offsets`` are non-negative integers in any order; the word at a
    position does not depend on which other positions are drawn.
    """
    z = np.uint64((key + (start & _MASK64) * GAMMA) & _MASK64) + np.asarray(
        offsets
    ).astype(np.uint64) * np.uint64(GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def long_inserts(key: int, start: int, n: int) -> np.ndarray:
    """Vectorized draws for positions ``start .. start+n-1`` (bool array).

    Bit-exact with ``n`` calls to :func:`long_insert`.
    """
    return long_inserts_at(key, start, np.arange(n, dtype=np.uint64))


def long_inserts_at(key: int, start: int, offsets: np.ndarray) -> np.ndarray:
    """Draws for positions ``start + offsets[i]`` (bool array).

    Hashed in blocks, so the 64-bit words never take more than
    ``_BLOCK`` positions' worth of memory.
    """
    n = offsets.shape[0]
    out = np.empty(n, dtype=bool)
    for lo in range(0, n, _BLOCK):
        np.less(
            draw_words_at(key, start, offsets[lo : lo + _BLOCK]),
            np.uint64(LONG_THRESHOLD),
            out=out[lo : lo + _BLOCK],
        )
    return out
