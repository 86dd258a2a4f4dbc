"""Deterministic, platform-independent random number generation.

Every random draw in this package comes from one of two fully specified
generators so that fixtures and golden files are portable across machines:

* ``Rng`` -- a sequential xoshiro256** generator whose 4-word state is
  seeded from consecutive outputs of a splitmix64 stream.  Used for all
  scalar decisions (shape placement, augmentation choices, ...); it draws
  only integers and uniforms.  Its state is 4 unsigned 64-bit words and
  nothing else, so it can be saved/restored exactly.

* ``bulk_u64`` -- a counter-mode variant for large arrays (pixel noise).
  Output ``i`` of a call with seed ``s`` is produced by seeding a private
  xoshiro256** state from splitmix64 outputs ``4i .. 4i+3`` (counting
  from 0) of the stream started at ``s`` and emitting a single
  xoshiro256** value.  This is stateless and vectorizes over numpy uint64
  arrays, and the scalar ``Rng``/``_splitmix64_at`` primitives double as
  its independent oracle.  ``bulk_u64`` and ``bulk_normal`` also take a
  1-D array of seeds, giving one row per seed equal to that seed's call.

Floats are derived as ``(u64 >> 11) * 2**-53`` (uniform in [0, 1)), and
``bulk_normal`` turns counter-mode uniforms into float32 normals by the
Box-Muller transform (``1 - u`` in float64, the rest in float32), so the
byte-level output of the generators fixes every downstream value.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def mix64(x: int) -> int:
    """splitmix64 output function: a bijective 64-bit mixer."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _splitmix64_at(seed: int, k: int) -> int:
    """k-th output (k >= 0) of the splitmix64 stream started at ``seed``."""
    return mix64((seed + (k + 1) * _GOLDEN) & _MASK)


def derive(seed: int, tag: int) -> int:
    """Derive an independent child seed from (seed, tag), both in [0, 2**64)."""
    if not (0 <= seed <= _MASK and 0 <= tag <= _MASK):
        raise ValueError(f"seed and tag must lie in [0, 2**64), got {seed} and {tag}")
    return mix64(seed ^ mix64(tag ^ _GOLDEN))


def _rotl(x: int, k: int) -> int:
    x &= _MASK
    return ((x << k) | (x >> (64 - k))) & _MASK


class Rng:
    """Sequential xoshiro256** generator, seeded via splitmix64."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        seed &= _MASK
        self._s = [_splitmix64_at(seed, k) for k in range(4)]

    def u64(self) -> int:
        s = self._s
        out = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return out

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.u64() >> 11) * _INV_2_53

    def randint(self, n: int) -> int:
        """Integer in [0, n) via the multiply-shift range map."""
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        return (self.u64() * n) >> 64

    def state(self) -> tuple[int, int, int, int]:
        return tuple(self._s)

    def set_state(self, state) -> None:
        if len(state) != 4:
            raise ValueError("xoshiro256 state must be 4 words")
        self._s = [int(w) & _MASK for w in state]


def bulk_u64(seed, n: int) -> np.ndarray:
    """n counter-mode outputs: one xoshiro256** value per splitmix-seeded lane.

    A 1-D array of seeds gives shape (len(seed), n), row j equal to the call
    on seed j.  A fresh state's first xoshiro256** output reads only ``s[1]``,
    so of lane i's four splitmix64 words only output ``4i+1`` is computed.
    The arithmetic runs in place on one array (wrapping uint64).
    """
    lead = np.shape(seed)
    base = [(int(s) + 2 * _GOLDEN) & _MASK for s in (seed if lead else [seed])]
    # splitmix64 output 4i+1 mixes seed + (4i+2) * golden
    z = np.arange(n, dtype=np.uint64) * np.uint64((4 * _GOLDEN) & _MASK)
    z = z + np.array(base, dtype=np.uint64).reshape(lead + (1,))
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        # the three xor-shifts of mix64; the last multiply is xoshiro's s1 * 5
        for shift, mul in ((30, _MIX1), (27, _MIX2), (31, 5)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(mul)
        # xoshiro256** first output: rotl(s1 * 5, 7) * 9
        np.right_shift(z, np.uint64(57), out=t)
        z <<= np.uint64(7)
        z |= t
        z *= np.uint64(9)
    return z


def bulk_uniform(seed: int, shape) -> np.ndarray:
    """Array of uniforms in [0, 1), float64, scaled in place on the words' buffer."""
    n = int(np.prod(shape)) if shape else 1
    u = bulk_u64(seed, n)
    u >>= np.uint64(11)
    return np.multiply(u, _INV_2_53, out=u.view(np.float64)).reshape(shape)


def bulk_normal(seed, shape) -> np.ndarray:
    """Array of float32 standard normals via Box-Muller on counter-mode
    uniforms; seeds as in ``bulk_u64``.  ``1 - u1`` is taken in float64 before
    the cast, since a ``u1`` within 2**-25 of 1 rounds to 1 in float32."""
    n = int(np.prod(shape)) if shape else 1
    m = (n + 1) // 2
    u = bulk_u64(seed, 2 * m) >> np.uint64(11)
    u = np.multiply(u, _INV_2_53, out=u.view(np.float64))
    r = np.subtract(1.0, u[..., :m], out=u[..., :m]).astype(np.float32)
    ang = u[..., m:].astype(np.float32) * np.float32(2.0 * np.pi)
    np.sqrt(np.multiply(np.log(r, out=r), np.float32(-2.0), out=r), out=r)  # sqrt(-2 log(1 - u1))
    out = np.empty(u.shape, dtype=np.float32)  # the sine terms follow the cosine terms
    np.multiply(np.cos(ang), r, out=out[..., :m])
    np.multiply(np.sin(ang, out=ang), r, out=out[..., m:])
    return out[..., :n].reshape(np.shape(seed) + tuple(shape))
