"""Seeded inputs: the program under test sees only what is generated here.

Everything is a pure function of ``(seed, name, index)`` so every rank —
thread or process — derives the same bytes and the same tag order
without exchanging them, and a receiver can verify a payload it was
never shown.
"""

from __future__ import annotations

import random

_MASK63 = (1 << 63) - 1


def rng(seed: int, name: str) -> random.Random:
    return random.Random(f"ombpy-perf:{seed}:{name}")


def stamp_base(seed: int) -> int:
    """Per-seed offset mixed into every 8-byte iteration stamp."""
    return rng(seed, "stamp").getrandbits(62)


def stamp8(base: int, i: int) -> bytes:
    """The 8-byte payload of iteration ``i``."""
    return ((base + i) & _MASK63).to_bytes(8, "little")


def payload(seed: int, name: str, nbytes: int) -> bytes:
    """``nbytes`` of seeded bytes for the buffer called ``name``."""
    return rng(seed, f"payload:{name}").randbytes(nbytes)


def tag_permutation(seed: int, k: int, round_no: int, phase: str) -> list[int]:
    """The order in which round ``round_no`` touches its ``k`` tags."""
    tags = list(range(k))
    rng(seed, f"tags:{phase}:{round_no}").shuffle(tags)
    return tags


def float_vector(seed: int, n: int):
    """``n`` float64 with exactly representable values, so a sum over
    ranks is bitwise independent of the reduction order."""
    import numpy as np

    draw = rng(seed, "vector")
    return np.array([draw.randrange(-1024, 1024) for _ in range(n)],
                    dtype="f8")
