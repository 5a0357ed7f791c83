"""Seeded random streams and a central-difference gradient oracle, in float64,
and the one writer every output file goes through."""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Callable

import numpy as np


def finite_diff_grad(f: Callable[[np.ndarray], float], theta, h: float) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Evaluates ``(f(theta + h e_i) - f(theta - h e_i)) / (2 h)`` per coordinate.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(theta))
        flat[i] = orig - h
        fm = float(f(theta))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"finite_diff_grad: non-finite evaluation at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def derive_rng(seed: int, *tags: str) -> np.random.Generator:
    """Independent named substream of the root seed.

    Tags are folded in through crc32 so stream identity depends only on
    (seed, tags), never on call order.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [zlib.crc32(t.encode("utf-8")) for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def mix_seed(seed: int, *tags: str) -> int:
    """Stable 64-bit integer seed derived from (seed, tags)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [zlib.crc32(t.encode("utf-8")) for t in tags]
    state = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


def write_text(path: str | Path, text: str) -> None:
    """Write ``text``, already serialised in full, to a ``.tmp`` sibling and
    rename it over ``path``, so a failed write leaves the old file intact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    tmp.replace(path)
