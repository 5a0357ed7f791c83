"""Adaptive grouped routing: a group-level softmax over expert categories,
then a per-group softmax over expert slots, with unused slots masked out so
they carry exactly zero weight. Both levels condition on the input.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .config import GroupDef


def slot_mask(groups: tuple[GroupDef, ...]) -> np.ndarray:
    """Boolean [n_groups, largest group size]; True where a slot holds a real
    expert."""
    mask = np.zeros((len(groups), max(len(g.experts) for g in groups)), dtype=bool)
    for i, g in enumerate(groups):
        mask[i, : len(g.experts)] = True
    return mask


def routing(x, wg, wd, mask: np.ndarray, tau_g: float, tau_d: float):
    """Group weights [N, G] and intra-group weights [N, G, M] of the routing
    inputs ``x`` [N, in_dim], as graph nodes.

    ``wg`` is [in_dim, G] and ``wd`` [G, in_dim, M]. Arguments may be Tensors
    or arrays; slots where ``mask`` is False get exactly 0.
    """
    x, wg, wd = (t if isinstance(t, ag.Tensor) else ag.Tensor(t) for t in (x, wg, wd))
    G, M = mask.shape
    gw = ag.masked_temp_softmax(ag.matmul(x, wg), None, tau_g)
    flat = ag.reshape(ag.transpose(wd, (1, 0, 2)), (wd.shape[1], G * M))
    dl = ag.reshape(ag.matmul(x, flat), (x.shape[0], G, M))
    return gw, ag.masked_temp_softmax(dl, mask, tau_d)
