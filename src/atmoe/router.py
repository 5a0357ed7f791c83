"""Adaptive grouped routing: a group-level softmax over expert categories,
then a per-group softmax over expert slots, with unused slots masked out so
they carry exactly zero weight. Both levels condition on the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag


@dataclass
class GroupSpec:
    """A named expert category and the ordered adapter ids it contains."""

    group_id: int
    name: str
    expert_ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.expert_ids) < 1:
            raise ValueError(f"group {self.name!r} has no experts")
        if len(set(self.expert_ids)) != len(self.expert_ids):
            raise ValueError(f"group {self.name!r} repeats expert ids")

    @property
    def size(self) -> int:
        return len(self.expert_ids)


def build_groups(defs) -> list[GroupSpec]:
    """GroupSpecs from (name, expert_ids) pairs, checking cross-group uniqueness."""
    groups = [GroupSpec(i, g.name, tuple(g.experts)) for i, g in enumerate(defs)]
    all_ids = [e for g in groups for e in g.expert_ids]
    if len(set(all_ids)) != len(all_ids):
        raise ValueError("expert ids must be unique across groups")
    return groups


def slot_mask(groups: list[GroupSpec], max_slots: int) -> np.ndarray:
    """Boolean [n_groups, max_slots]; True where a slot holds a real expert."""
    mask = np.zeros((len(groups), max_slots), dtype=bool)
    for g in groups:
        if g.size > max_slots:
            raise ValueError(f"group {g.name!r} exceeds {max_slots} slots")
        mask[g.group_id, : g.size] = True
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
