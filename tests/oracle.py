"""Dense per-vector reference for grouped routing and the blended expert
projection, written from the defining equations; it shares no code with the
batched graph the tests check against it:

    w[g, m] = softmax_g(x W_G / tau_G)[g] * softmax_m(l_g / tau_D)[m]
    y = (W0 + lam * sum_{g,m} w[g, m] B_gm A_gm + (1 - lam) B_pre A_pre) u + b0

with routing input ``x = u``, slot logits ``l_g = x W_D[g]`` and ``-inf`` in
the padded slots.
"""

import numpy as np

from atmoe.config import PREMERGED_ID


def softmax(z, tau):
    """Softmax of one vector ``z / tau``; ``-inf`` entries get exactly 0."""
    z = np.asarray(z, dtype=np.float64) / tau
    e = np.exp(z - z.max())
    return e / e.sum()


def slot_mask(cfg) -> np.ndarray:
    """[G, M] booleans, True where slot m of group g holds an expert."""
    M = max(len(g.experts) for g in cfg.groups)
    return np.array([[m < len(g.experts) for m in range(M)] for g in cfg.groups])


def route(x, wg, wd, mask, tau_g, tau_d):
    """(group [G], intra-group [G, M], combined [G, M]) weights of one vector."""
    gw = softmax(x @ wg, tau_g)
    iw = np.zeros(mask.shape)
    for g in range(mask.shape[0]):
        iw[g] = softmax(np.where(mask[g], x @ wd[g], -np.inf), tau_d)
    return gw, iw, gw[:, None] * iw


def blend(model, layer: int, u, lam: float):
    """Block ``layer``'s blended projection of one activation ``u``, which is
    also its routing input, from ``model``'s parameters and config."""
    cfg, b = model.cfg, f"blocks.{layer}"
    P = model.params
    mask = slot_mask(cfg)
    _, _, w = route(u, P[f"{b}.moe.wg"], P[f"{b}.moe.wd"], mask,
                    cfg.router.tau_g, cfg.router.tau_d)

    def delta(aid):
        return P[f"{b}.moe.experts.{aid}.B"] @ P[f"{b}.moe.experts.{aid}.A"]

    experts = [e for g in cfg.groups for e in g.experts]
    routed = sum(wi * delta(aid) for wi, aid in zip(w[mask], experts))
    W = P[f"{b}.ffn.down_w0"] + lam * routed + (1.0 - lam) * delta(PREMERGED_ID)
    return W @ u
