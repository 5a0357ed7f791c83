"""A small decoder-only transformer whose FFN down-projection in every block
is the blended expert layer. The base weights are frozen; adapters and routers
are the only things any training stage touches.

Parameters live in a flat ``name -> ndarray`` store whose names and shapes
``param_shapes`` derives from the config; the batched graph of ``build_graph``
is the one computation over them, for training, evaluation and inspection.

The default frozen base ("coded" init) is a structured reservoir rather than a
Gaussian soup. Rank-r adapters can only add a rank-r linear map of the FFN
hidden state, which is far too small to *discover* sequence copying from random
features; instead the frozen base is laid out so the relevant quantities are
already linear functions of the residual stream:

- payload tokens carry a two-plane rotation code in 4 coordinates, instruction
  and EOS tokens a one-hot code, positions a rotation code plus a constant and
  an instruction-region flag;
- block 0 heads copy the previous / previous-previous token code into
  dedicated coordinates and pool the instruction code into every position;
- block 1 heads match the current token code against stored previous-token
  codes, recovering "token after the occurrence of the current token" (forward
  copy direction) and "token before it" (reverse direction).

An adapter then only has to read one 4-coordinate block and write the token
code (optionally relabeled) for the output logits, which is exactly rank 4,
and the router sees the instruction code in every FFN hidden state. The
"random" init keeps everything plain Gaussian; gradient checks and the small
property tests use it because they exercise arbitrary tiny shapes.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from . import autograd as ag
from .config import PREMERGED_ID, Config
from .numerics import derive_rng
from .router import routing, slot_mask
from .taskgen import EOS, PAYLOAD_BASE, PAYLOAD_SIZE, TASK_TOKENS

EMBED_STD = 0.1
READOUT_STD = 0.02
ROUTER_STD = 0.02
ADAPTER_STD = 0.02  # LoRA A factors; B starts at 0, so a fresh adapter is inert

MODES = ("full", "base", "adapter")
PREFIX_PARAMS = ("tok_emb", "pos_emb", "blocks.0.attn.")  # name prefixes

# ---------------------------------------------------------------------------
# Coded-reservoir layout. First 32 residual coordinates:
#   0:4   payload token code (two planes, angles k and 9k times 2*pi/32)
#   4:9   control code: instruction tokens 3..7 one-hot
#   9:15  position code (two planes, angles t and 7t, triangle representation)
#   15    constant coordinate: query anchor for the instruction-pool head,
#         raised inside the instruction region (positions 1..3) so the same
#         head can pool it, and the readout direction for end-of-sequence
#   16:20 previous-token payload code   (block-0 head 0)
#   20:24 previous-previous token code  (block-0 head 1)
#   24:28 forward match read            (block-1 head 0)
#   28:32 reverse match read            (block-1 head 1)
# Plane multipliers minimize the worst off-peak autocorrelation: (1, 9) gives
# max dot 0.707 over 32 token ids, (1, 7) gives max 1.414/2 over 23 offsets.
#
# The position code stores each plane as three cosines 120 degrees apart
# ("triangle" representation) instead of cosine/sine.  Each code is then
# zero-sum by construction and the rotation operator annihilates the all-ones
# direction, so layer norm's mean subtraction cancels out of the offset-head
# scores exactly instead of contaminating near-tied attention margins.

_PC, _CC, _POSC = slice(0, 4), slice(4, 9), slice(9, 15)
_CONST = 15
_PREV1, _PREV2 = slice(16, 20), slice(20, 24)
_FWD, _REV = slice(24, 28), slice(28, 32)
_TOK_PLANES, _POS_PLANES = (1, 9), (1, 7)
_CODE_ANGLE = 2.0 * np.pi / 32.0
_TRI_OFFS = np.array([0.0, 2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0])

CODE_TOK_SCALE = 3.0     # payload/control token code magnitude
CODE_POS_SCALE = 2.0     # position code magnitude
CODE_FLAG_SCALE = 3.0    # instruction-region boost on the constant coordinate
CODE_NOISE = 0.02        # symmetry-breaking noise on coded tensors
CODE_QK_OFFSET = 3.5     # query/key gain of the offset heads (prev, prev2)
CODE_QK_INSTR = 2.2      # query/key gain of the instruction-pool head
CODE_QK_MATCH = 2.6      # query/key gain of the match heads (fwd, rev)
CODE_V_PREV = 1.2        # write scale of the offset heads
CODE_V_INSTR = 1.0       # write scale of the instruction-pool head
CODE_V_MATCH = 1.5       # write scale of the match heads
CODE_READOUT = 0.75      # unembedding = CODE_READOUT * clean codes + noise
EOS_READOUT = 1.0        # unembedding gain of end-of-sequence on _CONST
FFN_PASS_GAIN = 2.0      # gain of the paired pass-through FFN rows


def _plane_code(indices: np.ndarray, planes: tuple[int, int]) -> np.ndarray:
    """Unit-amplitude two-plane rotation code, one row per index."""
    a0 = _CODE_ANGLE * planes[0] * indices
    a1 = _CODE_ANGLE * planes[1] * indices
    return np.stack([np.cos(a0), np.sin(a0), np.cos(a1), np.sin(a1)], axis=1)


def _tri_code(indices: np.ndarray, planes: tuple[int, int]) -> np.ndarray:
    """Two-plane code in the zero-sum triangle representation (6 columns).

    Plane angle a is stored as (cos(a - o) for o in _TRI_OFFS); the three
    components always sum to zero and the dot-product kernel between two
    angles is 1.5 * cos(a - b), the same cosine kernel as the plane code."""
    cols = [np.cos(_CODE_ANGLE * mult * indices - off)
            for mult in planes for off in _TRI_OFFS]
    return np.stack(cols, axis=1)


def _tri_rot_back(planes: tuple[int, int], steps: int) -> np.ndarray:
    """6x6 map sending the triangle code of index t to the code of t-steps.

    Built per plane as T R T+ where T embeds (cos a, sin a) into the triangle
    representation; T+ annihilates the all-ones direction, which makes the
    offset-head queries immune to layer norm's mean subtraction."""
    T = np.stack([np.cos(_TRI_OFFS), np.sin(_TRI_OFFS)], axis=1)
    out = np.zeros((6, 6))
    for p, mult in enumerate(planes):
        th = _CODE_ANGLE * mult * steps
        c, s = np.cos(th), np.sin(th)
        rot = np.array([[c, s], [-s, c]])
        out[3 * p: 3 * p + 3, 3 * p: 3 * p + 3] = (2.0 / 3.0) * T @ rot @ T.T
    return out


def _tri_proj() -> np.ndarray:
    """6x6 orthogonal projector onto the two triangle-code planes; used for
    offset-head keys so they too ignore the all-ones (mean) direction."""
    return _tri_rot_back(_POS_PLANES, 0)


class ToyTransformer:
    def __init__(self, cfg: Config, params: dict[str, np.ndarray] | None = None):
        cfg.validate()
        self.cfg = cfg
        self.groups = cfg.groups
        self.task_adapter_ids = [e for g in self.groups for e in g.experts]
        self.adapter_ids = self.task_adapter_ids + [PREMERGED_ID]
        self.slot_mask = slot_mask(self.groups)
        self.params = params if params is not None else self._init_params()
        self._check_param_names()

    # ------------------------------------------------------------------ setup

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's name and shape, in registry order."""
        m = self.cfg.model
        d, d_ff, G, M = m.d_model, m.d_ff, self.cfg.n_groups, self.cfg.max_group_size
        S = {"tok_emb": (m.vocab_size, d), "pos_emb": (m.max_seq_len, d)}
        for i in range(m.n_layers):
            b = f"blocks.{i}"
            S.update({f"{b}.attn.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")})
            S.update({f"{b}.ffn.up_w": (d_ff, d), f"{b}.ffn.up_b": (d_ff,),
                      f"{b}.ffn.down_w0": (d, d_ff),
                      f"{b}.moe.wg": (d_ff, G), f"{b}.moe.wd": (G, d_ff, M)})
            for aid in self.adapter_ids:
                S.update({f"{b}.moe.experts.{aid}.A": (m.rank, d_ff),
                          f"{b}.moe.experts.{aid}.B": (d, m.rank)})
        S["unembed"] = (d, m.vocab_size)
        return S

    def _init_params(self) -> dict[str, np.ndarray]:
        m = self.cfg.model
        S = self.param_shapes()
        P: dict[str, np.ndarray] = {}
        coded = m.base_init == "coded"

        def draw(name: str, std: float) -> None:
            P[name] = derive_rng(self.cfg.seed, "init", name).normal(0.0, std, size=S[name])

        if coded:
            P["tok_emb"] = self._coded_tok_emb()
            P["pos_emb"] = self._coded_pos_emb()
        else:
            draw("tok_emb", EMBED_STD)
            draw("pos_emb", EMBED_STD)
        attn_std = 1.0 / np.sqrt(m.d_model)
        for i in range(m.n_layers):
            b = f"blocks.{i}"
            if coded:
                wq, wk, wv, wo = self._coded_attention(lower=(i == 0))
                P[f"{b}.attn.wq"], P[f"{b}.attn.wk"] = wq, wk
                P[f"{b}.attn.wv"], P[f"{b}.attn.wo"] = wv, wo
            else:
                for w in ("wq", "wk", "wv", "wo"):
                    draw(f"{b}.attn.{w}", attn_std)
            if coded:
                # paired +/- pass-through rows give adapters and routers an
                # exact linear view of the readable code blocks (gelu(x) -
                # gelu(-x) = x); the remaining rows are random gelu features
                # for nonlinear cues such as end-of-sequence timing. The base
                # down-projection is zeroed so the residual code coordinates
                # stay clean and adapters own the whole FFN output.
                up_w, up_b = self._coded_ffn(f"{b}.ffn")
                P[f"{b}.ffn.up_w"], P[f"{b}.ffn.up_b"] = up_w, up_b
                P[f"{b}.ffn.down_w0"] = np.zeros((m.d_model, m.d_ff))
            else:
                draw(f"{b}.ffn.up_w", attn_std)
                P[f"{b}.ffn.up_b"] = np.zeros(m.d_ff)
                draw(f"{b}.ffn.down_w0", 1.0 / np.sqrt(m.d_ff))
            draw(f"{b}.moe.wg", ROUTER_STD)
            draw(f"{b}.moe.wd", ROUTER_STD)
            for aid in self.adapter_ids:
                draw(f"{b}.moe.experts.{aid}.A", ADAPTER_STD)
                P[f"{b}.moe.experts.{aid}.B"] = np.zeros((m.d_model, m.rank))
        if coded:
            # readout from clean codes only: non-predictable ids (BOS, SEP,
            # unused) keep near-zero columns instead of ballast noise.
            # End-of-sequence reads the constant coordinate, giving adapters a
            # writable handle on termination without a dedicated code block.
            noise = derive_rng(self.cfg.seed, "init", "unembed").normal(
                0.0, CODE_NOISE, size=(m.d_model, m.vocab_size))
            unembed = CODE_READOUT * self._clean_token_codes().T + noise
            unembed[_CONST, EOS] += EOS_READOUT
            P["unembed"] = unembed
        else:
            draw("unembed", READOUT_STD)
        return P

    def _clean_token_codes(self) -> np.ndarray:
        """Noise-free token geometry: payload rotation codes in the PC block,
        instruction one-hots (scaled to equal norm) in the CC block."""
        m = self.cfg.model
        codes = np.zeros((m.vocab_size, m.d_model))
        payload = np.arange(PAYLOAD_SIZE)
        codes[PAYLOAD_BASE: PAYLOAD_BASE + PAYLOAD_SIZE, _PC] = \
            CODE_TOK_SCALE * _plane_code(payload, _TOK_PLANES)
        for slot, tok in enumerate(sorted(TASK_TOKENS.values())):
            codes[tok, _CC.start + slot] = CODE_TOK_SCALE * np.sqrt(2.0)
        return codes

    def _coded_ffn(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Frozen FFN up-projection for the coded base: one +gain/-gain row
        pair per readable coordinate, then random gelu features."""
        m = self.cfg.model
        rng = derive_rng(self.cfg.seed, "init", tag)
        coords = [c for s in (_PC, _CC, _POSC, _FWD, _REV)
                  for c in range(s.start, s.stop)] + [_CONST]
        up_w = np.zeros((m.d_ff, m.d_model))
        up_b = np.zeros(m.d_ff)
        for k, c in enumerate(coords):
            up_w[2 * k, c] = FFN_PASS_GAIN
            up_w[2 * k + 1, c] = -FFN_PASS_GAIN
        tail = m.d_ff - 2 * len(coords)
        up_w[2 * len(coords):] = rng.normal(
            0.0, 1.0 / np.sqrt(m.d_model), size=(tail, m.d_model))
        up_b[2 * len(coords):] = rng.normal(0.0, 0.5, size=tail)
        return up_w, up_b

    def _coded_tok_emb(self) -> np.ndarray:
        # Equal embedding norm for every token id matters: layer norm divides
        # by the per-position scale, so a low-norm token (BOS/SEP) would get
        # its position-code keys boosted and hijack the offset heads. The
        # ballast rows are renormalized exactly, not just in expectation.
        m = self.cfg.model
        codes = self._clean_token_codes()
        rng = derive_rng(self.cfg.seed, "init", "tok_emb")
        emb = codes + rng.normal(0.0, CODE_NOISE, size=codes.shape)
        target = np.sqrt(2.0) * CODE_TOK_SCALE
        uncoded = np.abs(codes).sum(axis=1) == 0.0
        ballast = rng.normal(0.0, 1.0, size=(int(uncoded.sum()), m.d_model))
        ballast *= target / np.linalg.norm(ballast, axis=1, keepdims=True)
        emb[uncoded] += ballast
        return emb

    def _coded_pos_emb(self) -> np.ndarray:
        m = self.cfg.model
        emb = derive_rng(self.cfg.seed, "init", "pos_emb").normal(
            0.0, CODE_NOISE, size=(m.max_seq_len, m.d_model))
        pos = np.arange(m.max_seq_len)
        emb[:, _POSC] += CODE_POS_SCALE * _tri_code(pos, _POS_PLANES)
        emb[:, _CONST] += CODE_POS_SCALE
        flag_hi = min(4, m.max_seq_len)
        emb[1:flag_hi, _CONST] += CODE_FLAG_SCALE
        return emb

    def _coded_attention(self, lower: bool) -> tuple[np.ndarray, ...]:
        """Hand-set heads; dh = d_model//4. Lower block: head 0 copies the
        previous token code, head 1 the previous-previous code, head 2 pools
        the instruction region. Upper blocks: head 0 reads the token after the
        occurrence of the current token, head 1 the token before it."""
        d = self.cfg.model.d_model
        dh = d // 4
        wq, wk, wv, wo = (np.zeros((d, d)) for _ in range(4))
        eye4 = np.eye(4)
        if lower:
            for head, steps, dest in ((0, 1, _PREV1), (1, 2, _PREV2)):
                r = head * dh
                wq[r: r + 6, _POSC] = CODE_QK_OFFSET * _tri_rot_back(_POS_PLANES, steps)
                wk[r: r + 6, _POSC] = CODE_QK_OFFSET * _tri_proj()
                wv[r: r + 4, _PC] = eye4
                wo[dest, r: r + 4] = CODE_V_PREV * eye4
            r = 2 * dh  # instruction pool: constant query, region-raised keys
            wq[r, _CONST] = CODE_QK_INSTR
            wk[r, _CONST] = CODE_QK_INSTR
            wv[r + 1: r + 6, _CC] = np.eye(5)
            wo[_CC, r + 1: r + 6] = CODE_V_INSTR * np.eye(5)
        else:
            for head, source, dest in ((0, _PC, _FWD), (1, _PREV2, _REV)):
                r = head * dh
                wq[r: r + 4, _PC] = CODE_QK_MATCH * eye4
                wk[r: r + 4, _PREV1] = CODE_QK_MATCH * eye4
                wv[r: r + 4, source] = eye4
                wo[dest, r: r + 4] = CODE_V_MATCH * eye4
        return wq, wk, wv, wo

    def _check_param_names(self) -> None:
        shapes = self.param_shapes()
        if set(self.params) != set(shapes):
            missing, extra = sorted(shapes.keys() - self.params), sorted(self.params.keys() - shapes)
            raise ValueError(f"parameter store mismatch: missing={missing} extra={extra}")
        wrong = [f"{n} {self.params[n].shape} != {s}" for n, s in shapes.items()
                 if self.params[n].shape != s]
        if wrong:
            raise ValueError(f"parameter shape mismatch: {wrong}")

    # ------------------------------------------------------------- name sets

    def adapter_param_names(self, adapter_id: str) -> list[str]:
        if adapter_id not in self.adapter_ids:
            raise KeyError(f"unknown adapter id: {adapter_id!r}")
        return [f"blocks.{i}.moe.experts.{adapter_id}.{p}"
                for i in range(self.cfg.model.n_layers) for p in ("A", "B")]

    def router_param_names(self) -> list[str]:
        return [f"blocks.{i}.moe.{p}"
                for i in range(self.cfg.model.n_layers) for p in ("wg", "wd")]

    def frozen_outside(self, trainable: Iterable[str]) -> list[str]:
        return sorted(set(self.params) - set(trainable))

    def param_checksums(self, names: Iterable[str] | None = None) -> dict[str, str]:
        names = sorted(self.params) if names is None else sorted(names)
        return {n: hashlib.sha256(np.ascontiguousarray(self.params[n]).tobytes()).hexdigest()
                for n in names}

    # ----------------------------------------------------------------- graph

    def _validate_tokens(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape[1] < 1:
            raise ValueError(f"expected a [batch, time] token array, got shape {tokens.shape}")
        if tokens.shape[1] > self.cfg.model.max_seq_len:
            raise ValueError(f"sequence length {tokens.shape[1]} exceeds "
                             f"max_seq_len {self.cfg.model.max_seq_len}")
        if tokens.min() < 0 or tokens.max() >= self.cfg.model.vocab_size:
            raise ValueError("token id out of vocabulary")
        return tokens

    def frozen_prefix(self, tokens: np.ndarray) -> np.ndarray:
        """``build_graph``'s ``prefix`` [B, T, d_model] for ``tokens``; no graph."""
        return self._prefix(self._validate_tokens(tokens), ag.parameters(self.params, ())).data

    def _prefix(self, tokens: np.ndarray, P: dict):
        pos = ag.getitem(P["pos_emb"], slice(0, tokens.shape[1]))
        return self._attend(ag.add(ag.embedding(P["tok_emb"], tokens), pos), P, 0)

    def _attend(self, h, P: dict, layer: int):
        b, T = f"blocks.{layer}", h.shape[1]
        a = ag.layer_norm(h)
        attn = [P[f"{b}.attn.{w}"] for w in ("wq", "wk", "wv", "wo")]
        causal = np.tril(np.ones((T, T), dtype=bool))
        return ag.add(h, ag.causal_attention(a, *attn, self.cfg.model.n_heads, causal))

    def build_graph(self, tokens: np.ndarray, trainable: Iterable[str] = (),
                    mode: str = "full", adapter_id: str | None = None,
                    lam_override: float | None = None,
                    rows: np.ndarray | None = None,
                    prefix: np.ndarray | None = None):
        """Batched forward graph; returns (logits Tensor, leaf dict, aux).

        ``prefix``, a constant from ``frozen_prefix``, replaces the embedding and
        block 0's attention, so their ``PREFIX_PARAMS`` must stay frozen.

        ``rows``, sorted unique flat indices into the B*T positions, selects
        the positions whose logits are needed: the last block past its
        attention, the final norm and the unembedding run on them only, and
        the logits are [len(rows), vocab] (``None``: all B*T). Earlier blocks
        and the last attention see every position, as each feeds later keys
        and values. The pick is a ``getitem``, whose backward ``ga[rows] += g``
        is right only because no index repeats.

        ``aux`` carries per-layer arrays: ``moe_input`` (the activation entering
        the expert projection, which is also the routing input) and
        ``moe_output`` (what the projection returns), plus in full mode
        ``gw_nodes`` (group weight nodes) and ``iw`` (intra-group weights
        [N, G, M]). The last layer's arrays hold ``rows`` only.
        """
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "adapter" and adapter_id not in self.adapter_ids:
            raise KeyError(f"unknown adapter id: {adapter_id!r}")
        tokens = self._validate_tokens(tokens)
        B, T = tokens.shape
        m = self.cfg.model
        P = ag.parameters(self.params, trainable)
        if prefix is not None and any(P[n].requires_grad for n in P if n.startswith(PREFIX_PARAMS)):
            raise ValueError("a prefix needs frozen embeddings and block 0 attention")
        lam = self.cfg.atmoe.lam if lam_override is None else float(lam_override)
        aux: dict = {"moe_input": [], "moe_output": [], "gw_nodes": [], "iw": []}

        h = self._prefix(tokens, P) if prefix is None else ag.Tensor(prefix)
        for i in range(m.n_layers):
            b = f"blocks.{i}"
            h = ag.reshape(h if i == 0 else self._attend(h, P, i), (B * T, m.d_model))
            if rows is not None and i == m.n_layers - 1:
                h = ag.getitem(h, rows)
            x = ag.layer_norm(h)
            u = ag.gelu(ag.linear(x, P[f"{b}.ffn.up_w"], P[f"{b}.ffn.up_b"]))
            aux["moe_input"].append(u.data)
            y = self._moe(u, P, i, mode, adapter_id, lam, aux)
            aux["moe_output"].append(y.data)
            h = ag.add(h, y)
            if i < m.n_layers - 1:
                h = ag.reshape(h, (B, T, m.d_model))
        return ag.matmul(ag.layer_norm(h), P["unembed"]), P, aux

    def _routing(self, u, wg, wd):
        r = self.cfg.router
        return routing(u, wg, wd, self.slot_mask, r.tau_g, r.tau_d)

    def _moe(self, u, P, layer: int, mode: str, adapter_id: str | None,
             lam: float, aux: dict):
        b = f"blocks.{layer}"
        base = ag.linear(u, P[f"{b}.ffn.down_w0"])
        if mode == "base":
            return base
        N = u.shape[0]
        ids = [adapter_id] if mode == "adapter" else self.adapter_ids
        As = [P[f"{b}.moe.experts.{aid}.A"] for aid in ids]
        Bs = [P[f"{b}.moe.experts.{aid}.B"] for aid in ids]
        if mode == "adapter":
            return ag.add(base, ag.lora_mixture(u, np.ones((N, 1)), As, Bs))

        G, M = self.cfg.n_groups, self.cfg.max_group_size
        gw, iw = self._routing(u, P[f"{b}.moe.wg"], P[f"{b}.moe.wd"])
        aux["gw_nodes"].append(gw)
        aux["iw"].append(iw.data)
        comb = ag.mul(ag.reshape(gw, (N, G, 1)), iw)
        # Adapter coefficients in ``adapter_ids`` order: ``pick`` moves slot
        # (g, m) of the flattened weights to its adapter's column, times lam,
        # and drops padded slots; the pre-merged column is the constant
        # 1 - lam. At lam = 0 ``pick`` is all zeros, so the router gets an
        # exact zero gradient.
        slots = np.flatnonzero(self.slot_mask)
        pick = np.zeros((G * M, len(ids)))
        pick[slots, np.arange(len(slots))] = lam
        const = np.zeros(len(ids))
        const[-1] = 1.0 - lam
        coef = ag.add(ag.matmul(ag.reshape(comb, (N, G * M)), pick), const)
        return ag.add(base, ag.lora_mixture(u, coef, As, Bs))

    # ------------------------------------------------------------- inference

    def loss_graph(self, tokens, targets, weights, trainable: Iterable[str] = (),
                   mode: str = "full", adapter_id: str | None = None,
                   lam_override: float | None = None, prefix: np.ndarray | None = None):
        """Scored-position cross entropy; returns (loss Tensor, leaf dict, aux).
        Only the rows with a nonzero weight reach the head (see ``build_graph``)."""
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        rows = np.flatnonzero(weights)
        logits, P, aux = self.build_graph(
            tokens, trainable, mode, adapter_id, lam_override, rows, prefix
        )
        loss = ag.cross_entropy(logits, np.asarray(targets).reshape(-1)[rows], weights[rows])
        return loss, P, aux

    def layer_routing_trace(self, tokens) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer, the group [T, G] and intra-group [T, G, M] weights the
        full-mode graph computes for one token sequence."""
        tokens = np.asarray(tokens, dtype=np.int64)
        _, _, aux = self.build_graph(tokens[None, :], (), "full")
        return [(gw.data, iw) for gw, iw in zip(aux["gw_nodes"], aux["iw"])]
