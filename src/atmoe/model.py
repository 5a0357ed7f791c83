"""A small decoder-only transformer whose FFN down-projection in every block
is the blended expert layer. Only the ``GRAD_CLASSES`` kinds, the routers and
the LoRA factors, may train; the rest is the frozen base, which enters the graph
as constant arrays, as masks do. Every graph starts from one constant,
``frozen_prefix``: the embeddings plus block 0's attention.

Parameters live in a flat ``name -> ndarray`` store whose names and shapes
``param_shapes`` derives from the config; the batched graph of ``build_graph``
is the one computation over them, for training, evaluation and inspection.

The default frozen base ("coded" init) is a structured reservoir rather than a
Gaussian soup. Rank-r adapters can only add a rank-r linear map of the FFN
hidden state, which is far too small to *discover* sequence copying from random
features; instead the frozen base is laid out so the relevant quantities are
already linear functions of the residual stream, in the blocks that one table,
``CODED_LAYOUT``, names:

- payload tokens carry a two-plane rotation code in ``tok``, instruction
  tokens a one-hot code in ``ctrl``, positions a rotation code in ``pos`` and
  a constant ``const``, raised over the instruction;
- block 0 heads copy the previous / previous-previous token code into
  ``prev1`` / ``prev2`` and pool the instruction code into every position;
- block 1 heads match the current token code against stored previous-token
  codes, recovering "token after the occurrence of the current token"
  (``fwd``) and "token before it" (``rev``);
- each FFN up-projection passes the ``FFN_PASS`` blocks through unchanged.

An adapter then only has to read one 4-coordinate block and write the token
code (optionally relabeled) for the output logits, which is exactly rank 4,
and the router sees the instruction code in every FFN hidden state.

Every init first draws each tensor from its own seeded stream at a std looked
up by the tensor's kind, or zeros; the coded base then replaces the frozen
tensors it lays out. The "random" init is the draws alone; gradient checks and
the small property tests use it because they exercise arbitrary tiny shapes.
"""

from __future__ import annotations

import hashlib
from itertools import accumulate
from typing import Iterable

import numpy as np

from . import autograd as ag
from .config import PREMERGED_ID, Config
from .numerics import derive_rng
from .router import routing, slot_mask
from .taskgen import EOS, MAX_INSTRUCTION_LEN, PAYLOAD_IDS, TASKS

EMBED_STD = 0.1
READOUT_STD = 0.02
ROUTER_STD = 0.02
ADAPTER_STD = 0.02  # LoRA A factors; B starts at 0, so a fresh adapter is inert

# Init std by a parameter's last name part; a kind in neither table (``up_b``,
# ``B``) starts at zeros. Fan-in kinds draw at 1/sqrt(input width).
INIT_STD = {"tok_emb": EMBED_STD, "pos_emb": EMBED_STD, "unembed": READOUT_STD,
            "wg": ROUTER_STD, "wd": ROUTER_STD, "A": ADAPTER_STD}
FAN_IN_INIT = ("wq", "wk", "wv", "wo", "up_w", "down_w0")
# The one rule of what may train: the kinds of these gradient-check classes (in
# report order), which are what the stages train. Every other kind is frozen base.
GRAD_CLASSES = {"group_router": ("wg",), "intra_router": ("wd",), "lora_a": ("A",), "lora_b": ("B",)}

# ---------------------------------------------------------------------------
# Coded-reservoir layout: the residual blocks as (name, width), in coordinate
# order; each block starts where the one before it ends, and coordinates past
# the last block hold init noise only. Tokens and positions turn once per
# CODE_PERIOD: plane multipliers minimize the worst off-peak autocorrelation,
# (1, 9) gives max dot 0.707 over 32 token ids, (1, 7) max 1.414/2 over 23
# offsets. Of the CODED_HEADS heads per block, the ones noted below write their
# blocks and block 0's head 2 pools the instruction code into every position's
# ctrl; block 0's head 3 and block 1's heads 2 and 3 are unused.
_INSTRUCTIONS = sorted(t.token for t in TASKS.values() if t.token is not None)
CODED_LAYOUT = (
    ("tok", 4),    # payload token code: two planes, angles k and 9k
    ("ctrl", len(_INSTRUCTIONS)),  # one-hot of the task table's instruction tokens
    ("pos", 6),    # position code: two planes, angles t and 7t, triangle representation
    ("const", 1),  # constant: query anchor of the instruction-pool head, raised over
                   # the instruction (positions 1 to MAX_INSTRUCTION_LEN - 1) so the
                   # same head can pool it, and the end-of-sequence readout direction
    ("prev1", 4),  # previous-token payload code (block 0, head 0)
    ("prev2", 4),  # previous-previous token code (block 0, head 1)
    ("fwd", 4),    # forward match read (block 1, head 0)
    ("rev", 4),    # reverse match read (block 1, head 1)
)
CODED_BLOCKS = {name: slice(stop - w, stop) for (name, w), stop in
                zip(CODED_LAYOUT, accumulate(w for _, w in CODED_LAYOUT))}
CODED_WIDTH = sum(w for _, w in CODED_LAYOUT)
CODED_HEADS = 4
CODE_PERIOD = 32
# The blocks the FFN passes through, in up_w row-pair order: the order in which
# every adapter's A columns meet them, so it fixes every trained tensor.
FFN_PASS = ("tok", "ctrl", "pos", "fwd", "rev", "const")
FFN_PASS_COORDS = np.r_[tuple(CODED_BLOCKS[n] for n in FFN_PASS)]
_PC, _CC, _POSC, _CONST, _PREV1, _PREV2, _FWD, _REV = (CODED_BLOCKS[n] for n in (
    "tok", "ctrl", "pos", "const", "prev1", "prev2", "fwd", "rev"))
_TOK_PLANES, _POS_PLANES = (1, 9), (1, 7)
_CODE_ANGLE = 2.0 * np.pi / CODE_PERIOD

# The position code stores each plane as three cosines 120 degrees apart
# ("triangle" representation) instead of cosine/sine.  Each code is then
# zero-sum by construction and the rotation operator annihilates the all-ones
# direction, so layer norm's mean subtraction cancels out of the offset-head
# scores exactly instead of contaminating near-tied attention margins.
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


class ToyTransformer:
    def __init__(self, cfg: Config, params: dict[str, np.ndarray] | None = None):
        cfg.validate()
        self.cfg = cfg
        self.groups = cfg.groups
        self.task_adapter_ids = cfg.expert_ids
        self.adapter_ids = self.task_adapter_ids + [PREMERGED_ID]
        self.slot_mask = slot_mask(self.groups)
        self.params = params if params is not None else self._init_params()
        self._check_param_names()
        self.may_train = frozenset(n for names in self.param_classes().values() for n in names)

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
        """Every tensor drawn from its own ``init`` stream at its kind's std
        (see ``INIT_STD``), then the coded base's frozen tensors over them."""
        P = {}
        for name, shape in self.param_shapes().items():
            kind = name.rsplit(".", 1)[-1]
            std = 1.0 / np.sqrt(shape[-1]) if kind in FAN_IN_INIT else INIT_STD.get(kind)
            P[name] = (np.zeros(shape) if std is None else
                       derive_rng(self.cfg.seed, "init", name).normal(0.0, std, size=shape))
        if self.cfg.model.base_init == "coded":
            P.update(self._coded_base())
        return P

    def _coded_base(self) -> dict[str, np.ndarray]:
        """The frozen tensors of the coded reservoir: embeddings, attention,
        FFN up-projection, a zero base down-projection and the readout."""
        m = self.cfg.model
        P = {"tok_emb": self._coded_tok_emb(), "pos_emb": self._coded_pos_emb()}
        for i in range(m.n_layers):
            b = f"blocks.{i}"
            P.update(zip((f"{b}.attn.{w}" for w in ("wq", "wk", "wv", "wo")),
                         self._coded_attention(lower=(i == 0))))
            # The base down-projection is zeroed so the residual code
            # coordinates stay clean and adapters own the whole FFN output.
            P[f"{b}.ffn.up_w"], P[f"{b}.ffn.up_b"] = self._coded_ffn(f"{b}.ffn")
            P[f"{b}.ffn.down_w0"] = np.zeros((m.d_model, m.d_ff))
        # readout from clean codes only: non-predictable ids (BOS, SEP, unused)
        # keep near-zero columns instead of ballast noise. End-of-sequence
        # reads the constant coordinate, giving adapters a writable handle on
        # termination without a dedicated code block.
        noise = derive_rng(self.cfg.seed, "init", "unembed").normal(
            0.0, CODE_NOISE, size=(m.d_model, m.vocab_size))
        P["unembed"] = CODE_READOUT * self._clean_token_codes().T + noise
        P["unembed"][_CONST, EOS] += EOS_READOUT
        return P

    def _clean_token_codes(self) -> np.ndarray:
        """Noise-free token geometry: payload rotation codes in the tok block,
        instruction one-hots (scaled to equal norm) in the ctrl block."""
        m = self.cfg.model
        codes = np.zeros((m.vocab_size, m.d_model))
        codes[PAYLOAD_IDS.start: PAYLOAD_IDS.stop, _PC] = \
            CODE_TOK_SCALE * _plane_code(np.arange(len(PAYLOAD_IDS)), _TOK_PLANES)
        codes[_INSTRUCTIONS, _CC] = CODE_TOK_SCALE * np.sqrt(2.0) * np.eye(len(_INSTRUCTIONS))
        return codes

    def _coded_ffn(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Frozen FFN up-projection for the coded base: one +gain/-gain row
        pair per ``FFN_PASS_COORDS`` coordinate, which gives adapters and
        routers an exact linear view of it (gelu(x) - gelu(-x) = x), then
        random gelu features for nonlinear cues such as end-of-sequence
        timing."""
        m = self.cfg.model
        rng = derive_rng(self.cfg.seed, "init", tag)
        k = np.arange(len(FFN_PASS_COORDS))
        n = 2 * len(k)
        up_w = np.zeros((m.d_ff, m.d_model))
        up_b = np.zeros(m.d_ff)
        up_w[2 * k, FFN_PASS_COORDS] = FFN_PASS_GAIN
        up_w[2 * k + 1, FFN_PASS_COORDS] = -FFN_PASS_GAIN
        up_w[n:] = rng.normal(0.0, 1.0 / np.sqrt(m.d_model), size=(m.d_ff - n, m.d_model))
        up_b[n:] = rng.normal(0.0, 0.5, size=m.d_ff - n)
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
        emb[1:MAX_INSTRUCTION_LEN, _CONST] += CODE_FLAG_SCALE
        return emb

    def _coded_attention(self, lower: bool) -> tuple[np.ndarray, ...]:
        """Hand-set heads of width d_model // CODED_HEADS, wired as the layout
        table notes; the lower block fills prev1, prev2 and ctrl, upper blocks
        fwd and rev."""
        d = self.cfg.model.d_model
        dh = d // CODED_HEADS
        wq, wk, wv, wo = (np.zeros((d, d)) for _ in range(4))
        eye4 = np.eye(4)
        if lower:
            for head, steps, dest in ((0, 1, _PREV1), (1, 2, _PREV2)):
                r = head * dh
                wq[r: r + 6, _POSC] = CODE_QK_OFFSET * _tri_rot_back(_POS_PLANES, steps)
                # keys through the projector onto the two planes (no rotation),
                # so they too ignore the all-ones (mean) direction
                wk[r: r + 6, _POSC] = CODE_QK_OFFSET * _tri_rot_back(_POS_PLANES, 0)
                wv[r: r + 4, _PC] = eye4
                wo[dest, r: r + 4] = CODE_V_PREV * eye4
            r = 2 * dh  # instruction pool: constant query, region-raised keys
            wq[r, _CONST] = CODE_QK_INSTR
            wk[r, _CONST] = CODE_QK_INSTR
            eye_cc = np.eye(len(_INSTRUCTIONS))
            wv[r + 1: r + 1 + len(eye_cc), _CC] = eye_cc
            wo[_CC, r + 1: r + 1 + len(eye_cc)] = CODE_V_INSTR * eye_cc
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

    def only(self, adapter_id: str | None) -> np.ndarray:
        """The constant mixture of ``adapter_id`` alone: its one-hot row over
        ``adapter_ids``, or the all-zero row (no adapter) for None."""
        if adapter_id is not None and adapter_id not in self.adapter_ids:
            raise KeyError(f"unknown adapter id: {adapter_id!r}; the model has {self.adapter_ids}")
        return np.array([float(aid == adapter_id) for aid in self.adapter_ids])

    def router_param_names(self) -> list[str]:
        return [n for n in self.param_shapes() if n.rsplit(".", 1)[-1] in ("wg", "wd")]

    def param_classes(self) -> dict[str, list[str]]:
        """Each ``GRAD_CLASSES`` class's parameter names, in registry order."""
        names = list(self.param_shapes())
        return {cls: [n for n in names if n.rsplit(".", 1)[-1] in kinds]
                for cls, kinds in GRAD_CLASSES.items()}

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

    def frozen_prefix(self, tokens: np.ndarray, q0: int = 0) -> np.ndarray:
        """The constant start of every graph: the embeddings plus block 0's
        attention at positions ``q0`` and later, [B, T - q0, d_model]."""
        tokens = self._validate_tokens(tokens)
        h = self.params["tok_emb"][tokens] + self.params["pos_emb"][: tokens.shape[1]]
        return self._attend(ag.Tensor(h), 0, q0).data

    def _attend(self, h, layer: int, q0: int = 0):
        """Block ``layer``'s attention and residual add at positions ``q0`` and
        later: [B, T, d] in, [B, T - q0, d] out."""
        attn = [self.params[f"blocks.{layer}.attn.{w}"] for w in ("wq", "wk", "wv", "wo")]
        out = ag.causal_attention(ag.layer_norm(h), *attn, self.cfg.model.n_heads, q0)
        return ag.add(ag.getitem(h, (slice(None), slice(q0, None))) if q0 else h, out)

    def build_graph(self, tokens: np.ndarray, trainable: Iterable[str] = (),
                    coef: np.ndarray | None = None, rows: np.ndarray | None = None,
                    prefix: np.ndarray | None = None):
        """Batched forward graph; returns (logits Tensor, leaf dict, aux).

        The leaf dict holds the routers and LoRA factors, the kinds that may
        train (see ``GRAD_CLASSES``), and ``trainable`` names the ones that get
        a gradient; naming a frozen base parameter raises ValueError.

        ``coef`` mixes the adapters of every expert projection. ``None`` is the
        learned mixture: ``atmoe.lam`` times the routed weights plus ``1 - lam``
        on the pre-merged adapter. A row over ``adapter_ids`` is a constant
        mixture (see ``only``); only its nonzero adapters run.

        The graph starts from ``frozen_prefix`` of ``tokens``: ``prefix``
        holds its rows (a training stage's cache), and ``None`` computes it.

        ``rows``, sorted unique flat indices ``b*T + p`` into the B*T
        positions (``batch_arrays``; ``None`` is every position), selects the
        positions whose logits are needed: the last block past its attention,
        the final norm and the unembedding run on them only, and the logits
        are [len(rows), vocab] in ``rows`` order. The last attention queries
        only from the batch's first selected position ``q0 = min(rows mod T)``
        on; earlier blocks see every position, and every position stays a key
        and a value, as each feeds later ones. The pick is a ``getitem``,
        whose backward ``ga[rows] = g`` is right only because no index
        repeats.

        ``aux`` carries per-layer arrays: ``moe_input`` (the activation entering
        the expert projection, which is also the routing input) and
        ``moe_output`` (what the projection returns), plus for the learned
        mixture ``gw`` (group weights [N, G]) and ``iw`` (intra-group weights
        [N, G, M]). The last layer's arrays hold ``rows`` only.
        """
        trainable = set(trainable)
        frozen = sorted((trainable - self.may_train) & self.params.keys())
        if frozen:
            raise ValueError(f"frozen base parameters cannot train: {frozen}")
        if coef is not None and np.shape(coef) != (len(self.adapter_ids),):
            raise ValueError(f"coef needs one entry per adapter, got shape {np.shape(coef)}")
        tokens = self._validate_tokens(tokens)
        B, T = tokens.shape
        m = self.cfg.model
        P = ag.parameters({n: v for n, v in self.params.items() if n in self.may_train}, trainable)
        aux: dict = {"moe_input": [], "moe_output": [], "gw": [], "iw": []}
        rows = np.arange(B * T) if rows is None else rows
        q0 = int((rows % T).min()) if len(rows) else 0
        rows = rows - q0 * (rows // T + 1)  # into the [B*(T-q0)] window
        t0 = [0] * (m.n_layers - 1) + [q0]  # each block's first query position

        h = ag.Tensor(self.frozen_prefix(tokens, t0[0]) if prefix is None else prefix[:, t0[0]:])
        for i in range(m.n_layers):
            b = f"blocks.{i}"
            h = ag.reshape(h if i == 0 else self._attend(h, i, t0[i]),
                           (B * (T - t0[i]), m.d_model))
            if i == m.n_layers - 1:
                h = ag.getitem(h, rows)
            x = ag.layer_norm(h)
            u = ag.gelu(ag.linear(x, self.params[f"{b}.ffn.up_w"], self.params[f"{b}.ffn.up_b"]))
            aux["moe_input"].append(u.data)
            y = self._moe(u, P, i, coef, aux)
            aux["moe_output"].append(y.data)
            h = ag.add(h, y)
            if i < m.n_layers - 1:
                h = ag.reshape(h, (B, T, m.d_model))
        return ag.matmul(ag.layer_norm(h), self.params["unembed"]), P, aux

    def _moe(self, u, P, layer: int, coef: np.ndarray | None, aux: dict):
        b = f"blocks.{layer}"
        N = u.shape[0]
        w0 = self.params[f"{b}.ffn.down_w0"]
        # an all-zero base projection (the coded base's) adds exact zeros: its
        # GEMM and add are skipped
        base = ag.linear(u, w0) if w0.any() else None
        used = range(len(self.adapter_ids)) if coef is None else np.flatnonzero(coef)
        if not len(used):
            return ag.Tensor(np.zeros((N, self.cfg.model.d_model))) if base is None else base
        As = [P[f"{b}.moe.experts.{self.adapter_ids[k]}.A"] for k in used]
        Bs = [P[f"{b}.moe.experts.{self.adapter_ids[k]}.B"] for k in used]
        if coef is not None:
            mix = np.tile(np.take(coef, used), (N, 1))
        else:
            lam, G, M = self.cfg.atmoe.lam, self.cfg.n_groups, self.cfg.max_group_size
            r = self.cfg.router
            gw, iw = routing(u, P[f"{b}.moe.wg"], P[f"{b}.moe.wd"], self.slot_mask,
                             r.tau_g, r.tau_d)
            aux["gw"].append(gw.data)
            aux["iw"].append(iw.data)
            comb = ag.mul(ag.reshape(gw, (N, G, 1)), iw)
            # Adapter coefficients in ``adapter_ids`` order: ``pick`` moves slot
            # (g, m) of the flattened weights to its adapter's column, times lam,
            # and drops padded slots; the pre-merged column is the constant
            # 1 - lam. At lam = 0 ``pick`` is all zeros, so the router gets an
            # exact zero gradient.
            slots = np.flatnonzero(self.slot_mask)
            pick = np.zeros((G * M, len(used)))
            pick[slots, np.arange(len(slots))] = lam
            const = np.zeros(len(used))
            const[-1] = 1.0 - lam
            mix = ag.add(ag.matmul(ag.reshape(comb, (N, G * M)), pick), const)
        y = ag.lora_mixture(u, mix, As, Bs)
        return y if base is None else ag.add(base, y)

    # ------------------------------------------------------------- inference

    def loss_graph(self, tokens, rows, targets, trainable: Iterable[str] = (),
                   coef: np.ndarray | None = None, prefix: np.ndarray | None = None):
        """Mean cross entropy of ``targets`` at the scored ``rows`` of ``tokens``
        (the layout of ``batch_arrays``); returns (loss Tensor, leaf dict, aux).
        Only ``rows`` reach the head (see ``build_graph``)."""
        logits, P, aux = self.build_graph(tokens, trainable, coef, rows, prefix)
        return ag.cross_entropy(logits, targets), P, aux

    def layer_routing_trace(self, tokens) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer, the group [T, G] and intra-group [T, G, M] weights the
        learned mixture computes for one token sequence."""
        tokens = np.asarray(tokens, dtype=np.int64)
        _, _, aux = self.build_graph(tokens[None, :])
        return list(zip(aux["gw"], aux["iw"]))
