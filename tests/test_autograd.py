"""Reverse-mode engine: every op's analytic gradient against central
differences, plus graph-level behaviors (accumulation, reuse, detachment)."""

import numpy as np
import pytest

from atmoe import autograd as ag
from atmoe.cli import jitter_params
from atmoe.model import ToyTransformer
from atmoe.numerics import finite_diff_grad

from conftest import tiny_config, with_lam

ATOL = 1e-7


def numeric_grad(build, theta0):
    """Central-difference gradient of scalar-valued build(theta)."""
    return finite_diff_grad(lambda t: build(t), theta0, h=1e-5)


def total(t):
    """The sum of ``t``'s entries as a scalar node: its flattened row times a
    column of ones."""
    n = t.data.size
    return ag.reshape(ag.matmul(ag.reshape(t, (1, n)), np.ones((n, 1))), ())


def check_op(build_scalar, theta0):
    """build_scalar maps a flat parameter vector to a scalar ag.Tensor."""
    t = ag.Tensor(theta0.copy(), requires_grad=True)
    out = build_scalar(t)
    out.backward()
    num = numeric_grad(lambda th: float(build_scalar(ag.Tensor(th)).data), theta0)
    np.testing.assert_allclose(t.grad, num, atol=ATOL)


def test_add_mul_sub_grads():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=6)
    c = rng.normal(size=6)

    def f(t):
        y = ag.add(ag.mul(t, t), ag.mul(t, ag.Tensor(c)))
        y = ag.add(y, ag.mul(ag.Tensor(np.full(6, 2.0)), t))
        return total(y)

    check_op(f, x0)


def test_matmul_grad_both_sides():
    rng = np.random.default_rng(2)
    a0 = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))

    def fa(t):
        prod = ag.matmul(t, ag.Tensor(b))
        return total(ag.mul(prod, prod))

    flat = a0.ravel()
    t = ag.Tensor(a0, requires_grad=True)
    out = total(ag.mul(ag.matmul(t, ag.Tensor(b)), ag.matmul(t, ag.Tensor(b))))
    out.backward()
    num = numeric_grad(
        lambda th: float(fa(ag.Tensor(th.reshape(3, 4))).data), flat)
    np.testing.assert_allclose(t.grad.ravel(), num, atol=ATOL)


def test_transpose_reshape_getitem_grads():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(2, 3, 4))

    def f(t):
        y = ag.transpose(t, (1, 0, 2))
        y = ag.reshape(y, (3, 8))
        y = ag.getitem(y, (slice(0, 2), slice(1, 7)))
        return total(ag.mul(y, y))

    t = ag.Tensor(x0, requires_grad=True)
    f(t).backward()
    num = numeric_grad(lambda th: float(f(ag.Tensor(th.reshape(2, 3, 4))).data),
                       x0.ravel())
    np.testing.assert_allclose(t.grad.ravel(), num, atol=ATOL)


def test_embedding_grad_scatters_rows():
    rng = np.random.default_rng(4)
    table0 = rng.normal(size=(5, 3))
    ids = np.array([[1, 1, 4], [0, 2, 1]])

    def f(t):
        e = ag.embedding(t, ids)
        return total(ag.mul(e, e))

    t = ag.Tensor(table0, requires_grad=True)
    f(t).backward()
    num = numeric_grad(lambda th: float(f(ag.Tensor(th.reshape(5, 3))).data),
                       table0.ravel())
    np.testing.assert_allclose(t.grad.ravel(), num, atol=ATOL)
    # row 3 is never looked up, so its gradient must be exactly zero
    np.testing.assert_array_equal(t.grad[3], np.zeros(3))


def test_gelu_layer_norm_grads():
    rng = np.random.default_rng(5)
    y0 = rng.normal(size=(3, 5))

    def f_gelu(t):
        g = ag.gelu(t)
        return total(ag.mul(g, g))

    t = ag.Tensor(y0, requires_grad=True)
    f_gelu(t).backward()
    num = numeric_grad(lambda th: float(f_gelu(ag.Tensor(th.reshape(3, 5))).data),
                       y0.ravel())
    np.testing.assert_allclose(t.grad.ravel(), num, atol=ATOL)

    z0 = rng.normal(size=(4, 6))
    weight = rng.normal(size=(4, 6))  # a plain sum of y * y is all but constant

    def f_ln(t):
        y = ag.layer_norm(t)
        return total(ag.mul(ag.mul(y, y), weight))

    t = ag.Tensor(z0, requires_grad=True)
    f_ln(t).backward()
    num = numeric_grad(lambda th: float(f_ln(ag.Tensor(th.reshape(4, 6))).data),
                       z0.ravel())
    np.testing.assert_allclose(t.grad.ravel(), num, atol=ATOL)


def test_masked_temp_softmax_grad_and_padding():
    rng = np.random.default_rng(6)
    z0 = rng.normal(size=(3, 4))
    mask = np.array([[True, True, False, False],
                     [True, True, True, False],
                     [True, True, True, True]])
    probe = rng.normal(size=(3, 4))

    def f(t):
        s = ag.masked_temp_softmax(t, mask, 0.7)
        return total(ag.mul(s, ag.Tensor(probe)))

    t = ag.Tensor(z0, requires_grad=True)
    f(t).backward()
    num = numeric_grad(lambda th: float(f(ag.Tensor(th.reshape(3, 4))).data),
                       z0.ravel())
    np.testing.assert_allclose(t.grad.ravel(), num, atol=ATOL)
    out = ag.masked_temp_softmax(ag.Tensor(z0), mask, 0.7).data
    np.testing.assert_array_equal(out[~mask], 0.0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_grad():
    rng = np.random.default_rng(7)
    z0 = rng.normal(size=(4, 5))
    targets = np.array([0, 3, 2, 4])

    def f(t):
        return ag.cross_entropy(t, targets)

    t = ag.Tensor(z0, requires_grad=True)
    f(t).backward()
    num = numeric_grad(lambda th: float(f(ag.Tensor(th.reshape(4, 5))).data),
                       z0.ravel())
    np.testing.assert_allclose(t.grad.ravel(), num, atol=ATOL)
    with pytest.raises(ValueError):
        ag.cross_entropy(ag.Tensor(np.zeros((0, 5))), np.zeros(0, dtype=np.int64))


def test_cross_entropy_matches_hand_value():
    # Uniform logits over 4 classes: loss is exactly ln 4 regardless of target.
    z = ag.Tensor(np.zeros((2, 4)))
    loss = ag.cross_entropy(z, np.array([1, 3]))
    np.testing.assert_allclose(loss.data, np.log(4.0), rtol=1e-12)


def test_reused_tensor_accumulates_gradient():
    x = ag.Tensor(np.array([2.0]), requires_grad=True)
    y = ag.add(ag.mul(x, x), ag.mul(x, x))  # 2x^2, dy/dx = 4x = 8
    total(y).backward()
    np.testing.assert_allclose(x.grad, [8.0], atol=1e-12)


def test_constants_have_no_grad():
    x = ag.Tensor(np.ones(3), requires_grad=True)
    c = ag.Tensor(np.ones(3))
    total(ag.mul(x, c)).backward()
    assert c.grad is None
    np.testing.assert_allclose(x.grad, np.ones(3), atol=1e-12)


def test_parameters_marks_only_trainable():
    arrays = {"a": np.ones(2), "b": np.zeros(3)}
    P = ag.parameters(arrays, trainable=["a"])
    assert P["a"].requires_grad and not P["b"].requires_grad


# ------------------------------------------------------------- fused ops

def _probe_sum(out, probe):
    """Scalar ``sum(out * probe)`` built from graph ops."""
    return total(ag.mul(out, ag.Tensor(probe)))


def _check_fused_grads(build, arrays, trainable, probe):
    """Analytic gradients of ``sum(build(**leaves) * probe)`` for the trainable
    leaves against central differences; frozen leaves get no gradient."""
    leaves = {k: ag.Tensor(v.copy(), requires_grad=(k in trainable))
              for k, v in arrays.items()}
    _probe_sum(build(**leaves), probe).backward()
    for name, leaf in leaves.items():
        if name not in trainable:
            assert leaf.grad is None, name
            continue

        def f(theta, name=name):
            consts = {k: ag.Tensor(theta if k == name else v) for k, v in arrays.items()}
            return float(_probe_sum(build(**consts), probe).data)

        num = numeric_grad(f, arrays[name].copy())
        np.testing.assert_allclose(leaf.grad, num, atol=ATOL, err_msg=name)


def test_linear_grads_match_finite_differences():
    rng = np.random.default_rng(8)
    arrays = {"x": rng.normal(size=(5, 3)), "w": rng.normal(size=(4, 3)),
              "b": rng.normal(size=4)}
    probe = rng.normal(size=(5, 4))
    for trainable in ({"x", "w", "b"}, {"w"}, {"x", "b"}):
        _check_fused_grads(ag.linear, arrays, trainable, probe)
    no_bias = {k: arrays[k] for k in ("x", "w")}
    _check_fused_grads(ag.linear, no_bias, {"x", "w"}, probe)


ATTN_LEAVES = ("a", "wq", "wk", "wv", "wo")


@pytest.mark.parametrize("trainable", [
    set(ATTN_LEAVES), {"a"}, {"wq", "wo"}, {"wk"}, {"a", "wv"}, {"wo"},
])
def test_causal_attention_grads_match_finite_differences(trainable):
    rng = np.random.default_rng(9)
    B, T, d, H = 2, 3, 4, 2
    arrays = {"a": rng.normal(size=(B, T, d))}
    arrays.update({w: rng.normal(size=(d, d)) for w in ATTN_LEAVES[1:]})
    probe = rng.normal(size=(B, T, d))

    def build(**leaves):
        return ag.causal_attention(*(leaves[k] for k in ATTN_LEAVES), H)

    _check_fused_grads(build, arrays, trainable, probe)


def _unfused_linear(x, w, b=None):
    out = ag.matmul(x, ag.transpose(w, (1, 0)))
    return out if b is None else ag.add(out, b)


def _unfused_attention(a, wq, wk, wv, wo, n_heads):
    """The causal attention block composed from primitive ops, one node per step."""
    B, T, d = a.shape
    causal = np.tril(np.ones((T, T), dtype=bool))
    dh = d // n_heads
    af = ag.reshape(a, (B * T, d))

    def heads(w):
        proj = _unfused_linear(af, w)
        return ag.transpose(ag.reshape(proj, (B, T, n_heads, dh)), (0, 2, 1, 3))

    q, k, v = heads(wq), heads(wk), heads(wv)
    scores = ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    att = ag.masked_temp_softmax(scores, causal, 1.0)
    o = ag.reshape(ag.transpose(ag.matmul(att, v), (0, 2, 1, 3)), (B * T, d))
    return ag.reshape(_unfused_linear(o, wo), (B, T, d))


def _assert_rel_close(got, want, tol=1e-12):
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@pytest.mark.parametrize("B,T,d,H", [(1, 5, 6, 3), (3, 2, 8, 2), (2, 7, 4, 1), (4, 1, 6, 2)])
def test_fused_ops_match_unfused_composition(B, T, d, H):
    rng = np.random.default_rng(100 + 10 * B + T)
    arrays = {"a": rng.normal(size=(B, T, d))}
    arrays.update({w: rng.normal(size=(d, d)) / np.sqrt(d) for w in ATTN_LEAVES[1:]})
    arrays["up_w"] = rng.normal(size=(2 * d, d))
    arrays["up_b"] = rng.normal(size=2 * d)
    probe = rng.normal(size=(B * T, 2 * d))

    def run(attention, linear):
        P = {k: ag.Tensor(v, requires_grad=True) for k, v in arrays.items()}
        h = attention(*(P[k] for k in ATTN_LEAVES), H)
        out = linear(ag.reshape(h, (B * T, d)), P["up_w"], P["up_b"])
        _probe_sum(out, probe).backward()
        return out.data, {k: t.grad for k, t in P.items()}

    fused_out, fused_grads = run(ag.causal_attention, ag.linear)
    ref_out, ref_grads = run(_unfused_attention, _unfused_linear)
    _assert_rel_close(fused_out, ref_out)
    for name in arrays:
        _assert_rel_close(fused_grads[name], ref_grads[name])


def test_windowed_attention_is_the_full_attention_past_q0():
    # queries from q0 on: the output is the full op's rows [:, q0:], and the
    # gradients are the full op's under an upstream gradient that is zero on
    # the rows before q0, which still reach every key and value
    rng = np.random.default_rng(14)
    B, T, d, H = 2, 5, 4, 2
    arrays = {"a": rng.normal(size=(B, T, d))}
    arrays.update({w: rng.normal(size=(d, d)) / np.sqrt(d) for w in ATTN_LEAVES[1:]})
    probe = rng.normal(size=(B, T, d))

    def run(q0, upstream):
        P = {k: ag.Tensor(v, requires_grad=True) for k, v in arrays.items()}
        out = ag.causal_attention(*(P[k] for k in ATTN_LEAVES), H, q0)
        _probe_sum(out, upstream).backward()
        return out.data, {k: t.grad for k, t in P.items()}

    full_out, _ = run(0, probe)
    for q0 in (0, 1, T - 1):
        out, grads = run(q0, probe[:, q0:])
        assert out.shape == (B, T - q0, d)
        _assert_rel_close(out, full_out[:, q0:])
        _, want = run(0, np.where(np.arange(T)[None, :, None] < q0, 0.0, probe))
        for name in ATTN_LEAVES:
            _assert_rel_close(grads[name], want[name])


# which heads of four are dead, and how: "wv" zeroes their value rows, "wo"
# their output columns, "both" both
DEAD_HEADS = [pytest.param("wv", (2, 3), id="wv-last-two"),
              pytest.param("wo", (3,), id="wo-last"),
              pytest.param("both", (0,), id="both-first"),
              pytest.param("wv", (0, 1, 2, 3), id="wv-all"),
              pytest.param("wo", (1,), id="wo-between-live")]


def _dead_head_arrays(how, dead, rng, B=3, T=6, d=8, H=4):
    arrays = {"a": rng.normal(size=(B, T, d))}
    arrays.update({w: rng.normal(size=(d, d)) / np.sqrt(d) for w in ATTN_LEAVES[1:]})
    dh = d // H
    for h in dead:
        if how in ("wv", "both"):
            arrays["wv"][h * dh: (h + 1) * dh] = 0.0
        if how in ("wo", "both"):
            arrays["wo"][:, h * dh: (h + 1) * dh] = 0.0
    return arrays


@pytest.mark.parametrize("how,dead", DEAD_HEADS)
@pytest.mark.parametrize("q0", [0, 2])
def test_dead_heads_are_skipped_bit_for_bit(monkeypatch, how, dead, q0):
    # frozen weights take the skip; a trainable wo forces the dense path,
    # which must give the same output and input gradient bit for bit
    rng = np.random.default_rng(15)
    arrays = _dead_head_arrays(how, dead, rng)
    B, T, d = arrays["a"].shape
    probe = rng.normal(size=(B, T - q0, d))
    heads = []
    real_softmax = ag._masked_softmax

    def softmax(z, mask):
        heads.append(z.shape[1])
        return real_softmax(z, mask)

    monkeypatch.setattr(ag, "_masked_softmax", softmax)

    def run(trainable):
        P = {k: ag.Tensor(v, requires_grad=(k in trainable)) for k, v in arrays.items()}
        out = ag.causal_attention(*(P[k] for k in ATTN_LEAVES), 4, q0)
        _probe_sum(out, probe).backward()
        return out.data, P["a"].grad

    skipped, dense = run({"a"}), run({"a", "wo"})
    # the heads outside the span of live ones are skipped
    live = sorted(set(range(4)) - set(dead))
    assert heads == [live[-1] - live[0] + 1 if live else 0, 4]
    for got, want in zip(skipped, dense):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("how,dead", DEAD_HEADS)
def test_attention_with_dead_heads_matches_unfused_and_finite_differences(how, dead):
    # the dense runs (a weight trainable) on the zeroed weights
    rng = np.random.default_rng(16)
    arrays = _dead_head_arrays(how, dead, rng)
    probe = rng.normal(size=arrays["a"].shape)

    def run(attention):
        P = {k: ag.Tensor(v, requires_grad=True) for k, v in arrays.items()}
        out = attention(*(P[k] for k in ATTN_LEAVES), 4)
        _probe_sum(out, probe).backward()
        return out.data, {k: t.grad for k, t in P.items()}

    (out, grads), (ref_out, ref_grads) = run(ag.causal_attention), run(_unfused_attention)
    _assert_rel_close(out, ref_out)
    for name in ATTN_LEAVES:
        _assert_rel_close(grads[name], ref_grads[name])

    def build(**leaves):
        return ag.causal_attention(*(leaves[k] for k in ATTN_LEAVES), 4)

    _check_fused_grads(build, arrays, {"a", "wo"}, probe)


def test_gelu_cube_matches_pow_formula():
    # gelu(x) is of size |x| or less, so the error is measured against
    # max(|gelu(x)|, |x|): near x << 0 the output itself cancels to ~0.
    rng = np.random.default_rng(10)
    x = rng.normal(0.0, 3.0, size=(64, 64))
    k = np.sqrt(2.0 / np.pi)
    want = 0.5 * x * (1.0 + np.tanh(k * (x + 0.044715 * x**3)))
    got = ag.gelu(ag.Tensor(x)).data
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(want), np.abs(x)))


def _mixture_arrays(rng, N, k, d, ranks):
    arrays = {"x": rng.normal(size=(N, k)), "coef": rng.normal(size=(N, len(ranks)))}
    for e, r in enumerate(ranks):
        arrays[f"A{e}"] = rng.normal(size=(r, k))
        arrays[f"B{e}"] = rng.normal(size=(d, r))
    return arrays


def _mixture_build(n_adapters):
    def build(x, coef, **factors):
        return ag.lora_mixture(x, coef, [factors[f"A{e}"] for e in range(n_adapters)],
                               [factors[f"B{e}"] for e in range(n_adapters)])
    return build


@pytest.mark.parametrize("trainable", [
    {"x", "coef", "A0", "A1", "A2", "B0", "B1", "B2"},
    {"x", "coef"},          # router stage: every factor frozen
    {"A1", "B1"},           # one adapter trained, the others frozen
    {"A0", "B2"},
    {"x", "B0", "B1", "B2"},
    {"coef"},
])
def test_lora_mixture_grads_match_finite_differences(trainable):
    rng = np.random.default_rng(12)
    N, k, d, ranks = 5, 4, 3, (2, 1, 3)
    arrays = _mixture_arrays(rng, N, k, d, ranks)
    probe = rng.normal(size=(N, d))
    _check_fused_grads(_mixture_build(len(ranks)), arrays, trainable, probe)


def _looped_mixture(x, coef, As, Bs):
    """The mixture as per-adapter linear -> linear -> mul -> add nodes."""
    out = None
    for e, (a, b) in enumerate(zip(As, Bs)):
        w = ag.reshape(ag.getitem(coef, (slice(None), e)), (x.shape[0], 1))
        term = ag.mul(w, ag.linear(ag.linear(x, a), b))
        out = term if out is None else ag.add(out, term)
    return out


@pytest.mark.parametrize("N,k,d,ranks", [
    (7, 5, 3, (2, 2, 2, 2)), (1, 9, 4, (3,)), (13, 6, 11, (1, 4, 2)), (4, 3, 5, (2,) * 8),
])
def test_lora_mixture_matches_looped_composition(N, k, d, ranks):
    rng = np.random.default_rng(200 + N + 10 * len(ranks))
    arrays = _mixture_arrays(rng, N, k, d, ranks)
    probe = rng.normal(size=(N, d))
    E = len(ranks)

    def run(mixture):
        P = {n: ag.Tensor(v, requires_grad=True) for n, v in arrays.items()}
        out = mixture(P["x"], P["coef"], [P[f"A{e}"] for e in range(E)],
                      [P[f"B{e}"] for e in range(E)])
        _probe_sum(out, probe).backward()
        return out.data, {n: t.grad for n, t in P.items()}

    fused_out, fused_grads = run(ag.lora_mixture)
    ref_out, ref_grads = run(_looped_mixture)
    _assert_rel_close(fused_out, ref_out)
    for name in arrays:
        _assert_rel_close(fused_grads[name], ref_grads[name])


def test_router_gradient_is_exactly_zero_at_lambda_zero():
    # README, "The composed layer": at lam = 0 the routed branch carries
    # weight zero, so the router learns nothing; elsewhere it does learn
    model = ToyTransformer(tiny_config(n_layers=2))
    jitter_params(model)
    rng = np.random.default_rng(13)
    tokens = rng.integers(0, model.cfg.model.vocab_size, size=(3, 6))
    targets = rng.integers(0, model.cfg.model.vocab_size, size=18)
    names = model.router_param_names()
    for lam in (0.0, 0.5):
        loss, P, _ = with_lam(model, lam).loss_graph(tokens, np.arange(18), targets, names)
        loss.backward()
        for name in names:
            if lam == 0.0:
                assert np.all(P[name].grad == 0.0), name
            else:
                assert np.any(P[name].grad != 0.0), name


# ----------------------------------------------------- gradient buffers

def test_shared_upstream_gradient_is_not_aliased():
    # add hands one g object to both parents; each must own its buffer
    a = ag.Tensor(np.zeros(3), requires_grad=True)
    b = ag.Tensor(np.zeros(3), requires_grad=True)
    loss = ag.add(total(ag.add(a, b)), total(a))
    loss.backward()
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
    np.testing.assert_array_equal(b.grad, np.ones(3))
    assert not np.shares_memory(a.grad, b.grad)


@pytest.mark.parametrize("view_first", [True, False])
def test_view_gradient_then_second_gradient(view_first):
    # transpose/reshape pass a view of their own gradient to the leaf; adding
    # a second gradient into the leaf must not write through that view
    rng = np.random.default_rng(11)
    x = ag.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c1, c2 = rng.normal(size=(3, 2)), rng.normal(size=6)
    t = ag.transpose(x, (1, 0))
    r = ag.reshape(x, (6,))
    terms = [_probe_sum(t, c1), _probe_sum(r, c2)]
    if not view_first:
        terms.reverse()
    ag.add(*terms).backward()
    np.testing.assert_allclose(x.grad, c1.T + c2.reshape(2, 3), atol=1e-15)
    np.testing.assert_array_equal(t.grad, c1)
    np.testing.assert_array_equal(r.grad, c2)
    assert not np.shares_memory(x.grad, t.grad)
    assert not np.shares_memory(x.grad, r.grad)


@pytest.mark.parametrize("op", ["add", "reshape", "transpose"])
def test_shared_first_gradient_survives_a_second_gradient(op):
    # a parent stores its first gradient as handed over: the same object as
    # its sibling's (add) or a view of its child's (reshape, transpose); a
    # second gradient into the parent must leave that other gradient as it is
    rng = np.random.default_rng(13)
    x = ag.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    if op == "add":
        other = ag.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = ag.add(x, other)
    else:
        out = ag.reshape(x, (3, 2)) if op == "reshape" else ag.transpose(x, (1, 0))
        other = out
    g1, g2 = rng.normal(size=out.shape), rng.normal(size=(2, 3))
    out._accumulate(g1)
    out._backward(out.grad)
    first = {"add": g1, "reshape": g1.reshape(2, 3), "transpose": g1.T}[op]
    assert np.shares_memory(x.grad, other.grad)
    x._accumulate(g2)
    np.testing.assert_array_equal(other.grad, g1)
    np.testing.assert_array_equal(x.grad, first + g2)


def test_gradient_of_the_wrong_shape_raises():
    # first or later, a gradient must have its tensor's shape; none broadcasts
    x = ag.Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ValueError, match=r"gradient of shape \(3,\) for a tensor of shape \(2, 3\)"):
        x._accumulate(np.ones(3))
    assert x.grad is None
    x._accumulate(np.ones((2, 3)))
    with pytest.raises(ValueError, match="gradient of shape"):
        x._accumulate(np.ones((1, 3)))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def _where_softmax(z, mask):
    """The softmax and its VJP as out-of-place ``np.where`` formulas."""
    if mask is not None:
        z = np.where(mask, z, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _random_inputs(seed):
    """Random causal [B, H, T, T] scores and [N, G, M] slot-masked logits;
    every slot mask keeps at least one slot per row."""
    rng = np.random.default_rng(seed)
    B, H, T, N, G, M = 3, 2, 7, 9, 4, 3
    causal = np.tril(np.ones((T, T), dtype=bool))
    slots = rng.random((G, M)) < 0.5
    slots[np.arange(G), rng.integers(0, M, size=G)] = True
    return [(rng.normal(scale=3.0, size=(B, H, T, T)), causal),
            (rng.normal(scale=3.0, size=(N, G, M)), slots),
            (rng.normal(scale=3.0, size=(N, G, M)), None)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_in_place_softmax_is_bit_identical_to_where_formula(seed):
    for z, mask in _random_inputs(seed):
        z0 = z.copy()
        y = ag._masked_softmax(z, mask)
        want = _where_softmax(z0, mask)
        np.testing.assert_array_equal(y, want)
        if mask is not None:
            assert (y[..., ~mask] == 0.0).all()
        g = np.random.default_rng(seed + 10).normal(size=y.shape)
        g0 = g.copy()
        np.testing.assert_array_equal(ag._softmax_vjp(g, y),
                                      (g0 - (g0 * want).sum(axis=-1, keepdims=True)) * want)
        np.testing.assert_array_equal(g, g0)
        np.testing.assert_array_equal(y, want)


def test_softmax_ops_leave_inputs_and_upstream_gradient_unchanged():
    rng = np.random.default_rng(12)
    _, (logits, slots), _ = _random_inputs(3)
    a = rng.normal(size=(2, 5, 4))
    ws = [rng.normal(size=(4, 4)) for _ in range(4)]
    cases = [
        ([logits], lambda t: ag.masked_temp_softmax(t[0], slots, 0.7)),
        ([a, *ws], lambda t: ag.causal_attention(*t, 2)),
    ]
    for arrays, op in cases:
        leaves = [ag.Tensor(x.copy(), requires_grad=True) for x in arrays]
        out = op(leaves)
        out_data = out.data.copy()
        g = rng.normal(size=out.shape)
        g0 = g.copy()
        out._backward(g)
        np.testing.assert_array_equal(g, g0)
        np.testing.assert_array_equal(out.data, out_data)
        for leaf, x in zip(leaves, arrays):
            np.testing.assert_array_equal(leaf.data, x)
            assert leaf.grad is not None
