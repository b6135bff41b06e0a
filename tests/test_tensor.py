import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dast_lab import tensor as T
from dast_lab.tensor import (
    GraphError,
    NonFiniteError,
    Tensor,
    backward,
    computation_record,
    decay_scan,
    grad_check,
    layer_norm,
    logsumexp,
    matmul,
    no_grad,
    scaled_dot_attention,
    softmax,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_row_times_column():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_matches_triple_loop_oracle():
    r = rng(1)
    a, b = r.normal(size=(5, 4)), r.normal(size=(4, 3))
    expect = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - expect)) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


# -- softmax --------------------------------------------------------------------


def test_softmax_uniform_on_equal_inputs():
    out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-12)


def test_softmax_forced_values():
    out = softmax(Tensor([0.0, math.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance_large_inputs():
    big = softmax(Tensor([1000.0, 1001.0]), axis=0).data
    small = softmax(Tensor([0.0, 1.0]), axis=0).data
    assert np.all(np.isfinite(big))
    assert np.allclose(big, small, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    scale=st.sampled_from([1.0, 10.0, 1e3]),
    seed=st.integers(0, 10_000),
)
def test_softmax_rows_sum_to_one(n, m, scale, seed):
    x = Tensor(rng(seed).normal(size=(n, m)) * scale)
    sums = softmax(x, axis=1).data.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


# -- layer_norm ----------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    out = layer_norm(Tensor([[5.0, 5.0, 5.0]]), eps=1e-5)
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized_row():
    out = layer_norm(Tensor([[1.0, -1.0]]), eps=1e-12)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-9)


def test_layer_norm_statistics():
    x = Tensor(rng(2).normal(size=(4, 16)))
    out = layer_norm(x, eps=1e-10).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-9
    assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-6


# -- scaled dot attention ---------------------------------------------------------


def test_attention_single_key_returns_value_row():
    q = Tensor(rng(3).normal(size=(4, 8)))
    k = Tensor(rng(4).normal(size=(1, 8)))
    v = Tensor(rng(5).normal(size=(1, 8)))
    out, w = scaled_dot_attention(q, k, v)
    assert np.allclose(w.data, 1.0)
    assert np.allclose(out.data, np.repeat(v.data, 4, axis=0))


def test_attention_orthogonal_query_identical_keys():
    q = Tensor([[1.0, 0.0, 0.0, 0.0]])
    k = Tensor([[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    v = Tensor(rng(6).normal(size=(2, 4)))
    _, w = scaled_dot_attention(q, k, v)
    assert np.allclose(w.data, [[0.5, 0.5]], atol=1e-12)


def test_attention_matches_explicit_oracle():
    r = rng(7)
    q, k, v = r.normal(size=(3, 4)), r.normal(size=(5, 4)), r.normal(size=(5, 4))
    out, w = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    scores = q @ k.T / math.sqrt(4)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w_ref = e / e.sum(axis=1, keepdims=True)
    assert np.max(np.abs(w.data - w_ref)) < 1e-10
    assert np.max(np.abs(out.data - w_ref @ v)) < 1e-10
    assert np.max(np.abs(w.data.sum(axis=1) - 1.0)) < 1e-9


# -- backward --------------------------------------------------------------------


def test_backward_sum_of_squares():
    x = Tensor([3.0], requires_grad=True)
    backward((x * x).sum())
    assert np.allclose(x.grad, [6.0])


def test_backward_constant_loss_leaves_grads_zero():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * 0.0).sum() + 5.0
    backward(loss)
    assert np.allclose(x.grad, 0.0)


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        backward(x * x)


def test_backward_twice_errors():
    x = Tensor([2.0], requires_grad=True)
    loss = (x * x).sum()
    backward(loss)
    with pytest.raises(GraphError):
        backward(loss)


def test_backward_frees_intermediate_gradients_as_it_runs():
    # 41 recorded nodes of 256 x 256; holding every gradient to the end
    # raised the traced peak by about 20 MB during backward
    x = Tensor(rng(30).normal(size=(256, 256)), requires_grad=True)
    h = x
    for _ in range(20):
        h = (h * 0.5).tanh()
    loss = h.sum()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 6 * 2 ** 20
    assert x.grad.shape == (256, 256)
    with pytest.raises(GraphError):
        backward(loss)


def test_first_gradient_keeps_the_bits_of_zeros_plus_g():
    x = Tensor(np.zeros(4), requires_grad=True)
    g = np.array([-0.0, 0.0, -1.5, 2.0 ** -1074])
    x._accum(g)
    expect = np.zeros(4) + g
    assert np.array_equal(x.grad, expect)
    assert np.array_equal(np.signbit(x.grad), np.signbit(expect))
    assert x.grad is not g
    g[2] = 7.0  # the stored gradient is a copy
    assert x.grad[2] == -1.5


def test_gradients_accumulate_across_graphs():
    x = Tensor([1.0], requires_grad=True)
    backward((x * 2.0).sum())
    backward((x * 3.0).sum())
    assert np.allclose(x.grad, [5.0])


def test_no_grad_records_nothing_and_resumes_after_a_raise():
    x = Tensor([1.0, -2.0], requires_grad=True)
    with no_grad():
        y = (x * x).sum()
        assert not y.requires_grad and y._prev == ()
        assert matmul(Tensor(np.ones((1, 2))), x.reshape(2, 1))._prev == ()
    assert (x * x).requires_grad
    with pytest.raises(NonFiniteError, match="log"):
        with no_grad():
            (x - 5.0).log()
    y = (x * x).sum()
    assert y.requires_grad and y._prev
    backward(y)
    assert np.array_equal(x.grad, [2.0, -4.0])
    with no_grad():
        with no_grad():
            pass
        assert not (x * x).requires_grad  # an inner block leaves the outer one off


def test_non_finite_intermediate_aborts_with_op_name():
    x = Tensor([-1.0], requires_grad=True)
    with pytest.raises(NonFiniteError, match="log"):
        x.log()


def test_leaf_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_computation_record_is_topological():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    loss = ((x * y) + x).sum()
    rec = computation_record(loss)
    seen = set()
    for op, inputs, out_uid in rec:
        assert all(i in seen or i not in {r[2] for r in rec} for i in inputs)
        seen.add(out_uid)
    assert rec[-1][0] == "sum"


# -- grad_check -------------------------------------------------------------------


def test_grad_check_square():
    x = Tensor([3.0], requires_grad=True)
    err = grad_check(lambda ps: (ps[0] * ps[0]).sum(), [x])
    assert err < 1e-7


def test_grad_check_matmul_chain():
    r = rng(8)
    a = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(r.normal(size=(4, 2)), requires_grad=True)

    def f(ps):
        return (matmul(ps[0], ps[1]).tanh() ** 2.0).sum()

    assert grad_check(f, [a, b]) < 1e-6


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 4), seed=st.integers(0, 999))
def test_grad_check_composite_random_shapes(n, m, seed):
    r = rng(seed)
    x = Tensor(r.normal(size=(n, m)), requires_grad=True)
    w = Tensor(r.normal(size=(m, m)), requires_grad=True)
    g = Tensor(np.ones(m), requires_grad=True)
    b = Tensor(np.zeros(m), requires_grad=True)

    def f(ps):
        xx, ww, gg, bb = ps
        h = layer_norm(matmul(xx, ww).gelu(), gg, bb)
        s = softmax(h, axis=1)
        return (s * h).sum() + logsumexp(h, axis=1).sum()

    assert grad_check(f, [x, w, g, b]) < 1e-4


def test_primitives_are_deterministic():
    r = rng(9)
    x = r.normal(size=(6, 5))
    w = r.normal(size=(5, 5))
    a = matmul(Tensor(x), Tensor(w)).gelu()
    b = matmul(Tensor(x), Tensor(w)).gelu()
    assert np.array_equal(a.data, b.data)


# -- scan ---------------------------------------------------------------------------


def test_decay_scan_zero_decay_is_identity_map():
    u = Tensor(rng(10).normal(size=(5, 3)))
    out = decay_scan(Tensor(np.zeros(3)), u)
    assert np.array_equal(out.data, u.data)


def test_decay_scan_near_one_approaches_cumsum():
    u = rng(11).normal(size=(6, 2))
    out = decay_scan(Tensor(np.full(2, 1.0 - 1e-9)), Tensor(u))
    assert np.allclose(out.data, np.cumsum(u, axis=0), atol=1e-6)


def test_decay_scan_matches_unrolled_oracle():
    r = rng(12)
    a, u = r.uniform(0.1, 0.9, 4), r.normal(size=(7, 4))
    expect = np.zeros_like(u)
    state = np.zeros(4)
    for i in range(7):
        state = a * state + u[i]
        expect[i] = state
    out = decay_scan(Tensor(a), Tensor(u))
    assert np.max(np.abs(out.data - expect)) < 1e-12


def test_decay_scan_grad_check():
    r = rng(13)
    a = Tensor(r.uniform(0.2, 0.8, 3), requires_grad=True)
    u = Tensor(r.normal(size=(5, 3)), requires_grad=True)

    def f(ps):
        return (decay_scan(ps[0], ps[1]) ** 2.0).sum()

    assert grad_check(f, [a, u]) < 1e-6


# -- the batch axis ------------------------------------------------------------------


def _in_order(rows):
    total = 0.0
    for row in rows:
        total = total + row
    return total


def _pairwise_differs():
    # one large term, then terms below half its ulp: an in-order sum drops
    # every small term, numpy's pairwise sum adds them up first
    w = np.full(16, 1e-16)
    w[0] = 1.0
    assert _in_order(w) != w.sum()
    return w


def test_expand_is_a_read_only_view_and_its_vjp_sums_rows_in_order():
    x = Tensor(rng(31).normal(), requires_grad=True)
    out = T.expand(x, 16)
    assert out.data.shape == (16,) and out.op == "expand"
    assert np.shares_memory(out.data, x.data) and not out.data.flags.writeable
    w = _pairwise_differs()
    backward((out * Tensor(w)).sum())
    assert x.grad == _in_order(w)


def test_sum_rows_adds_rows_in_order():
    w = _pairwise_differs()
    x = Tensor(w, requires_grad=True)
    out = T.sum_rows(x)
    assert out.item() == _in_order(w)
    backward(out * 3.0)
    assert np.array_equal(x.grad, np.full(16, 3.0))


def test_stacked_ops_give_each_sample_its_per_sample_bits():
    r = rng(32)
    a, b = r.normal(size=(3, 5, 4)), r.normal(size=(3, 4, 6))
    decay, u = r.uniform(0.2, 0.9, (3, 4)), r.normal(size=(3, 7, 4))
    stacked = [Tensor(v, requires_grad=True) for v in (a, b, decay, u)]
    weights = r.normal(size=(3, 5, 6)), r.normal(size=(3, 7, 4))
    backward((matmul(stacked[0], stacked[1]) * Tensor(weights[0])).sum()
             + (decay_scan(stacked[2], stacked[3]) * Tensor(weights[1])).sum())
    for i in range(3):
        single = [Tensor(v[i], requires_grad=True) for v in (a, b, decay, u)]
        prod, scan = matmul(single[0], single[1]), decay_scan(single[2], single[3])
        assert np.array_equal(prod.data, a[i] @ b[i])
        assert np.array_equal(scan.data, decay_scan(Tensor(decay[i]), Tensor(u[i])).data)
        backward((prod * Tensor(weights[0][i])).sum() + (scan * Tensor(weights[1][i])).sum())
        for whole, one in zip(stacked, single):
            assert np.array_equal(whole.grad[i], one.grad)


def test_stacked_matmul_refuses_a_shared_2d_operand():
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))))
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ValueError):
        decay_scan(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 5, 4))))


# -- misc primitives used across the repo ---------------------------------------------


def test_gather_rows_and_take_per_row_grads():
    r = rng(14)
    x = Tensor(r.normal(size=(4, 3)), requires_grad=True)

    def f(ps):
        g = T.gather_rows(ps[0], [0, 2, 2])
        return (g * g).sum()

    assert grad_check(f, [x]) < 1e-6

    y = Tensor(r.normal(size=(3, 5)), requires_grad=True)

    def h(ps):
        return (T.take_per_row(ps[0], [1, 0, 4]) ** 2.0).sum()

    assert grad_check(h, [y]) < 1e-6


def test_concat_roundtrip_and_grad():
    r = rng(15)
    a = Tensor(r.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(r.normal(size=(1, 3)), requires_grad=True)
    out = T.concat([a, b], axis=0)
    assert np.array_equal(out.data[:2], a.data)
    assert np.array_equal(out.data[2:], b.data)

    def f(ps):
        return (T.concat(ps, axis=0) ** 2.0).sum()

    assert grad_check(f, [a, b]) < 1e-6


def test_logsumexp_matches_reference():
    x = rng(16).normal(size=(3, 7)) * 50
    out = logsumexp(Tensor(x), axis=1)
    ref = np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)) + x.max(axis=1)
    assert np.allclose(out.data, ref, atol=1e-12)


def test_gelu_stays_within_4_ulp_of_the_power_form():
    # the reference cubes with x ** 3, as gelu did before it switched to x * x * x
    x = rng(22).normal(0.0, 3.0, 100_000)
    c = math.sqrt(2.0 / math.pi)
    old = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
    new = Tensor(x).gelu().data
    # ulp at the scale of the input: for x << 0, 1 + tanh(...) cancels, so a
    # one-ulp change in tanh is many ulp of the tiny output (but not of x)
    ulp = np.spacing(np.maximum(np.abs(x), np.abs(old)))
    assert np.all(np.abs(new - old) <= 4 * ulp)


# -- every primitive on its own ----------------------------------------------------


def _normal(*shape):
    return lambda r: r.normal(size=shape)


def _positive(*shape):
    return lambda r: r.uniform(0.5, 2.0, shape)


def _away_from_zero(*shape):
    return lambda r: r.choice([-1.0, 1.0], shape) * r.uniform(0.2, 1.0, shape)


# name -> (input factories, op); every input requires grad in the gradient check
PRIMITIVES = {
    "add (n,1)+(c,)": ([_normal(3, 1), _normal(4)], lambda a, b: a + b),
    "mul (n,1)*(c,)": ([_normal(3, 1), _normal(4)], lambda a, b: a * b),
    "sub": ([_normal(3, 4), _normal(4)], lambda a, b: a - b),
    "rsub": ([_normal(3, 4)], lambda a: 2.0 - a),
    "truediv": ([_normal(3, 4), _positive(3, 1)], lambda a, b: a / b),
    "rtruediv": ([_positive(3, 4)], lambda a: 2.0 / a),
    "neg": ([_normal(3, 4)], lambda a: -a),
    "pow -1": ([_positive(3, 4)], lambda a: a ** -1),
    "pow 0.5": ([_positive(3, 4)], lambda a: a ** 0.5),
    "pow 3": ([_normal(3, 4)], lambda a: a ** 3),
    "exp": ([_normal(3, 4)], lambda a: a.exp()),
    "log": ([_positive(3, 4)], lambda a: a.log()),
    "tanh": ([_normal(3, 4)], lambda a: a.tanh()),
    "sigmoid": ([_normal(3, 4)], lambda a: a.sigmoid()),
    "relu away from 0": ([_away_from_zero(3, 4)], lambda a: a.relu()),
    "gelu": ([_normal(3, 4)], lambda a: a.gelu()),
    "reshape": ([_normal(3, 4)], lambda a: a.reshape(2, 6)),
    "transpose": ([_normal(3, 4)], lambda a: a.transpose()),
    "sum": ([_normal(3, 4)], lambda a: a.sum()),
    "sum axis 0": ([_normal(3, 4)], lambda a: a.sum(axis=0)),
    "sum axis 1 keepdims": ([_normal(3, 4)], lambda a: a.sum(axis=1, keepdims=True)),
    "mean axis 1": ([_normal(3, 4)], lambda a: a.mean(axis=1)),
    "mean axis 0 keepdims": ([_normal(3, 4)], lambda a: a.mean(axis=0, keepdims=True)),
    "matmul": ([_normal(3, 4), _normal(4, 2)], matmul),
    "matmul batched": ([_normal(2, 3, 4), _normal(2, 4, 2)], matmul),
    "transpose batched": ([_normal(2, 3, 4)], lambda a: a.transpose()),
    "expand": ([_normal(3, 2)], lambda a: T.expand(a, 4)),
    "sum_rows": ([_normal(4, 3)], T.sum_rows),
    "softmax axis 0": ([_normal(3, 4)], lambda a: softmax(a, axis=0)),
    "logsumexp axis 0": ([_normal(3, 4)], lambda a: logsumexp(a, axis=0)),
    "layer_norm affine": ([_normal(3, 4), _normal(4), _normal(4)], layer_norm),
    "concat axis 1 repeated": ([_normal(3, 2), _normal(3, 4)],
                               lambda a, b: T.concat([a, b, a], axis=1)),
    "gather_rows": ([_normal(4, 3)], lambda a: T.gather_rows(a, [0, 2, 2])),
    "take_per_row": ([_normal(3, 5)], lambda a: T.take_per_row(a, [1, 0, 4])),
    "decay_scan": ([lambda r: r.uniform(0.2, 0.8, 4), _normal(5, 4)], decay_scan),
    "decay_scan batched": ([lambda r: r.uniform(0.2, 0.8, (2, 4)), _normal(2, 5, 4)],
                           decay_scan),
}


def _primitive_inputs(name, requires_grad=True):
    factories, _ = PRIMITIVES[name]
    r = rng(20)
    return [Tensor(make(r), requires_grad=requires_grad) for make in factories]


def _weighted_sum(out):
    # a fixed random weight per output element, so every output entry counts
    return (out * Tensor(rng(21).normal(size=out.data.shape))).sum()


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_each_primitive_passes_grad_check(name):
    op = PRIMITIVES[name][1]
    assert grad_check(lambda ps: _weighted_sum(op(*ps)), _primitive_inputs(name)) < 1e-6


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_op_on_inputs_without_grad_records_nothing(name):
    out = PRIMITIVES[name][1](*_primitive_inputs(name, requires_grad=False))
    assert out._prev == () and not out.requires_grad


@pytest.mark.parametrize("name", sorted(n for n, (fs, _) in PRIMITIVES.items() if len(fs) > 1))
def test_frozen_input_of_a_recorded_op_gets_no_grad(name):
    op = PRIMITIVES[name][1]
    for frozen in range(len(PRIMITIVES[name][0])):
        inputs = _primitive_inputs(name)
        inputs[frozen].requires_grad = False
        backward(_weighted_sum(op(*inputs)))
        for i, t in enumerate(inputs):
            assert (t.grad is None) == (i == frozen), (name, frozen, i)
