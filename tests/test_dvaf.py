import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dast_lab.dvaf import (
    FusionParams,
    attn_pool,
    build_visual_sequence,
    dvaf_pool,
    gate_fuse,
    project,
)
from dast_lab.tensor import Tensor, backward, layer_norm


def rng(seed=0):
    return np.random.default_rng(seed)


def params(seed=0, c=8, cdec=6):
    return FusionParams(rng(seed), c, cdec)


def test_pool_identical_tokens_returns_that_token():
    row = rng(1).normal(size=8)
    tokens = Tensor(np.tile(row, (14, 1)))
    pooled, _ = attn_pool(tokens, Tensor(rng(2).normal(size=8)))
    assert np.allclose(pooled.data, row, atol=1e-12)


def test_pool_orthogonal_query_gives_uniform_weights():
    tokens = np.zeros((14, 8))
    tokens[:, 0] = rng(3).normal(size=14)
    query = np.zeros(8)
    query[1] = 2.0  # orthogonal to every token
    _, w = attn_pool(Tensor(tokens), Tensor(query))
    assert np.allclose(w.data, 1.0 / 14, atol=1e-12)


def test_dvaf_pool_matches_step_by_step_oracle():
    p = params(4)
    dasts = rng(5).normal(size=(14, 8))
    z = rng(6).normal(size=(10, 8))

    def np_softmax(x, axis):
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        return e / e.sum(axis=axis, keepdims=True)

    def np_ln(x):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5)

    q = dasts @ p.wq_cross.data
    k, v = z @ p.wk_cross.data, z @ p.wv_cross.data
    u = np_ln(dasts + np_softmax(q @ k.T / math.sqrt(8), 1) @ v)
    q2, k2, v2 = u @ p.wq_self.data, u @ p.wk_self.data, u @ p.wv_self.data
    s = np_ln(u + np_softmax(q2 @ k2.T / math.sqrt(8), 1) @ v2)
    w = np_softmax(s @ p.pool_query.data / math.sqrt(8), 0)
    expect = (s * w[:, None]).sum(axis=0)

    got = dvaf_pool(Tensor(dasts), Tensor(z), p).data
    assert np.max(np.abs(got - expect)) < 1e-10


def test_dvaf_pool_consistent_under_row_permutation():
    p = params(7)
    dasts = rng(8).normal(size=(14, 8))
    z = Tensor(rng(9).normal(size=(6, 8)))
    base = dvaf_pool(Tensor(dasts), z, p).data
    perm = rng(10).permutation(14)
    # self-attention and pooling are set-level ops: permuting token rows along
    # with their identities leaves the pooled vector unchanged
    permuted = dvaf_pool(Tensor(dasts[perm]), z, p).data
    assert np.allclose(base, permuted, atol=1e-10)


def test_gate_fuse_identity_selection():
    p = params(11)
    c = 8
    vec_p = Tensor(rng(12).normal(size=c))
    vec_z = Tensor(rng(13).normal(size=c))
    p.w_gate = Tensor(np.concatenate([np.eye(c), np.zeros((c, c))], axis=1))
    assert np.allclose(gate_fuse(vec_p, vec_z, p).data, vec_p.data, atol=1e-14)
    p.w_gate = Tensor(np.concatenate([np.zeros((c, c)), np.eye(c)], axis=1))
    assert np.allclose(gate_fuse(vec_p, vec_z, p).data, vec_z.data, atol=1e-14)


def test_gate_fuse_matches_block_matrix_oracle():
    p = params(14)
    p.w_gate = Tensor(rng(15).normal(size=(8, 16)))
    a = rng(16).normal(size=8)
    b = rng(17).normal(size=8)
    expect = p.w_gate.data @ np.concatenate([a, b])
    assert np.max(np.abs(gate_fuse(Tensor(a), Tensor(b), p).data - expect)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999), alpha=st.floats(-3, 3, allow_nan=False))
def test_gate_fuse_is_linear(seed, alpha):
    p = params(18)
    a = Tensor(rng(seed).normal(size=8))
    b = Tensor(rng(seed + 1).normal(size=8))
    scaled = gate_fuse(a * alpha, b * alpha, p).data
    assert np.allclose(scaled, alpha * gate_fuse(a, b, p).data, atol=1e-9)


def test_visual_sequence_layout():
    z = Tensor(rng(22).normal(size=(2, 8)))
    f = Tensor(rng(23).normal(size=8))
    v = build_visual_sequence(z, f)
    assert v.data.shape == (3, 8)
    assert np.array_equal(v.data[:2], z.data)
    assert np.array_equal(v.data[2], f.data)

    v0 = build_visual_sequence(z, Tensor(np.zeros(8)))
    assert np.array_equal(v0.data[2], np.zeros(8))
    assert np.array_equal(v0.data[:2], z.data)


def test_project_normalizes_rows():
    p = params(24, c=8, cdec=8)
    p.w_proj = Tensor(np.eye(8), requires_grad=True)
    v = Tensor(rng(25).normal(size=(5, 8)))
    out = project(v, p).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-9
    assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-4


def test_project_zero_input_returns_beta():
    p = params(26)
    p.proj_beta = Tensor(rng(27).normal(size=6), requires_grad=True)
    out = project(Tensor(np.zeros((3, 8))), p).data
    assert np.allclose(out, np.tile(p.proj_beta.data, (3, 1)))


def test_project_grad_hits_w_proj_but_not_frozen_inputs():
    p = params(28)
    z = Tensor(rng(29).normal(size=(4, 8)))  # frozen upstream: no grad slot
    loss = (project(z, p) ** 2.0).sum()
    backward(loss)
    assert p.w_proj.grad is not None and np.any(p.w_proj.grad != 0.0)
    assert z.grad is None


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        build_visual_sequence(Tensor(np.zeros((2, 8))), Tensor(np.zeros(7)))
