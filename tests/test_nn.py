import math

import numpy as np
import pytest

from qcopt.nn import (
    AdamState,
    GruCell,
    Param,
    adam_step,
    bce_with_logits,
    finite_diff_check,
    gated_sum_backward,
    gated_sum_forward,
    gru_backward,
    gru_forward,
    gru_weight_grads,
    softmax_cross_entropy,
    _sigmoid_np,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _zero_cell(d_x, d_h):
    return GruCell.create(d_x, d_h, lambda *shape: np.zeros(shape))


def _random_cell(d_x, d_h, rng):
    return GruCell.create(d_x, d_h, lambda *shape: rng.uniform(-0.5, 0.5, size=shape))


# --- gru ----------------------------------------------------------------------


def test_gru_zero_weights_halves_state():
    cell = _zero_cell(2, 2)
    h, _ = gru_forward(cell, np.zeros((1, 2)), np.array([[1.0, 1.0]]))
    assert np.allclose(h, [[0.5, 0.5]], atol=1e-12)


def test_gru_gate_saturation():
    cell = _zero_cell(2, 2)
    cell.b_z.value[:] = 10.0  # z ~ 1, h~ = 0 -> h' ~ 0
    h, _ = gru_forward(cell, np.zeros((1, 2)), np.array([[1.0, -1.0]]))
    assert np.all(np.abs(h) < 1e-3)


def _scalar_gru_reference(cell, x, h_prev):
    """Independent scalar re-implementation of the update formula."""
    d_h = cell.d_h
    out = np.zeros(d_h)
    for i in range(d_h):
        az = cell.b_z.value[i]
        ar = cell.b_r.value[i]
        for k in range(cell.d_x):
            az += cell.w_z.value[i, k] * x[k]
            ar += cell.w_r.value[i, k] * x[k]
        for k in range(d_h):
            az += cell.u_z.value[i, k] * h_prev[k]
            ar += cell.u_r.value[i, k] * h_prev[k]
        z = 1.0 / (1.0 + math.exp(-az))
        r = 1.0 / (1.0 + math.exp(-ar))
        ah = cell.b_h.value[i]
        for k in range(cell.d_x):
            ah += cell.w_h.value[i, k] * x[k]
        for k in range(d_h):
            rk = cell.b_r.value[k]
            for kk in range(cell.d_x):
                rk += cell.w_r.value[k, kk] * x[kk]
            for kk in range(d_h):
                rk += cell.u_r.value[k, kk] * h_prev[kk]
            rk = 1.0 / (1.0 + math.exp(-rk))
            ah += cell.u_h.value[i, k] * (rk * h_prev[k])
        h_tilde = math.tanh(ah)
        out[i] = (1.0 - z) * h_prev[i] + z * h_tilde
    return out


def test_gru_matches_scalar_reference():
    rng = np.random.default_rng(0)
    cell = _random_cell(3, 4, rng)
    x = rng.normal(size=(5, 3))
    h = rng.normal(size=(5, 4))
    got, _ = gru_forward(cell, x, h)  # five rows in one call
    for i in range(5):
        want = _scalar_gru_reference(cell, x[i], h[i])
        assert np.allclose(got[i], want, atol=1e-12)


# --- gated sum -------------------------------------------------------------------


def _one_segment(hs):
    """Rows and segment indices that sum every vector of hs into one row."""
    return np.array(hs).reshape(len(hs), -1), np.zeros(len(hs), dtype=np.intp)


def test_gated_sum_empty_is_zero():
    # no input rows: zero sums, empty activations, and a backward that
    # returns no row and adds exact zeros
    a = Param(np.ones((3, 3)))
    out, acts = gated_sum_forward(a, a, np.empty((0, 3)), np.empty(0, dtype=np.intp), 2)
    assert np.array_equal(out, np.zeros((2, 3)))
    assert all(isinstance(x, np.ndarray) and len(x) == 0 for x in acts)
    grad_a, grad_b = Param(np.zeros((3, 3))), Param(np.zeros((3, 3)))
    dh = gated_sum_backward(a, a, acts, np.ones((2, 3)), grad_a, grad_b)
    assert dh.shape == (0, 3)
    assert np.array_equal(grad_a.value, np.zeros((3, 3)))
    assert np.array_equal(grad_b.value, np.zeros((3, 3)))


def test_gated_sum_permutation_invariant():
    rng = np.random.default_rng(1)
    a = Param(rng.normal(size=(4, 4)))
    b = Param(rng.normal(size=(4, 4)))
    hs = [rng.normal(size=4) for _ in range(5)]
    fwd, _ = gated_sum_forward(a, b, *_one_segment(hs), 1)
    rev, _ = gated_sum_forward(a, b, *_one_segment(hs[::-1]), 1)
    assert np.allclose(fwd, rev, atol=1e-12)


def test_gated_sum_zero_vector_contributes_nothing():
    rng = np.random.default_rng(2)
    a = Param(rng.normal(size=(4, 4)))
    b = Param(rng.normal(size=(4, 4)))
    h = rng.normal(size=4)
    lone, _ = gated_sum_forward(a, b, *_one_segment([h]), 1)
    padded, _ = gated_sum_forward(a, b, *_one_segment([h, np.zeros(4)]), 1)
    assert np.allclose(lone, padded, atol=1e-12)


def test_gated_sum_formula():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    hs = [rng.normal(size=3) for _ in range(4)]
    want = sum(_sigmoid(a @ h) * np.tanh(b @ h) for h in hs)
    got, _ = gated_sum_forward(Param(a), Param(b), *_one_segment(hs), 1)
    assert np.allclose(got[0], want, atol=1e-12)
    # one segment adds its rows in order, bit for bit as sum(axis=0) does
    rows = np.array(hs)
    gates = _sigmoid_np(rows @ a.T)
    assert np.array_equal(got[0], (gates * np.tanh(rows @ b.T)).sum(axis=0))
    # three segments: rows 0 and 3, none, then rows 1 and 2
    got, _ = gated_sum_forward(Param(a), Param(b), rows, np.array([0, 2, 2, 0]), 3)
    for j, members in enumerate(([0, 3], [], [1, 2])):
        want = sum((_sigmoid(a @ hs[i]) * np.tanh(b @ hs[i]) for i in members), np.zeros(3))
        assert np.allclose(got[j], want, atol=1e-12)


# --- adam -------------------------------------------------------------------------


def test_adam_first_step_is_minus_lr():
    p = Param(np.array([0.0, 0.0]))
    state = AdamState.create([p], lr=0.001)
    adam_step([p], [np.ones(2)], state)
    assert np.all(np.abs(p.value + 0.001) < 1e-6)


def test_adam_zero_grad_keeps_params():
    p = Param(np.array([1.5, -2.0]))
    state = AdamState.create([p], lr=0.001)
    adam_step([p], [np.zeros(2)], state)
    assert np.array_equal(p.value, np.array([1.5, -2.0]))


def test_adam_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(9)
        p = Param(rng.normal(size=4))
        state = AdamState.create([p], lr=0.01)
        for _ in range(25):
            adam_step([p], [2.0 * p.value], state)
        return p.value.copy()

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch_raises():
    p = Param(np.zeros(3))
    state = AdamState.create([p], lr=0.001)
    with pytest.raises(ValueError):
        adam_step([p], [np.zeros(4)], state)


# --- loss heads -----------------------------------------------------------------------


def test_bce_matches_closed_form():
    value, grad = bce_with_logits(np.array([0.0]), np.array([1.0]))
    assert abs(value - math.log(2.0)) < 1e-12
    assert np.allclose(grad, [-0.5], atol=1e-12)  # sigma(0) - 1


def test_softmax_ce_uniform_logits():
    value, grad = softmax_cross_entropy(np.zeros((2, 7)), np.array([3, 5]))
    assert np.allclose(value, math.log(7.0), atol=1e-12)
    for row, t in zip(grad, (3, 5)):
        want = np.full(7, 1.0 / 7.0)
        want[t] -= 1.0
        assert np.allclose(row, want, atol=1e-12)


# --- gradient checks ---------------------------------------------------------------


def test_finite_diff_square():
    w = Param(np.array([3.0]))
    err = finite_diff_check(lambda: (w.value * w.value).sum(), [w], [2.0 * w.value])
    assert err < 1e-8


def test_finite_diff_flat_region():
    w = Param(np.array([0.5, -0.5]))
    # constant loss: gradient must vanish on both routes
    err = finite_diff_check(lambda: 1.0 + (w.value * 0.0).sum(), [w], [np.zeros(2)])
    assert err < 1e-8


def test_finite_diff_catches_wrong_gradient():
    w = Param(np.array([3.0]))
    err = finite_diff_check(lambda: (w.value * w.value).sum(), [w], [w.value.copy()])
    assert err > 0.1


def test_finite_diff_composite_ops():
    # the three loss heads of the autoencoder on one linear layer
    rng = np.random.default_rng(4)
    w = Param(rng.normal(size=(3, 3)))
    b = Param(rng.normal(size=3))
    x = rng.normal(size=3)
    t = np.array([1.0, 0.0, 1.0])

    def value_and_grads():
        s = w.value @ x + b.value
        bce, d_bce = bce_with_logits(s, t)
        ce, d_ce = softmax_cross_entropy(s[None, :], np.array([1]))
        p = _sigmoid(s)
        ds = d_bce + d_ce[0] + np.sign(p - t) * p * (1.0 - p)
        return bce + ce[0] + np.abs(p - t).sum(), [np.outer(ds, x), ds]

    err = finite_diff_check(lambda: value_and_grads()[0], [w, b], value_and_grads()[1])
    assert err < 1e-6


def test_gated_sum_gradient():
    rng = np.random.default_rng(6)
    a = Param(rng.normal(size=(3, 3)))
    b = Param(rng.normal(size=(3, 3)))
    h0 = Param(rng.normal(size=3))
    cell = _random_cell(3, 3, rng)
    t = np.array([1.0, 1.0, 0.0])
    x = np.array([[1.0, 0.0, 0.0]])

    def value_and_grads():
        h1, gru = gru_forward(cell, x, h0.value[None, :])
        hs = np.stack([h0.value, h1[0], np.ones(3)])
        agg, acts = gated_sum_forward(a, b, hs, np.zeros(3, dtype=np.intp), 1)
        value, d_agg = bce_with_logits(agg[0], t)
        ga, gb, gcell = Param(np.zeros((3, 3))), Param(np.zeros((3, 3))), _zero_cell(3, 3)
        rows = gated_sum_backward(a, b, acts, d_agg[None, :], ga, gb)
        dh, dpre = gru_backward(cell, gru, rows[1:2])
        gru_weight_grads(gcell, [gru], [dpre])
        dh0 = rows[0] + dh[0]
        return value, [ga.value, gb.value, dh0, *(p.value for p in gcell.params().values())]

    params = [a, b, h0, *cell.params().values()]
    err = finite_diff_check(lambda: value_and_grads()[0], params, value_and_grads()[1])
    assert err < 1e-6


def test_gru_gradient():
    rng = np.random.default_rng(5)
    cell = _random_cell(2, 3, rng)
    params = list(cell.params().values())
    x = rng.normal(size=(1, 2))
    h0 = rng.normal(size=(1, 3))
    t = np.array([[1.0, 0.0, 1.0]])

    def value_and_grads():
        h1, gru1 = gru_forward(cell, x, h0)
        h2, gru2 = gru_forward(cell, x, h1)
        value, dh2 = bce_with_logits(h2, t)
        dh1, dpre2 = gru_backward(cell, gru2, dh2)
        _, dpre1 = gru_backward(cell, gru1, dh1)
        grad = _zero_cell(2, 3)
        gru_weight_grads(grad, [gru2, gru1], [dpre2, dpre1])
        return value, [p.value for p in grad.params().values()]

    err = finite_diff_check(lambda: value_and_grads()[0], params, value_and_grads()[1])
    assert err < 1e-6
