"""Dense numerical kernels for the DAG autoencoder.

Parameters are float64 arrays boxed in ``Param`` so that a model, its
optimiser and a checkpoint loader share them.  Each layer comes as a pair of
kernels: a forward that returns its output together with the activations it
computed, always as arrays (empty ones for a call with no input rows), and a
backward that takes those activations and the gradient of the output and
returns the gradient of the layer's input.  The kernels work on rows, one
row per graph node, so one call updates a node of every graph in a batch.
They serve training; ``dvae.EncodeTable`` writes the encoder's forward out
again for the single rows of inference, with the same products, and the
tests hold the two to the same bits.  They are written as ``X @ W.T``: for
one row, OpenBLAS gives that product the same bits as ``W @ x``, so a
one-row call rounds as a matrix-vector product would.  Parameter gradients
are added into a zero-initialised copy of the layer; the GRU's are gathered
over many updates and added by one ``gru_weight_grads`` call.  The loss
heads return their value and the gradient with respect to their logits.
Adam and a central-difference gradient checker complete the set;
correctness is the contract and the finite-difference suite enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


class Param:
    """A float64 parameter array."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # stable for all x: sigma(x) = (1 + tanh(x/2)) / 2
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# --- layers --------------------------------------------------------------------


@dataclass
class GruCell:
    """Gated recurrent unit with the h' = (1-z) h + z h~ convention."""

    d_x: int
    d_h: int
    w_z: Param
    u_z: Param
    b_z: Param
    w_r: Param
    u_r: Param
    b_r: Param
    w_h: Param
    u_h: Param
    b_h: Param

    @staticmethod
    def create(d_x: int, d_h: int, init) -> "GruCell":
        """A cell whose arrays come from ``init(*shape)``, drawn in field order."""
        def w(rows, cols):
            return Param(init(rows, cols))

        def b():
            return Param(init(d_h))

        return GruCell(
            d_x, d_h,
            w(d_h, d_x), w(d_h, d_h), b(),
            w(d_h, d_x), w(d_h, d_h), b(),
            w(d_h, d_x), w(d_h, d_h), b(),
        )

    def params(self) -> dict[str, Param]:
        """The nine parameter arrays by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.type == "Param"}


def gru_forward(cell: GruCell, x: np.ndarray, h: np.ndarray):
    """One GRU update per row; returns (h', activations (x, h, z, r, r*h, h~)).

    With inputs ``x`` (rows, d_x) and states ``h`` (rows, d_h):
    z = sigma(Wz x + Uz h + bz),  r = sigma(Wr x + Ur h + br),
    h~ = tanh(Wh x + Uh (r*h) + bh),  h' = (1-z)*h + z*h~.
    """
    z = _sigmoid_np(x @ cell.w_z.value.T + h @ cell.u_z.value.T + cell.b_z.value)
    r = _sigmoid_np(x @ cell.w_r.value.T + h @ cell.u_r.value.T + cell.b_r.value)
    rh = r * h
    t = np.tanh(x @ cell.w_h.value.T + rh @ cell.u_h.value.T + cell.b_h.value)
    return (1.0 - z) * h + z * t, (x, h, z, r, rh, t)


def gru_backward(cell: GruCell, acts: tuple, g: np.ndarray):
    """Reverse of one GRU update: given the gradient ``g`` of h', return
    d(loss)/dh and the gradients of the z, r and h~ pre-activations, row for
    row.

    ``gru_weight_grads`` turns the pre-activation gradients of many updates
    into weight gradients at once.  The input x is a constant feature
    vector, so no gradient is returned for it.
    """
    _, h, z, r, _, t = acts
    da_h = (g * z) * (1.0 - t * t)
    drh = da_h @ cell.u_h.value
    da_r = (drh * h) * r * (1.0 - r)
    da_z = (g * (t - h)) * z * (1.0 - z)
    dh = g * (1.0 - z) + drh * r + da_z @ cell.u_z.value + da_r @ cell.u_r.value
    return dh, (da_z, da_r, da_h)


def gru_weight_grads(grad: GruCell, acts: list[tuple], dpre: list[tuple]):
    """Add the weight gradients of the GRU updates ``acts``, with the
    pre-activation gradients ``dpre`` from gru_backward, into ``grad``."""
    x = np.concatenate([a[0] for a in acts])
    h = np.concatenate([a[1] for a in acts])
    rh = np.concatenate([a[4] for a in acts])
    da_z, da_r, da_h = (np.concatenate(col) for col in zip(*dpre))
    grad.w_z.value += da_z.T @ x
    grad.u_z.value += da_z.T @ h
    grad.b_z.value += da_z.sum(axis=0)
    grad.w_r.value += da_r.T @ x
    grad.u_r.value += da_r.T @ h
    grad.b_r.value += da_r.sum(axis=0)
    grad.w_h.value += da_h.T @ x
    grad.u_h.value += da_h.T @ rh
    grad.b_h.value += da_h.sum(axis=0)


def gated_sum_forward(a: Param, b: Param, h: np.ndarray, seg: np.ndarray, n: int):
    """Segment sums of sigmoid(A h_i) * tanh(B h_i): output row j sums the
    rows i of ``h`` with ``seg[i] == j``, for j < n.  Returns (sums (n, d),
    activations (h, seg, gates, values)).

    ``np.add.at`` adds each segment's rows in order, so a single segment
    equals ``(gates * values).sum(axis=0)`` bit for bit.  An output row with
    no input rows is zero.  The activations are always arrays: with no input
    rows they are empty, and the backward adds exact zeros.
    """
    out = np.zeros((n, a.value.shape[0]))
    gates = _sigmoid_np(h @ a.value.T)  # (m, d)
    vals = np.tanh(h @ b.value.T)
    np.add.at(out, seg, gates * vals)
    return out, (h, seg, gates, vals)


def gated_sum_backward(
    a: Param, b: Param, acts: tuple, g: np.ndarray, grad_a: Param, grad_b: Param
) -> np.ndarray:
    """Given the (n, d) gradient of the sums, add the gradients of A and B
    into grad_a and grad_b; return the (m, d) gradient of the input rows."""
    h, seg, gates, vals = acts
    g = g[seg]
    dgate_pre = (g * vals) * gates * (1.0 - gates)  # (m, d)
    dval_pre = (g * gates) * (1.0 - vals * vals)
    grad_a.value += dgate_pre.T @ h
    grad_b.value += dval_pre.T @ h
    return dgate_pre @ a.value + dval_pre @ b.value


# --- loss heads ------------------------------------------------------------------


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Categorical cross-entropy of each row of ``logits`` (rows, classes)
    against its target class; returns (per-row values, gradient with respect
    to the logits)."""
    zmax = logits.max(axis=1, keepdims=True)
    logsumexp = zmax + np.log(np.exp(logits - zmax).sum(axis=1, keepdims=True))
    grad = np.exp(logits - logsumexp)
    rows = np.arange(len(targets))
    grad[rows, targets] -= 1.0
    return logsumexp[:, 0] - logits[rows, targets], grad


def bce_with_logits(logits: np.ndarray, targets: np.ndarray):
    """Summed binary cross-entropy, stable in the logit domain; returns
    (value, gradient with respect to the logits).

    loss_i = softplus(x_i) - t_i * x_i  with  softplus(x) = log(1 + e^x).
    """
    value = (np.logaddexp(0.0, logits) - targets * logits).sum()
    return value, _sigmoid_np(logits) - targets


# --- optimiser -------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    lr: float
    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]

    @staticmethod
    def create(params: list[Param], lr: float):
        return AdamState(
            lr, 0,
            [np.zeros_like(p.value) for p in params],
            [np.zeros_like(p.value) for p in params],
        )


def adam_step(params: list[Param], grads: list[np.ndarray], state: AdamState):
    """Standard Adam update with bias correction, in place on the params."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state length mismatch")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.value.shape:
            raise ValueError("gradient shape mismatch")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# --- gradient checking --------------------------------------------------------------


def finite_diff_check(
    loss_fn, params: list[Param], grads: list[np.ndarray], eps: float = 1e-5
) -> float:
    """Max relative error between the analytic gradients ``grads`` (aligned
    with ``params``, taken at the current values) and central differences.

    ``loss_fn()`` must return the loss value for the current parameter values
    and be deterministic (any sampling noise held fixed).  The per-coordinate
    denominator is floored at the roundoff noise of the central difference,
    which scales with the loss magnitude: coordinates whose true gradient
    sits below that floor cannot be resolved to relative precision in double
    arithmetic and are compared absolutely against it instead.
    """
    if len(grads) != len(params):
        raise ValueError("need one gradient per parameter")
    noise_floor = 1e-6 * (1.0 + abs(float(loss_fn())))

    worst = 0.0
    for p, ga in zip(params, grads):
        flat = p.value.reshape(-1)
        gflat = np.asarray(ga, dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(loss_fn())
            flat[i] = orig - eps
            down = float(loss_fn())
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(gflat[i]), abs(numeric), noise_floor)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
