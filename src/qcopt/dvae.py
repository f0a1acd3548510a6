"""Variational autoencoder over circuit DAGs.

The encoder visits nodes in topological order and runs a GRU whose incoming
state is a gated sum of the predecessors' hidden states, so the embedding
depends only on DAG structure and node types (isomorphic DAGs encode
identically).  The graph embedding is a gated sum over the output-node
hiddens, mapped to a latent mean and log-variance.

The decoder mirrors the scheme in reverse, teacher-forced on the target's
topological order: node by node it predicts a type distribution (6 node
types plus an END symbol) from the previous node's hidden state, predicts an
edge probability to every earlier node from the new node's provisional
hidden, then recomputes the node's hidden from a gated sum of its true
predecessors.  Sourceless nodes take the running context instead --
initially the latent-derived state, so z reaches every chain, and repeated
source nodes stay distinguishable by sequence position.

Training minimises  R + E + beta * KL  where R is the cross-entropy
reconstruction term over node types and edge indicators and E is the
expected edge edit distance sum |p - t| (differentiable a.e.).  Quantising
the latent mean per dimension turns encodings into discrete RL state keys.

Each network has one numpy forward that returns its outputs together with
the activations it computed: ``encoder_forward`` serves both ``loss`` and
the inference-only ``encode_np``, and ``decoder_forward`` is the one
decoder.  ``loss`` runs both forwards and the loss heads and returns the
value, its parts and a cache; ``backward`` walks that cache in reverse and
returns the parameter gradients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .dag import CircuitDag, N_NODE_TYPES, NodeType, topo_order
from .nn import (
    AdamState,
    GruCell,
    Param,
    adam_step,
    bce_with_logits,
    gated_sum_backward,
    gated_sum_forward,
    gru_backward,
    gru_forward,
    gru_weight_grads,
    softmax_cross_entropy,
    _sigmoid_np,
)

END_TYPE = N_NODE_TYPES  # index 6: the decoder's stop symbol

_EYE = np.eye(N_NODE_TYPES)


class Latent(NamedTuple):
    mu: np.ndarray
    logvar: np.ndarray


@dataclass
class DvaeConfig:
    d_h: int = 64
    d_z: int = 8
    beta: float = 0.005         # KL scale; 0 recovers the bare R + E loss
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    bin_width: float = 0.5      # latent quantisation step
    seed: int = 0

    def __post_init__(self):
        if min(self.d_h, self.d_z, self.epochs, self.batch_size) < 1:
            raise ValueError("dimensions, epochs and batch size must be positive")
        if self.bin_width <= 0 or self.lr <= 0:
            raise ValueError("bin_width and lr must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass
class DvaeModel:
    """Parameter bundle: encoder, latent heads, decoder, type/edge heads."""

    d_h: int
    d_z: int
    enc: GruCell
    enc_gate_a: Param
    enc_gate_b: Param
    readout_a: Param
    readout_b: Param
    w_mu: Param
    b_mu: Param
    w_logvar: Param
    b_logvar: Param
    dec: GruCell
    dec_gate_a: Param
    dec_gate_b: Param
    w_init: Param
    b_init: Param
    w_type: Param
    b_type: Param
    # two-layer edge head over the concatenated pair (h_earlier, h_new);
    # the first layer is stored as the two halves of its weight matrix
    w_edge_prev: Param
    b_edge: Param
    w_edge_new: Param
    w_edge_out: Param
    b_edge_out: Param

    @staticmethod
    def create(cfg: DvaeConfig) -> "DvaeModel":
        rng = np.random.default_rng(cfg.seed)
        bound = 1.0 / math.sqrt(cfg.d_h)
        return DvaeModel._build(
            cfg.d_h, cfg.d_z, lambda *shape: rng.uniform(-bound, bound, size=shape)
        )

    def zeros_like(self) -> "DvaeModel":
        """A model of the same shapes with every array zero: the gradient
        accumulator of ``backward``."""
        return DvaeModel._build(self.d_h, self.d_z, lambda *shape: np.zeros(shape))

    @staticmethod
    def _build(d_h: int, d_z: int, init) -> "DvaeModel":
        # arrays are drawn from init in field order
        def t(*shape):
            return Param(init(*shape))

        return DvaeModel(
            d_h=d_h,
            d_z=d_z,
            enc=GruCell.create(N_NODE_TYPES, d_h, init),
            enc_gate_a=t(d_h, d_h),
            enc_gate_b=t(d_h, d_h),
            readout_a=t(d_h, d_h),
            readout_b=t(d_h, d_h),
            w_mu=t(d_z, d_h),
            b_mu=t(d_z),
            w_logvar=t(d_z, d_h),
            b_logvar=t(d_z),
            dec=GruCell.create(N_NODE_TYPES, d_h, init),
            dec_gate_a=t(d_h, d_h),
            dec_gate_b=t(d_h, d_h),
            w_init=t(d_h, d_z),
            b_init=t(d_h),
            w_type=t(N_NODE_TYPES + 1, d_h),
            b_type=t(N_NODE_TYPES + 1),
            w_edge_prev=t(d_h, d_h),
            b_edge=t(d_h),
            w_edge_new=t(d_h, d_h),
            w_edge_out=t(d_h),
            b_edge_out=t(1),
        )

    def params(self) -> dict[str, Param]:
        """Every parameter array by name in field order; a GRU cell's arrays
        are named ``<cell>.<array>``."""
        out = {}
        for f in fields(self):
            if f.type == "GruCell":
                cell = getattr(self, f.name)
                out.update({f"{f.name}.{k}": p for k, p in cell.params().items()})
            elif f.type == "Param":
                out[f.name] = getattr(self, f.name)
        return out


# --- encoding ---------------------------------------------------------------


class EncoderActs(NamedTuple):
    order: list[int]
    preds: list[list[int]]
    steps: list[tuple]  # per visited node: (gated-sum acts or None, GRU acts)
    sinks: list[int]
    readout: tuple | None
    hg: np.ndarray


def encoder_forward(m: DvaeModel, d: CircuitDag, order=None) -> tuple[Latent, EncoderActs]:
    """Latent distribution of one DAG (mean and log-variance vectors) and the
    activations ``backward`` needs; ``order`` defaults to ``topo_order(d)``."""
    if order is None:
        order = topo_order(d)
    preds = d.predecessors()
    hidden: dict[int, np.ndarray] = {}
    steps = []
    for v in order:
        incoming, gated = gated_sum_forward(
            m.enc_gate_a, m.enc_gate_b, [hidden[u] for u in preds[v]]
        )
        hidden[v], gru = gru_forward(m.enc, _EYE[d.types[v].value], incoming)
        steps.append((gated, gru))
    sinks = [v for v in order if d.types[v] is NodeType.OUTPUT]
    hg, readout = gated_sum_forward(m.readout_a, m.readout_b, [hidden[v] for v in sinks])
    latent = Latent(
        m.w_mu.value @ hg + m.b_mu.value,
        m.w_logvar.value @ hg + m.b_logvar.value,
    )
    return latent, EncoderActs(order, preds, steps, sinks, readout, hg)


def encode_np(m: DvaeModel, d: CircuitDag) -> Latent:
    """Latent distribution of one DAG; used by the RL loop, which needs no
    gradients."""
    return encoder_forward(m, d)[0]


def _encoder_backward(
    m: DvaeModel, acts: EncoderActs, dmu: np.ndarray, dlogvar: np.ndarray, g: DvaeModel
):
    g.w_mu.value += dmu[:, None] * acts.hg
    g.b_mu.value += dmu
    g.w_logvar.value += dlogvar[:, None] * acts.hg
    g.b_logvar.value += dlogvar
    dhidden = np.zeros((len(acts.order), m.d_h))
    if acts.readout is not None:
        dhg = m.w_mu.value.T @ dmu + m.w_logvar.value.T @ dlogvar
        dhidden[acts.sinks] += gated_sum_backward(
            m.readout_a, m.readout_b, acts.readout, dhg, g.readout_a, g.readout_b
        )
    dpre = []
    for v, (gated, gru) in zip(reversed(acts.order), reversed(acts.steps)):
        dincoming, d = gru_backward(m.enc, gru, dhidden[v])
        dpre.append(d)
        if gated is not None:
            rows = gated_sum_backward(
                m.enc_gate_a, m.enc_gate_b, gated, dincoming, g.enc_gate_a, g.enc_gate_b
            )
            for u, row in zip(acts.preds[v], rows):
                dhidden[u] += row
    gru_weight_grads(g.enc, [gru for _, gru in reversed(acts.steps)], dpre)


def reparameterize(l: Latent, rng: np.random.Generator) -> np.ndarray:
    """z = mu + exp(logvar / 2) * n with n ~ N(0, I) from the given rng."""
    return l.mu + np.exp(0.5 * l.logvar) * rng.standard_normal(l.mu.shape[0])


# --- decoding ---------------------------------------------------------------


class DecoderActs(NamedTuple):
    z: np.ndarray
    states: np.ndarray        # (n+1, d_h): the initial context, then one hidden per node
    type_logits: np.ndarray   # (n+1, 7): one row per node plus the END step
    steps: list[tuple]        # per node: (pred positions, gated-sum acts or None,
                              #            GRU acts, edge-head acts or None)
    edge_logits: list[np.ndarray]   # for each step k >= 1, logits over the k earlier nodes
    edge_targets: list[np.ndarray]  # matching 0/1 arrays


def decoder_forward(m: DvaeModel, z: np.ndarray, target: CircuitDag, order=None) -> DecoderActs:
    """Teacher-forced decoder pass over the target's topological order."""
    if order is None:
        order = topo_order(target)
    pos_of = {v: k for k, v in enumerate(order)}
    preds = target.predecessors()
    states = np.empty((len(order) + 1, m.d_h))
    states[0] = m.w_init.value @ z + m.b_init.value
    steps = []
    edge_logits = []
    edge_targets = []

    for k, v in enumerate(order):
        ctx = states[k]
        x = _EYE[target.types[v].value]
        pred_pos = [pos_of[u] for u in preds[v]]
        edge = None
        if k > 0:
            provisional, provisional_gru = gru_forward(m.dec, x, ctx)
            th = np.tanh(
                states[1 : k + 1] @ m.w_edge_prev.value.T
                + (m.w_edge_new.value @ provisional + m.b_edge.value)
            )
            edge_logits.append(th @ m.w_edge_out.value + m.b_edge_out.value)
            tgt = np.zeros(k)
            tgt[pred_pos] = 1.0
            edge_targets.append(tgt)
            edge = (provisional_gru, provisional, th)
        if pred_pos:
            incoming, gated = gated_sum_forward(
                m.dec_gate_a, m.dec_gate_b, [states[1 + j] for j in pred_pos]
            )
        else:
            # sourceless nodes take the running context; this injects z into
            # every chain and keeps repeated source nodes distinguishable
            incoming, gated = ctx, None
        states[k + 1], gru = gru_forward(m.dec, x, incoming)
        steps.append((pred_pos, gated, gru, edge))

    type_logits = states @ m.w_type.value.T + m.b_type.value
    return DecoderActs(z, states, type_logits, steps, edge_logits, edge_targets)


def _decoder_backward(
    m: DvaeModel,
    acts: DecoderActs,
    d_type_logits: np.ndarray,
    d_edge_logits: list[np.ndarray],
    g: DvaeModel,
) -> np.ndarray:
    """Add the decoder's parameter gradients into g; return d(loss)/dz."""
    states = acts.states
    g.w_type.value += d_type_logits.T @ states
    g.b_type.value += d_type_logits.sum(axis=0)
    dstates = d_type_logits @ m.w_type.value
    # step k reads states[:k+1] and writes states[k+1], so every use of
    # states[k+1] has been visited before step k in reverse
    gru_calls, dpre = [], []
    for k in range(len(acts.steps) - 1, -1, -1):
        pred_pos, gated, gru, edge = acts.steps[k]
        dincoming, d = gru_backward(m.dec, gru, dstates[k + 1])
        gru_calls.append(gru)
        dpre.append(d)
        if gated is None:
            dstates[k] += dincoming
        else:
            rows = gated_sum_backward(
                m.dec_gate_a, m.dec_gate_b, gated, dincoming, g.dec_gate_a, g.dec_gate_b
            )
            for j, row in zip(pred_pos, rows):
                dstates[1 + j] += row
        if edge is not None:
            provisional_gru, provisional, th = edge
            dlogits = d_edge_logits[k - 1]
            g.w_edge_out.value += dlogits @ th
            g.b_edge_out.value += dlogits.sum()
            dth = dlogits[:, None] * m.w_edge_out.value * (1.0 - th * th)  # (k, d_h)
            g.w_edge_prev.value += dth.T @ states[1 : k + 1]
            dstates[1 : k + 1] += dth @ m.w_edge_prev.value
            dnew = dth.sum(axis=0)
            g.w_edge_new.value += dnew[:, None] * provisional
            g.b_edge.value += dnew
            dctx, d = gru_backward(m.dec, provisional_gru, m.w_edge_new.value.T @ dnew)
            dstates[k] += dctx
            gru_calls.append(provisional_gru)
            dpre.append(d)
    gru_weight_grads(g.dec, gru_calls, dpre)
    g.w_init.value += dstates[0][:, None] * acts.z
    g.b_init.value += dstates[0]
    return m.w_init.value.T @ dstates[0]


# --- loss -------------------------------------------------------------------


class LossParts(NamedTuple):
    total: float
    recon_types: float
    recon_edges: float
    edit: float
    kl: float
    n_types: int
    n_type_correct: int
    n_edges: int
    n_edge_correct: int


class LossCache(NamedTuple):
    """Both forwards' activations plus the gradient of the loss with respect
    to the decoder logits and the latent, as ``backward`` needs them."""

    encoder: EncoderActs
    decoder: DecoderActs
    d_type_logits: np.ndarray
    d_edge_logits: list[np.ndarray]
    d_mu: np.ndarray          # of the KL term
    d_logvar: np.ndarray      # of the KL term
    dz_dlogvar: np.ndarray    # 0.5 * exp(logvar / 2) * noise


def loss(m: DvaeModel, d: CircuitDag, noise: np.ndarray, cfg: DvaeConfig):
    """Forward pass of the loss for one DAG with fixed reparameterisation noise.

    Returns (value, LossParts, LossCache); ``backward`` turns the cache into
    gradients.  R sums categorical cross-entropy over node types (with the
    END step) and binary cross-entropy over edge indicators; E is the
    expected edge edit distance sum |p - t|; the KL term regularises the
    latent towards a standard normal.
    """
    order = topo_order(d)
    latent, enc = encoder_forward(m, d, order)
    mu, logvar = latent
    std = np.exp(0.5 * logvar)
    dec = decoder_forward(m, mu + std * noise, d, order)

    true_types = [d.types[v].value for v in order] + [END_TYPE]
    d_types = np.empty_like(dec.type_logits)
    r_types = 0.0
    n_type_correct = 0
    for k, (logits, t) in enumerate(zip(dec.type_logits, true_types)):
        ce, d_types[k] = softmax_cross_entropy(logits, t)
        r_types += ce
        if int(np.argmax(logits)) == t:
            n_type_correct += 1

    r_edges = 0.0
    e_term = 0.0
    d_edges = []
    n_edges = 0
    n_edge_correct = 0
    for logits, tgt in zip(dec.edge_logits, dec.edge_targets):
        bce, d_bce = bce_with_logits(logits, tgt)
        r_edges += bce
        probs = _sigmoid_np(logits)
        e_term += np.abs(probs - tgt).sum()
        d_edit = np.sign(probs - tgt) * probs * (1.0 - probs)
        d_edges.append(d_bce + d_edit)
        n_edges += len(tgt)
        n_edge_correct += int(((probs > 0.5) == (tgt > 0.5)).sum())

    var = np.exp(logvar)
    kl = 0.5 * ((mu * mu + var) - (1.0 + logvar)).sum()

    value = float((r_types + r_edges) + (e_term + cfg.beta * kl))
    parts = LossParts(
        total=value,
        recon_types=float(r_types),
        recon_edges=float(r_edges),
        edit=float(e_term),
        kl=float(kl),
        n_types=len(true_types),
        n_type_correct=n_type_correct,
        n_edges=n_edges,
        n_edge_correct=n_edge_correct,
    )
    cache = LossCache(
        enc,
        dec,
        d_types,
        d_edges,
        cfg.beta * mu,
        0.5 * cfg.beta * (var - 1.0),
        0.5 * std * noise,
    )
    return value, parts, cache


def backward(m: DvaeModel, cache: LossCache) -> list[np.ndarray]:
    """Reverse pass of ``loss``: gradients aligned with ``m.params()``."""
    g = m.zeros_like()
    dz = _decoder_backward(m, cache.decoder, cache.d_type_logits, cache.d_edge_logits, g)
    # z = mu + exp(logvar / 2) * noise
    _encoder_backward(
        m, cache.encoder, cache.d_mu + dz, cache.d_logvar + dz * cache.dz_dlogvar, g
    )
    return [p.value for p in g.params().values()]


# --- latent quantisation ------------------------------------------------------


def latent_key(l: Latent, bin_width: float) -> str:
    """Comma-joined per-dimension bin indices of the latent mean."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if not np.all(np.isfinite(l.mu)):
        raise ValueError("latent mean is not finite")
    bins = np.floor(l.mu / bin_width).astype(int)
    return ",".join(str(b) for b in bins)


# --- training -----------------------------------------------------------------


class EpochStats(NamedTuple):
    epoch: int
    mean_loss: float
    accuracy: float       # pooled over node types and edge indicators
    discrete_edit: float  # summed hamming distance of thresholded edges


def train(dataset: list[CircuitDag], cfg: DvaeConfig):
    """Adam over mini-batches for cfg.epochs; deterministic under cfg.seed.

    Returns (model, per-epoch EpochStats list).
    """
    if not dataset:
        raise ValueError("training needs a non-empty dataset")
    model = DvaeModel.create(cfg)
    params = list(model.params().values())
    adam = AdamState.create(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed + 1)
    stats: list[EpochStats] = []

    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(dataset))
        losses = []
        hits = 0
        preds = 0
        edit = 0.0
        for start in range(0, len(perm), cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            grads = [np.zeros_like(p.value) for p in params]
            for idx in batch:
                noise = rng.standard_normal(cfg.d_z)
                _, parts, cache = loss(model, dataset[idx], noise, cfg)
                for acc, g in zip(grads, backward(model, cache)):
                    acc += g
                losses.append(parts.total)
                hits += parts.n_type_correct + parts.n_edge_correct
                preds += parts.n_types + parts.n_edges
                edit += parts.n_edges - parts.n_edge_correct
            adam_step(params, [g / len(batch) for g in grads], adam)
        stats.append(
            EpochStats(epoch, float(np.mean(losses)), hits / preds, edit)
        )
        if not math.isfinite(stats[-1].mean_loss):
            raise FloatingPointError(f"loss diverged at epoch {epoch}")
    return model, stats


# --- checkpointing --------------------------------------------------------------

_CKPT_HEADER = "qcopt-dvae v1"


def save_checkpoint(m: DvaeModel, path: str):
    """Versioned text tensor dump; round-trips bit-exactly via float hex."""
    lines = [_CKPT_HEADER, f"dim d_h {m.d_h}", f"dim d_z {m.d_z}"]
    for name, tensor in m.params().items():
        v = tensor.value
        shape = " ".join(str(s) for s in v.shape)
        lines.append(f"tensor {name} {shape}")
        lines.append(" ".join(x.hex() for x in v.reshape(-1)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path: str) -> DvaeModel:
    """Read a checkpoint written by save_checkpoint; a missing dim or tensor,
    a truncated line or a shape mismatch raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _CKPT_HEADER:
        raise ValueError(f"not a {_CKPT_HEADER} checkpoint: {path}")
    dims = {}
    i = 1
    while i < len(lines) and lines[i].startswith("dim "):
        parts = lines[i].split()
        if len(parts) != 3:
            raise ValueError(f"bad checkpoint line: {lines[i]!r}")
        dims[parts[1]] = int(parts[2])
        i += 1
    missing_dims = {"d_h", "d_z"} - set(dims)
    if missing_dims:
        raise ValueError(f"checkpoint lacks dims {sorted(missing_dims)}: {path}")
    cfg = DvaeConfig(d_h=dims["d_h"], d_z=dims["d_z"])
    model = DvaeModel.create(cfg)
    params = model.params()
    loaded = set()
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        head = lines[i].split()
        if len(head) < 2 or head[0] != "tensor":
            raise ValueError(f"bad checkpoint line: {lines[i]!r}")
        name = head[1]
        if name not in params:
            raise ValueError(f"unknown tensor {name!r} in checkpoint")
        if i + 1 >= len(lines):
            raise ValueError(f"checkpoint ends before the values of tensor {name!r}")
        shape = tuple(int(x) for x in head[2:])
        values = np.array([float.fromhex(tok) for tok in lines[i + 1].split()])
        if values.size != int(np.prod(shape)) or params[name].value.shape != shape:
            raise ValueError(f"shape mismatch for tensor {name!r}")
        params[name].value = values.reshape(shape)
        loaded.add(name)
        i += 2
    missing = [name for name in params if name not in loaded]
    if missing:
        raise ValueError(f"checkpoint lacks tensors {missing}: {path}")
    return model


def save_metadata(path: str, cfg: DvaeConfig, corpus_hash: str, final_stats: EpochStats):
    meta = {
        "config": {k: getattr(cfg, k) for k in cfg.__dataclass_fields__},
        "corpus_hash": corpus_hash,
        "final_loss": final_stats.mean_loss,
        "final_accuracy": final_stats.accuracy,
        "final_discrete_edit": final_stats.discrete_edit,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
