"""Variational autoencoder over circuit DAGs.

The encoder visits nodes in id order, which is topological (``dag.py``
keeps every edge forward), and runs a GRU whose incoming state is a gated sum
of the predecessors' hidden states, so the embedding depends only on DAG
structure and node types (isomorphic DAGs encode identically).  The graph
embedding is a gated sum over the output-node hiddens, mapped to a latent
mean and log-variance.

The decoder mirrors the scheme in reverse, teacher-forced on the target's
id order: node by node it predicts a type distribution (6 node types plus an
END symbol) from the previous node's hidden state, predicts an edge
probability to every earlier node from the new node's provisional hidden,
then recomputes the node's hidden from a gated sum of its true
predecessors.  Sourceless nodes take the running context instead --
initially the latent-derived state, so z reaches every chain, and repeated
source nodes stay distinguishable by sequence position.

Training minimises  R + E + beta * KL  where R is the cross-entropy
reconstruction term over node types and edge indicators and E is the
expected edge edit distance sum |p - t| (differentiable a.e.).  Quantising
the latent mean per dimension turns encodings into discrete RL state keys.

Training runs a minibatch at once, level by level as D-VAE does (Zhang et
al., NeurIPS 2019): ``_layout`` lays the graphs' nodes out as rows, and at
node id k one GRU update, one gated sum over the real predecessor rows and
one edge-head evaluation cover node k of every graph that has one.  ``loss``
runs the encoder and decoder forwards and the loss heads over a batch and
returns the summed value, its parts and a cache; ``backward`` walks that
cache level by level in reverse and returns the parameter gradients.  A
batch of one DAG is the single-graph case.  The inference-only
``encode_np`` shares the encoder's node update and readout but runs node by
node and keeps no activations; it takes a DAG, or a circuit whose wires it
walks as ``to_dag`` would, without building the DAG.  It hash-conses node
states, and whole graphs by their output nodes' states, in one table that a
caller can carry across inputs of both kinds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .circuit import Circuit
from .dag import CircuitDag, N_NODE_TYPES, NodeType
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
    """Autoencoder settings; ``harness.HarnessConfig`` takes its defaults from here."""

    d_h: int = 32
    d_z: int = 8
    beta: float = 0.005         # KL scale; 0 recovers the bare R + E loss
    lr: float = 3e-3
    epochs: int = 16
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


# --- batch layout -------------------------------------------------------------


class Level(NamedTuple):
    """Node k of every graph that has one; graphs with fewer nodes have
    ended and are left out."""

    rows: np.ndarray        # each such node's row in the node-state arrays
    x: np.ndarray           # its one-hot type
    pred_rows: np.ndarray   # the nodes' predecessors' rows, node by node in edge order
    pred_seg: np.ndarray    # for each predecessor row, its node's index in rows
    sourceless: np.ndarray  # indices in rows of the nodes without predecessors


class Batch(NamedTuple):
    """Row layout of a minibatch.  Graph b owns rows ``start[b]`` to
    ``start[b] + n_b`` of the node-state arrays: first the decoder's initial
    context (a zero row in the encoder), then its nodes in id order, so
    node v sits at row ``start[b] + 1 + v``.  Each row is also the decoder
    step that predicts the next node's type, or END on a graph's last row."""

    start: np.ndarray       # (B,)
    targets: np.ndarray     # per row: the type index it predicts
    levels: list[Level]
    sink_rows: np.ndarray   # output-node rows, graph by graph in id order
    sink_seg: np.ndarray    # the batch index of each sink row


def _layout(dags: list[CircuitDag]) -> Batch:
    """The rows of ``dags`` and one level per node id, up to the largest
    graph's node count; an edge that does not go forward raises ValueError."""
    sizes = np.array([d.n_nodes for d in dags])
    start = np.concatenate(([0], np.cumsum(sizes + 1)[:-1]))
    targets, sink_rows, sink_seg, pred_rows = [], [], [], []
    for b, d in enumerate(dags):
        first = int(start[b]) + 1
        pred_rows.append([[first + u for u in p] for p in d.predecessors()])
        targets += (*d.types, END_TYPE)
        sinks = [first + v for v, t in enumerate(d.types) if t is NodeType.OUTPUT]
        sink_rows += sinks
        sink_seg += [b] * len(sinks)
    targets = np.array(targets)
    levels = []
    for k in range(sizes.max()):
        active = np.flatnonzero(sizes > k)
        rows = start[active] + 1 + k
        p_rows, p_seg, sourceless = [], [], []
        for i, b in enumerate(active):
            p = pred_rows[b][k]
            p_rows += p
            p_seg += [i] * len(p)
            if not p:
                sourceless.append(i)
        levels.append(Level(
            rows, _EYE[targets[rows - 1]],
            np.array(p_rows, dtype=np.intp), np.array(p_seg, dtype=np.intp),
            np.array(sourceless, dtype=np.intp),
        ))
    return Batch(start, targets, levels, np.array(sink_rows, dtype=np.intp),
                 np.array(sink_seg, dtype=np.intp))


# --- encoding ---------------------------------------------------------------


class EncoderActs(NamedTuple):
    steps: list[tuple]      # per level: (gated-sum acts or None, GRU acts)
    readout: tuple | None
    hg: np.ndarray          # (B, d_h) graph states


def _node_states(m: DvaeModel, x: np.ndarray, h_preds: np.ndarray, seg: np.ndarray, n: int):
    """n encoder nodes: a GRU update on their one-hot types ``x``, each fed by
    the gated sum of its predecessors' states (row i of ``h_preds`` belongs
    to node ``seg[i]``).  Returns the new states and the activations
    (gated-sum acts or None, GRU acts)."""
    incoming, gated = gated_sum_forward(m.enc_gate_a, m.enc_gate_b, h_preds, seg, n)
    h, gru = gru_forward(m.enc, x, incoming)
    return h, (gated, gru)


def _readout(m: DvaeModel, h_sinks: np.ndarray, seg: np.ndarray, n: int):
    """Latents of n graphs from their output-node states (row i of
    ``h_sinks`` belongs to graph ``seg[i]``): a gated sum into each graph
    state, then the mean and log-variance heads.  Returns (latent, gated-sum
    acts, graph states)."""
    hg, readout = gated_sum_forward(m.readout_a, m.readout_b, h_sinks, seg, n)
    latent = Latent(
        hg @ m.w_mu.value.T + m.b_mu.value,
        hg @ m.w_logvar.value.T + m.b_logvar.value,
    )
    return latent, readout, hg


def _encoder_forward(m: DvaeModel, batch: Batch) -> tuple[Latent, EncoderActs]:
    """Latent distributions of the batch, (B, d_z) means and log-variances,
    and the activations ``backward`` needs; one node update per level."""
    hidden = np.zeros((len(batch.targets), m.d_h))
    steps = []
    for lv in batch.levels:
        hidden[lv.rows], step = _node_states(
            m, lv.x, hidden[lv.pred_rows], lv.pred_seg, len(lv.rows)
        )
        steps.append(step)
    latent, readout, hg = _readout(
        m, hidden[batch.sink_rows], batch.sink_seg, len(batch.start)
    )
    return latent, EncoderActs(steps, readout, hg)


@dataclass
class EncodeTable:
    """``encode_np``'s hash-consed states, kept for a run of one model."""

    # (node type, then the predecessors' table ids in edge order) -> table id
    nodes: dict[tuple, int] = field(default_factory=dict)
    # table id -> (1, d_h) node state
    states: list[np.ndarray] = field(default_factory=list)
    # table ids of the output nodes in id order -> the graph's latent
    graphs: dict[tuple, Latent] = field(default_factory=dict)


def encode_np(m: DvaeModel, x: Circuit | CircuitDag, table: EncodeTable | None = None) -> Latent:
    """Latent distribution of one DAG, or of ``to_dag(x)`` for a circuit,
    equal bit for bit to the latent that ``loss`` computes for a batch of
    that DAG alone; used by the RL loop, which needs no gradients.

    A node's state depends only on its type and on its predecessors' states
    taken in edge order, so states are hash-consed in ``table``: the walk
    keeps one table id per node, keys each node by its type followed by its
    predecessors' ids, and runs the node update only for a key the table
    lacks.  A DAG is walked in id order; a circuit along its wires, making
    ``to_dag``'s nodes in the same order but building no DAG.  Whole graphs
    are hash-consed too: the latent depends only on the output nodes' states
    in id order, so ``table.graphs`` keys it by their table ids and the
    readout runs only for a tuple the table lacks (gate orders that differ
    only on disjoint wires give one tuple).  One table takes both kinds of
    input; passing it to many calls shares states across circuits that
    differ by a local rewrite.  A table belongs to the model that filled it;
    ``None`` starts a fresh one.  A DAG edge that does not go forward raises
    ValueError.
    """
    if table is None:
        table = EncodeTable()
    walk = _circuit_sinks if isinstance(x, Circuit) else _dag_sinks
    graph = walk(m, x, table)
    latent = table.graphs.get(graph)
    if latent is None:
        states = table.states
        h_sinks = np.concatenate([states[i] for i in graph]) if graph else np.empty((0, m.d_h))
        mu, logvar = _readout(m, h_sinks, np.zeros(len(graph), dtype=np.intp), 1)[0]
        latent = table.graphs[graph] = Latent(mu[0], logvar[0])
    return latent


def _new_node(m: DvaeModel, table: EncodeTable, key: tuple) -> int:
    """Run the node update for a key ``(type, *predecessor table ids)`` that
    the table lacks, and return the new table id."""
    states = table.states
    hs = [states[i] for i in key[1:]]
    h_preds = np.concatenate(hs) if hs else np.empty((0, m.d_h))
    t = key[0]
    h, _ = _node_states(m, _EYE[t : t + 1], h_preds, np.zeros(len(hs), dtype=np.intp), 1)
    i = table.nodes[key] = len(states)
    states.append(h)
    return i


def _dag_sinks(m: DvaeModel, d: CircuitDag, table: EncodeTable) -> tuple[int, ...]:
    """Table ids of the DAG's output nodes in id order."""
    get = table.nodes.get
    output = NodeType.OUTPUT
    ids, sinks = [], []
    id_of = ids.__getitem__
    for t, preds in zip(d.types, d.predecessors()):
        # most nodes have one predecessor; that key needs no unpacking
        key = (t, ids[preds[0]]) if len(preds) == 1 else (t, *map(id_of, preds))
        i = get(key)
        if i is None:
            i = _new_node(m, table, key)
        ids.append(i)
        if t is output:
            sinks.append(i)
    return tuple(sinks)


def _circuit_sinks(m: DvaeModel, c: Circuit, table: EncodeTable) -> tuple[int, ...]:
    """Table ids of ``to_dag(c)``'s output nodes in id order.  The walk
    follows ``to_dag``'s rules and node numbers (``last`` holds each wire's
    last node, ``ids`` each node's table id), and a node key is looked up
    inline, as a call per node would cost more than the lookup."""
    hadamard, ctrl_op, trgt_op, helper_op = (
        NodeType.HADAMARD, NodeType.CTRL_OP, NodeType.TRGT_OP, NodeType.HELPER)
    get = table.nodes.get
    n = c.n_wires
    key = (NodeType.INPUT,)
    i = get(key)
    ids = [_new_node(m, table, key) if i is None else i] * (n + 1)
    last = list(range(n + 1))
    fake_last, k = n, n + 1
    for g in c.gates:
        if g.is_cx:
            cq, tq = g.qubits
            if fake_last == last[cq]:  # node numbers: the inputs share one table id
                key = (helper_op, ids[fake_last])
                i = get(key)
                ids.append(_new_node(m, table, key) if i is None else i)
                fake_last = k
                k += 1
            key = (ctrl_op, ids[last[cq]], ids[fake_last])
            i = get(key)
            ctrl = _new_node(m, table, key) if i is None else i
            key = (trgt_op, ids[last[tq]], ctrl)
            i = get(key)
            ids += (ctrl, _new_node(m, table, key) if i is None else i)
            last[cq] = k
            last[tq] = fake_last = k + 1
            k += 2
        else:
            q = g.qubits[0]
            key = (hadamard, ids[last[q]])
            i = get(key)
            ids.append(_new_node(m, table, key) if i is None else i)
            last[q] = k
            k += 1
    last[n] = fake_last
    sinks = []
    for u in last:
        key = (NodeType.OUTPUT, ids[u])
        i = get(key)
        sinks.append(_new_node(m, table, key) if i is None else i)
    return tuple(sinks)


def _encoder_backward(
    m: DvaeModel, batch: Batch, acts: EncoderActs, dmu: np.ndarray, dlogvar: np.ndarray,
    g: DvaeModel,
):
    g.w_mu.value += dmu.T @ acts.hg
    g.b_mu.value += dmu.sum(axis=0)
    g.w_logvar.value += dlogvar.T @ acts.hg
    g.b_logvar.value += dlogvar.sum(axis=0)
    dhidden = np.zeros((len(batch.targets), m.d_h))
    if acts.readout is not None:
        dhg = dmu @ m.w_mu.value + dlogvar @ m.w_logvar.value
        np.add.at(dhidden, batch.sink_rows, gated_sum_backward(
            m.readout_a, m.readout_b, acts.readout, dhg, g.readout_a, g.readout_b
        ))
    dpre = []
    for lv, (gated, gru) in zip(reversed(batch.levels), reversed(acts.steps)):
        dincoming, d = gru_backward(m.enc, gru, dhidden[lv.rows])
        dpre.append(d)
        if gated is not None:
            np.add.at(dhidden, lv.pred_rows, gated_sum_backward(
                m.enc_gate_a, m.enc_gate_b, gated, dincoming, g.enc_gate_a, g.enc_gate_b
            ))
    gru_weight_grads(g.enc, [gru for _, gru in reversed(acts.steps)], dpre)


# --- decoding ---------------------------------------------------------------


class DecoderActs(NamedTuple):
    z: np.ndarray             # (B, d_z)
    states: np.ndarray        # by row: each graph's initial context, then one hidden per node
    type_logits: np.ndarray   # by row: logits of the type that row predicts
    steps: list[tuple]        # per level: (gated-sum acts or None, GRU acts,
                              #             edge-head acts or None)
    edge_logits: np.ndarray   # level by level, graph by graph: one per earlier node
    edge_targets: np.ndarray  # matching 0/1 values


def _decoder_forward(m: DvaeModel, batch: Batch, z: np.ndarray) -> DecoderActs:
    """Teacher-forced decoder pass over the targets' nodes in id order."""
    states = np.zeros((len(batch.targets), m.d_h))
    states[batch.start] = z @ m.w_init.value.T + m.b_init.value
    steps = []
    edge_logits = [np.empty(0)]
    edge_targets = [np.empty(0)]

    for k, lv in enumerate(batch.levels):
        ctx = states[lv.rows - 1]
        edge = None
        if k > 0:
            provisional, provisional_gru = gru_forward(m.dec, lv.x, ctx)
            first = lv.rows - k  # the row of node 0 in each graph at this level
            earlier = (first[:, None] + np.arange(k)).ravel()
            th = np.tanh(
                states[earlier] @ m.w_edge_prev.value.T
                + np.repeat(provisional @ m.w_edge_new.value.T + m.b_edge.value, k, axis=0)
            )
            edge_logits.append(th @ m.w_edge_out.value + m.b_edge_out.value)
            tgt = np.zeros(len(earlier))
            tgt[lv.pred_seg * k + lv.pred_rows - first[lv.pred_seg]] = 1.0
            edge_targets.append(tgt)
            edge = (provisional_gru, provisional, earlier, th)
        incoming, gated = gated_sum_forward(
            m.dec_gate_a, m.dec_gate_b, states[lv.pred_rows], lv.pred_seg, len(lv.rows)
        )
        # sourceless nodes take the running context; this injects z into
        # every chain and keeps repeated source nodes distinguishable
        incoming[lv.sourceless] = ctx[lv.sourceless]
        states[lv.rows], gru = gru_forward(m.dec, lv.x, incoming)
        steps.append((gated, gru, edge))

    type_logits = states @ m.w_type.value.T + m.b_type.value
    return DecoderActs(
        z, states, type_logits, steps, np.concatenate(edge_logits), np.concatenate(edge_targets)
    )


def _decoder_backward(
    m: DvaeModel,
    batch: Batch,
    acts: DecoderActs,
    d_type_logits: np.ndarray,
    d_edge_logits: np.ndarray,
    g: DvaeModel,
) -> np.ndarray:
    """Add the decoder's parameter gradients into g; return d(loss)/dz."""
    states = acts.states
    g.w_type.value += d_type_logits.T @ states
    g.b_type.value += d_type_logits.sum(axis=0)
    dstates = d_type_logits @ m.w_type.value
    # level k reads rows up to k of each graph and writes row k+1, so every
    # use of a row has been visited before the level that wrote it
    gru_calls, dpre = [], []
    end = len(d_edge_logits)
    for lv, (gated, gru, edge) in zip(reversed(batch.levels), reversed(acts.steps)):
        dincoming, d = gru_backward(m.dec, gru, dstates[lv.rows])
        gru_calls.append(gru)
        dpre.append(d)
        ctx_rows = lv.rows - 1
        dstates[ctx_rows[lv.sourceless]] += dincoming[lv.sourceless]
        if gated is not None:
            np.add.at(dstates, lv.pred_rows, gated_sum_backward(
                m.dec_gate_a, m.dec_gate_b, gated, dincoming, g.dec_gate_a, g.dec_gate_b
            ))
        if edge is not None:
            provisional_gru, provisional, earlier, th = edge
            dlogits = d_edge_logits[end - len(earlier) : end]
            end -= len(earlier)
            g.w_edge_out.value += dlogits @ th
            g.b_edge_out.value += dlogits.sum()
            dth = dlogits[:, None] * m.w_edge_out.value * (1.0 - th * th)
            g.w_edge_prev.value += dth.T @ states[earlier]
            dstates[earlier] += dth @ m.w_edge_prev.value
            dnew = dth.reshape(len(lv.rows), -1, m.d_h).sum(axis=1)
            g.w_edge_new.value += dnew.T @ provisional
            g.b_edge.value += dnew.sum(axis=0)
            dctx, d = gru_backward(m.dec, provisional_gru, dnew @ m.w_edge_new.value)
            dstates[ctx_rows] += dctx
            gru_calls.append(provisional_gru)
            dpre.append(d)
    gru_weight_grads(g.dec, gru_calls, dpre)
    d0 = dstates[batch.start]
    g.w_init.value += d0.T @ acts.z
    g.b_init.value += d0.sum(axis=0)
    return d0 @ m.w_init.value


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
    """The batch layout, the latents, both forwards' activations and the
    gradient of the loss with respect to the decoder logits and the latent,
    as ``backward`` needs them."""

    batch: Batch
    latent: Latent            # (B, d_z) means and log-variances
    encoder: EncoderActs
    decoder: DecoderActs
    d_type_logits: np.ndarray
    d_edge_logits: np.ndarray
    d_mu: np.ndarray          # of the KL term
    d_logvar: np.ndarray      # of the KL term
    dz_dlogvar: np.ndarray    # 0.5 * exp(logvar / 2) * noise


def loss(m: DvaeModel, dags: list[CircuitDag], noise: np.ndarray, cfg: DvaeConfig):
    """Forward pass of the loss summed over a batch of DAGs, with fixed
    reparameterisation noise (one row of ``noise`` per DAG).

    Returns (value, LossParts, LossCache); ``backward`` turns the cache into
    gradients.  R sums categorical cross-entropy over node types (with the
    END step) and binary cross-entropy over edge indicators; E is the
    expected edge edit distance sum |p - t|; the KL term regularises the
    latent towards a standard normal.  The parts and counts are sums over
    the batch, so a batch's loss and gradient are the sums of its members'.
    """
    batch = _layout(dags)
    latent, enc = _encoder_forward(m, batch)
    mu, logvar = latent
    std = np.exp(0.5 * logvar)
    dec = _decoder_forward(m, batch, mu + std * noise)

    ce, d_types = softmax_cross_entropy(dec.type_logits, batch.targets)
    r_types = ce.sum()
    r_edges, d_bce = bce_with_logits(dec.edge_logits, dec.edge_targets)
    probs = _sigmoid_np(dec.edge_logits)
    miss = probs - dec.edge_targets
    e_term = np.abs(miss).sum()
    d_edges = d_bce + np.sign(miss) * probs * (1.0 - probs)

    var = np.exp(logvar)
    kl = 0.5 * ((mu * mu + var) - (1.0 + logvar)).sum()

    value = float((r_types + r_edges) + (e_term + cfg.beta * kl))
    parts = LossParts(
        total=value,
        recon_types=float(r_types),
        recon_edges=float(r_edges),
        edit=float(e_term),
        kl=float(kl),
        n_types=len(batch.targets),
        n_type_correct=int((dec.type_logits.argmax(axis=1) == batch.targets).sum()),
        n_edges=len(dec.edge_targets),
        n_edge_correct=int(((probs > 0.5) == (dec.edge_targets > 0.5)).sum()),
    )
    cache = LossCache(
        batch,
        latent,
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
    dz = _decoder_backward(
        m, cache.batch, cache.decoder, cache.d_type_logits, cache.d_edge_logits, g
    )
    # z = mu + exp(logvar / 2) * noise
    _encoder_backward(
        m, cache.batch, cache.encoder,
        cache.d_mu + dz, cache.d_logvar + dz * cache.dz_dlogvar, g,
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

    Each mini-batch takes one ``loss`` call, one ``backward`` call and one
    ``adam_step`` call: the forward and the backward run the batch level by
    level (the k-th node of every graph at once), and Adam steps on the
    batch-mean gradient.  Returns (model, per-epoch EpochStats list);
    raises FloatingPointError, naming the epoch, at the first overflow or NaN.
    """
    if not dataset:
        raise ValueError("training needs a non-empty dataset")
    model = DvaeModel.create(cfg)
    params = list(model.params().values())
    adam = AdamState.create(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed + 1)
    stats: list[EpochStats] = []

    # a diverging run stops at its first overflow or NaN, with one error
    # instead of a warning per numpy call that meets the bad values
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(cfg.epochs):
                perm = rng.permutation(len(dataset))
                total = 0.0
                hits = 0
                preds = 0
                edit = 0.0
                for start in range(0, len(perm), cfg.batch_size):
                    batch = [dataset[i] for i in perm[start : start + cfg.batch_size]]
                    noise = rng.standard_normal((len(batch), cfg.d_z))
                    _, parts, cache = loss(model, batch, noise, cfg)
                    grads = backward(model, cache)
                    del cache  # free the activations before the next batch's forward
                    adam_step(params, [g / len(batch) for g in grads], adam)
                    total += parts.total
                    hits += parts.n_type_correct + parts.n_edge_correct
                    preds += parts.n_types + parts.n_edges
                    edit += parts.n_edges - parts.n_edge_correct
                stats.append(EpochStats(epoch, total / len(dataset), hits / preds, edit))
                if not math.isfinite(stats[-1].mean_loss):
                    raise FloatingPointError("the mean loss is not finite")
    except FloatingPointError as exc:
        raise FloatingPointError(f"loss diverged at epoch {epoch}: {exc}") from None
    return model, stats


# --- checkpointing --------------------------------------------------------------

_FORMAT = "qcopt-dvae v2"


def save_checkpoint(m: DvaeModel, path: str, run: dict | None = None):
    """One JSON object: the format tag, ``d_h``, ``d_z``, the tensors by
    ``params()`` name as nested lists, and the keys of ``run`` (what produced
    the model).  Python writes each float as its shortest round-trip repr, so
    the arrays read back bit-exactly."""
    doc = {
        **(run or {}),
        "format": _FORMAT,
        "d_h": m.d_h,
        "d_z": m.d_z,
        "tensors": {name: p.value.tolist() for name, p in m.params().items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _tensor(value, shape: tuple, name: str) -> np.ndarray:
    arr = np.array(value, dtype=object)
    if arr.shape != shape or not all(type(x) in (int, float) for x in arr.flat):
        raise ValueError(f"tensor {name!r} is not a {shape} array of numbers")
    try:
        return arr.astype(np.float64)
    except OverflowError:
        raise ValueError(f"tensor {name!r} holds a number beyond float64") from None


def load_checkpoint(path: str) -> DvaeModel:
    """Read a checkpoint written by save_checkpoint.  It comes from outside, so
    a file that is not JSON (a truncated one too), not a JSON object or of
    another format, a ``d_h`` or ``d_z`` that is not an integer of at least 1,
    a missing or unknown tensor, a wrong shape or a non-numeric value raises
    ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not a {_FORMAT} checkpoint: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError(f"{path} is not a {_FORMAT} checkpoint")
    for key in ("d_h", "d_z"):
        if type(doc.get(key)) is not int or doc[key] < 1:
            raise ValueError(f"checkpoint {key} must be an integer of at least 1: {path}")
    tensors = doc.get("tensors")
    if not isinstance(tensors, dict):
        raise ValueError(f"checkpoint lacks its tensors object: {path}")
    model = DvaeModel._build(doc["d_h"], doc["d_z"], lambda *shape: np.empty(shape))
    params = model.params()
    if set(tensors) != set(params):
        missing, unknown = sorted(set(params) - set(tensors)), sorted(set(tensors) - set(params))
        raise ValueError(
            f"checkpoint tensors differ from the model's: missing {missing}, "
            f"unknown {unknown}: {path}"
        )
    for name, p in params.items():
        p.value = _tensor(tensors[name], p.value.shape, name)
    return model
