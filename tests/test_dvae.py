import json
import math

import numpy as np
import pytest

from oracles import random_topological_order, relabelled
from qcopt import agent, dvae, harness
from qcopt.circuit import BvSpec, Circuit, Gate, bv_circuit, random_icmh_circuit
from qcopt.dag import (
    CircuitDag,
    NodeType,
    dag_from_debug_text,
    dag_to_debug_text,
    to_dag,
)
from qcopt.dvae import (
    DvaeConfig,
    DvaeModel,
    EncodeTable,
    Latent,
    backward,
    encode_np,
    latent_key,
    load_checkpoint,
    loss,
    save_checkpoint,
    train,
)
from qcopt.nn import finite_diff_check


def circ(n, *gates):
    return Circuit(n, tuple(gates))


def small_model(d_h=8, d_z=3, seed=0):
    return DvaeModel.create(DvaeConfig(d_h=d_h, d_z=d_z, seed=seed))


def zeroed_model(d_h=6, d_z=2):
    m = DvaeModel.create(DvaeConfig(d_h=d_h, d_z=d_z, seed=0))
    for p in m.params().values():
        p.value[:] = 0.0
    return m


def two_node_dag():
    """input -> output, the smallest decodable structure."""
    return CircuitDag((NodeType.INPUT, NodeType.OUTPUT), ((0, 1),))


def batch_cache(m, dags):
    """The loss cache of one batch at zero noise, so z is the latent mean."""
    return loss(m, dags, np.zeros((len(dags), m.d_z)), DvaeConfig(d_h=m.d_h, d_z=m.d_z))[2]


# --- encoding ------------------------------------------------------------------


def test_encode_isomorphism_invariance():
    # renumbering a DAG by another topological order makes the encoder visit
    # the same structure in that order; the latent must not depend on it
    m = small_model(d_h=12, d_z=4, seed=3)
    rng = np.random.default_rng(0)
    renumbered_count = 0
    for seed in range(50):
        d = to_dag(random_icmh_circuit(2 + seed % 3, seed % 10, seed))
        rank = [0] * d.n_nodes
        for i, v in enumerate(random_topological_order(d, rng)):
            rank[v] = i
        renumbered = relabelled(d, rank)
        renumbered_count += rank != list(range(d.n_nodes))
        a, b = encode_np(m, d), encode_np(m, renumbered)
        assert np.allclose(a.mu, b.mu, atol=1e-9)
        assert np.allclose(a.logvar, b.logvar, atol=1e-9)
        mu = batch_cache(m, [d, renumbered]).latent.mu
        assert np.allclose(mu[0], mu[1], atol=1e-9)
    assert renumbered_count >= 45


def test_encode_dual_topological_orders_agree():
    m = small_model(d_h=10, d_z=4, seed=1)
    for seed in range(20):
        d = to_dag(random_icmh_circuit(3, 8, seed))
        # an alternative valid order to the node ids: stack-based Kahn
        indeg = [0] * d.n_nodes
        succ = [[] for _ in range(d.n_nodes)]
        for u, v in d.edges:
            indeg[v] += 1
            succ[u].append(v)
        stack = [i for i in range(d.n_nodes) if indeg[i] == 0]
        alt = []
        while stack:
            u = stack.pop()
            alt.append(u)
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        assert alt != list(range(d.n_nodes))  # orders genuinely differ
        # renumber the nodes by their position in alt, so that the encoder
        # visits the same structure in the alternative order
        rank = [0] * d.n_nodes
        for i, v in enumerate(alt):
            rank[v] = i
        renumbered = relabelled(d, rank)
        assert all(u < v for u, v in renumbered.edges)
        a, b = encode_np(m, d), encode_np(m, renumbered)
        assert np.allclose(a.mu, b.mu, atol=1e-9)
        assert np.allclose(a.logvar, b.logvar, atol=1e-9)
        mu = batch_cache(m, [d, renumbered]).latent.mu
        assert np.allclose(mu[0], mu[1], atol=1e-9)


def test_an_edge_that_does_not_go_forward_raises():
    d = relabelled(two_node_dag(), [1, 0])
    assert d.edges == ((1, 0),)
    with pytest.raises(ValueError, match=r"edge \(1, 0\) does not go forward"):
        encode_np(small_model(), d)
    with pytest.raises(ValueError, match=r"edge \(1, 0\) does not go forward"):
        batch_cache(small_model(), [two_node_dag(), d])


def test_encode_zero_model_returns_mu_bias():
    m = zeroed_model()
    m.b_mu.value[:] = [0.5, -1.5]
    for seed in range(5):
        d = to_dag(random_icmh_circuit(2, seed, seed))
        assert np.allclose(encode_np(m, d).mu, [0.5, -1.5], atol=1e-12)


def test_encode_np_matches_loss_encoder():
    # the KL term of the loss reads the same latent that encode_np returns
    cfg = DvaeConfig(d_h=16, d_z=5, seed=7)
    m = DvaeModel.create(cfg)
    for seed in range(20):
        d = to_dag(random_icmh_circuit(3, seed % 12, seed))
        mu, logvar = encode_np(m, d)
        _, parts, cache = loss(m, [d], np.zeros((1, cfg.d_z)), cfg)
        assert parts.kl == 0.5 * ((mu * mu + np.exp(logvar)) - (1.0 + logvar)).sum()
        assert np.array_equal(cache.decoder.z[0], mu)


def shuffled_edges(d, rng):
    """The same DAG with its edge list stored in a seeded random order, as a
    corpus file may hold it."""
    return CircuitDag(d.types, tuple(d.edges[i] for i in rng.permutation(len(d.edges))))


def test_encode_np_shared_table_equals_encoder_forward():
    # the training forward is the reference; a shared table must not move a
    # bit, also for edge lists stored out of destination order, where a
    # node's predecessors come in another order; a backward edge is refused
    # by predecessors(), the one place that checks the rule
    m = small_model(d_h=12, d_z=4, seed=3)
    rng = np.random.default_rng(3)
    table = EncodeTable()
    reordered = 0
    for seed in range(240):
        d = to_dag(random_icmh_circuit(2 + seed % 4, seed % 16, seed))
        shuffled = shuffled_edges(d, rng)
        read_back = dag_from_debug_text(dag_to_debug_text(shuffled_edges(d, rng)))
        reordered += shuffled.predecessors() != d.predecessors()
        for dag in (d, shuffled, read_back):
            ref = batch_cache(m, [dag]).latent
            for got in (encode_np(m, dag, table), encode_np(m, dag)):
                assert np.array_equal(got.mu, ref.mu[0])
                assert np.array_equal(got.logvar, ref.logvar[0])
        i = int(rng.integers(len(d.edges)))
        u, v = shuffled.edges[i]
        broken = CircuitDag(d.types, shuffled.edges[:i] + ((v, u),) + shuffled.edges[i + 1 :])
        with pytest.raises(ValueError, match="does not go forward") as err:
            encode_np(m, broken, table)
        assert err.traceback[-1].name == "predecessors"
    assert reordered >= 100


def test_encode_np_table_reuses_node_states():
    m = small_model()
    start = bv_circuit(BvSpec(2, 0b11))
    assert to_dag(start).n_nodes == 18
    table = EncodeTable()
    encode_np(m, to_dag(start), table)
    assert len(table.nodes) == 13  # the inputs share one state, as do the first Hs
    encode_np(m, to_dag(start), table)
    assert len(table.nodes) == 13
    longer = Circuit(start.n_wires, start.gates + (Gate.h(0), Gate.h(0)))
    encode_np(m, to_dag(longer), table)
    assert len(table.nodes) == 16  # two H nodes and the wire-0 output
    assert len(table.graphs) == 2  # graph latents stay out of the node part


def test_encode_np_commuting_gate_orders_share_one_graph_entry():
    m = small_model()
    table = EncodeTable()
    first = encode_np(m, to_dag(circ(2, Gate.h(0), Gate.h(1))), table)
    assert len(table.graphs) == 1
    swapped = to_dag(circ(2, Gate.h(1), Gate.h(0)))
    hit = encode_np(m, swapped, table)
    assert len(table.graphs) == 1 and hit is first
    fresh = encode_np(m, swapped)
    assert np.array_equal(hit.mu, fresh.mu) and np.array_equal(hit.logvar, fresh.logvar)


def opposite_cnot_chain(n_wires, length, seed):
    """CNOTs that mostly reverse the previous one's orientation on the same
    wire pair, with a few Hs between: ``to_dag`` inserts a helper wherever a
    CNOT's control is the previous CNOT's target with nothing in between."""
    rng = np.random.default_rng(seed)
    gates, cq, tq = [], 0, 1
    for _ in range(length):
        r = rng.random()
        if r < 0.15:
            gates.append(Gate.h(int(rng.integers(n_wires))))
            continue
        if r < 0.3:
            cq, tq = (int(w) for w in rng.choice(n_wires, 2, replace=False))
        gates.append(Gate.cx(cq, tq))
        cq, tq = tq, cq
    return Circuit(n_wires, tuple(gates))


def latent_bytes(latent):
    return latent.mu.tobytes(), latent.logvar.tobytes()


def test_encode_np_circuit_walk_equals_dag_walk():
    # the circuit walk must make to_dag's nodes, in its order and with its
    # predecessor order, so latents and the whole table agree bit for bit
    m = small_model(d_h=6, d_z=3, seed=5)
    circuits = [random_icmh_circuit(2 + i % 5, i % 31, i) for i in range(2000)]
    circuits += [bv_circuit(BvSpec(n, s)) for n in range(2, 6) for s in range(1 << n)]
    circuits += [circ(1), circ(1, Gate.h(0), Gate.h(0)), circ(3)]
    chains = [opposite_cnot_chain(2 + i % 4, 4 + i % 20, i) for i in range(60)]
    helpers = sum(to_dag(c).types.count(NodeType.HELPER) for c in chains)
    assert helpers >= 100
    by_circuit, by_dag = EncodeTable(), EncodeTable()
    want = {}
    for c in circuits + chains:
        want[c] = latent_bytes(encode_np(m, to_dag(c), by_dag))
        assert latent_bytes(encode_np(m, c, by_circuit)) == want[c]
    assert by_circuit.nodes == by_dag.nodes
    assert [h.tobytes() for h in by_circuit.states] == [h.tobytes() for h in by_dag.states]
    assert by_circuit.graphs.keys() == by_dag.graphs.keys()
    # one table fed both kinds of input, interleaved
    mixed = EncodeTable()
    for i, c in enumerate(circuits[::7] + chains):
        assert latent_bytes(encode_np(m, c if i % 2 else to_dag(c), mixed)) == want[c]


def test_encoded_run_reads_out_and_keys_each_distinct_graph_once(monkeypatch):
    calls = {"encode": 0, "readout": [], "key": []}
    encode, readout, key = dvae.encode_np, dvae._readout, dvae.latent_key

    def counting_encode(*args):
        calls["encode"] += 1
        return encode(*args)

    def counting_readout(m, h_sinks, seg, n):
        calls["readout"].append(h_sinks.tobytes())
        return readout(m, h_sinks, seg, n)

    def counting_key(latent, bin_width):
        calls["key"].append(latent.mu.tobytes())
        return key(latent, bin_width)

    monkeypatch.setattr(agent, "encode_np", counting_encode)
    monkeypatch.setattr(dvae, "_readout", counting_readout)
    monkeypatch.setattr(agent, "latent_key", counting_key)
    spec = BvSpec(2, 0b11)
    result = harness.run_encoded(
        spec, small_model(), harness.benchmark_agent_config(spec, 20, 0), 1e-4
    )
    assert len(calls["readout"]) == len(set(calls["readout"])) == result.graph_states
    assert len(calls["key"]) == len(set(calls["key"])) <= result.graph_states
    assert result.graph_states < calls["encode"]


# --- teacher-forced decoding -------------------------------------------------------


def test_decode_tf_structure_minimal_dag():
    m = small_model()
    acts = batch_cache(m, [two_node_dag()]).decoder
    assert acts.type_logits.shape == (3, 7)  # two nodes plus the END step
    assert acts.edge_logits.shape == (1,)  # the output node's one earlier node
    assert acts.edge_targets.tolist() == [1.0]


def test_decode_tf_zero_model_uniform():
    m = zeroed_model()
    acts = batch_cache(m, [two_node_dag()]).decoder
    assert np.array_equal(acts.z, np.zeros((1, 2)))
    for t in acts.type_logits:
        assert np.allclose(t, t[0], atol=1e-12)
    assert np.allclose(acts.edge_logits, 0.0, atol=1e-12)  # p = 0.5


# --- loss -----------------------------------------------------------------------


def test_loss_zero_model_closed_form():
    m = zeroed_model()
    cfg = DvaeConfig(d_h=6, d_z=2, beta=0.0)
    value, parts, cache = loss(m, [two_node_dag()], np.zeros((1, 2)), cfg)
    assert abs(parts.recon_edges - math.log(2.0)) < 1e-12  # p=0.5 against t=1
    assert abs(parts.edit - 0.5) < 1e-12
    assert abs(parts.recon_types - 3 * math.log(7.0)) < 1e-12
    assert abs(parts.kl) < 1e-12
    assert abs(value - parts.total) < 1e-12
    grads = dict(zip(m.params(), backward(m, cache)))
    # BCE (sigma(0) - 1) plus the edit term's sign(p - t) * p * (1 - p)
    assert np.allclose(grads["b_edge_out"], [-0.5 - 0.25], atol=1e-12)
    # softmax CE over three steps: 3/7 per class minus one per true type
    want = np.full(7, 3.0 / 7.0)
    want[[NodeType.INPUT.value, NodeType.OUTPUT.value, 6]] -= 1.0
    assert np.allclose(grads["b_type"], want, atol=1e-12)


def test_loss_gradient_finite_difference():
    cfg = DvaeConfig(d_h=5, d_z=2, seed=11, beta=0.005)
    m = DvaeModel.create(cfg)
    d = to_dag(circ(2, Gate.cx(0, 1)))
    noise = np.random.default_rng(3).standard_normal((1, cfg.d_z))
    grads = backward(m, loss(m, [d], noise, cfg)[2])
    err = finite_diff_check(lambda: loss(m, [d], noise, cfg)[0], list(m.params().values()), grads)
    assert err <= 1e-4


def _mixed_sizes():
    """Three DAGs of different node counts: the two-node structure, one
    without CNOTs, and consecutive CNOTs that need a helper node."""
    helper = to_dag(circ(2, Gate.cx(0, 1), Gate.cx(1, 0)))
    assert NodeType.HELPER in helper.types
    dags = [two_node_dag(), to_dag(circ(2, Gate.h(0), Gate.h(1), Gate.h(0))), helper]
    assert len({d.n_nodes for d in dags}) == len(dags)
    return dags


def test_batched_loss_gradient_finite_difference():
    # graphs end at different levels, so the masked rows are exercised
    cfg = DvaeConfig(d_h=5, d_z=2, seed=11, beta=0.005)
    m = DvaeModel.create(cfg)
    dags = _mixed_sizes()
    noise = np.random.default_rng(3).standard_normal((len(dags), cfg.d_z))
    grads = backward(m, loss(m, dags, noise, cfg)[2])
    err = finite_diff_check(lambda: loss(m, dags, noise, cfg)[0], list(m.params().values()), grads)
    assert err <= 1e-4


def test_batch_is_the_sum_of_its_members():
    cfg = DvaeConfig(d_h=8, d_z=3, seed=2, beta=0.05)
    m = DvaeModel.create(cfg)
    dags = _mixed_sizes()
    noise = np.random.default_rng(4).standard_normal((len(dags), cfg.d_z))
    _, parts, cache = loss(m, dags, noise, cfg)
    grads = backward(m, cache)
    members = [loss(m, [d], noise[i : i + 1], cfg) for i, d in enumerate(dags)]
    for j, name in enumerate(parts._fields):
        want = sum(member[1][j] for member in members)
        if isinstance(want, int):
            assert parts[j] == want, name
        else:
            assert abs(parts[j] - want) <= 1e-12 * max(1.0, abs(want)), name
    sums = [sum(col) for col in zip(*(backward(m, member[2]) for member in members))]
    for name, got, want in zip(m.params(), grads, sums):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), name
    for i, d in enumerate(dags):
        assert np.array_equal(encode_np(m, d).mu, members[i][2].latent.mu[0])


def test_loss_saturates_towards_zero_on_overfit():
    # as predictions approach the targets, R and E approach zero
    d = to_dag(circ(2, Gate.h(0)))
    cfg = DvaeConfig(d_h=24, d_z=3, epochs=400, lr=5e-3, batch_size=1, seed=2, beta=0.0)
    model, stats = train([d], cfg)
    _, parts, _ = loss(model, [d], np.zeros((1, 3)), cfg)
    assert stats[-1].accuracy == 1.0
    assert parts.recon_edges < 0.5
    assert parts.edit < 0.5
    assert parts.recon_types < 0.2


# --- latent keys ------------------------------------------------------------------


def test_latent_key_examples():
    assert latent_key(Latent(np.array([0.7, -1.2]), np.zeros(2)), 0.5) == "1,-3"
    assert latent_key(Latent(np.zeros(4), np.zeros(4)), 0.5) == "0,0,0,0"


def test_latent_key_stability_inside_bin():
    mu = np.array([0.26, 0.26])
    key = latent_key(Latent(mu, np.zeros(2)), 0.5)
    assert latent_key(Latent(mu + 0.2, np.zeros(2)), 0.5) == key
    assert latent_key(Latent(mu + 0.3, np.zeros(2)), 0.5) != key


def test_latent_key_rejects_bad_inputs():
    with pytest.raises(ValueError):
        latent_key(Latent(np.array([np.nan]), np.zeros(1)), 0.5)
    with pytest.raises(ValueError):
        latent_key(Latent(np.zeros(1), np.zeros(1)), 0.0)


# --- training ----------------------------------------------------------------------


def _mixed_corpus(n):
    return [to_dag(random_icmh_circuit(2 + s % 2, 2 + s % 6, s)) for s in range(n)]


def test_train_loss_decreases():
    cfg = DvaeConfig(d_h=12, d_z=3, epochs=6, lr=3e-3, batch_size=4, seed=0)
    _, stats = train(_mixed_corpus(10), cfg)
    assert stats[-1].mean_loss < stats[0].mean_loss
    assert all(math.isfinite(s.mean_loss) for s in stats)


def test_train_deterministic():
    cfg = DvaeConfig(d_h=8, d_z=2, epochs=3, lr=1e-3, batch_size=4, seed=9)
    corpus = _mixed_corpus(6)
    m1, s1 = train(corpus, cfg)
    m2, s2 = train(corpus, cfg)
    assert s1 == s2
    for a, b in zip(m1.params().values(), m2.params().values()):
        assert np.array_equal(a.value, b.value)


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train([], DvaeConfig())


def test_overfit_one_greedy_reconstruction():
    target = to_dag(circ(2, Gate.cx(0, 1), Gate.h(1)))
    cfg = DvaeConfig(d_h=32, d_z=4, epochs=300, lr=4e-3, batch_size=1, seed=4, beta=0.0)
    model, stats = train([target], cfg)
    assert stats[-1].accuracy == 1.0
    # at z = mu every teacher-forced type argmax and thresholded edge is right
    _, parts, _ = loss(model, [target], np.zeros((1, cfg.d_z)), cfg)
    assert parts.n_type_correct == parts.n_types
    assert parts.n_edge_correct == parts.n_edges


# --- checkpointing ------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = small_model(d_h=9, d_z=4, seed=13)
    # extremes of float64 keep their bits, the sign of zero included
    m.b_mu.value[:3] = [-0.0, 5e-324, np.finfo(np.float64).max]
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, str(path), {"corpus_hash": "abc"})
    loaded = load_checkpoint(str(path))
    for (na, a), (nb, b) in zip(m.params().items(), loaded.params().items()):
        assert na == nb
        assert a.value.shape == b.value.shape and a.value.tobytes() == b.value.tobytes(), na
    d = to_dag(circ(2, Gate.cx(1, 0)))
    assert np.array_equal(encode_np(m, d).mu, encode_np(loaded, d).mu)
    doc = json.loads(path.read_text())
    assert doc["format"] == "qcopt-dvae v2" and doc["corpus_hash"] == "abc"
    assert (doc["d_h"], doc["d_z"]) == (9, 4) and list(doc["tensors"]) == sorted(m.params())


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="not a qcopt-dvae v2 checkpoint"):
        load_checkpoint(str(path))


def _saved(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(d_h=4, d_z=2), str(path))
    return path, json.loads(path.read_text())


def test_checkpoint_rejects_missing_tensor(tmp_path):
    path, doc = _saved(tmp_path)
    del doc["tensors"]["b_edge_out"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"missing \['b_edge_out'\], unknown \[\]"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncated_tensor(tmp_path):
    path, doc = _saved(tmp_path)
    doc["tensors"]["enc.w_z"][-1].pop()  # one value short
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"tensor 'enc.w_z' is not a \(4, 6\) array"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_missing_dim(tmp_path):
    path, doc = _saved(tmp_path)
    del doc["d_z"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="d_z must be an integer of at least 1"):
        load_checkpoint(str(path))


def test_reconstruction_accuracy_range():
    m = small_model(d_h=8, d_z=3, seed=1)
    cfg = DvaeConfig(d_h=8, d_z=3)
    for d in _mixed_corpus(4):
        _, parts, _ = loss(m, [d], np.zeros((1, cfg.d_z)), cfg)
        assert 0 <= parts.n_type_correct <= parts.n_types == d.n_nodes + 1
        assert 0 <= parts.n_edge_correct <= parts.n_edges == d.n_nodes * (d.n_nodes - 1) // 2
