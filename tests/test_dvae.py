import math

import numpy as np
import pytest

from oracles import relabelled
from qcopt.circuit import Circuit, Gate, random_icmh_circuit
from qcopt.dag import CircuitDag, NodeType, to_dag, topo_order
from qcopt.dvae import (
    DvaeConfig,
    DvaeModel,
    Latent,
    backward,
    decoder_forward,
    encode_np,
    encoder_forward,
    latent_key,
    load_checkpoint,
    loss,
    reparameterize,
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


# --- encoding ------------------------------------------------------------------


def test_encode_isomorphism_invariance():
    m = small_model(d_h=12, d_z=4, seed=3)
    rng = np.random.default_rng(0)
    for seed in range(50):
        d = to_dag(random_icmh_circuit(2 + seed % 3, seed % 10, seed))
        perm = list(rng.permutation(d.n_nodes))
        a = encode_np(m, d)
        b = encode_np(m, relabelled(d, perm))
        assert np.allclose(a.mu, b.mu, atol=1e-9)
        assert np.allclose(a.logvar, b.logvar, atol=1e-9)


def test_encode_dual_topological_orders_agree():
    m = small_model(d_h=10, d_z=4, seed=1)
    for seed in range(20):
        d = to_dag(random_icmh_circuit(3, 8, seed))
        canonical = topo_order(d)
        # an alternative valid order: stack-based Kahn
        indeg = [0] * d.n_nodes
        for _, v in d.edges:
            indeg[v] += 1
        succ = d.successors()
        stack = [i for i in range(d.n_nodes) if indeg[i] == 0]
        alt = []
        while stack:
            u = stack.pop()
            alt.append(u)
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        assert alt != canonical or seed < 2  # orders genuinely differ somewhere
        a, _ = encoder_forward(m, d, order=canonical)
        b, _ = encoder_forward(m, d, order=alt)
        assert np.allclose(a.mu, b.mu, atol=1e-9)


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
        _, parts, cache = loss(m, d, np.zeros(cfg.d_z), cfg)
        assert parts.kl == 0.5 * ((mu * mu + np.exp(logvar)) - (1.0 + logvar)).sum()
        assert np.array_equal(cache.decoder.z, mu)


# --- reparameterisation -----------------------------------------------------------


def test_reparameterize_collapses_at_tiny_variance():
    l = Latent(np.array([1.0, -2.0]), np.full(2, -60.0))
    z = reparameterize(l, np.random.default_rng(0))
    assert np.allclose(z, l.mu, atol=1e-9)


def test_reparameterize_deterministic_under_seed():
    l = Latent(np.zeros(3), np.zeros(3))
    a = reparameterize(l, np.random.default_rng(42))
    b = reparameterize(l, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_reparameterize_sample_mean():
    l = Latent(np.array([0.3, -0.7]), np.zeros(2))
    rng = np.random.default_rng(5)
    n = 100_000
    draws = np.stack([reparameterize(l, rng) for _ in range(n)])
    tol = 3.0 / math.sqrt(n)  # 3 sigma / sqrt(N) with sigma = 1
    assert np.all(np.abs(draws.mean(axis=0) - l.mu) < tol)


# --- teacher-forced decoding -------------------------------------------------------


def test_decode_tf_structure_minimal_dag():
    m = small_model()
    acts = decoder_forward(m, np.zeros(3), two_node_dag())
    assert acts.type_logits.shape == (3, 7)  # two nodes plus the END step
    assert len(acts.edge_logits) == 1 and acts.edge_logits[0].shape == (1,)
    assert acts.edge_targets[0].tolist() == [1.0]


def test_decode_tf_zero_model_uniform():
    m = zeroed_model()
    acts = decoder_forward(m, np.zeros(2), two_node_dag())
    for t in acts.type_logits:
        assert np.allclose(t, t[0], atol=1e-12)
    assert np.allclose(acts.edge_logits[0], 0.0, atol=1e-12)  # p = 0.5


# --- loss -----------------------------------------------------------------------


def test_loss_zero_model_closed_form():
    m = zeroed_model()
    cfg = DvaeConfig(d_h=6, d_z=2, beta=0.0)
    value, parts, cache = loss(m, two_node_dag(), np.zeros(2), cfg)
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
    noise = np.random.default_rng(3).standard_normal(cfg.d_z)
    grads = backward(m, loss(m, d, noise, cfg)[2])
    err = finite_diff_check(lambda: loss(m, d, noise, cfg)[0], list(m.params().values()), grads)
    assert err <= 1e-4


def test_loss_saturates_towards_zero_on_overfit():
    # as predictions approach the targets, R and E approach zero
    d = to_dag(circ(2, Gate.h(0)))
    cfg = DvaeConfig(d_h=24, d_z=3, epochs=400, lr=5e-3, batch_size=1, seed=2, beta=0.0)
    model, stats = train([d], cfg)
    _, parts, _ = loss(model, d, np.zeros(3), cfg)
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
    _, parts, _ = loss(model, target, np.zeros(cfg.d_z), cfg)
    assert parts.n_type_correct == parts.n_types
    assert parts.n_edge_correct == parts.n_edges


# --- checkpointing ------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = small_model(d_h=9, d_z=4, seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, str(path))
    loaded = load_checkpoint(str(path))
    for (na, a), (nb, b) in zip(m.params().items(), loaded.params().items()):
        assert na == nb
        assert np.array_equal(a.value, b.value), na
    d = to_dag(circ(2, Gate.cx(1, 0)))
    assert np.array_equal(encode_np(m, d).mu, encode_np(loaded, d).mu)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def _saved_lines(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(d_h=4, d_z=2), str(path))
    return path, path.read_text().splitlines()


def test_checkpoint_rejects_missing_tensor(tmp_path):
    path, lines = _saved_lines(tmp_path)
    path.write_text("\n".join(lines[:-2]) + "\n")  # cut at a tensor boundary
    with pytest.raises(ValueError, match="lacks tensors"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncated_tensor(tmp_path):
    path, lines = _saved_lines(tmp_path)
    assert lines[3].startswith("tensor enc.w_z ")
    path.write_text("\n".join(lines[:4]) + "\n")  # header without its values
    with pytest.raises(ValueError, match="ends before"):
        load_checkpoint(str(path))
    path.write_text("\n".join(lines[:4] + [" ".join(lines[4].split()[:5])]) + "\n")
    with pytest.raises(ValueError, match="shape mismatch"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_missing_dim(tmp_path):
    path, lines = _saved_lines(tmp_path)
    path.write_text("\n".join(line for line in lines if not line.startswith("dim d_z")) + "\n")
    with pytest.raises(ValueError, match="lacks dims"):
        load_checkpoint(str(path))


def test_reconstruction_accuracy_range():
    m = small_model(d_h=8, d_z=3, seed=1)
    cfg = DvaeConfig(d_h=8, d_z=3)
    for d in _mixed_corpus(4):
        _, parts, _ = loss(m, d, np.zeros(cfg.d_z), cfg)
        assert 0 <= parts.n_type_correct <= parts.n_types == d.n_nodes + 1
        assert 0 <= parts.n_edge_correct <= parts.n_edges == d.n_nodes * (d.n_nodes - 1) // 2
