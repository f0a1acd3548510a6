"""Determinism gate: fixed-seed runs of the three phases on BV2 reproduce
pinned digests, so a change that alters any Q-table or checkpoint byte shows
up here."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from qcopt import agent, dag, harness
from qcopt.agent import qtable_to_tsv
from qcopt.circuit import BvSpec
from qcopt.dvae import load_checkpoint
from qcopt.harness import (
    HarnessConfig,
    benchmark_agent_config,
    dvae_config,
    run_baseline,
    run_encoded,
    train_encoder_from_corpus,
)

SPEC = BvSpec(2, 0b11)
# the phase-3 Q-table at bin width 1e-4, where the keys split the table
FINE_BIN_QTABLE_SHA = "8f0d9c3c2a04f4bcfa8c0173343d924d0cf55da5e6d31cabf079705c71d26392"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def params_digest(model) -> str:
    """sha256 over each parameter's name, shape and float64 bytes: the
    trained values, whatever the checkpoint file format."""
    digest = hashlib.sha256()
    for name, p in model.params().items():
        digest.update(name.encode())
        digest.update(repr(p.value.shape).encode())
        digest.update(np.ascontiguousarray(p.value, dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def harvest():
    return run_baseline(SPEC, benchmark_agent_config(SPEC, 100, 0))


@pytest.fixture(scope="module")
def encoder(harvest, tmp_path_factory):
    path = tmp_path_factory.mktemp("vae") / "model.ckpt"
    cfg = dvae_config(HarnessConfig(dvae_epochs=1), 0)
    model, stats = train_encoder_from_corpus(harvest.corpus, cfg, 20, str(path))
    return model, stats, path, cfg


def test_baseline_qtable_pinned():
    result = run_baseline(SPEC, benchmark_agent_config(SPEC, 200, 0))
    assert result.l_s == 3160
    assert sha256(qtable_to_tsv(result.qtable).encode()) == (
        "155ae00613e9bf4d1d8838da2f2af4545441cb52f988e8697e922de3bb31dd55"
    )


def test_harvest_qtable_pinned(harvest):
    assert harvest.l_s == len(harvest.corpus) == 2320
    assert sha256(qtable_to_tsv(harvest.qtable).encode()) == (
        "9478c606fb23834cbebcace910bfd210f29355ac1e798a6db3ed2bc91f576c88"
    )


def test_encoder_checkpoint_pinned(encoder):
    model, stats, path, cfg = encoder
    assert len(stats) == 1
    assert [p.name for p in path.parent.iterdir()] == ["model.ckpt"]
    assert sha256(path.read_bytes()) == (
        "f3dcc24879d6eced13e4f8657f541c4c8aeb237a83003fe48ca45f25d47bcc2f"
    )
    assert params_digest(model) == params_digest(load_checkpoint(str(path))) == (
        "6d5d3381d684862217a0c1a81f5636f8e4ff970c33abfdb1729b047abf0c7bc9"
    )
    doc = json.loads(path.read_text())
    assert doc["config"] == asdict(cfg) and len(doc["corpus_hash"]) == 64
    assert doc["final_loss"] == stats[-1].mean_loss


def test_encoded_qtable_pinned(encoder):
    model, _, _, _ = encoder
    result = run_encoded(SPEC, model, benchmark_agent_config(SPEC, 100, 0), 0.5)
    assert sha256(qtable_to_tsv(result.qtable).encode()) == (
        "1caac6aa0b1250431b27d22ce8ea08d63e66d8bbbbb669c5fb743f7575832092"
    )


def test_encoded_qtable_pinned_at_a_fine_bin(encoder):
    # at bin 0.5 every state shares one key (l_a = 1), so that pin cannot see
    # a state given another state's key; at bin 1e-4 the keys split the table
    model, _, _, _ = encoder
    result = run_encoded(SPEC, model, benchmark_agent_config(SPEC, 100, 0), 1e-4)
    assert result.l_a == 226
    assert sha256(qtable_to_tsv(result.qtable).encode()) == FINE_BIN_QTABLE_SHA


def test_encoded_run_builds_no_dag(encoder, monkeypatch):
    # phase 3 encodes each circuit by walking its wires; no DAG is built
    def no_dag(c):
        raise AssertionError("phase 3 built a DAG")

    for module in (dag, agent, harness):
        monkeypatch.setattr(module, "to_dag", no_dag)
    model, _, _, _ = encoder
    result = run_encoded(SPEC, model, benchmark_agent_config(SPEC, 100, 0), 1e-4)
    assert result.l_a == 226
    assert sha256(qtable_to_tsv(result.qtable).encode()) == FINE_BIN_QTABLE_SHA
