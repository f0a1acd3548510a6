"""Determinism gate: fixed-seed runs of the three phases on BV2 reproduce
pinned digests, so a change that alters any Q-table or checkpoint byte shows
up here."""

import hashlib

import pytest

from qcopt.agent import qtable_to_tsv
from qcopt.circuit import BvSpec
from qcopt.harness import (
    HarnessConfig,
    benchmark_agent_config,
    dvae_config,
    run_baseline,
    run_encoded,
    train_encoder_from_corpus,
)

SPEC = BvSpec(2, 0b11)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def harvest():
    return run_baseline(SPEC, benchmark_agent_config(SPEC, 100, 0))


@pytest.fixture(scope="module")
def encoder(harvest, tmp_path_factory):
    path = tmp_path_factory.mktemp("vae") / "model.ckpt"
    cfg = dvae_config(HarnessConfig(dvae_epochs=1), 0)
    model, stats = train_encoder_from_corpus(harvest.corpus, cfg, 20, str(path))
    return model, stats, path


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
    _, stats, path = encoder
    assert len(stats) == 1
    assert sha256(path.read_bytes()) == (
        "731867ba27b9a14ba48e268ccf7074877cce429dc266535aad068330cce9b9b0"
    )
    meta = path.with_name(path.name + ".meta.json")
    assert sha256(meta.read_bytes()) == (
        "91b3dc81901e1bafd232d608259e60c62be202838f9faec95de5c40b6a2d48a3"
    )


def test_encoded_qtable_pinned(encoder):
    model, _, _ = encoder
    result = run_encoded(SPEC, model, benchmark_agent_config(SPEC, 100, 0), 0.5)
    assert sha256(qtable_to_tsv(result.qtable).encode()) == (
        "1caac6aa0b1250431b27d22ce8ea08d63e66d8bbbbb669c5fb743f7575832092"
    )
