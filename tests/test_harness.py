"""Determinism gate: fixed-seed runs of the three phases on BV2, and of phase
1 on BV3, reproduce pinned digests, so a change that alters any Q-table,
harvested corpus or checkpoint byte shows up here."""

import hashlib
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from qcopt import agent, dag, harness
from qcopt.agent import qtable_to_tsv
from qcopt.circuit import BvSpec
from qcopt.dvae import load_checkpoint
from qcopt.harness import (
    BenchmarkReport,
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


def test_harvest_corpus_pinned(harvest):
    # every harvested DAG, not only the 20 sampled into the checkpoint
    assert harness.corpus_hash(harvest.corpus) == (
        "70d107c35a7a6807eac139bf6712118dfb7b8e0326a96b504df9707a9da8e7be"
    )


def test_bv3_baseline_qtable_and_corpus_pinned():
    # the exact_bv3 benchmark's sub-seed-0 run
    spec = BvSpec(3, 0b111)
    result = run_baseline(spec, benchmark_agent_config(spec, 100, 0))
    assert result.l_s == len(result.corpus) == 3256
    assert sha256(qtable_to_tsv(result.qtable).encode()) == (
        "e6806dbb4c236fc375684864c125b01b2ca7dd69bb049b759e7145155cb3b6ec"
    )
    assert harness.corpus_hash(result.corpus) == (
        "2f952680444e6eba25c361eb3cfd4f76f60256b8bdf5cc937d647204fcf48506"
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


# --- report ---------------------------------------------------------------------


def _cell(size, seed):
    return BenchmarkReport(size, 1, 2, seed, 10, 4, [(5, 4), (4, 3)], [(4, 3), (3, 3)],
                           (6, 3), (7, 3))


def test_run_json_holds_every_report_field_in_size_seed_order():
    text = harness.run_json([_cell(3, 0), _cell(2, 1), _cell(2, 0)])
    record = json.loads(text)
    assert text == json.dumps(record, sort_keys=True) + "\n"
    assert list(record) == ["cells"]
    assert [(c["bv_size"], c["seed"]) for c in record["cells"]] == [(2, 0), (2, 1), (3, 0)]
    assert set(record["cells"][0]) == {f.name for f in fields(BenchmarkReport)}
    # each fact once: the improvement is worked out from l_s and l_a
    assert BenchmarkReport(**record["cells"][0]).improvement == 0.6


def test_report_rows_give_each_agents_greedy_rollout():
    row = harness.report_text([_cell(2, 0)]).splitlines()[3]
    assert row.split() == ["2", "2", "0", "10", "4", "60.00%", "6", "to", "3", "7", "to", "3"]


def test_report_reference_note_is_computed_from_the_table():
    printed, recomputed = harness.report_text([]).splitlines()[-2:]
    printed = printed.removesuffix(" from the reference state counts gives").split("/")
    recomputed = recomputed.removesuffix(")").split("/")
    rows = list(harness.REFERENCE_TABLE.values())
    assert len(printed) == len(recomputed) == len(rows)
    for shown, figure, (_, l_s, l_a, improvement) in zip(printed, recomputed, rows):
        assert shown + "%" == improvement
        assert figure == f"{float(figure):.2f}"
        assert abs(float(figure) - 100 * (l_s - l_a) / l_s) <= 0.005
    # the note as the report has always printed it
    assert "/".join(printed) == "45.6/31.02/18.49/19.02"
    assert "/".join(recomputed) == "45.60/31.03/18.49/19.21"
