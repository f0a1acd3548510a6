import argparse
import json
import re
from dataclasses import fields

import pytest

from qcopt import cli, dvae, harness
from qcopt.agent import ExactAbstraction, greedy_trajectory
from qcopt.circuit import (
    BvSpec,
    Circuit,
    Gate,
    bv_circuit,
    random_icmh_circuit,
    serialize_qasm,
    state_string,
)
from qcopt.cli import config_text, dispatch, load_config
from qcopt.dag import dag_to_debug_text, save_corpus, to_dag
from qcopt.dvae import DvaeConfig, DvaeModel, load_checkpoint, save_checkpoint
from qcopt.harness import HarnessConfig
from qcopt import rewrite
from qcopt.rewrite import apply, enumerate_actions


def test_grad_check_one_dag_passes(capsys):
    assert dispatch(["grad-check", "--dags", "1"]) == 0
    assert "worst:" in capsys.readouterr().out


def test_grad_check_covers_a_mixed_batch(capsys):
    assert dispatch(["grad-check", "--dags", "2", "--d-h", "2"]) == 0
    out = capsys.readouterr().out
    assert "dag 1:" in out and "batch of 2 dags:" in out


def test_verify_small_suite_passes(capsys):
    assert dispatch(["verify", "--circuits", "5"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_verify_draws_every_wire_count_from_two_to_six(monkeypatch, capsys):
    drawn = []

    def recorded(n_wires, n_gates, seed):
        drawn.append(n_wires)
        return random_icmh_circuit(n_wires, n_gates, seed)

    monkeypatch.setattr(cli, "random_icmh_circuit", recorded)
    assert dispatch(["verify", "--circuits", "5"]) == 0
    assert drawn == [2, 3, 4, 5, 6] and "0 failures" in capsys.readouterr().out


def test_verify_draws_the_empty_circuit(monkeypatch, capsys):
    # the action spaces seed CNOT pairs on the empty circuit only, so verify
    # checks those seeds on circuit 0 alone
    seeded = []

    def recorded(c, a):
        if (a.kind, a.direction) == (rewrite.CXCX, rewrite.REVERSE):
            seeded.append((c, a.site))
        return apply(c, a)

    monkeypatch.setattr(cli, "apply", recorded)
    assert dispatch(["verify", "--circuits", "3"]) == 0
    assert "0 failures" in capsys.readouterr().out
    empty = Circuit(2, ())
    assert seeded == [(empty, (0, 1)), (empty, (1, 0))]


def test_unknown_flag_is_usage_error(capsys):
    assert dispatch(["verify", "--no-such-flag"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [(["verify", "--circuits", "0"], "--circuits: must be at least 1, got 0"),
     (["verify", "--circuits", "-3"], "--circuits: must be at least 1, got -3"),
     (["grad-check", "--dags", "0"], "--dags: must be at least 1, got 0"),
     (["verify", "--seed", "-1"], "--seed: must be at least 0, got -1"),
     (["grad-check", "--seed", "-1"], "--seed: must be at least 0, got -1"),
     (["grad-check", "--d-h", "0"], "--d-h: must be at least 1, got 0"),
     (["grad-check", "--d-h", "-2"], "--d-h: must be at least 1, got -2")],
    ids=["verify-0", "verify-negative", "grad-check-0", "verify-seed-negative",
         "grad-check-seed-negative", "grad-check-d-h-0", "grad-check-d-h-negative"],
)
def test_count_below_one_is_usage_error(argv, message, capsys):
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "verified" not in err


def test_verify_fails_when_layered_space_is_not_a_subsequence(monkeypatch, capsys):
    def reordered(c, layered=False, budget=None):
        actions = enumerate_actions(c, layered, budget)
        return actions[::-1] if layered else actions

    monkeypatch.setattr(cli, "enumerate_actions", reordered)
    assert dispatch(["verify", "--circuits", "3"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL layered-subset: ") == 3 and "3 failures" in out


def test_verify_fails_when_the_budget_drops_an_action_within_it(monkeypatch, capsys):
    # one gate short: an action that uses the whole budget is dropped
    def short(c, layered=False, budget=None):
        return enumerate_actions(c, layered, None if budget is None else budget - 1)

    monkeypatch.setattr(cli, "enumerate_actions", short)
    assert dispatch(["verify", "--circuits", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL budget: '' budget " in out and "FAIL layered-subset" not in out


def test_verify_fails_when_the_circuit_walk_encodes_another_circuit(monkeypatch, capsys):
    # a walk that drops the last gate agrees with the training forward on
    # the DAG only on the empty circuit 0, so circuit 1 alone fails
    walk = dvae.hash_cons

    def short_walk(c, nodes):
        return walk(Circuit(c.n_wires, c.gates[:-1]), nodes)

    monkeypatch.setattr(dvae, "hash_cons", short_walk)
    assert dispatch(["verify", "--circuits", "2"]) == 1
    out = capsys.readouterr().out
    second = state_string(random_icmh_circuit(3, 3, 1))
    assert out.count("FAIL ") == 1 and f"FAIL encode-equivalence: {second!r}" in out
    assert "1 failures" in out


def test_train_encoded_truncated_checkpoint_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    save_checkpoint(DvaeModel.create(DvaeConfig(d_h=4, d_z=2)), str(path))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    code = dispatch(["train-encoded", "--model", str(path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


def _doc_edit(edit):
    """A text edit of a checkpoint that applies ``edit`` to its JSON object."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


MALFORMED_CHECKPOINTS = {
    "v1-text": (lambda t: "qcopt-dvae v1\ndim d_h 4\ndim d_z 2\n", "not a qcopt-dvae v2"),
    "not-json": (lambda t: "model weights\n", "not a qcopt-dvae v2"),
    "truncated": (lambda t: t[: len(t) // 2], "not a qcopt-dvae v2"),
    "not-an-object": (lambda t: f"[{t}]", "not a qcopt-dvae v2"),
    # deeper than the interpreter's recursion limit, which the decoder meets
    "deep-nesting": (lambda t: t.replace('"tensors": {', '"tensors": {"w_x": '
                                         + "[" * 5000 + "]" * 5000 + ", ", 1),
                     "nested too deeply"),
    "missing-d_h": (_doc_edit(lambda d: d.pop("d_h")), "d_h must be an integer of at least 1"),
    "zero-d_z": (_doc_edit(lambda d: d.update(d_z=0)), "d_z must be an integer of at least 1"),
    "float-d_h": (_doc_edit(lambda d: d.update(d_h=4.0)), "d_h must be an integer of at least 1"),
    "missing-tensor": (_doc_edit(lambda d: d["tensors"].pop("w_mu")), "missing ['w_mu']"),
    "unknown-tensor": (_doc_edit(lambda d: d["tensors"].update(w_x=[1.0])), "unknown ['w_x']"),
    "wrong-shape": (_doc_edit(lambda d: d["tensors"].update(b_mu=[[0.0, 0.0]])),
                    "tensor 'b_mu' is not a (2,) array of numbers"),
    "non-numeric": (_doc_edit(lambda d: d["tensors"].update(b_mu=[0.0, "1"])),
                    "tensor 'b_mu' is not a (2,) array of numbers"),
    "beyond-float64": (_doc_edit(lambda d: d["tensors"].update(b_mu=[0.0, 10**400])),
                       "tensor 'b_mu' holds a number beyond float64"),
    "no-tensors": (_doc_edit(lambda d: d.pop("tensors")), "checkpoint lacks its tensors object"),
    "nan-tensor": (_doc_edit(lambda d: d["tensors"]["w_type"][0].__setitem__(0, float("nan"))),
                   "tensor 'w_type' holds a value that is not finite"),
    "inf-tensor": (_doc_edit(lambda d: d["tensors"].update(w_mu=[[float("inf")] * 4] * 2)),
                   "tensor 'w_mu' holds a value that is not finite"),
    # a model of the claimed dims would take 7.28 TiB: the shapes must be
    # checked without allocating it
    "huge-d_h": (_doc_edit(lambda d: d.update(d_h=1000000)),
                 "tensor 'enc.w_z' is not a (1000000, 6) array of numbers"),
    # no numpy array, even a zero-stride one, takes a dimension this large
    "beyond-numpy-d_h": (_doc_edit(lambda d: d.update(d_h=10**30)),
                         f"checkpoint d_h {10**30}, d_z 2 give shapes beyond numpy's limits"),
}


@pytest.mark.parametrize(
    "edit, message", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS.keys()
)
def test_train_encoded_rejects_a_malformed_checkpoint(tmp_path, capsys, edit, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(DvaeModel.create(DvaeConfig(d_h=4, d_z=2)), str(path))
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(str(path))
    # the config's dims match the file's, so only the file can fail
    argv = ["train-encoded", "--model", str(path), "--d-h", "4", "--d-z", "2",
            "--out", str(tmp_path / "run")]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_train_encoded_checkpoint_dims_must_match_config(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    save_checkpoint(DvaeModel.create(DvaeConfig(d_h=8, d_z=3)), str(path))
    code = dispatch(["train-encoded", "--model", str(path), "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "d_h 8, d_z 3" in err
    assert not (tmp_path / "run").exists()
    argv = ["train-encoded", "--model", str(path), "--out", str(tmp_path / "run"),
            "--d-h", "8", "--d-z", "3", "--epochs", "2"]
    assert dispatch(argv) == 0
    text = (tmp_path / "run" / "config.txt").read_text()
    assert "dvae_d_h = 8\n" in text and "dvae_d_z = 3\n" in text


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
def test_train_vae_rejects_an_empty_corpus_file(tmp_path, capsys, text):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text)
    argv = ["train-vae", "--corpus", str(corpus), "--out", str(tmp_path / "run")]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == "error: corpus is empty\n"
    assert not (tmp_path / "run").exists()


def test_train_vae_trains_on_a_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    save_corpus([to_dag(random_icmh_circuit(2, 4, s)) for s in range(3)], str(corpus))
    argv = ["train-vae", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
            "--vae-epochs", "1", "--d-h", "4", "--d-z", "2"]
    assert dispatch(argv) == 0
    assert "trained on 3 of 3 DAGs" in capsys.readouterr().out
    assert (tmp_path / "run" / "model.ckpt").is_file()


def test_train_vae_divergence_is_an_error_and_leaves_no_run_directory(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    save_corpus([to_dag(random_icmh_circuit(2, 4, s)) for s in range(8)], str(corpus))
    argv = ["train-vae", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
            "--vae-lr", "1e9", "--vae-epochs", "3", "--d-h", "4", "--d-z", "2"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: loss diverged at epoch ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "exc, err",
    [(MemoryError(), "error: MemoryError\n"),
     (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB\n")],
    ids=["bare", "numpy-message"],
)
def test_train_vae_out_of_memory_is_an_error_and_leaves_no_run_directory(
    tmp_path, capsys, monkeypatch, exc, err
):
    # raised, not provoked: a real huge allocation could exhaust a host
    # that overcommits memory
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(harness, "train_encoder_from_corpus", out_of_memory)
    corpus = tmp_path / "corpus.txt"
    save_corpus([to_dag(random_icmh_circuit(2, 4, 0))], str(corpus))
    argv = ["train-vae", "--corpus", str(corpus), "--out", str(tmp_path / "run")]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "edit, violation",
    [(("edge 2 3\n", "edge 3 2\n"), "edge (3, 2) does not go forward"),
     (("edge 2 3\n", "edge 2 3\nedge 0 2\n"), "parallel edge (0, 2)"),
     (("node 2 hadamard\n", "node 2 toffoli\n"), "unknown node type 'toffoli'"),
     (("node 4 output\n", "node 5 output\n"), "node ids must be dense and ordered, expected 4"),
     (("edge 2 3\n", "edge 2 3\nedge 2 9\n"), "edge (2, 9) references unknown node")],
    ids=["backward-edge", "parallel-edge", "unknown-type", "sparse-ids", "unknown-node"],
)
def test_train_vae_rejects_an_invalid_dag(tmp_path, capsys, edit, violation):
    good = dag_to_debug_text(to_dag(random_icmh_circuit(2, 4, 0)))
    bad = dag_to_debug_text(to_dag(Circuit(1, (Gate.h(0),))))
    assert edit[0] in bad
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(good + "\n" + bad.replace(*edit) + "\n")
    code = dispatch(["train-vae", "--corpus", str(corpus), "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}: DAG block 2: ") and violation in err
    assert not (tmp_path / "run").exists()


def test_train_vae_rejects_dags_no_circuit_makes(tmp_path, capsys):
    # a ctrl_op node on one wire, then a lone hadamard node: each node's
    # in- and out-degree balance, but not at its type's degrees
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "node 0 input\nnode 1 ctrl_op\nnode 2 output\nedge 0 1\nedge 1 2\n\n"
        "node 0 hadamard\n"
    )
    argv = ["train-vae", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
            "--vae-epochs", "1", "--d-h", "4", "--d-z", "2"]
    assert dispatch(argv) == 1
    out, err = capsys.readouterr()
    assert err == (f"error: {corpus}: DAG block 1: invalid DAG: "
                   "ctrl_op node 1 has degree (1, 1)\n")
    assert "trained on" not in out
    assert not (tmp_path / "run").exists()


def test_gen_bv_writes_only_the_qasm_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bv.qasm"
    assert dispatch(["gen-bv", "--n", "3", "--secret", "5", "--out", str(out)]) == 0
    assert out.read_text() == serialize_qasm(bv_circuit(BvSpec(3, 5)))
    assert [p.name for p in tmp_path.iterdir()] == ["bv.qasm"]


def test_phases_chain_through_their_files(tmp_path, capsys):
    # each phase reads the file the phase before it wrote
    base, vae, enc = tmp_path / "base", tmp_path / "vae", tmp_path / "enc"
    assert dispatch(["train-baseline", "--epochs", "5", "--out", str(base)]) == 0
    # the summary gives the greedy rollout of the table just written
    last = capsys.readouterr().out.splitlines()[-1]
    pattern = r"l_s = \d+, best depth = \d+, greedy (\d+) steps to depth (\d+), corpus -> (.+)"
    found = re.fullmatch(pattern, last)
    spec = BvSpec(2, 0b11)
    cfg = harness.benchmark_agent_config(spec, 5, 0)
    table = harness.run_baseline(spec, cfg).qtable
    steps = greedy_trajectory(bv_circuit(spec), table, ExactAbstraction(), cfg)
    assert found and found[3] == f"{base}/corpus.txt"
    assert (int(found[1]), int(found[2])) == (len(steps), steps[-1].depth)
    argv = ["train-vae", "--corpus", str(base / "corpus.txt"), "--vae-epochs", "1",
            "--corpus-cap", "10", "--d-h", "4", "--d-z", "2", "--out", str(vae)]
    assert dispatch(argv) == 0
    assert sorted(p.name for p in vae.iterdir()) == ["config.txt", "model.ckpt"]
    # the phase-2 config supplies the checkpoint's dims
    argv = ["train-encoded", "--config", str(vae / "config.txt"), "--model",
            str(vae / "model.ckpt"), "--epochs", "5", "--out", str(enc)]
    assert dispatch(argv) == 0
    assert sorted(p.name for p in enc.iterdir()) == ["config.txt", "qtable.tsv"]
    # every key comes from one graph state's latent, so l_a cannot exceed their count
    last = capsys.readouterr().out.splitlines()[-1]
    pattern = r"l_a = (\d+), best depth = \d+, greedy \d+ steps to depth \d+, (\d+) graph states"
    found = re.fullmatch(pattern, last)
    assert found and 1 <= int(found[1]) <= int(found[2])


@pytest.mark.parametrize(
    "argv, message",
    [(["compare", "--seeds", "0"], "'seeds' must be at least 1, got 0"),
     (["compare", "--seeds", "-2"], "'seeds' must be at least 1, got -2"),
     (["compare", "--n", "3", "--bin-width", "0"], "bin_width and lr must be positive"),
     (["compare", "--corpus-cap", "0"], "'corpus_cap' must be at least 1, got 0"),
     (["train-baseline", "--epochs", "0"], "epochs and max_gates must be positive"),
     (["train-vae", "--d-h", "0"], "dimensions, epochs and batch size must be positive"),
     (["train-baseline", "--seed", "-1"], "'seed' must be at least 0, got -1"),
     (["compare", "--beta", "-1"], "beta must be non-negative"),
     (["compare", "--bin-width", "nan"], "lr, beta and bin_width must be finite"),
     (["compare", "--bin-width", "inf"], "lr, beta and bin_width must be finite"),
     (["train-vae", "--vae-lr", "nan"], "lr, beta and bin_width must be finite"),
     (["train-vae", "--vae-lr", "inf"], "lr, beta and bin_width must be finite"),
     (["compare", "--beta", "nan"], "lr, beta and bin_width must be finite"),
     (["compare", "--beta", "inf"], "lr, beta and bin_width must be finite")],
    ids=["seeds-0", "seeds-negative", "bin-width-0", "corpus-cap-0", "epochs-0", "d-h-0",
         "seed-negative", "beta-negative", "bin-width-nan", "bin-width-inf", "vae-lr-nan",
         "vae-lr-inf", "beta-nan", "beta-inf"],
)
def test_bad_setting_fails_before_any_work(tmp_path, monkeypatch, capsys, argv, message):
    def no_phase(*args):
        raise AssertionError("a phase ran")

    monkeypatch.setattr(harness, "run_baseline", no_phase)
    corpus = tmp_path / "corpus.txt"
    save_corpus([to_dag(random_icmh_circuit(2, 4, 0))], str(corpus))
    extra = ["--corpus", str(corpus)] if argv[0] == "train-vae" else []
    assert dispatch(argv + extra + ["--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run").exists()


EVERY_KEY = dict(
    n=3, secret=5, epochs=7, seeds=2, seed=4, out_dir="runs/#1", corpus_cap=9,
    dvae_d_h=5, dvae_d_z=3, dvae_epochs=2, dvae_lr=0.01, dvae_batch=4,
    dvae_beta=0.25, bin_width=0.125,
)


@pytest.mark.parametrize("overrides", [{}, EVERY_KEY], ids=["defaults", "every-key"])
def test_config_text_reads_back(tmp_path, overrides):
    assert set(EVERY_KEY) == {f.name for f in fields(HarnessConfig)}
    cfg = load_config(None, overrides)
    path = tmp_path / "config.txt"
    path.write_text(config_text(cfg))
    assert load_config(str(path), {}) == cfg


def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices[name]


@pytest.mark.parametrize(
    "command, required",
    [("train-baseline", []), ("train-vae", ["--corpus", "corpus.txt"]),
     ("train-encoded", ["--model", "model.ckpt"]), ("compare", [])],
    ids=["train-baseline", "train-vae", "train-encoded", "compare"],
)
def test_every_config_field_has_one_typed_flag_with_help(command, required):
    # a HarnessConfig field added without a flag in cli.FLAGS fails here
    parser = _subcommand_parser(command)
    text = parser.format_help()
    for f in fields(HarnessConfig):
        actions = [a for a in parser._actions if a.dest == f.name]
        assert len(actions) == 1, f.name
        (flag,) = actions[0].option_strings
        assert actions[0].help and actions[0].help in text, f.name
        value = getattr(parser.parse_args([flag, str(EVERY_KEY[f.name])] + required), f.name)
        assert value == EVERY_KEY[f.name] and type(value) is type(EVERY_KEY[f.name]), f.name


@pytest.mark.parametrize(
    "text, message",
    [(None, "config file not found: "),
     ("n = 3\nepochs 9\n", ":2: expected 'key = value'"),
     ("n = two\n", "config key 'n' expects an integer, got 'two'"),
     ("dvae_lr = fast\n", "config key 'dvae_lr' expects a number, got 'fast'")],
    ids=["missing-file", "no-equals", "int-not-a-number", "float-not-a-number"],
)
def test_bad_config_file_fails_before_any_work(tmp_path, capsys, text, message):
    cfg_file = tmp_path / "run.cfg"
    if text is not None:
        cfg_file.write_text(text)
    argv = ["train-baseline", "--config", str(cfg_file), "--out", str(tmp_path / "run")]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run").exists()


def test_flags_override_file_override_defaults(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# BV3, short\nn = 3\nepochs = 9\ndvae_d_h = 7\n")
    out = tmp_path / "run"
    argv = ["train-baseline", "--config", str(cfg_file), "--epochs", "4", "--d-h", "5",
            "--out", str(out)]
    assert dispatch(argv) == 0
    # the secret and the episode budget are resolved before they are echoed
    assert load_config(str(out / "config.txt"), {}) == HarnessConfig(
        n=3, secret=7, epochs=4, dvae_d_h=5, out_dir=str(out)
    )


def test_unknown_config_key_names_file_and_line(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n = 2\nd_h = 4\n")
    assert dispatch(["gen-bv", "--config", str(cfg_file)]) == 1
    assert f"{cfg_file}:2: unknown config key 'd_h'" in capsys.readouterr().err


def test_compare_smoke_writes_requested_secret(tmp_path, capsys):
    # BV3 with secret 0b011 starts at depth 4, so every phase has work to do
    out = tmp_path / "cmp"
    argv = ["compare", "--n", "3", "--secret", "3", "--epochs", "5", "--seeds", "1",
            "--vae-epochs", "1", "--corpus-cap", "10", "--out", str(out)]
    assert dispatch(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config.txt", "report.txt", "run.json"]
    text = (out / "run.json").read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    [cell] = json.loads(text)["cells"]
    assert [cell[k] for k in ("bv_size", "secret", "epochs", "seed")] == [3, 3, 5, 0]
    assert cell["l_s"] > 1  # the agent left the start state
    # both agents' traces, one (final, best) depth pair per episode
    for trace in (cell["baseline_trace"], cell["encoded_trace"]):
        assert len(trace) == cell["epochs"] and all(len(pair) == 2 for pair in trace)
    assert (out / "report.txt").is_file()
    cfg = load_config(str(out / "config.txt"), {})
    assert cfg.secret == 3
    # the record holds the cell that the harness computes for the same config
    ref = harness.run_cell(cfg, 0)
    assert (cell["l_s"], cell["l_a"]) == (ref.l_s, ref.l_a)
    assert (cell["baseline_greedy"], cell["encoded_greedy"]) == (
        list(ref.baseline_greedy), list(ref.encoded_greedy)
    )
