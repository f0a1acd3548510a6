from dataclasses import fields

import pytest

from qcopt.cli import config_text, dispatch, load_config
from qcopt.dvae import DvaeConfig, DvaeModel, save_checkpoint
from qcopt.harness import HarnessConfig


def test_grad_check_one_dag_passes(capsys):
    assert dispatch(["grad-check", "--dags", "1"]) == 0
    assert "worst:" in capsys.readouterr().out


def test_verify_small_suite_passes(capsys):
    assert dispatch(["verify", "--circuits", "5"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert dispatch(["verify", "--no-such-flag"]) == 2


def test_train_encoded_truncated_checkpoint_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    save_checkpoint(DvaeModel.create(DvaeConfig(d_h=4, d_z=2)), str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    code = dispatch(["train-encoded", "--model", str(path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


EVERY_KEY = dict(
    n=3, secret=5, epochs=7, seeds=2, seed=4, out_dir="runs/x", corpus_cap=9,
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
    row = (out / "states.csv").read_text().splitlines()[1].split(",")
    assert row[:4] == ["3", "3", "5", "0"]
    assert int(row[4]) > 1  # l_s: the agent left the start state
    assert (out / "depth_trace.csv").is_file() and (out / "report.txt").is_file()
    assert load_config(str(out / "config.txt"), {}).secret == 3
