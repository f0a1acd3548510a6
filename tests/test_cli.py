from qcopt.cli import dispatch
from qcopt.dvae import DvaeConfig, DvaeModel, save_checkpoint


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
