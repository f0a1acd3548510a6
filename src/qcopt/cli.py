"""Command-line front end: generation, training, comparison, verification.

Subcommands:
    gen-bv          write an unoptimised Bernstein-Vazirani circuit as QASM
    train-baseline  phase 1: exact-representation agent + corpus harvest
    train-vae       phase 2: autoencoder on a harvested corpus
    train-encoded   phase 3: agent with quantised-latent states
    compare         all three phases over several seeds, with CSV artifacts
    verify          template-soundness and DAG-validity property suite
    grad-check      finite-difference check of the autoencoder loss

Settings come from defaults, then an optional flat `key = value` config
file, then command-line flags (later wins).  Every run directory receives
the fully resolved configuration as `config.txt`, which `--config` reads
back, so a run can be reproduced byte-exactly.  The keys are the fields of
`harness.HarnessConfig`, each with the flag that sets it:

    n             --n            data-wire count of the BV instance
    secret        --secret       hidden bit string (default all ones)
    epochs        --epochs       episodes per agent (default per size)
    seeds         --seeds        compare runs seeds 0 .. seeds-1
    seed          --seed         seed of the single-phase subcommands
    out_dir       --out          output directory
    corpus_cap    --corpus-cap   DAGs sampled from the corpus for phase 2
    dvae_d_h      --d-h          autoencoder hidden width
    dvae_d_z      --d-z          latent width
    dvae_epochs   --vae-epochs   autoencoder training epochs
    dvae_lr       --vae-lr       Adam learning rate
    dvae_batch    --vae-batch    mini-batch size
    dvae_beta     --beta         KL weight
    bin_width     --bin-width    latent quantisation step

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import harness
from .agent import qtable_to_tsv
from .circuit import (
    bv_circuit,
    depth,
    random_icmh_circuit,
    serialize_qasm,
    state_string,
    unitary,
)
from .dag import dag_from_debug_text, to_dag, validate
from .dvae import DvaeConfig, DvaeModel, backward, load_checkpoint, loss
from .harness import HarnessConfig
from .nn import finite_diff_check
from .rewrite import enumerate_actions, apply

OUT_ROOT_ENV = "QCOPT_OUT_ROOT"


class ConfigError(ValueError):
    pass


_FIELD_TYPES = {f.name: f for f in fields(HarnessConfig)}


def _parse_value(key: str, raw: str):
    field = _FIELD_TYPES[key]
    raw = raw.strip()
    if field.type in ("int", "int | None"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects an integer, got {raw!r}")
    if field.type == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects a number, got {raw!r}")
    return raw


def load_config(path: str | None, overrides: dict) -> HarnessConfig:
    """Defaults, overridden by the config file, overridden by flags; the
    default secret and episode budget are then filled in for the size."""
    cfg = HarnessConfig()
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _FIELD_TYPES:
                    raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
                cfg = replace(cfg, **{key: _parse_value(key, value)})
    unknown = set(overrides) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return replace(cfg, secret=cfg.bv_spec().secret, epochs=cfg.resolved_epochs())


def config_text(cfg: HarnessConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(HarnessConfig)]
    return "\n".join(lines) + "\n"


def _out_dir(cfg: HarnessConfig, fallback: str) -> str:
    if cfg.out_dir:
        return cfg.out_dir
    root = os.environ.get(OUT_ROOT_ENV, "runs")
    return os.path.join(root, fallback)


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _echo_config(cfg: HarnessConfig, out_dir: str):
    _write(os.path.join(out_dir, "config.txt"), config_text(cfg))


# --- subcommands -----------------------------------------------------------------


def cmd_gen_bv(cfg: HarnessConfig, args) -> int:
    circuit = bv_circuit(cfg.bv_spec())
    text = serialize_qasm(circuit)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out} ({len(circuit)} gates, depth {depth(circuit)})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_train_baseline(cfg: HarnessConfig, args) -> int:
    spec = cfg.bv_spec()
    out = _out_dir(cfg, f"bv{cfg.n}-baseline-seed{cfg.seed}")
    agent_cfg = harness.benchmark_agent_config(spec, cfg.epochs, cfg.seed)
    result = harness.run_baseline(spec, agent_cfg)
    os.makedirs(out, exist_ok=True)
    _echo_config(cfg, out)
    _write(os.path.join(out, "qtable.tsv"), qtable_to_tsv(result.qtable))
    harness.save_corpus(result.corpus, os.path.join(out, "corpus.txt"))
    best = min(t.best_depth for t in result.traces)
    print(f"l_s = {result.l_s}, best depth = {best}, corpus -> {out}/corpus.txt")
    return 0


def cmd_train_vae(cfg: HarnessConfig, args) -> int:
    with open(args.corpus, encoding="utf-8") as fh:
        blocks = [b for b in fh.read().split("\n\n") if b.strip()]
    corpus = [dag_from_debug_text(b) for b in blocks]
    out = _out_dir(cfg, "vae")
    os.makedirs(out, exist_ok=True)
    _echo_config(cfg, out)
    ckpt = os.path.join(out, "model.ckpt")
    model, stats = harness.train_encoder_from_corpus(
        corpus,
        harness.dvae_config(cfg, cfg.seed),
        cfg.corpus_cap,
        checkpoint_path=ckpt,
    )
    print(
        f"trained on {min(len(corpus), cfg.corpus_cap)} of {len(corpus)} DAGs; "
        f"final loss {stats[-1].mean_loss:.4f}, accuracy {stats[-1].accuracy:.4f}; "
        f"checkpoint -> {ckpt}"
    )
    return 0


def cmd_train_encoded(cfg: HarnessConfig, args) -> int:
    spec = cfg.bv_spec()
    out = _out_dir(cfg, f"bv{cfg.n}-encoded-seed{cfg.seed}")
    model = load_checkpoint(args.model)
    agent_cfg = harness.benchmark_agent_config(spec, cfg.epochs, cfg.seed)
    result = harness.run_encoded(spec, model, agent_cfg, cfg.bin_width)
    os.makedirs(out, exist_ok=True)
    _echo_config(cfg, out)
    _write(os.path.join(out, "qtable.tsv"), qtable_to_tsv(result.qtable))
    best = min(t.best_depth for t in result.traces)
    print(f"l_a = {result.l_a}, best depth = {best}")
    return 0


def cmd_compare(cfg: HarnessConfig, args) -> int:
    out = _out_dir(cfg, f"bv{cfg.n}-compare")
    reports = harness.run_benchmark(cfg)
    harness.write_artifacts(reports, out)
    _echo_config(cfg, out)
    sys.stdout.write(harness.report_text(reports))
    print(f"artifacts -> {out}/states.csv, depth_trace.csv, report.txt")
    return 0


def cmd_verify(args) -> int:
    n_circuits = args.circuits
    rng_base = args.seed
    failures = 0
    checked_actions = 0
    for i in range(n_circuits):
        c = random_icmh_circuit(2 + i % 3, 2 + i % 11, rng_base + i)
        u = unitary(c)
        d = to_dag(c)
        if validate(d):
            failures += 1
            print(f"FAIL dag-validity: {state_string(c)!r}")
            continue
        for a in enumerate_actions(c):
            out = apply(c, a)
            checked_actions += 1
            if not np.allclose(u, unitary(out), atol=1e-9):
                failures += 1
                print(f"FAIL soundness: {state_string(c)!r} action {a}")
    print(
        f"verified {n_circuits} circuits, {checked_actions} actions, "
        f"{failures} failures"
    )
    return 0 if failures == 0 else 1


def cmd_grad_check(args) -> int:
    cfg = DvaeConfig(d_h=args.d_h, d_z=3, seed=args.seed, beta=0.005)
    model = DvaeModel.create(cfg)
    params = list(model.params().values())
    worst = 0.0
    rng = np.random.default_rng(args.seed)
    for i in range(args.dags):
        dag = to_dag(random_icmh_circuit(2, 2 + i, args.seed + i))
        noise = rng.standard_normal(cfg.d_z)
        grads = backward(model, loss(model, dag, noise, cfg)[2])
        err = finite_diff_check(lambda: loss(model, dag, noise, cfg)[0], params, grads)
        print(f"dag {i}: max relative gradient error {err:.3e}")
        worst = max(worst, err)
    print(f"worst: {worst:.3e} (tolerance 1e-4)")
    return 0 if worst <= 1e-4 else 1


# --- argument parsing ----------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value settings file")
    p.add_argument("--n", type=int, help="data-wire count of the BV instance")
    p.add_argument("--secret", type=int, help="hidden bit string (default all ones)")
    p.add_argument("--epochs", type=int, help="episodes per agent")
    p.add_argument("--seed", type=int, help="seed for single runs")
    p.add_argument("--seeds", type=int, help="seed count for compare")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--corpus-cap", dest="corpus_cap", type=int)
    p.add_argument("--d-h", dest="dvae_d_h", type=int)
    p.add_argument("--d-z", dest="dvae_d_z", type=int)
    p.add_argument("--vae-epochs", dest="dvae_epochs", type=int)
    p.add_argument("--vae-lr", dest="dvae_lr", type=float)
    p.add_argument("--vae-batch", dest="dvae_batch", type=int)
    p.add_argument("--beta", dest="dvae_beta", type=float)
    p.add_argument("--bin-width", dest="bin_width", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcopt",
        description="RL circuit optimisation with an autoencoder-compressed Q-table",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bv", help="write a Bernstein-Vazirani circuit")
    p.add_argument("--config", help="flat key = value settings file")
    p.add_argument("--n", type=int)
    p.add_argument("--secret", type=int)
    p.add_argument("--out", dest="qasm_out")

    for name in ("train-baseline", "train-encoded", "compare"):
        p = sub.add_parser(name)
        _add_config_flags(p)
        if name == "train-encoded":
            p.add_argument("--model", required=True, help="autoencoder checkpoint")

    p = sub.add_parser("train-vae")
    _add_config_flags(p)
    p.add_argument("--corpus", required=True, help="DAG corpus file")

    p = sub.add_parser("verify", help="soundness and validity property suite")
    p.add_argument("--circuits", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    p.add_argument("--dags", type=int, default=3)
    p.add_argument("--d-h", dest="d_h", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "grad-check":
            return cmd_grad_check(args)

        overrides = {k: getattr(args, k, None) for k in _FIELD_TYPES}
        if args.command == "gen-bv":
            overrides["out_dir"] = None
        cfg = load_config(args.config, overrides)
        if args.command == "gen-bv":
            args.out = args.qasm_out
            return cmd_gen_bv(cfg, args)
        if args.command == "train-baseline":
            return cmd_train_baseline(cfg, args)
        if args.command == "train-vae":
            return cmd_train_vae(cfg, args)
        if args.command == "train-encoded":
            return cmd_train_encoded(cfg, args)
        if args.command == "compare":
            return cmd_compare(cfg, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
