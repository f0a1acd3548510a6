"""Command-line front end: generation, training, comparison, verification.

Subcommands, with the files each writes:
    gen-bv          an unoptimised Bernstein-Vazirani circuit as QASM, to
                    the --out file or to stdout; no run directory
    train-baseline  phase 1, the exact-representation agent and its corpus
                    harvest: config.txt, qtable.tsv, corpus.txt
    train-vae       phase 2, the autoencoder on a --corpus file: config.txt,
                    model.ckpt (one JSON object: tensors, config, corpus
                    hash, final loss, accuracy and discrete edit)
    train-encoded   phase 3, an agent with quantised-latent states from a
                    --model checkpoint: config.txt, qtable.tsv
    compare         all three phases over several seeds: config.txt,
                    run.json (one JSON object: each cell's state counts,
                    depth traces and greedy rollouts), report.txt
    verify          template-soundness, layered-subset, gate-budget,
                    DAG-validity and encode-equivalence suite; writes nothing
    grad-check      finite-difference check of the autoencoder loss; writes
                    nothing

Settings come from defaults, then an optional flat `key = value` config
file, then command-line flags (later wins).  In the config file a line whose
first non-blank character is `#` is a comment; a `#` anywhere else is part
of the value.  Every run directory receives the fully resolved configuration
as `config.txt`, which `--config` reads back, so a run can be reproduced
byte-exactly.  The keys are the fields of `harness.HarnessConfig`; `FLAGS`
gives each its flag and help line, and `qcopt <subcommand> --help` shows them.

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import harness
from .agent import EncoderAbstraction, ExactAbstraction, qtable_to_tsv
from .circuit import (
    bv_circuit,
    depth,
    random_icmh_circuit,
    serialize_qasm,
    state_string,
    unitary,
)
from .dag import load_corpus, save_corpus, to_dag, validate
from .dvae import DvaeConfig, DvaeModel, EncodeTable, backward, encode_np, load_checkpoint, loss
from .harness import HarnessConfig
from .nn import finite_diff_check
from .rewrite import apply, enumerate_actions, gate_count_delta

class ConfigError(ValueError):
    pass


# each HarnessConfig field's flag and help line, in field order
FLAGS = {
    "n": ("--n", "data-wire count of the BV instance"),
    "secret": ("--secret", "hidden bit string (default all ones)"),
    "epochs": ("--epochs", "episodes per agent (default per size)"),
    "seeds": ("--seeds", "compare runs seeds 0 .. seeds-1"),
    "seed": ("--seed", "seed of the single-phase subcommands"),
    "out_dir": ("--out", "output directory"),
    "corpus_cap": ("--corpus-cap", "DAGs sampled from the corpus for phase 2"),
    "dvae_d_h": ("--d-h", "autoencoder hidden width"),
    "dvae_d_z": ("--d-z", "latent width"),
    "dvae_epochs": ("--vae-epochs", "autoencoder training epochs"),
    "dvae_lr": ("--vae-lr", "Adam learning rate"),
    "dvae_batch": ("--vae-batch", "mini-batch size"),
    "dvae_beta": ("--beta", "KL weight"),
    "bin_width": ("--bin-width", "latent quantisation step"),
}

# a field's annotation -> the converter of its values, flags and config file
# alike, and what a config-file error says it expects
_CONVERTERS = {
    "int": (int, "an integer"),
    "int | None": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
}
_FIELD_TYPES = {f.name: _CONVERTERS[f.type] for f in fields(HarnessConfig)}


def _parse_value(key: str, raw: str):
    convert, expected = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} expects {expected}, got {raw!r}") from None


def load_config(path: str | None, overrides: dict) -> HarnessConfig:
    """Defaults, overridden by the config file, overridden by flags; the
    default secret and episode budget are then filled in for the size, and
    every value is checked, so a bad setting raises before any work."""
    cfg = HarnessConfig()
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
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
    spec = cfg.bv_spec()
    cfg = replace(cfg, secret=spec.secret, epochs=cfg.resolved_epochs())
    # fail before any phase runs or any run directory exists
    for key, low in (("seed", 0), ("seeds", 1), ("corpus_cap", 1)):
        value = getattr(cfg, key)
        if value < low:
            raise ConfigError(f"config key {key!r} must be at least {low}, got {value}")
    harness.dvae_config(cfg, cfg.seed)
    harness.benchmark_agent_config(spec, cfg.epochs, cfg.seed)
    return cfg


def config_text(cfg: HarnessConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(HarnessConfig)]
    return "\n".join(lines) + "\n"


def _out_dir(cfg: HarnessConfig, fallback: str) -> str:
    return cfg.out_dir or os.path.join("runs", fallback)


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _echo_config(cfg: HarnessConfig, out_dir: str):
    _write(os.path.join(out_dir, "config.txt"), config_text(cfg))


def _config(args) -> HarnessConfig:
    """The run config of a subcommand that takes the config flags; a flag its
    parser does not define counts as unset."""
    return load_config(args.config, {k: getattr(args, k, None) for k in _FIELD_TYPES})


# --- subcommands -----------------------------------------------------------------


def cmd_gen_bv(args) -> int:
    circuit = bv_circuit(_config(args).bv_spec())
    text = serialize_qasm(circuit)
    if args.qasm_out:
        _write(args.qasm_out, text)
        print(f"wrote {args.qasm_out} ({len(circuit)} gates, depth {depth(circuit)})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_train_baseline(args) -> int:
    cfg = _config(args)
    spec = cfg.bv_spec()
    out = _out_dir(cfg, f"bv{cfg.n}-baseline-seed{cfg.seed}")
    agent_cfg = harness.benchmark_agent_config(spec, cfg.epochs, cfg.seed)
    result = harness.run_baseline(spec, agent_cfg)
    os.makedirs(out, exist_ok=True)
    _echo_config(cfg, out)
    _write(os.path.join(out, "qtable.tsv"), qtable_to_tsv(result.qtable))
    save_corpus(result.corpus, os.path.join(out, "corpus.txt"))
    best = min(t.best_depth for t in result.traces)
    steps, final = harness.greedy_rollout(spec, result.qtable, ExactAbstraction(), agent_cfg)
    print(f"l_s = {result.l_s}, best depth = {best}, greedy {steps} steps to depth {final}, "
          f"corpus -> {out}/corpus.txt")
    return 0


def cmd_train_vae(args) -> int:
    cfg = _config(args)
    corpus = load_corpus(args.corpus)
    out = _out_dir(cfg, "vae")
    ckpt = os.path.join(out, "model.ckpt")
    # the checkpoint's directory is made only once training has succeeded, so
    # a run that diverges leaves no run directory behind
    model, stats = harness.train_encoder_from_corpus(
        corpus,
        harness.dvae_config(cfg, cfg.seed),
        cfg.corpus_cap,
        checkpoint_path=ckpt,
    )
    _echo_config(cfg, out)
    print(
        f"trained on {min(len(corpus), cfg.corpus_cap)} of {len(corpus)} DAGs; "
        f"final loss {stats[-1].mean_loss:.4f}, accuracy {stats[-1].accuracy:.4f}; "
        f"checkpoint -> {ckpt}"
    )
    return 0


def cmd_train_encoded(args) -> int:
    cfg = _config(args)
    spec = cfg.bv_spec()
    out = _out_dir(cfg, f"bv{cfg.n}-encoded-seed{cfg.seed}")
    model = load_checkpoint(args.model)
    if (model.d_h, model.d_z) != (cfg.dvae_d_h, cfg.dvae_d_z):
        raise ValueError(
            f"checkpoint {args.model} has d_h {model.d_h}, d_z {model.d_z}; "
            f"the config has dvae_d_h {cfg.dvae_d_h}, dvae_d_z {cfg.dvae_d_z}"
        )
    agent_cfg = harness.benchmark_agent_config(spec, cfg.epochs, cfg.seed)
    result = harness.run_encoded(spec, model, agent_cfg, cfg.bin_width)
    os.makedirs(out, exist_ok=True)
    _echo_config(cfg, out)
    _write(os.path.join(out, "qtable.tsv"), qtable_to_tsv(result.qtable))
    best = min(t.best_depth for t in result.traces)
    abstraction = EncoderAbstraction(model, cfg.bin_width)
    steps, final = harness.greedy_rollout(spec, result.qtable, abstraction, agent_cfg)
    print(f"l_a = {result.l_a}, best depth = {best}, greedy {steps} steps to depth {final}, "
          f"{result.graph_states} graph states")
    return 0


def cmd_compare(args) -> int:
    cfg = _config(args)
    out = _out_dir(cfg, f"bv{cfg.n}-compare")
    reports = harness.run_benchmark(cfg)
    harness.write_artifacts(reports, out)
    _echo_config(cfg, out)
    sys.stdout.write(harness.report_text(reports))
    print(f"artifacts -> {out}/run.json, report.txt")
    return 0


def cmd_verify(args) -> int:
    n_circuits = args.circuits
    rng_base = args.seed
    failures = 0
    checked_actions = 0
    # the encoder's hash-consed circuit walk, one table shared across the
    # circuits, must give the latent of the training forward on the DAG, at
    # the default dims that phase 3 runs
    model = DvaeModel.create(DvaeConfig(seed=rng_base))
    table = EncodeTable(model)
    for i in range(n_circuits):
        # circuit 0 is empty: only there do the action spaces seed CNOT pairs;
        # 2 to 6 wires reach BV5's wire count
        c = random_icmh_circuit(2 + i % 5, 2 + i % 11 if i else 0, rng_base + i)
        u = unitary(c)
        d = to_dag(c)
        if validate(d):
            failures += 1
            print(f"FAIL dag-validity: {state_string(c)!r}")
            continue
        walked, built = encode_np(model, c, table), encode_np(model, d)
        if any(x.tobytes() != y.tobytes() for x, y in zip(walked, built)):
            failures += 1
            print(f"FAIL encode-equivalence: {state_string(c)!r}")
        full = enumerate_actions(c)
        layered = enumerate_actions(c, layered=True)
        rest = iter(full)
        if not all(a in rest for a in layered):
            failures += 1
            print(f"FAIL layered-subset: {state_string(c)!r}")
        n = c.n_wires
        for budget in (-3, 0, 2, 4, 2 * n):
            kept = [a for a in layered if gate_count_delta(a.kind, a.direction, n) <= budget]
            if enumerate_actions(c, layered=True, budget=budget) != kept:
                failures += 1
                print(f"FAIL budget: {state_string(c)!r} budget {budget}")
        for a in full:
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
    """Finite-difference check of the loss gradient on each drawn DAG alone
    and, for two or more, on one batch of all of them, whose graphs end at
    different levels."""
    cfg = DvaeConfig(d_h=args.d_h, d_z=3, seed=args.seed, beta=0.005)
    model = DvaeModel.create(cfg)
    params = list(model.params().values())
    dags = [to_dag(random_icmh_circuit(2, 2 + i, args.seed + i)) for i in range(args.dags)]
    noise = np.random.default_rng(args.seed).standard_normal((args.dags, cfg.d_z))
    checks = [(f"dag {i}", [i]) for i in range(args.dags)]
    if args.dags > 1:
        checks.append((f"batch of {args.dags} dags", list(range(args.dags))))
    worst = 0.0
    for label, idx in checks:
        batch = [dags[i] for i in idx]
        grads = backward(model, loss(model, batch, noise[idx], cfg)[2])
        err = finite_diff_check(lambda: loss(model, batch, noise[idx], cfg)[0], params, grads)
        print(f"{label}: max relative gradient error {err:.3e}")
        worst = max(worst, err)
    print(f"worst: {worst:.3e} (tolerance 1e-4)")
    return 0 if worst <= 1e-4 else 1


# --- argument parsing ----------------------------------------------------------------


def _int_at_least(low: int):
    def int_at_least(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    return int_at_least


def _config_parser(sub, name: str, run, keys=FLAGS, **kwargs) -> argparse.ArgumentParser:
    """A subcommand with ``--config`` and the flags of the config ``keys``;
    its ``run`` reads them with ``_config``."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    p.add_argument("--config", help="flat key = value settings file")
    for key in keys:
        flag, help_text = FLAGS[key]
        p.add_argument(flag, dest=key, type=_FIELD_TYPES[key][0], help=help_text)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcopt",
        description="RL circuit optimisation with an autoencoder-compressed Q-table",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _config_parser(
        sub, "gen-bv", cmd_gen_bv, ("n", "secret"), help="write a Bernstein-Vazirani circuit"
    )
    p.add_argument("--out", dest="qasm_out", help="QASM file (default: stdout)")

    _config_parser(sub, "train-baseline", cmd_train_baseline)
    p = _config_parser(sub, "train-vae", cmd_train_vae)
    p.add_argument("--corpus", required=True, help="DAG corpus file")
    p = _config_parser(sub, "train-encoded", cmd_train_encoded)
    p.add_argument(
        "--model", required=True,
        help="autoencoder checkpoint; its d_h and d_z must match the config",
    )
    _config_parser(sub, "compare", cmd_compare)

    p = sub.add_parser("verify", help="soundness and validity property suite")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--circuits", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    p.set_defaults(run=cmd_grad_check)
    p.add_argument("--dags", type=_int_at_least(1), default=3)
    p.add_argument("--d-h", dest="d_h", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return args.run(args)
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
