"""Three-phase benchmark protocol and report generation.

Phase 1 trains the exact-representation agent (gate-list string states) and
harvests every Q-table state as a DAG corpus.  Phase 2 trains the DAG
autoencoder on that corpus.  Phase 3 retrains an agent from scratch with the
quantised-latent representation.  The state counts l_s and l_a, the depth
traces and the greedy rollouts of both agents feed the run record
``run.json`` and a table-shaped text report; compression means l_a < l_s.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .agent import (
    TARGET_DEPTH,
    AgentConfig,
    EncoderAbstraction,
    ExactAbstraction,
    EpisodeTrace,
    QTable,
    TrainResult,
    greedy_trajectory,
    train_agent,
)
from .circuit import BvSpec, bv_circuit, depth
from .dag import CircuitDag, dag_to_debug_text, to_dag
from .dvae import DvaeConfig, DvaeModel, EpochStats, save_checkpoint, train

# Paper reference values for the report (BV size -> epochs, l_s, l_a, shown
# improvement); single-run numbers measured by the original authors.
REFERENCE_TABLE = {
    2: (3000, 2535, 1379, "45.6%"),
    3: (4000, 7439, 5131, "31.02%"),
    4: (5000, 12995, 10592, "18.49%"),
    5: (6000, 15880, 12830, "19.02%"),
}

DEFAULT_EPOCHS = {size: row[0] for size, row in REFERENCE_TABLE.items()}


def benchmark_agent_config(spec: BvSpec, epochs: int, seed: int) -> AgentConfig:
    """Benchmark settings for one Bernstein-Vazirani instance: episodes
    slightly longer than twice the optimal action sequence, and room for
    eight gates beyond the start circuit."""
    return AgentConfig(
        epochs=epochs,
        seed=seed,
        max_steps=28 + 4 * spec.n_data,
        max_gates=len(bv_circuit(spec)) + 8,
    )


@dataclass
class HarnessConfig:
    """The settings of a run: the BV instance, the agents' episode budget and
    seeds, the autoencoder and the latent bin width.  A ``secret`` or
    ``epochs`` left at None takes its per-size default through ``bv_spec``
    and ``resolved_epochs``; the autoencoder's defaults are ``DvaeConfig``'s."""

    n: int = 2
    secret: int | None = None        # default: all ones on the n data wires
    epochs: int | None = None        # default: DEFAULT_EPOCHS for n, else AgentConfig's
    seeds: int = 5                   # compare runs seeds 0 .. seeds-1
    seed: int = 0                    # seed of the single-phase subcommands
    out_dir: str = ""
    corpus_cap: int = 160
    dvae_d_h: int = DvaeConfig.d_h
    dvae_d_z: int = DvaeConfig.d_z
    dvae_epochs: int = DvaeConfig.epochs
    dvae_lr: float = DvaeConfig.lr
    dvae_batch: int = DvaeConfig.batch_size
    dvae_beta: float = DvaeConfig.beta
    bin_width: float = DvaeConfig.bin_width

    def bv_spec(self) -> BvSpec:
        secret = self.secret if self.secret is not None else (1 << self.n) - 1
        return BvSpec(self.n, secret)

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return DEFAULT_EPOCHS.get(self.n, AgentConfig.epochs)


@dataclass
class BaselineResult:
    qtable: QTable
    corpus: list[CircuitDag]
    traces: list[EpisodeTrace]

    @property
    def l_s(self) -> int:
        return len(self.qtable)


@dataclass
class EncodedResult:
    qtable: QTable
    traces: list[EpisodeTrace]
    graph_states: int  # distinct output-state tuples the encoder read out

    @property
    def l_a(self) -> int:
        return len(self.qtable)


@dataclass
class BenchmarkReport:
    bv_size: int
    secret: int
    epochs: int
    seed: int
    l_s: int
    l_a: int
    baseline_trace: list[tuple[int, int]]  # (final_depth, best_depth) per episode
    encoded_trace: list[tuple[int, int]]
    baseline_greedy: tuple[int, int]  # (steps, final depth) of the greedy rollout
    encoded_greedy: tuple[int, int]

    @property
    def improvement(self) -> float:
        return (self.l_s - self.l_a) / self.l_s


def harvest_corpus(result: TrainResult) -> list[CircuitDag]:
    """One DAG per Q-table state, in sorted state-key order.

    Exact-mode state keys are gate strings, so each names its circuit in
    ``result.circuits`` and the corpus covers the table exactly.
    """
    corpus = []
    for key in sorted(result.qtable):
        corpus.append(to_dag(result.circuits[key]))
    return corpus


def run_baseline(spec: BvSpec, cfg: AgentConfig) -> BaselineResult:
    """Phase 1: exact-representation training plus corpus harvest."""
    result = train_agent(bv_circuit(spec), ExactAbstraction(), cfg)
    corpus = harvest_corpus(result)
    return BaselineResult(result.qtable, corpus, result.traces)


def corpus_hash(corpus: list[CircuitDag]) -> str:
    digest = hashlib.sha256()
    for d in corpus:
        digest.update(dag_to_debug_text(d).encode())
    return digest.hexdigest()


def train_encoder_from_corpus(
    corpus: list[CircuitDag],
    cfg: DvaeConfig,
    corpus_cap: int,
    checkpoint_path: str | None = None,
) -> tuple[DvaeModel, list[EpochStats]]:
    """Phase 2: fit the autoencoder on harvested states.

    The corpus must pass ``dag.validate``, as ``to_dag`` output and DAGs read
    by ``dag_from_debug_text`` do; it is not checked again here.  Corpora
    larger than corpus_cap are subsampled deterministically (seeded by
    cfg.seed) to keep training desk-scale.  The checkpoint's directory is
    created only after training succeeds; a diverging run raises
    FloatingPointError and writes nothing.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    sample = corpus
    if len(corpus) > corpus_cap:
        rng = np.random.default_rng(cfg.seed)
        idx = rng.choice(len(corpus), size=corpus_cap, replace=False)
        sample = [corpus[i] for i in sorted(idx)]
    model, stats = train(sample, cfg)
    if checkpoint_path:
        os.makedirs(os.path.dirname(checkpoint_path) or ".", exist_ok=True)
        last = stats[-1]
        save_checkpoint(model, checkpoint_path, {
            "config": asdict(cfg),
            "corpus_hash": corpus_hash(sample),
            "final_loss": last.mean_loss,
            "final_accuracy": last.accuracy,
            "final_discrete_edit": last.discrete_edit,
        })
    return model, stats


def run_encoded(
    spec: BvSpec, model: DvaeModel, cfg: AgentConfig, bin_width: float
) -> EncodedResult:
    """Phase 3: retrain from scratch with the quantised-latent states."""
    abstraction = EncoderAbstraction(model, bin_width)
    result = train_agent(bv_circuit(spec), abstraction, cfg)
    return EncodedResult(result.qtable, result.traces, len(abstraction.table.graphs))


def greedy_rollout(spec: BvSpec, qtable: QTable, abstraction, cfg: AgentConfig) -> tuple[int, int]:
    """The steps and final depth of the table's greedy rollout from the BV start."""
    start = bv_circuit(spec)
    steps = greedy_trajectory(start, qtable, abstraction, cfg)
    return len(steps), steps[-1].depth if steps else depth(start)


def dvae_config(hcfg: HarnessConfig, seed: int) -> DvaeConfig:
    return DvaeConfig(
        d_h=hcfg.dvae_d_h,
        d_z=hcfg.dvae_d_z,
        epochs=hcfg.dvae_epochs,
        lr=hcfg.dvae_lr,
        batch_size=hcfg.dvae_batch,
        beta=hcfg.dvae_beta,
        bin_width=hcfg.bin_width,
        seed=seed,
    )


def run_cell(hcfg: HarnessConfig, seed: int) -> BenchmarkReport:
    """Full three-phase protocol for one seed of the configured instance."""
    spec = hcfg.bv_spec()
    epochs = hcfg.resolved_epochs()
    agent_cfg = benchmark_agent_config(spec, epochs, seed)
    baseline = run_baseline(spec, agent_cfg)
    model, _ = train_encoder_from_corpus(
        baseline.corpus, dvae_config(hcfg, seed), hcfg.corpus_cap
    )
    encoded = run_encoded(spec, model, agent_cfg, hcfg.bin_width)
    return BenchmarkReport(
        bv_size=spec.n_data,
        secret=spec.secret,
        epochs=epochs,
        seed=seed,
        l_s=baseline.l_s,
        l_a=encoded.l_a,
        baseline_trace=[(t.final_depth, t.best_depth) for t in baseline.traces],
        encoded_trace=[(t.final_depth, t.best_depth) for t in encoded.traces],
        baseline_greedy=greedy_rollout(spec, baseline.qtable, ExactAbstraction(), agent_cfg),
        encoded_greedy=greedy_rollout(
            spec, encoded.qtable, EncoderAbstraction(model, hcfg.bin_width), agent_cfg
        ),
    )


def run_benchmark(hcfg: HarnessConfig) -> list[BenchmarkReport]:
    """One cell per seed 0 .. hcfg.seeds-1, serially and deterministically."""
    return [run_cell(hcfg, seed) for seed in range(hcfg.seeds)]


# --- artifacts ----------------------------------------------------------------


def run_json(reports: list[BenchmarkReport]) -> str:
    """The run record: one object whose ``cells`` hold every report's fields,
    in (size, seed) order."""
    cells = [asdict(r) for r in sorted(reports, key=lambda r: (r.bv_size, r.seed))]
    return json.dumps({"cells": cells}, sort_keys=True) + "\n"


def _median(values: list[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def report_text(reports: list[BenchmarkReport]) -> str:
    """Table-shaped summary: per-seed rows plus per-size medians, with the
    published reference numbers alongside."""
    out = []
    out.append("BV benchmark: Q-table size, exact (l_s) vs encoder (l_a) states")
    out.append("")
    out.append(f"{'BV':>3} {'Epochs':>7} {'Seed':>5} {'l_s':>8} {'l_a':>8} {'Improv.':>9} "
               f"{'Exact greedy':>13} {'Enc. greedy':>12}")
    for r in sorted(reports, key=lambda r: (r.bv_size, r.seed)):
        exact, enc = (f"{steps} to {d}" for steps, d in (r.baseline_greedy, r.encoded_greedy))
        out.append(
            f"{r.bv_size:>3} {r.epochs:>7} {r.seed:>5} {r.l_s:>8} {r.l_a:>8} "
            f"{100.0 * r.improvement:>8.2f}% {exact:>13} {enc:>12}"
        )
    out.append(f"greedy: the rollout's steps to its final depth (the target is {TARGET_DEPTH})")
    out.append("")
    out.append(f"{'BV':>3} {'Epochs':>7} {'median l_s':>11} {'median l_a':>11} "
               f"{'median Improv.':>15} {'reference':>12}")
    sizes = sorted({r.bv_size for r in reports})
    for size in sizes:
        rows = [r for r in reports if r.bv_size == size]
        med_ls = _median([r.l_s for r in rows])
        med_la = _median([r.l_a for r in rows])
        med_imp = _median([r.improvement for r in rows])
        ref = REFERENCE_TABLE.get(size)
        ref_txt = f"{ref[3]:>12}" if ref else " " * 12
        out.append(
            f"{size:>3} {rows[0].epochs:>7} {med_ls:>11.1f} {med_la:>11.1f} "
            f"{100.0 * med_imp:>14.2f}% {ref_txt}"
        )
    out.append("")
    refs = REFERENCE_TABLE.values()
    out.append("reference: single-run values reported in the original study")
    out.append("(reference improvements are shown as printed there; recomputing")
    out.append("/".join(r[3].rstrip("%") for r in refs) + " from the reference state counts gives")
    out.append("/".join(f"{100 * (l_s - l_a) / l_s:.2f}" for _, l_s, l_a, _ in refs) + ")")
    return "\n".join(out) + "\n"


def write_artifacts(reports: list[BenchmarkReport], out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    for name, text in (("run.json", run_json(reports)), ("report.txt", report_text(reports))):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
