"""Phase benchmark for qcopt.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact_bv3 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

Each workload is one pipeline phase, driven through the harness function the
CLI subcommand calls:

    exact_bv3    phase 1 on BV3 (secret 0b111): harness.run_baseline
    vae_bv2      phase 2 on the BV2 corpus:     harness.train_encoder_from_corpus
    encoded_bv2  phase 3 on BV2:                harness.run_encoded

Set-up builds the phase's inputs from --seed (for the BV2 workloads that means
harvesting the corpus with phase 1, and for encoded_bv2 also training the
model) and is repeated until SETUP_SECONDS of set-up time and at least
SETUP_MIN_REPS set-ups are measured; setup_s is their median, the first result
is used and the others must be identical.  The timed region then repeats the
phase on sub-seed seed*1000 until about --seconds have passed.  Output checks
run between repetitions, outside the timed region: the first output in full,
every later one by its digest.

A shared host runs the same work up to 1.7x slower for seconds or minutes at
a time, and no statistic over one run's repetitions removes a slow period
that covers the whole run.  So the fixed reference_loop() is timed before
the first repetition and after each one, and wall_ref is the median over the
repetitions of the repetition's wall time divided by the mean of the two
reference times around it: the phase time in units of the host's speed at
that moment.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced repetitions of one sub-seed, reports the
per-layer metrics of the traced ones and the tracing overhead.  The last line
of standard output is one JSON object; a full record with context, digests
and per-repetition figures is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

WORKLOADS = ("exact_bv3", "vae_bv2", "encoded_bv2")
SETUP_MIN_REPS = 3
SETUP_SECONDS = 6.0
MAX_REPS = 200
TARGET_DEPTH = 3
VISITED_SAMPLE = 64      # exact states per repetition checked against the start unitary
LATENT_SAMPLE = 512      # corpus DAGs encoded for the latent diagnostics

# The benchmark's own budgets, far below paper scale: short enough that every
# repetition does nearly the same work whatever its seed and that a run holds
# a dozen or more repetitions (METRICS.md gives the measurements behind them).
SETTINGS = {
    "exact_bv3": {"n_data": 3, "secret": 0b111, "epochs": 100, "warmup_epochs": 50},
    "vae_bv2": {"n_data": 2, "secret": 0b11, "harvest_epochs": 100,
                "vae_epochs": 1, "corpus_cap": 80},
    "encoded_bv2": {"n_data": 2, "secret": 0b11, "harvest_epochs": 100,
                    "vae_epochs": 1, "corpus_cap": 80, "epochs": 100},
}

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "work_per_ref": "1/ref",
                    "peak_rss_mb": "MB"}

# spans reported as per-layer metrics
LAYER_SPANS = (
    "rewrite.enumerate_actions", "agent.available_actions", "rewrite.apply",
    "circuit.depth", "circuit.state_string", "agent.choose_action",
    "agent.q_update", "dag.to_dag", "harness.harvest_corpus", "dvae.loss",
    "nn.backward", "nn.adam_step", "dvae.encode_np", "dvae.latent_key",
)


def entry_points() -> list[tracer.EntryPoint]:
    """Every traced entry point: span name, where callers look the function up,
    and an optional counter of its results."""
    ep = tracer.EntryPoint
    return [
        ep("harness.run_baseline", (("qcopt.harness", "run_baseline"),)),
        ep("harness.train_encoder_from_corpus",
           (("qcopt.harness", "train_encoder_from_corpus"),)),
        ep("harness.run_encoded", (("qcopt.harness", "run_encoded"),)),
        ep("harness.harvest_corpus", (("qcopt.harness", "harvest_corpus"),)),
        ep("agent.run_episode", (("qcopt.agent", "run_episode"),)),
        ep("agent.available_actions", (("qcopt.agent", "available_actions"),),
           ("offered", lambda r: len(r[0]))),
        ep("rewrite.enumerate_actions", (("qcopt.agent", "enumerate_actions"),),
           ("enumerated", len)),
        ep("rewrite.apply", (("qcopt.agent", "apply"),)),
        ep("circuit.depth", (("qcopt.agent", "depth"),)),
        ep("circuit.state_string", (("qcopt.agent", "state_string"),)),
        ep("agent.choose_action", (("qcopt.agent", "choose_action"),)),
        ep("agent.q_update", (("qcopt.agent", "q_update"),)),
        ep("agent.encoder_abstraction", (("qcopt.agent", "EncoderAbstraction.__call__"),)),
        ep("dag.to_dag", (("qcopt.harness", "to_dag"), ("qcopt.agent", "to_dag"))),
        ep("dvae.train", (("qcopt.harness", "train"),)),
        ep("dvae.loss", (("qcopt.dvae", "loss"),)),
        ep("nn.backward", (("qcopt.dvae", "backward"),)),
        ep("nn.adam_step", (("qcopt.dvae", "adam_step"),)),
        ep("dvae.encode_np", (("qcopt.agent", "encode_np"),)),
        ep("dvae.latent_key", (("qcopt.agent", "latent_key"),)),
    ]


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in LAYER_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({
        "rewrite.kept_frac": "ratio",
        "agent.episode_ms.p50": "ms",
        "agent.episode_ms.p99": "ms",
        "agent.episode_ms.samples": "count",
        "agent.encode_cache_hit": "ratio",
        "agent.states": "count",
        "agent.steps": "count",
        "dvae.train_dags": "count",
        "dvae.distinct_keys": "count",
        "dvae.largest_bucket_frac": "ratio",
        "dvae.mu_std_min": "1",
        "dvae.mu_std_max": "1",
        "trace.overhead_frac": "ratio",
        "trace.absent": "count",
    })
    return units


# --- checks -------------------------------------------------------------------


class Checks:
    """Output checks: counts attempted and failed, keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def model_digest(model) -> str:
    """sha256 over every parameter's name, shape and float64 bytes."""
    h = hashlib.sha256()
    for name, tensor in model.params().items():
        h.update(f"{name} {tensor.value.shape}\n".encode())
        h.update(tensor.value.tobytes())
    return h.hexdigest()


# --- workloads ----------------------------------------------------------------


class Workload:
    """One phase: ``setup`` builds its inputs, ``phase`` runs it once,
    ``check`` judges one repetition's output outside the timed region."""

    def __init__(self, name, q, seed):
        self.q = q
        self.seed = seed
        self.settings = SETTINGS[name]
        s = self.settings
        self.spec = q.circuit.BvSpec(s["n_data"], s["secret"])
        self.start = q.circuit.bv_circuit(self.spec)
        self.start_gates = oracle.gates_of(self.start)

    def agent_config(self, epochs, seed):
        return self.q.harness.benchmark_agent_config(self.spec, epochs, seed)

    def dvae_config(self, seed):
        s = self.settings
        hcfg = self.q.harness.HarnessConfig(dvae_epochs=s["vae_epochs"],
                                            corpus_cap=s["corpus_cap"])
        return self.q.harness.dvae_config(hcfg, seed)

    def resolved_settings(self) -> dict:
        out = dict(self.settings)
        if "epochs" in self.settings:
            out["agent_config"] = dataclasses.asdict(
                self.agent_config(self.settings["epochs"], self.seed))
        if "vae_epochs" in self.settings:
            out["dvae_config"] = dataclasses.asdict(self.dvae_config(self.seed))
        return out

    # set-up shared by the BV2 workloads: phase 1 harvests the corpus
    def harvest(self) -> dict:
        base = self.q.harness.run_baseline(
            self.spec, self.agent_config(self.settings["harvest_epochs"], self.seed))
        return {"baseline": base, "qtable_sha": sha256(self.q.agent.qtable_to_tsv(base.qtable))}

    def check_setup(self, first: dict, other: dict, checks: Checks):
        for key in first:
            if key.endswith("_sha"):
                checks.expect(first[key] == other[key], f"setup {key} differs between set-ups")

    def check_corpus(self, base, checks: Checks):
        """Every corpus DAG is a valid view of its Q-table state's circuit."""
        keys = sorted(base.qtable)
        checks.expect(len(keys) == len(base.corpus) == base.l_s,
                      "corpus size differs from the Q-table state count")
        n = self.spec.n_wires
        for key, d in zip(keys, base.corpus):
            problems = oracle.dag_problems(
                n, oracle.parse_state_string(key), [t.name for t in d.types], d.edges)
            checks.expect(not problems, f"corpus DAG of {key!r}: {problems[:2]}")

    def check_rollout(self, qtable, abstraction, epochs, sub_seed, checks: Checks) -> int:
        """Greedy rollout of the trained table: the final circuit keeps the
        start unitary and the reported depth.  Returns the depth reached."""
        q = self.q
        cfg = self.agent_config(epochs, sub_seed)
        steps = q.agent.greedy_trajectory(self.start, qtable, abstraction, cfg)
        c = self.start
        for st in steps:
            actions, keys = q.agent.available_actions(c, cfg)
            action = dict(zip(keys, actions)).get(st.action)
            checks.expect(action is not None, f"rollout action {st.action} not offered")
            if action is None:
                return oracle.depth(oracle.gates_of(c))
            c = q.rewrite.apply(c, action)
        gates = oracle.gates_of(c)
        d = oracle.depth(gates)
        checks.expect(oracle.same_unitary(self.spec.n_wires, self.start_gates, gates),
                      f"greedy rollout (sub-seed {sub_seed}) changed the unitary")
        if steps:
            checks.expect(steps[-1].depth == d, f"rollout depth {steps[-1].depth} != {d}")
        return d

    def digest(self, out) -> str:
        return sha256(self.q.agent.qtable_to_tsv(out.qtable))

    def agent_outcome(self, qtable, traces, abstraction, epochs, sub_seed, checks) -> dict:
        greedy = self.check_rollout(qtable, abstraction, epochs, sub_seed, checks)
        return {
            "work": sum(len(t) for t in traces),
            "episodes": len(traces),
            "hits": sum(1 for t in traces if t.best_depth <= TARGET_DEPTH),
            "greedy_depth": greedy,
            "states": len(qtable),
            "digest": sha256(self.q.agent.qtable_to_tsv(qtable)),
        }


class ExactBv3(Workload):
    """Phase 1: the exact-key agent, then the corpus harvest."""

    def setup(self) -> dict:
        warm = self.agent_config(self.settings["warmup_epochs"], self.seed)
        base = self.q.harness.run_baseline(self.spec, warm)
        return {"warmup_sha": sha256(self.q.agent.qtable_to_tsv(base.qtable))}

    def phase(self, inputs, sub_seed):
        return self.q.harness.run_baseline(
            self.spec, self.agent_config(self.settings["epochs"], sub_seed))

    def check(self, inputs, out, sub_seed, checks) -> dict:
        self.check_corpus(out, checks)
        keys = sorted(out.qtable)
        rng = np.random.default_rng(sub_seed)
        for i in rng.choice(len(keys), size=min(VISITED_SAMPLE, len(keys)), replace=False):
            gates = oracle.parse_state_string(keys[i])
            checks.expect(oracle.same_unitary(self.spec.n_wires, self.start_gates, gates),
                          f"visited state {keys[i]!r} changed the unitary")
        # a step's reported depth is the depth of the next step's state
        pairs = [(a, b) for t in out.traces for a, b in zip(t.steps, t.steps[1:])]
        for i in rng.choice(len(pairs), size=min(VISITED_SAMPLE, len(pairs)), replace=False):
            a, b = pairs[i]
            d = oracle.depth(oracle.parse_state_string(b.state))
            checks.expect(d == a.depth, f"step to {b.state!r} reported depth {a.depth}, not {d}")
        res = self.agent_outcome(out.qtable, out.traces, self.q.agent.ExactAbstraction(),
                                 self.settings["epochs"], sub_seed, checks)
        res["l_s"] = out.l_s
        return res


class VaeBv2(Workload):
    """Phase 2: DAG-VAE training on the harvested BV2 corpus."""

    def setup(self) -> dict:
        return self.harvest()

    def sample_size(self, inputs) -> int:
        return min(self.settings["corpus_cap"], len(inputs["baseline"].corpus))

    def phase(self, inputs, sub_seed):
        return self.q.harness.train_encoder_from_corpus(
            inputs["baseline"].corpus, self.dvae_config(sub_seed), self.settings["corpus_cap"])

    def digest(self, out) -> str:
        return model_digest(out[0])

    def check(self, inputs, out, sub_seed, checks) -> dict:
        model, stats = out
        checks.expect(len(stats) == self.settings["vae_epochs"], "wrong number of epoch stats")
        for st in stats:
            checks.expect(math.isfinite(st.mean_loss), f"epoch {st.epoch} loss not finite")
            checks.expect(0.0 <= st.accuracy <= 1.0, f"epoch {st.epoch} accuracy out of range")
        checks.expect(all(bool(np.isfinite(p.value).all())
                          for p in model.params().values()), "model parameter not finite")
        return {
            "work": self.sample_size(inputs) * len(stats),
            "recon_acc": stats[-1].accuracy,
            "final_loss": stats[-1].mean_loss,
            "digest": self.digest(out),
        }


class EncodedBv2(Workload):
    """Phase 3: the encoded-key agent with a model trained during set-up."""

    def setup(self) -> dict:
        inputs = self.harvest()
        model, stats = self.q.harness.train_encoder_from_corpus(
            inputs["baseline"].corpus, self.dvae_config(self.seed), self.settings["corpus_cap"])
        inputs.update(model=model, model_sha=model_digest(model),
                      bin_width=self.dvae_config(self.seed).bin_width)
        return inputs

    def phase(self, inputs, sub_seed):
        return self.q.harness.run_encoded(
            self.spec, inputs["model"], self.agent_config(self.settings["epochs"], sub_seed),
            inputs["bin_width"])

    def check(self, inputs, out, sub_seed, checks) -> dict:
        abstraction = self.q.agent.EncoderAbstraction(inputs["model"], inputs["bin_width"])
        res = self.agent_outcome(out.qtable, out.traces, abstraction,
                                 self.settings["epochs"], sub_seed, checks)
        res["l_a"] = out.l_a
        return res

    def latent_diagnostics(self, inputs) -> dict:
        """Spread of the latent mean and key buckets over a seeded corpus
        sample, computed after the timed region."""
        q = self.q
        corpus = inputs["baseline"].corpus
        rng = np.random.default_rng(self.seed)
        idx = sorted(rng.choice(len(corpus), size=min(LATENT_SAMPLE, len(corpus)), replace=False))
        mus, buckets = [], {}
        for i in idx:
            latent = q.dvae.encode_np(inputs["model"], corpus[i])
            mus.append(latent.mu)
            key = q.dvae.latent_key(latent, inputs["bin_width"])
            buckets[key] = buckets.get(key, 0) + 1
        std = np.std(np.array(mus), axis=0)
        return {
            "dvae.distinct_keys": len(buckets),
            "dvae.largest_bucket_frac": max(buckets.values()) / len(idx),
            "dvae.mu_std_min": float(std.min()),
            "dvae.mu_std_max": float(std.max()),
            "dvae.latent_sample": len(idx),
        }


WORKLOAD_CLASSES = {"exact_bv3": ExactBv3, "vae_bv2": VaeBv2, "encoded_bv2": EncodedBv2}


# --- context --------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# --- runs -------------------------------------------------------------------------

REF_MATRIX = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def reference_loop() -> int:
    """Fixed work of the kinds the phases do (tuple and string dict keys,
    string formatting, sorting, small numpy products), independent of qcopt
    and of the seed; about 0.1 s.  Its wall time measures how fast the host
    runs at the moment it is taken."""
    rng = random.Random(1)
    table: dict = {}
    for i in range(30000):
        key = (rng.randrange(500), f"g{i % 97}")
        table[key] = table.get(key, 0) + len(str(key))
    v = np.full(8, 0.1)
    for i in range(3000):
        v = np.tanh(REF_MATRIX @ v + 0.01 * i)
    return len(sorted(table.items())) + int(v.sum() > 0)


def run_setups(wl: Workload, checks: Checks, min_reps: int, seconds: float):
    times, first = [], None
    while len(times) < min_reps or (sum(times) < seconds and len(times) < MAX_REPS):
        inputs, dt = timed(wl.setup)
        times.append(dt)
        if first is None:
            first = inputs
        else:
            wl.check_setup(first, inputs, checks)
        del inputs
    if "baseline" in first:
        wl.check_corpus(first["baseline"], checks)
    return first, times


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def keep_going(times: list[float], seconds: float) -> bool:
    # stop when one more repetition would end more than half a repetition
    # past the measured budget
    if not times:
        return True
    return len(times) < MAX_REPS and sum(times) + statistics.mean(times) / 2 <= seconds


def run_untraced(wl: Workload, inputs, seconds: float, checks: Checks):
    """Repeats the phase on one sub-seed, each repetition followed by the
    reference loop; checks the first output in full and that every later one
    has its digest."""
    sub_seed = wl.seed * 1000
    ref_times = [timed(reference_loop)[1]]
    reps, spent, outcome = [], [], None
    while keep_going(spent, seconds):
        out, dt = timed(wl.phase, inputs, sub_seed)
        ref_times.append(timed(reference_loop)[1])
        ref = (ref_times[-2] + ref_times[-1]) / 2
        reps.append({"sub_seed": sub_seed, "wall_s": dt, "ref_s": ref, "wall_ref": dt / ref})
        spent.append(dt + ref_times[-1])
        if outcome is None:
            outcome = wl.check(inputs, out, sub_seed, checks)
        else:
            checks.expect(wl.digest(out) == outcome["digest"],
                          "repeated phase gave a different result")
        del out
    return outcome, reps


def plain_rep_of(wl: Workload, inputs, sub_seed: int, checks: Checks):
    out, dt = timed(wl.phase, inputs, sub_seed)
    return dt, wl.check(inputs, out, sub_seed, checks)


def traced_rep_of(wl: Workload, inputs, sub_seed: int, checks: Checks, tr):
    gc.collect()
    with tr.installed():
        t0 = time.perf_counter()
        out = wl.phase(inputs, sub_seed)
        dt = time.perf_counter() - t0
    return dt, wl.check(inputs, out, sub_seed, checks)


def run_traced(wl: Workload, inputs, seconds: float, checks: Checks):
    """Pairs of one untraced and one traced repetition of the same sub-seed."""
    tr = tracer.Tracer(entry_points(), frozenset({"agent.run_episode"}))
    sub_seed = wl.seed * 1000
    pairs = []
    spent: list[float] = []
    while keep_going(spent, seconds):
        # alternate which side runs first, so warm-up effects cancel
        if len(pairs) % 2:
            dt_traced, traced_rep = traced_rep_of(wl, inputs, sub_seed, checks, tr)
            dt_plain, plain_rep = plain_rep_of(wl, inputs, sub_seed, checks)
        else:
            dt_plain, plain_rep = plain_rep_of(wl, inputs, sub_seed, checks)
            dt_traced, traced_rep = traced_rep_of(wl, inputs, sub_seed, checks, tr)
        checks.expect(plain_rep["digest"] == traced_rep["digest"],
                      "traced repetition gave a different result")
        pairs.append({"sub_seed": sub_seed, "untraced_s": dt_plain, "traced_s": dt_traced, **traced_rep})
        spent.append(dt_plain + dt_traced)
    return tr, pairs


def layer_metrics(tr, pairs, outcome: dict, extra: dict) -> dict:
    n = len(pairs)
    metrics = {}
    for span in LAYER_SPANS:
        st = tr.stats.get(span)
        metrics[f"{span}.calls"] = st.calls / n if st else 0
        metrics[f"{span}.self_s"] = st.self_s / n if st else 0.0
    enumerated = tr.counters.get("enumerated", 0)
    abstraction = tr.stats.get("agent.encoder_abstraction")
    encodes = tr.stats.get("dvae.encode_np")
    episodes = [1000.0 * d for d in tr.durations.get("agent.run_episode", [])]
    metrics.update({
        "rewrite.kept_frac": tr.counters.get("offered", 0) / enumerated if enumerated else 0.0,
        "agent.episode_ms.p50": quantile(episodes, 0.50),
        "agent.episode_ms.p99": quantile(episodes, 0.99),
        "agent.episode_ms.samples": len(episodes),
        "agent.encode_cache_hit": (1.0 - (encodes.calls if encodes else 0) / abstraction.calls
                                   if abstraction else 0.0),
        "agent.states": outcome.get("states", 0),
        "agent.steps": outcome["work"] if "states" in outcome else 0,
        "dvae.train_dags": extra.get("train_dags", 0),
        "dvae.distinct_keys": extra.get("dvae.distinct_keys", 0),
        "dvae.largest_bucket_frac": extra.get("dvae.largest_bucket_frac", 0.0),
        "dvae.mu_std_min": extra.get("dvae.mu_std_min", 0.0),
        "dvae.mu_std_max": extra.get("dvae.mu_std_max", 0.0),
        "trace.overhead_frac": statistics.median(p["traced_s"] / p["untraced_s"] for p in pairs) - 1.0,
        "trace.absent": len(tr.absent),
    })
    return metrics


def quality(outcome: dict) -> dict:
    """Quality figures of the phase's output, in the same record as the timings."""
    out = {}
    if "hits" in outcome:
        out["hit_rate"] = outcome["hits"] / outcome["episodes"]
        out["greedy_depth"] = outcome["greedy_depth"]
    if "recon_acc" in outcome:
        out["recon_acc"] = outcome["recon_acc"]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "qcopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qcopt.agent
    import qcopt.circuit
    import qcopt.dvae
    import qcopt.harness
    import qcopt.rewrite
    import_s = time.perf_counter() - t0

    wl = WORKLOAD_CLASSES[name](name, sys.modules["qcopt"], seed)
    checks = Checks()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": git_sha(), "src_lines": src_lines(), "settings": wl.resolved_settings(),
        "import_s": import_s,
    }

    if trace:
        inputs, setup_times = run_setups(wl, checks, 1, 0.0)
        tr, reps = run_traced(wl, inputs, seconds, checks)
        outcome = reps[0]
        record["absent"] = tr.absent
    else:
        inputs, setup_times = run_setups(wl, checks, SETUP_MIN_REPS, SETUP_SECONDS)
        outcome, reps = run_untraced(wl, inputs, seconds, checks)

    extra = {}
    if isinstance(wl, EncodedBv2):
        extra.update(wl.latent_diagnostics(inputs))
    if isinstance(wl, (VaeBv2, EncodedBv2)):
        extra["train_dags"] = min(wl.settings["corpus_cap"], len(inputs["baseline"].corpus))
    if "baseline" in inputs:
        record["l_s"] = inputs["baseline"].l_s
    for key in ("l_s", "l_a"):
        if key in outcome:
            record[key] = outcome[key]

    record.update({
        "setup_times_s": setup_times,
        "reps": reps,
        "outcome": outcome,
        "digests": {str(reps[0]["sub_seed"]): outcome["digest"]},
        "setup_digests": {k: v for k, v in inputs.items() if k.endswith("_sha")},
        "quality": quality(outcome),
        "diagnostics": extra,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures},
        "fail_frac": checks.failed / checks.attempted if checks.attempted else 0.0,
    })
    if trace:
        units = per_layer_units()
        values = layer_metrics(tr, reps, outcome, extra)
    else:
        units = END_TO_END_UNITS
        wall_ref = statistics.median(r["wall_ref"] for r in reps)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_ref": wall_ref,
            "work_per_ref": outcome["work"] / wall_ref,
            "peak_rss_mb": peak_rss_mb(),
        }
        wall_s = statistics.median(r["wall_s"] for r in reps)
        record["seconds_as_measured"] = {
            "wall_s": wall_s,
            "work_per_s": outcome["work"] / wall_s,
            "ref_s": statistics.median(r["ref_s"] for r in reps),
        }
    record["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return record


def print_report(record: dict):
    w = record["workload"]
    print(f"# {w} seed={record['seed']} trace={record['trace']} "
          f"sha={record['git_sha'][:12]} src_lines={record['src_lines']} "
          f"import_s={record['import_s']:.4f}")
    work = "steps" if w != "vae_bv2" else "graphs"
    names = {"work_per_ref": f"{work}_per_ref", "work_per_s": f"{work}_per_s"}
    for k, m in record["metrics"].items():
        print(f"{names.get(k, k):<36} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        for k, v in record["seconds_as_measured"].items():
            print(f"{names.get(k, k):<36} {v:.6g} {'1/s' if k == 'work_per_s' else 's'}")
        qual_units = {"hit_rate": "ratio", "greedy_depth": "moments", "recon_acc": "ratio"}
        for k, v in record["quality"].items():
            print(f"{k:<36} {v:.6g} {qual_units[k]}")
        print(f"{'fail_frac':<36} {record['fail_frac']:.6g} ratio")
        for k, v in record["diagnostics"].items():
            print(f"{k:<36} {v:.6g}")
    for key in ("l_s", "l_a"):
        if key in record:
            print(f"{key:<36} {record[key]:g} states")
    for key, digest in sorted(record["digests"].items()):
        print(f"digest sub-seed {key:<20} {digest[:16]}")
    for span in record.get("absent", []):
        print(f"absent entry point {span}")
    for failure in record["checks"]["failures"]:
        print(f"FAIL {failure}")


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_report(record)
    checks = record["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
