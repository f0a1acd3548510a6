"""Tabular Q-learning over the rewrite environment.

The state abstraction is pluggable: the exact gate-list string keeps every
circuit distinct, while the encoder abstraction quantises a frozen
autoencoder's latent mean so that structurally similar circuits share one
Q-table row.  Episodes restart from the same unoptimised circuit and stop
when the depth target is reached; the reward is the depth improvement minus
a small step penalty plus a terminal bonus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, depth, state_string
from .dag import to_dag
from .dvae import DvaeModel, encode_np, latent_key
from .rewrite import (
    Action,
    action_key,
    apply,
    enumerate_actions,
    gate_count_delta,
)

StateKey = str
QTable = dict[StateKey, dict[str, float]]


@dataclass
class AgentConfig:
    learning_rate: float = 0.1
    discount: float = 0.9
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.995   # per episode
    max_steps: int = 50
    step_penalty: float = 0.01
    terminal_bonus: float = 10.0
    target_depth: int | None = 3
    epochs: int = 3000
    seed: int = 0
    # environment bound: actions that would grow the circuit past this many
    # gates are not offered (keeps episodes desk-scale)
    max_gates: int = 60

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning rate must be in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if not 0.0 <= self.epsilon_min <= self.epsilon_start <= 1.0:
            raise ValueError("epsilon bounds out of order")
        if self.max_steps < 1 or self.epochs < 1 or self.max_gates < 1:
            raise ValueError("max_steps, epochs and max_gates must be positive")


class ExactAbstraction:
    """Non-lossy state function: the circuit's gate-list string."""

    name = "qasm"

    def __call__(self, c: Circuit) -> StateKey:
        return state_string(c)


class EncoderAbstraction:
    """Lossy state function: quantised latent mean of the circuit's DAG.

    Uses the deterministic latent mean (never a sample) so a circuit always
    maps to the same key; keys are cached per exact gate string because the
    RL loop revisits circuits constantly.
    """

    name = "encoder"

    def __init__(self, model: DvaeModel, bin_width: float):
        self.model = model
        self.bin_width = bin_width
        self._cache: dict[str, StateKey] = {}

    def __call__(self, c: Circuit) -> StateKey:
        exact = state_string(c)
        key = self._cache.get(exact)
        if key is None:
            latent = encode_np(self.model, to_dag(c))
            key = latent_key(latent, self.bin_width)
            self._cache[exact] = key
        return key


def available_actions(c: Circuit, cfg: AgentConfig):
    """The agent's layered action space, paired with the canonical keys.

    Every forward match is offered, but Hadamard-pair
    insertion only as a layer on all wires at either end of the circuit, and
    CNOT-pair insertion only on the empty circuit.  Per-wire insertions at
    arbitrary positions spawn a huge lattice of depth-neutral states that
    one-step tabular Q-learning cannot wade through at paper-scale episode
    budgets.  Actions that would grow the circuit past ``cfg.max_gates`` are
    dropped as well.
    """
    boundary = (0, len(c.gates))

    def keep(a):
        tag = a.site[0]
        if tag == "ins":
            return False
        if tag == "all":
            return a.site[1] in boundary
        if tag == "cxins":
            # CNOT-pair insertion never helps the depth objective; keep it
            # only on the empty circuit where it is the sole move
            return not c.gates
        return True

    actions = [a for a in enumerate_actions(c) if keep(a)]
    budget = cfg.max_gates - len(c.gates)
    if budget < 2 * c.n_wires:
        actions = [a for a in actions if gate_count_delta(a, c.n_wires) <= budget]
    return actions, [action_key(a) for a in actions]


def choose_action(
    q: QTable,
    s: StateKey,
    actions: list[Action],
    epsilon: float,
    rng: np.random.Generator,
    keys: list[str] | None = None,
) -> tuple[Action, str]:
    """Epsilon-greedy over the given actions; missing Q entries read as 0 and
    value ties break towards the lexicographically smallest action key."""
    if not actions:
        raise ValueError("no actions available")
    if keys is None:
        keys = [action_key(a) for a in actions]
    if epsilon > 0.0 and rng.random() < epsilon:
        i = int(rng.integers(len(actions)))
        return actions[i], keys[i]
    row = q.get(s)
    best_i = 0
    best_val = row.get(keys[0], 0.0) if row else 0.0
    best_key = keys[0]
    if row:
        for i in range(1, len(actions)):
            v = row.get(keys[i], 0.0)
            if v > best_val or (v == best_val and keys[i] < best_key):
                best_i, best_val, best_key = i, v, keys[i]
    else:
        for i in range(1, len(actions)):
            if keys[i] < best_key:
                best_i, best_key = i, keys[i]
    return actions[best_i], best_key


def reward(d_before: int, d_after: int, done: bool, cfg: AgentConfig) -> float:
    """Depth improvement, minus the step penalty, plus the terminal bonus."""
    r = float(d_before - d_after) - cfg.step_penalty
    if done:
        r += cfg.terminal_bonus
    return r


def q_update(
    q: QTable,
    s: StateKey,
    a_key: str,
    r: float,
    s_next: StateKey,
    next_keys: list[str],
    cfg: AgentConfig,
) -> QTable:
    """Q(s,a) += eta * (r + gamma * max_a' Q(s',a') - Q(s,a)).

    Both states are added to the table on demand, so the key count grows
    exactly when a novel state is encountered.
    """
    row = q.get(s)
    if row is None:
        row = q[s] = {}
    next_row = q.get(s_next)
    if next_row is None:
        next_row = q[s_next] = {}

    next_max = 0.0
    if next_row and next_keys:
        seen_all = True
        best = None
        for k in next_keys:
            v = next_row.get(k)
            if v is None:
                seen_all = False
            elif best is None or v > best:
                best = v
        if best is None:
            next_max = 0.0
        else:
            next_max = best if (seen_all and best < 0.0) else max(best, 0.0)

    current = row.get(a_key, 0.0)
    row[a_key] = current + cfg.learning_rate * (
        r + cfg.discount * next_max - current
    )
    return q


class EpisodeStep(NamedTuple):
    state: StateKey
    action: str
    reward: float
    depth: int


@dataclass
class EpisodeTrace:
    steps: list[EpisodeStep] = field(default_factory=list)
    best_depth: int = 0
    final_depth: int = 0

    def __len__(self) -> int:
        return len(self.steps)


def run_episode(
    start: Circuit,
    q: QTable,
    abstraction,
    cfg: AgentConfig,
    rng: np.random.Generator,
    epsilon: float,
    visited: dict[StateKey, Circuit] | None = None,
) -> EpisodeTrace:
    """One episode: enumerate, choose, apply, reward, update, until the depth
    target is reached or max_steps runs out."""
    c = start
    d = depth(c)
    s = abstraction(c)
    if visited is not None and s not in visited:
        visited[s] = c
    trace = EpisodeTrace(best_depth=d, final_depth=d)
    if cfg.target_depth is not None and d <= cfg.target_depth:
        q.setdefault(s, {})
        return trace

    actions, keys = available_actions(c, cfg)
    for _ in range(cfg.max_steps):
        if not actions:
            break
        a, a_key = choose_action(q, s, actions, epsilon, rng, keys)
        c2 = apply(c, a)
        d2 = depth(c2)
        done = cfg.target_depth is not None and d2 <= cfg.target_depth
        s2 = abstraction(c2)
        if visited is not None and s2 not in visited:
            visited[s2] = c2
        if done:
            actions2, keys2 = [], []
        else:
            actions2, keys2 = available_actions(c2, cfg)
        r = reward(d, d2, done, cfg)
        q_update(q, s, a_key, r, s2, keys2, cfg)
        trace.steps.append(EpisodeStep(s, a_key, r, d2))
        trace.best_depth = min(trace.best_depth, d2)
        c, d, s, actions, keys = c2, d2, s2, actions2, keys2
        if done:
            break
    trace.final_depth = d
    return trace


@dataclass
class TrainResult:
    qtable: QTable
    traces: list[EpisodeTrace]
    state_count: int
    visited: dict[StateKey, Circuit]


def train_agent(start: Circuit, abstraction, cfg: AgentConfig) -> TrainResult:
    """cfg.epochs episodes from the same start circuit with per-episode
    epsilon decay; returns the table, all traces and l = number of states."""
    q: QTable = {}
    visited: dict[StateKey, Circuit] = {}
    rng = np.random.default_rng(cfg.seed)
    traces: list[EpisodeTrace] = []
    epsilon = cfg.epsilon_start
    for _ in range(cfg.epochs):
        traces.append(run_episode(start, q, abstraction, cfg, rng, epsilon, visited))
        epsilon = max(cfg.epsilon_min, epsilon * cfg.epsilon_decay)
    return TrainResult(q, traces, len(q), visited)


def greedy_trajectory(
    start: Circuit, q: QTable, abstraction, cfg: AgentConfig
) -> list[EpisodeStep]:
    """Post-training exploitation rollout: epsilon = 0, no table updates."""
    rng = np.random.default_rng(0)  # never consulted at epsilon 0
    steps: list[EpisodeStep] = []
    c = start
    d = depth(c)
    if cfg.target_depth is not None and d <= cfg.target_depth:
        return steps
    for _ in range(cfg.max_steps):
        actions, keys = available_actions(c, cfg)
        if not actions:
            break
        s = abstraction(c)
        a, a_key = choose_action(q, s, actions, 0.0, rng, keys)
        c = apply(c, a)
        d = depth(c)
        steps.append(EpisodeStep(s, a_key, 0.0, d))
        if cfg.target_depth is not None and d <= cfg.target_depth:
            break
    return steps


def qtable_to_tsv(q: QTable) -> str:
    """`state<TAB>action<TAB>value` lines, sorted for byte stability."""
    lines = []
    for s in sorted(q):
        for a in sorted(q[s]):
            lines.append(f"{s}\t{a}\t{q[s][a]!r}")
    return "\n".join(lines) + "\n" if lines else ""
