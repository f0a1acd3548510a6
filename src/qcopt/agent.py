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
# the agent builds no DAG; perfbench's ``dag.to_dag`` span still names
# ``qcopt.agent.to_dag`` as an entry point, so the name stays importable here
from .dag import to_dag  # noqa: F401
from .dvae import DvaeModel, EncodeTable, encode_np, latent_key
from .rewrite import (
    Action,
    action_key,
    apply,
    enumerate_actions,
)

StateKey = str
QTable = dict[StateKey, dict[str, float]]


# Tuned once on the depth-3 objective and then held fixed: learning rate 1
# (the environment is deterministic), a high discount so the terminal bonus
# survives the long reverse-then-cancel chains, and epsilon decaying per
# episode from 1.0 to a small floor.
LEARNING_RATE = 1.0
DISCOUNT = 0.99
EPSILON_MIN = 0.02
EPSILON_DECAY = 0.99
STEP_PENALTY = 0.1
TERMINAL_BONUS = 10.0
TARGET_DEPTH = 3


@dataclass
class AgentConfig:
    epochs: int = 3000
    seed: int = 0
    max_steps: int = 50
    # environment bound: actions that would grow the circuit past this many
    # gates are not offered (keeps episodes desk-scale)
    max_gates: int = 60

    def __post_init__(self):
        if self.max_steps < 1 or self.epochs < 1 or self.max_gates < 1:
            raise ValueError("max_steps, epochs and max_gates must be positive")


class ExactAbstraction:
    """Non-lossy state function: the circuit's gate-list string, or ``exact``
    when the caller already built it."""

    def __call__(self, c: Circuit, exact: str | None = None) -> StateKey:
        return state_string(c) if exact is None else exact


class EncoderAbstraction:
    """Lossy state function: quantised latent mean of the circuit's DAG.

    Uses the deterministic latent mean (never a sample) so a circuit always
    maps to the same key.  ``encode_np`` encodes the circuit itself, walking
    its wires as ``to_dag`` would, so no DAG is built.  A new circuit is one
    local rewrite away from one seen before, so most of its DAG nodes have
    the same type and predecessor states in edge order, and hence the same
    state; one ``encode_np`` table per instance (one run, one model) shares
    them, and whole graphs by their output-node states.  The key depends on
    the latent mean alone, so it is computed once per distinct mean.  The
    gate string ``exact`` is unused.
    """

    def __init__(self, model: DvaeModel, bin_width: float):
        self.model = model
        self.bin_width = bin_width
        self.table = EncodeTable()
        self._keys: dict[bytes, StateKey] = {}

    def __call__(self, c: Circuit, exact: str | None = None) -> StateKey:
        latent = encode_np(self.model, c, self.table)
        mu = latent.mu.tobytes()
        key = self._keys.get(mu)
        if key is None:
            key = self._keys[mu] = latent_key(latent, self.bin_width)
        return key


def available_actions(c: Circuit, cfg: AgentConfig):
    """The agent's layered action space, paired with the canonical keys.

    ``enumerate_actions(c, layered=True)`` enumerates it directly.  Per-wire
    H-pair insertions would spawn a huge lattice of depth-neutral states that
    one-step tabular Q-learning cannot wade through at paper-scale episode
    budgets, and CNOT pairs never help the depth objective.  Actions that
    would grow the circuit past ``cfg.max_gates`` are not enumerated: the
    budget goes into the enumeration, which can test it once per template
    because every site of a layered template has the same gate delta.
    """
    actions = enumerate_actions(c, layered=True, budget=cfg.max_gates - len(c.gates))
    return actions, [action_key(a) for a in actions]


def choose_action(
    q: QTable,
    s: StateKey,
    actions: list[Action],
    epsilon: float,
    rng: np.random.Generator,
    keys: list[str],
) -> tuple[Action, str]:
    """Epsilon-greedy over the given actions; missing Q entries read as 0 and
    value ties break towards the lexicographically smallest action key."""
    if not actions:
        raise ValueError("no actions available")
    if epsilon > 0.0 and rng.random() < epsilon:
        i = int(rng.integers(len(actions)))
        return actions[i], keys[i]
    row = q.get(s) or {}
    best_i, best_val, best_key = 0, row.get(keys[0], 0.0), keys[0]
    for i in range(1, len(actions)):
        v = row.get(keys[i], 0.0)
        if v > best_val or (v == best_val and keys[i] < best_key):
            best_i, best_val, best_key = i, v, keys[i]
    return actions[best_i], best_key


def reward(d_before: int, d_after: int, done: bool) -> float:
    """Depth improvement, minus the step penalty, plus the terminal bonus."""
    r = float(d_before - d_after) - STEP_PENALTY
    if done:
        r += TERMINAL_BONUS
    return r


def q_update(
    q: QTable,
    s: StateKey,
    a_key: str,
    r: float,
    s_next: StateKey,
    next_keys: list[str],
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

    next_max = -np.inf if next_keys else 0.0
    for k in next_keys:
        v = next_row.get(k, 0.0)
        if v > next_max:
            next_max = v
    current = row.get(a_key, 0.0)
    row[a_key] = current + LEARNING_RATE * (r + DISCOUNT * next_max - current)
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


class StateInfo(NamedTuple):
    """A run's state table maps each exact gate string to what the run has
    worked out about that circuit.  The environment is deterministic and the
    RL loop revisits circuits constantly, so each circuit's depth,
    abstraction key and action list are worked out once per run."""

    depth: int
    key: StateKey  # the abstraction's key
    actions: list[Action]  # empty at the depth target, which ends an episode
    action_keys: list[str]


StateTable = dict[str, StateInfo]


def _state_info(
    c: Circuit, abstraction, cfg: AgentConfig, states: StateTable,
    visited: dict[StateKey, Circuit],
) -> StateInfo:
    """The table entry of ``c``, made on its first visit; the abstraction is
    handed the gate string the lookup built.  ``visited`` gains the circuit
    if its key is new."""
    exact = state_string(c)
    info = states.get(exact)
    if info is None:
        d = depth(c)
        s = abstraction(c, exact)
        visited.setdefault(s, c)
        actions, keys = ([], []) if d <= TARGET_DEPTH else available_actions(c, cfg)
        info = states[exact] = StateInfo(d, s, actions, keys)
    return info


def run_episode(
    start: Circuit,
    q: QTable,
    abstraction,
    cfg: AgentConfig,
    rng: np.random.Generator,
    epsilon: float,
    visited: dict[StateKey, Circuit],
    states: StateTable | None = None,
) -> EpisodeTrace:
    """One episode: enumerate, choose, apply, reward, update, until the depth
    target is reached or max_steps runs out.  ``visited`` keeps the first
    circuit seen under each state key; ``states`` is the run's state table
    (``None`` starts a fresh one)."""
    if states is None:
        states = {}
    c = start
    d, s, actions, keys = _state_info(c, abstraction, cfg, states, visited)
    trace = EpisodeTrace(best_depth=d, final_depth=d)
    if d <= TARGET_DEPTH:
        q.setdefault(s, {})
        return trace

    for _ in range(cfg.max_steps):
        if not actions:
            break
        a, a_key = choose_action(q, s, actions, epsilon, rng, keys)
        c2 = apply(c, a)
        d2, s2, actions2, keys2 = _state_info(c2, abstraction, cfg, states, visited)
        done = d2 <= TARGET_DEPTH
        r = reward(d, d2, done)
        q_update(q, s, a_key, r, s2, keys2)
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
    visited: dict[StateKey, Circuit]


def train_agent(start: Circuit, abstraction, cfg: AgentConfig) -> TrainResult:
    """cfg.epochs episodes from the same start circuit with per-episode
    epsilon decay; returns the table, whose length is l, all traces and
    ``visited``.  One state table serves every episode of the run."""
    q: QTable = {}
    visited: dict[StateKey, Circuit] = {}
    states: StateTable = {}
    rng = np.random.default_rng(cfg.seed)
    traces: list[EpisodeTrace] = []
    epsilon = 1.0
    for _ in range(cfg.epochs):
        traces.append(run_episode(start, q, abstraction, cfg, rng, epsilon, visited, states))
        epsilon = max(EPSILON_MIN, epsilon * EPSILON_DECAY)
    return TrainResult(q, traces, visited)


def greedy_trajectory(
    start: Circuit, q: QTable, abstraction, cfg: AgentConfig
) -> list[EpisodeStep]:
    """Post-training exploitation rollout: epsilon = 0, no table updates."""
    rng = np.random.default_rng(0)  # never consulted at epsilon 0
    steps: list[EpisodeStep] = []
    c = start
    d = depth(c)
    if d <= TARGET_DEPTH:
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
        if d <= TARGET_DEPTH:
            break
    return steps


def qtable_to_tsv(q: QTable) -> str:
    """`state<TAB>action<TAB>value` lines, sorted for byte stability."""
    lines = []
    for s in sorted(q):
        for a in sorted(q[s]):
            lines.append(f"{s}\t{a}\t{q[s][a]!r}")
    return "\n".join(lines) + "\n" if lines else ""
