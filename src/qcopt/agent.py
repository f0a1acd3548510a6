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
    maps to the same key.  ``encode_np`` keys the circuit's nodes with
    ``dag.hash_cons``, so no DAG is built.  A new circuit is one local
    rewrite away from one seen before, so most of its DAG nodes have the
    same type and predecessor states in edge order, and hence the same
    state; one ``EncodeTable`` per instance, built for its model and kept
    for the run, shares them, and whole graphs by their output-node states.
    The key depends on the latent mean alone, so it is computed once per
    distinct mean.  The gate string ``exact`` is unused.
    """

    def __init__(self, model: DvaeModel, bin_width: float):
        self.model = model
        self.bin_width = bin_width
        self.table = EncodeTable(model)
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

    ``enumerate_actions(c, layered=True)`` enumerates it directly, finding
    every forward site in one pass over the gates; the list's order is
    fixed, because the agent draws an index into it.  It offers H layers at
    either end of the circuit only: a layer at each interior position adds
    one depth-raising action per gate, and the lattice of states they spawn
    is more than one-step tabular Q-learning can wade through at paper-scale
    episode budgets (with them offered, 700 BV2 episodes at 28 gates reach
    depth 3 on one of seeds 0-4 instead of all five).  CNOT pairs are
    seeded on the empty circuit only; they never help the depth objective.
    Actions that would grow the circuit past ``cfg.max_gates`` are not
    enumerated: the budget goes into the enumeration, which can test it once
    per template because every site of a template has the same gate delta,
    and skips the CX_PAR scans when that template is over budget.
    """
    actions = enumerate_actions(c, layered=True, budget=cfg.max_gates - len(c.gates))
    return actions, list(map(action_key, actions))


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
    worked out about that circuit: the circuit itself, its depth,
    abstraction key and action list.  The environment is deterministic and
    the RL loop revisits circuits constantly, so each is worked out once per
    run."""

    circuit: Circuit
    depth: int
    key: StateKey  # the abstraction's key
    actions: list[Action]  # empty at the depth target, which ends an episode
    action_keys: list[str]


StateTable = dict[str, StateInfo]


def _state_info(c: Circuit, abstraction, cfg: AgentConfig, states: StateTable) -> StateInfo:
    """The table entry of ``c``, made on its first visit; the abstraction is
    handed the gate string the lookup built."""
    exact = state_string(c)
    info = states.get(exact)
    if info is None:
        d = depth(c)
        s = abstraction(c, exact)
        actions, keys = ([], []) if d <= TARGET_DEPTH else available_actions(c, cfg)
        info = states[exact] = StateInfo(c, d, s, actions, keys)
    return info


def _steps(
    info: StateInfo, q: QTable, abstraction, cfg: AgentConfig, states: StateTable,
    epsilon: float, rng: np.random.Generator,
):
    """The steps of an episode from the table entry ``info``: choose an
    action, apply it and expand the new state, yielding ``(before, action
    key, after)``.  It stops at a state with no actions (the depth target or
    a dead end) or after ``cfg.max_steps``.  Each choice waits for the
    caller to ask for the next step, so it reads the caller's update of
    ``q``."""
    for _ in range(cfg.max_steps):
        if not info.actions:
            return
        a, a_key = choose_action(q, info.key, info.actions, epsilon, rng, info.action_keys)
        after = _state_info(apply(info.circuit, a), abstraction, cfg, states)
        yield info, a_key, after
        info = after


def run_episode(
    start: Circuit,
    q: QTable,
    abstraction,
    cfg: AgentConfig,
    rng: np.random.Generator,
    epsilon: float,
    states: StateTable,
) -> EpisodeTrace:
    """One training episode: each step of ``_steps`` is rewarded and updates
    ``q``.  ``states`` is the run's state table, which gains every circuit
    the episode reaches."""
    info = _state_info(start, abstraction, cfg, states)
    trace = EpisodeTrace(best_depth=info.depth, final_depth=info.depth)
    if info.depth <= TARGET_DEPTH:
        q.setdefault(info.key, {})
    for before, a_key, after in _steps(info, q, abstraction, cfg, states, epsilon, rng):
        r = reward(before.depth, after.depth, after.depth <= TARGET_DEPTH)
        q_update(q, before.key, a_key, r, after.key, after.action_keys)
        trace.steps.append(EpisodeStep(before.key, a_key, r, after.depth))
        trace.best_depth = min(trace.best_depth, after.depth)
        trace.final_depth = after.depth
    return trace


@dataclass
class TrainResult:
    qtable: QTable
    traces: list[EpisodeTrace]
    circuits: dict[str, Circuit]  # every reached circuit, by gate string


def train_agent(start: Circuit, abstraction, cfg: AgentConfig) -> TrainResult:
    """cfg.epochs episodes from the same start circuit with per-episode
    epsilon decay; returns the table, whose length is l, all traces and
    every circuit the run reached.  One state table serves every episode of
    the run; only its circuits outlive it."""
    q: QTable = {}
    states: StateTable = {}
    rng = np.random.default_rng(cfg.seed)
    traces: list[EpisodeTrace] = []
    epsilon = 1.0
    for _ in range(cfg.epochs):
        traces.append(run_episode(start, q, abstraction, cfg, rng, epsilon, states))
        epsilon = max(EPSILON_MIN, epsilon * EPSILON_DECAY)
    return TrainResult(q, traces, {exact: info.circuit for exact, info in states.items()})


def greedy_trajectory(
    start: Circuit, q: QTable, abstraction, cfg: AgentConfig
) -> list[EpisodeStep]:
    """Post-training exploitation rollout: the steps of ``_steps`` at
    epsilon 0, with no table updates and zero rewards, in a state table of
    its own."""
    rng = np.random.default_rng(0)  # never consulted at epsilon 0
    states: StateTable = {}
    info = _state_info(start, abstraction, cfg, states)
    return [
        EpisodeStep(before.key, a_key, 0.0, after.depth)
        for before, a_key, after in _steps(info, q, abstraction, cfg, states, 0.0, rng)
    ]


def qtable_to_tsv(q: QTable) -> str:
    """`state<TAB>action<TAB>value` lines, sorted for byte stability."""
    lines = []
    for s in sorted(q):
        for a in sorted(q[s]):
            lines.append(f"{s}\t{a}\t{q[s][a]!r}")
    return "\n".join(lines) + "\n" if lines else ""
