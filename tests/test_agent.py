import numpy as np
import pytest

from oracles import bfs_optimize, budget_filter, reference_key
from qcopt import agent
from qcopt.agent import (
    TARGET_DEPTH,
    AgentConfig,
    EncoderAbstraction,
    ExactAbstraction,
    available_actions,
    choose_action,
    greedy_trajectory,
    q_update,
    qtable_to_tsv,
    reward,
    run_episode,
    train_agent,
)
from qcopt.circuit import (
    BvSpec,
    Circuit,
    Gate,
    bv_circuit,
    depth,
    random_icmh_circuit,
    state_string,
    unitary,
)
from qcopt.dvae import DvaeConfig, DvaeModel
from qcopt.harness import benchmark_agent_config
from qcopt.rewrite import (
    CX_REV,
    CXCX,
    FORWARD,
    HH,
    REVERSE,
    Action,
    action_key,
    apply,
    enumerate_actions,
)


def circ(n, *gates):
    return Circuit(n, tuple(gates))


CFG = AgentConfig(epochs=10, seed=0)


# --- state abstraction ------------------------------------------------------------


def test_exact_abstraction_is_gate_string():
    c = circ(2, Gate.cx(0, 1), Gate.cx(1, 0))
    assert ExactAbstraction()(c) == "cx 0 1, cx 1 0"


def test_exact_abstraction_injective():
    seen = {}
    for seed in range(200):
        c = random_icmh_circuit(3, seed % 8, seed)
        key = ExactAbstraction()(c)
        if key in seen:
            assert seen[key] == c
        seen[key] = c


def reached_circuits(monkeypatch, start):
    """Record, by gate string, the start and every circuit ``apply`` returns
    during the run; returns that dict and a one-item list counting applies."""
    reached, applies, plain = {state_string(start): start}, [0], agent.apply

    def counting_apply(c, a):
        applies[0] += 1
        c2 = plain(c, a)
        reached.setdefault(state_string(c2), c2)
        return c2

    monkeypatch.setattr(agent, "apply", counting_apply)
    return reached, applies


def test_encoder_abstraction_deterministic_and_cached(monkeypatch):
    model = DvaeModel.create(DvaeConfig(d_h=10, d_z=3, seed=1))
    c = bv_circuit(BvSpec(2, 0b11))
    k1 = EncoderAbstraction(model, bin_width=0.5)(c)
    assert k1 == EncoderAbstraction(model, bin_width=0.5)(c)
    assert len(k1.split(",")) == 3
    # the run's state table answers a revisit before the abstraction is asked
    encoded, plain = [], agent.encode_np
    monkeypatch.setattr(agent, "encode_np", lambda *args: encoded.append(1) or plain(*args))
    reached, applies = reached_circuits(monkeypatch, c)
    train_agent(c, EncoderAbstraction(model, 1e-4), AgentConfig(epochs=20, max_gates=20))
    assert len(encoded) == len(reached) < applies[0]


# --- choose_action ------------------------------------------------------------------


def _toy_actions():
    actions = [
        Action(CX_REV, FORWARD, (i,)) for i in range(4)
    ]
    return actions, [action_key(a) for a in actions]


def test_choose_action_epsilon_one_is_uniform():
    actions, keys = _toy_actions()
    rng = np.random.default_rng(0)
    counts = {k: 0 for k in keys}
    n = 10_000
    for _ in range(n):
        _, k = choose_action({}, "s", actions, 1.0, rng, keys)
        counts[k] += 1
    expected = n / len(actions)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 16.3  # chi-square 99.9% quantile, 3 dof


def test_choose_action_greedy_picks_max():
    actions, keys = _toy_actions()
    q = {"s": {keys[2]: 1.0, keys[0]: 0.3}}
    a, k = choose_action(q, "s", actions, 0.0, np.random.default_rng(0), keys)
    assert k == keys[2]


def test_choose_action_tie_breaks_lexicographically():
    actions, keys = _toy_actions()
    a, k = choose_action({}, "s", actions, 0.0, np.random.default_rng(0), keys)
    assert k == min(keys)
    q = {"s": {key: 0.5 for key in keys}}
    a, k = choose_action(q, "s", actions, 0.0, np.random.default_rng(0), keys)
    assert k == min(keys)


def test_choose_action_empty_raises():
    with pytest.raises(ValueError):
        choose_action({}, "s", [], 0.0, np.random.default_rng(0), [])


# --- reward ---------------------------------------------------------------------------


def test_reward_examples():
    assert abs(reward(4, 3, False) - 0.9) < 1e-12
    assert abs(reward(3, 3, False) + 0.1) < 1e-12
    assert abs(reward(4, 3, True) - 10.9) < 1e-12


# --- q_update -------------------------------------------------------------------------


def test_q_update_fresh_entry():
    q = {}
    q_update(q, "s", "a", 1.0, "t", [])
    assert abs(q["s"]["a"] - 1.0) < 1e-12
    assert q["t"] == {}


def test_q_update_decay_towards_zero():
    q = {"s": {"a": 0.5}}
    q_update(q, "s", "a", 0.0, "t", [])
    # learning rate 1: the value is overwritten with the target
    assert q["s"]["a"] == 0.0


def test_q_update_fixed_point():
    q = {}
    for _ in range(200):
        q_update(q, "s", "a", 1.0, "terminal", [])
    assert abs(q["s"]["a"] - 1.0) < 1e-6


def test_q_update_uses_next_max_over_given_actions():
    q = {"t": {"x": 2.0, "y": 5.0}}
    q_update(q, "s", "a", 0.0, "t", ["x"])  # y not available now
    assert abs(q["s"]["a"] - 0.99 * 2.0) < 1e-12


def test_q_update_all_negative_next_values():
    q = {"t": {"x": -2.0, "y": -1.0}}
    q_update(q, "s", "a", 0.0, "t", ["x", "y"])
    assert abs(q["s"]["a"] - 0.99 * -1.0) < 1e-12
    # with an extra untried action, 0 is attainable
    q = {"t": {"x": -2.0, "y": -1.0}}
    q_update(q, "s", "a", 0.0, "t", ["x", "y", "z"])
    assert abs(q["s"]["a"]) < 1e-12


def test_q_update_existing_next_state_keeps_count():
    q = {}
    q_update(q, "s", "a", 0.0, "t", [])
    n = len(q)
    q_update(q, "s2", "b", 0.0, "t", [])  # t already known
    assert len(q) == n + 1


# --- run_episode ------------------------------------------------------------------------


def test_run_episode_already_at_target():
    c = circ(3, Gate.cx(2, 0), Gate.cx(2, 1))  # depth 1
    q = {}
    trace = run_episode(c, q, ExactAbstraction(), CFG, np.random.default_rng(0), 1.0, {})
    assert len(trace) == 0
    assert trace.final_depth == depth(c)
    assert state_string(c) in q


def test_bv2_has_a_depth_one_circuit_that_the_target_stops_at():
    # CNOTs that share only a control take one moment, so BV2 (secret 0b11,
    # depth 4 at the start) has a circuit of depth 1: TARGET_DEPTH is a stop
    # rule, depth <= 3, not the optimum, and that circuit is offered nothing
    start = bv_circuit(BvSpec(2, 0b11))
    c = circ(3, Gate.cx(2, 0), Gate.cx(2, 1))
    assert np.allclose(unitary(c), unitary(start), atol=1e-9)
    assert (depth(start), depth(c)) == (4, 1)
    assert agent._state_info(c, ExactAbstraction(), CFG, {}).actions == []


def test_run_episode_rewards_rederivable_from_depths():
    cfg = AgentConfig(epochs=1, max_steps=20, seed=3)
    start = bv_circuit(BvSpec(2, 0b11))
    trace = run_episode(
        start, {}, ExactAbstraction(), cfg, np.random.default_rng(3), 1.0, {}
    )
    d_prev = depth(start)
    for i, step in enumerate(trace.steps):
        done = step.depth <= TARGET_DEPTH and i == len(trace.steps) - 1
        assert abs(step.reward - reward(d_prev, step.depth, done)) < 1e-12
        d_prev = step.depth


def test_run_episode_follows_oracle_policy():
    spec = BvSpec(2, 0b11)
    start = bv_circuit(spec)
    radius, _, path = bfs_optimize(start, target_depth=3, max_radius=6)
    cfg = AgentConfig(epochs=1, max_steps=12, seed=0)
    configs = (cfg, benchmark_agent_config(spec, epochs=1, seed=0))
    q = {}
    c = start
    for a in path:
        # the narrowed action space keeps the optimal path open
        for agent_cfg in configs:
            assert action_key(a) in available_actions(c, agent_cfg)[1]
        q[state_string(c)] = {action_key(a): 1.0}
        c = apply(c, a)
    trace = run_episode(
        start, q, ExactAbstraction(), cfg, np.random.default_rng(0), 0.0, {}
    )
    assert trace.best_depth == 3
    assert len(trace) <= 6


def test_dead_end_stops_the_episode_and_the_rollout():
    # a CNOT ring of depth 4 with no action inside the gate budget
    ring = circ(4, Gate.cx(0, 1), Gate.cx(1, 2), Gate.cx(2, 3), Gate.cx(3, 0))
    cfg = AgentConfig(epochs=1, max_gates=4)
    assert depth(ring) == 4 and available_actions(ring, cfg) == ([], [])
    q = {}
    trace = run_episode(ring, q, ExactAbstraction(), cfg, np.random.default_rng(0), 1.0, {})
    assert (len(trace), trace.final_depth, q) == (0, 4, {})
    assert greedy_trajectory(ring, q, ExactAbstraction(), cfg) == []

    # one H pair more: its cancellation is the only step, into the dead end
    start = circ(4, *ring.gates, Gate.h(0), Gate.h(0))
    cfg = AgentConfig(epochs=1, max_gates=6)
    trace = run_episode(start, q, ExactAbstraction(), cfg, np.random.default_rng(0), 1.0, {})
    step = agent.EpisodeStep(state_string(start), "HH.fwd@4-5", pytest.approx(1.9), 4)
    assert trace.steps == [step]
    assert (trace.best_depth, trace.final_depth) == (4, 4)
    assert set(q) == {state_string(start), state_string(ring)}
    rollout = greedy_trajectory(start, q, ExactAbstraction(), cfg)
    assert rollout == [step._replace(reward=0.0)]


def test_episode_circuits_stay_unitary_equivalent():
    start = bv_circuit(BvSpec(2, 0b11))
    u = unitary(start)
    cfg = AgentConfig(epochs=1, max_steps=15, max_gates=24, seed=1)
    states = {}
    q = {}
    rng = np.random.default_rng(1)
    for _ in range(4):
        run_episode(start, q, ExactAbstraction(), cfg, rng, 1.0, states)
    assert len(states) > 3
    for info in states.values():
        assert np.allclose(unitary(info.circuit), u, atol=1e-9)


def test_available_actions_is_layered_space_on_bv2_start():
    c = bv_circuit(BvSpec(2, 0b11))
    actions, keys = available_actions(c, AgentConfig(epochs=1))
    assert actions
    assert set(actions) <= set(enumerate_actions(c))
    assert keys == [action_key(a) for a in actions]
    for a in actions:
        if (a.kind, a.direction) == (HH, REVERSE):
            assert a.site[0] in (0, len(c.gates))
        assert (a.kind, a.direction) != (CXCX, REVERSE), (
            "CNOT-pair insertion offered on a non-empty circuit")


def test_available_actions_respect_gate_cap():
    c = bv_circuit(BvSpec(2, 0b11))  # 8 gates
    cfg = AgentConfig(epochs=1, max_gates=10)
    actions, keys = available_actions(c, cfg)
    assert len(actions) == len(keys)
    from qcopt.rewrite import gate_count_delta

    assert all(len(c) + gate_count_delta(a.kind, a.direction, c.n_wires) <= 10 for a in actions)


def test_available_actions_equal_the_per_action_budget_filter():
    # list equality, order included, at every budget from below the largest
    # cancellation (-2) to above the largest insertion (2n); a cap below one
    # gate is not a valid config, so those budgets go to the enumeration
    circuits = [random_icmh_circuit(2 + i % 4, i % 31, 900 + i) for i in range(300)]
    circuits += [circ(3)] + [bv_circuit(BvSpec(n, (1 << n) - 1)) for n in (2, 3, 4)]
    for c in circuits:
        n = c.n_wires
        layered = enumerate_actions(c, layered=True)
        for budget in range(-3, 2 * n + 6):
            want = budget_filter(layered, n, budget)
            cap = len(c.gates) + budget
            if cap >= 1:
                got, keys = available_actions(c, AgentConfig(epochs=1, max_gates=cap))
            else:
                got = enumerate_actions(c, layered=True, budget=budget)
                keys = [action_key(a) for a in got]
            assert got == want, (state_string(c), budget)
            assert keys == [reference_key(a) for a in want]


# --- train_agent ------------------------------------------------------------------------


def test_train_agent_reaches_depth_three_on_bv2():
    cfg = AgentConfig(epochs=700, max_steps=30, max_gates=28, seed=0)
    result = train_agent(bv_circuit(BvSpec(2, 0b11)), ExactAbstraction(), cfg)
    assert min(t.best_depth for t in result.traces) == 3
    # late episodes exploit the learned policy; epsilon is still 0.02, so
    # judge a window of episodes rather than the last one alone
    late = result.traces[-50:]
    assert sum(t.best_depth == 3 for t in late) >= len(late) // 2


def test_train_agent_state_count_non_decreasing():
    start = bv_circuit(BvSpec(2, 0b11))
    cfg = AgentConfig(epochs=1, max_steps=10, max_gates=20, seed=5)
    q = {}
    states = {}
    rng = np.random.default_rng(5)
    counts = []
    for _ in range(30):
        run_episode(start, q, ExactAbstraction(), cfg, rng, 0.8, states)
        counts.append(len(q))
    assert counts == sorted(counts)


def test_train_agent_deterministic():
    cfg = AgentConfig(epochs=40, max_steps=12, max_gates=20, seed=7)
    start = bv_circuit(BvSpec(2, 0b11))
    r1 = train_agent(start, ExactAbstraction(), cfg)
    r2 = train_agent(start, ExactAbstraction(), cfg)
    assert r1.qtable == r2.qtable
    assert [t.steps for t in r1.traces] == [t.steps for t in r2.traces]


@pytest.mark.parametrize("encoded", [False, True])
def test_state_table_works_out_each_circuit_once(monkeypatch, encoded):
    model = DvaeModel.create(DvaeConfig(d_h=10, d_z=3, seed=1))

    def make_abstraction():
        return EncoderAbstraction(model, 1e-4) if encoded else ExactAbstraction()

    calls = {"depth": [], "actions": [], "abstraction": []}

    def counting(name, fn):
        def wrapped(c, *args):
            calls[name].append(state_string(c))
            return fn(c, *args)
        return wrapped

    monkeypatch.setattr(agent, "depth", counting("depth", agent.depth))
    monkeypatch.setattr(
        agent, "available_actions", counting("actions", agent.available_actions)
    )
    tables, plain_episode = [], agent.run_episode

    def spy_episode(*args):
        tables.append(args[-1])
        return plain_episode(*args)

    monkeypatch.setattr(agent, "run_episode", spy_episode)
    start = bv_circuit(BvSpec(2, 0b11))
    reached, applies = reached_circuits(monkeypatch, start)
    cfg = AgentConfig(epochs=30, max_steps=20, max_gates=20, seed=2)
    result = train_agent(start, counting("abstraction", make_abstraction()), cfg)

    assert all(t is tables[0] for t in tables)  # one table for the whole run
    states = tables[0]
    assert applies[0] == sum(len(t) for t in result.traces) > len(reached)
    for name in ("depth", "abstraction"):
        assert sorted(calls[name]) == sorted(reached)
    open_circuits = [s for s, c in reached.items() if depth(c) > TARGET_DEPTH]
    assert sorted(calls["actions"]) == sorted(open_circuits)
    assert set(states) == set(reached)
    assert set(result.circuits) == set(reached)
    assert all(state_string(c) == s for s, c in result.circuits.items())
    fresh = make_abstraction()
    for s, info in states.items():
        c = reached[s]
        assert state_string(info.circuit) == s
        d = depth(c)
        assert info.depth == d
        assert info.key == fresh(c)
        want = available_actions(c, cfg) if d > TARGET_DEPTH else ([], [])
        assert (info.actions, info.action_keys) == want


def test_greedy_trajectory_short_after_training():
    cfg = AgentConfig(epochs=700, max_steps=30, max_gates=28, seed=0)
    start = bv_circuit(BvSpec(2, 0b11))
    result = train_agent(start, ExactAbstraction(), cfg)
    steps = greedy_trajectory(start, result.qtable, ExactAbstraction(), cfg)
    assert steps, "greedy rollout found no path"
    assert steps[-1].depth == 3
    assert len(steps) <= 12  # 2x the BFS optimum of 6


def reference_greedy_trajectory(start, q, abstraction, cfg):
    """The rollout as it stood before it shared the training state
    expansion: its own enumeration, depth and abstraction calls."""
    rng = np.random.default_rng(0)
    steps = []
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
        steps.append(agent.EpisodeStep(s, a_key, 0.0, d))
        if d <= TARGET_DEPTH:
            break
    return steps


def test_greedy_trajectory_equals_reference_rollout():
    model = DvaeModel.create(DvaeConfig(d_h=8, d_z=3, seed=1))
    runs = [(n, seed, ExactAbstraction) for n in (2, 3) for seed in range(3)]
    runs += [(2, 0, lambda w=w: EncoderAbstraction(model, w)) for w in (0.5, 1e-4)]
    lengths = set()
    for n, seed, make in runs:
        spec = BvSpec(n, (1 << n) - 1)
        cfg = benchmark_agent_config(spec, 150, seed)
        start = bv_circuit(spec)
        q = train_agent(start, make(), cfg).qtable
        got = greedy_trajectory(start, q, make(), cfg)
        assert got == reference_greedy_trajectory(start, q, make(), cfg)
        lengths.add(len(got))
    assert len(lengths) > 1
    # a start already at the target takes no step
    assert greedy_trajectory(circ(2, Gate.h(0)), {}, ExactAbstraction(), cfg) == []


def test_qtable_tsv_layout():
    q = {"s2": {"b": 1.0}, "s1": {"a": -0.25, "c": 0.5}}
    text = qtable_to_tsv(q)
    lines = text.splitlines()
    assert lines == ["s1\ta\t-0.25", "s1\tc\t0.5", "s2\tb\t1.0"]
