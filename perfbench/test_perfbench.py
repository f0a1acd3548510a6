"""Tests of the benchmark's own machinery: the tracer and the reference checks.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from qcopt import agent, circuit, dag, harness, rewrite  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def toy(monkeypatch):
    """A module whose functions look each other up by module attribute, and a
    clock that only moves when they say so."""
    clock = FakeClock()
    monkeypatch.setattr(tracer.time, "perf_counter", clock)
    mod = types.ModuleType("perfbench_toy")

    def inner(x):
        clock.now += 2.0
        return [x] * 3

    def outer(x):
        clock.now += 1.0
        out = mod.inner(x)
        clock.now += 1.0
        return out

    class Thing:
        def __call__(self, x):
            clock.now += 5.0
            return x

    mod.inner, mod.outer, mod.Thing = inner, outer, Thing
    monkeypatch.setitem(sys.modules, "perfbench_toy", mod)
    return mod


def toy_points(*extra):
    ep = tracer.EntryPoint
    return [
        ep("toy.outer", (("perfbench_toy", "outer"),)),
        ep("toy.inner", (("perfbench_toy", "inner"),), ("items", len)),
        ep("toy.thing", (("perfbench_toy", "Thing.__call__"),)),
        *extra,
    ]


def test_wrappers_exist_only_inside_the_block(toy):
    originals = (toy.outer, toy.inner, toy.Thing.__dict__["__call__"])
    t = tracer.Tracer(toy_points())
    with t.installed():
        assert toy.outer is not originals[0]
        assert toy.inner is not originals[1]
        assert toy.Thing.__dict__["__call__"] is not originals[2]
    assert (toy.outer, toy.inner, toy.Thing.__dict__["__call__"]) == originals


def test_originals_restored_after_an_error(toy):
    originals = (toy.outer, toy.inner)
    t = tracer.Tracer(toy_points())
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("boom")
    assert (toy.outer, toy.inner) == originals


def test_self_time_subtracts_nested_spans(toy):
    t = tracer.Tracer(toy_points())
    with t.installed():
        assert toy.outer("a") == ["a"] * 3
        assert toy.inner("b") == ["b"] * 3
        assert toy.Thing()(7) == 7
    assert t.stats["toy.outer"].total_s == pytest.approx(4.0)
    assert t.stats["toy.outer"].self_s == pytest.approx(2.0)
    assert t.stats["toy.inner"].calls == 2
    assert t.stats["toy.inner"].self_s == pytest.approx(4.0)
    assert t.stats["toy.thing"].self_s == pytest.approx(5.0)
    assert t.counters["items"] == 6


def test_missing_entry_point_is_reported_absent(toy):
    gone = tracer.EntryPoint("toy.gone", (("perfbench_toy", "deleted"),
                                         ("no_such_module_xyz", "f"),
                                         ("perfbench_toy", "Missing.__call__")))
    partly = tracer.EntryPoint("toy.partly", (("perfbench_toy", "inner"),
                                             ("perfbench_toy", "deleted")))
    t = tracer.Tracer(toy_points(gone, partly))
    with t.installed():
        toy.outer(1)
    assert t.absent == ["toy.gone"]
    assert not hasattr(toy, "deleted")


def test_inherited_method_is_not_patched(toy):
    class Child(toy.Thing):
        pass

    toy.Child = Child
    t = tracer.Tracer([tracer.EntryPoint("toy.child", (("perfbench_toy", "Child.__call__"),))])
    with t.installed():
        assert "__call__" not in vars(Child)
    assert t.absent == ["toy.child"]


class FakePhase:
    seed = 1

    def phase(self, inputs, sub_seed):
        return sub_seed

    def check(self, inputs, out, sub_seed, checks):
        return {"digest": out, "work": 10}

    def digest(self, out):
        return out


def test_each_repetition_is_divided_by_the_reference_times_around_it(monkeypatch):
    # reference, phase, reference, phase, reference
    durations = iter([0.1, 1.0, 0.3, 2.0, 0.1])
    monkeypatch.setattr(run, "timed", lambda fn, *args: (fn(*args), next(durations)))
    monkeypatch.setattr(run, "reference_loop", lambda: None)
    checks = run.Checks()
    outcome, reps = run.run_untraced(FakePhase(), None, 3.5, checks)
    assert outcome == {"digest": 1000, "work": 10}
    assert [r["wall_ref"] for r in reps] == pytest.approx([5.0, 10.0])
    assert [r["ref_s"] for r in reps] == pytest.approx([0.2, 0.2])
    assert (checks.attempted, checks.failed) == (1, 0)


def test_every_program_entry_point_resolves_and_is_restored():
    points = run.entry_points()
    before = {(m, p): tracer._resolve(m, p)[2] for e in points for m, p in e.targets}
    t = tracer.Tracer(points)
    with t.installed():
        pass
    assert t.absent == []
    after = {(m, p): tracer._resolve(m, p)[2] for e in points for m, p in e.targets}
    assert after == before
    assert set(run.LAYER_SPANS) <= {e.span for e in points}


def test_traced_phase_gives_the_untraced_result():
    spec = circuit.BvSpec(2, 0b11)
    cfg = harness.benchmark_agent_config(spec, 15, 3)
    plain = harness.run_baseline(spec, cfg)
    t = tracer.Tracer(run.entry_points(), frozenset({"agent.run_episode"}))
    with t.installed():
        traced = harness.run_baseline(spec, cfg)
    assert agent.qtable_to_tsv(traced.qtable) == agent.qtable_to_tsv(plain.qtable)
    assert t.stats["agent.run_episode"].calls == 15
    assert len(t.durations["agent.run_episode"]) == 15
    assert t.stats["harness.harvest_corpus"].calls == 1
    assert t.stats["dag.to_dag"].calls == plain.l_s
    steps = sum(len(tr) for tr in plain.traces)
    assert t.stats["rewrite.apply"].calls == steps
    assert t.counters["offered"] <= t.counters["enumerated"]


def test_rollout_check_rejects_an_action_the_agent_filters_out(monkeypatch):
    wl = run.ExactBv3("exact_bv3", sys.modules["qcopt"], 0)
    offered = set(agent.available_actions(wl.start, wl.agent_config(1, 0))[1])
    keys = [rewrite.action_key(a) for a in rewrite.enumerate_actions(wl.start)]
    filtered = [k for k in keys if k not in offered]
    assert filtered
    step = agent.EpisodeStep(circuit.state_string(wl.start), filtered[0], 0.0, 0)
    monkeypatch.setattr(agent, "greedy_trajectory", lambda *args: [step])
    checks = run.Checks()
    wl.check_rollout({}, agent.ExactAbstraction(), 1, 0, checks)
    assert checks.failed == 1
    assert "not offered" in checks.failures[0]


# --- reference checks -------------------------------------------------------------


def random_circuits(count):
    return [circuit.random_icmh_circuit(2 + i % 4, i % 19, 100 + i) for i in range(count)]


def test_unitary_matches_program_oracle():
    for c in random_circuits(60):
        ours = oracle.unitary(c.n_wires, oracle.gates_of(c))
        assert np.allclose(ours, circuit.unitary(c), atol=1e-12)


def test_unitary_tells_circuits_apart():
    assert not oracle.same_unitary(2, [("cx", 0, 1)], [("cx", 1, 0)])
    assert not oracle.same_unitary(2, [("h", 0)], [("h", 1)])
    assert oracle.same_unitary(2, [("h", 0), ("h", 0)], [])
    assert oracle.same_unitary(
        2, [("cx", 0, 1)], [("h", 0), ("h", 1), ("cx", 1, 0), ("h", 0), ("h", 1)])


def test_depth_matches_program():
    for c in random_circuits(200):
        assert oracle.depth(oracle.gates_of(c)) == circuit.depth(c)
    assert oracle.depth([("cx", 0, 1), ("cx", 0, 2)]) == 1
    assert oracle.depth([("cx", 0, 1), ("cx", 1, 2)]) == 2


def test_state_string_round_trip():
    for c in random_circuits(40):
        assert oracle.parse_state_string(circuit.state_string(c)) == oracle.gates_of(c)
    with pytest.raises(ValueError):
        oracle.parse_state_string("x 1")


def dag_parts(d):
    return [t.name for t in d.types], list(d.edges)


def test_dag_check_accepts_program_dags():
    for c in random_circuits(60):
        types_, edges = dag_parts(dag.to_dag(c))
        assert oracle.dag_problems(c.n_wires, oracle.gates_of(c), types_, edges) == []


def test_dag_check_rejects_broken_dags():
    c = circuit.Circuit(3, (circuit.Gate.h(0), circuit.Gate.cx(0, 1), circuit.Gate.cx(1, 2)))
    gates = oracle.gates_of(c)
    types_, edges = dag_parts(dag.to_dag(c))
    assert oracle.dag_problems(3, gates[:-1], types_, edges)           # wrong circuit
    assert oracle.dag_problems(3, gates, types_, edges[1:])            # edge missing
    assert oracle.dag_problems(3, gates, types_, edges + [edges[0]])   # parallel edge
    u, v = edges[-1]
    assert oracle.dag_problems(3, gates, types_, edges[:-1] + [(v, u)])  # reversed edge
