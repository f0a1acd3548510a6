import numpy as np
import pytest

from oracles import (
    bfs_optimize,
    budget_filter,
    commutes_by_sets,
    layered_filter,
    opposite_cnot_chain,
    reference_enumeration,
    reference_key,
    uncached_action_key,
)
from qcopt import circuit, dag, rewrite
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
from qcopt.rewrite import (
    CX_PAR,
    CX_REV,
    CXCX,
    FORWARD,
    HH,
    REVERSE,
    Action,
    StaleSiteError,
    action_key,
    apply,
    commutes,
    enumerate_actions,
    gate_count_delta,
)
from qcopt.harness import benchmark_agent_config, run_baseline


def circ(n, *gates):
    return Circuit(n, tuple(gates))


def template_sites(c, kind, direction):
    """The sites of one template and direction, in enumeration order."""
    return [a.site for a in enumerate_actions(c) if (a.kind, a.direction) == (kind, direction)]


# --- matching ------------------------------------------------------------------


def test_hh_forward_adjacent_pair():
    assert template_sites(circ(1, Gate.h(0), Gate.h(0)), HH, FORWARD) == [
        (0, 1)
    ]


def test_hh_forward_blocked_by_cnot():
    c = circ(2, Gate.h(0), Gate.cx(0, 1), Gate.h(0))
    assert template_sites(c, HH, FORWARD) == []


def test_hh_forward_sees_through_other_wires():
    c = circ(2, Gate.h(0), Gate.h(1), Gate.h(0))
    assert template_sites(c, HH, FORWARD) == [(0, 2)]


def test_hh_forward_triple_gives_consecutive_pairs():
    c = circ(1, Gate.h(0), Gate.h(0), Gate.h(0))
    assert template_sites(c, HH, FORWARD) == [(0, 1), (1, 2)]


def test_cxcx_forward_pair():
    c = circ(2, Gate.cx(0, 1), Gate.cx(0, 1))
    assert template_sites(c, CXCX, FORWARD) == [(0, 1)]


def test_cxcx_forward_blocked_by_touching_gate():
    c = circ(2, Gate.cx(0, 1), Gate.h(0), Gate.cx(0, 1))
    assert template_sites(c, CXCX, FORWARD) == []


def test_cx_par_adjacent_same_control():
    c = circ(3, Gate.cx(0, 1), Gate.cx(0, 2))
    assert template_sites(c, CX_PAR, FORWARD) == [(0, 1)]


def test_cx_par_crosses_commuting_gates_only():
    # H(3) is support-disjoint from CNOT(0,2), so it may be crossed
    c = circ(4, Gate.cx(0, 1), Gate.h(3), Gate.cx(0, 2))
    assert template_sites(c, CX_PAR, FORWARD) == [(0, 2)]
    # H(2) touches the moving CNOT's target: blocked
    c = circ(4, Gate.cx(0, 1), Gate.h(2), Gate.cx(0, 2))
    assert template_sites(c, CX_PAR, FORWARD) == []


def test_cx_rev_forward_every_cnot():
    c = circ(3, Gate.h(0), Gate.cx(0, 1), Gate.cx(1, 2))
    assert template_sites(c, CX_REV, FORWARD) == [(1,), (2,)]


def test_cx_rev_reverse_never_enumerated():
    # undoing a reversal goes through CX_REV forward plus HH cancellations;
    # there is no CX_REV reverse direction to enumerate
    c = apply(circ(2, Gate.cx(0, 1)), Action(CX_REV, FORWARD, (0,)))
    assert template_sites(c, CX_REV, REVERSE) == []


def test_cx_par_has_no_reverse():
    c = circ(3, Gate.cx(0, 2), Gate.cx(0, 1))  # the result of a CX_PAR move
    assert template_sites(c, CX_PAR, FORWARD) == [(0, 1)]
    assert template_sites(c, CX_PAR, REVERSE) == []


def test_hh_reverse_positions_near_wire_gates():
    # an H layer on every wire at every gate-list position, and nothing else
    c = circ(2, Gate.h(0), Gate.cx(0, 1))
    assert template_sites(c, HH, REVERSE) == [(0,), (1,), (2,)]


# --- application ----------------------------------------------------------------


def test_apply_cx_rev_forward():
    c = apply(circ(2, Gate.cx(0, 1)), Action(CX_REV, FORWARD, (0,)))
    assert c.gates == (Gate.h(0), Gate.h(1), Gate.cx(1, 0), Gate.h(0), Gate.h(1))


def test_apply_hh_forward_deletes_pair():
    c = apply(
        circ(1, Gate.h(0), Gate.h(0)), Action(HH, FORWARD, (0, 1))
    )
    assert c.gates == ()


def test_hh_insert_then_cancel_roundtrip():
    c0 = circ(2, Gate.cx(0, 1))
    c1 = apply(c0, Action(HH, REVERSE, (1,)))
    assert c1.gates == (Gate.cx(0, 1), Gate.h(0), Gate.h(1), Gate.h(0), Gate.h(1))
    assert template_sites(c1, HH, FORWARD) == [(1, 3), (2, 4)]
    c2 = apply(c1, Action(HH, FORWARD, (1, 3)))
    assert c2.gates == (Gate.cx(0, 1), Gate.h(1), Gate.h(1))
    c3 = apply(c2, Action(HH, FORWARD, (1, 2)))
    assert c3 == c0


def test_apply_all_wires_insertion():
    c = apply(circ(2, Gate.cx(0, 1)), Action(HH, REVERSE, (1,)))
    assert c.gates == (Gate.cx(0, 1), Gate.h(0), Gate.h(1), Gate.h(0), Gate.h(1))


def test_apply_cx_par_moves_gate():
    c = circ(4, Gate.cx(0, 1), Gate.h(3), Gate.cx(0, 2))
    moved = apply(c, Action(CX_PAR, FORWARD, (0, 2)))
    assert moved.gates == (Gate.cx(0, 1), Gate.cx(0, 2), Gate.h(3))


def test_apply_stale_site_raises():
    c = circ(2, Gate.h(0), Gate.cx(0, 1), Gate.h(0))
    with pytest.raises(StaleSiteError):
        apply(c, Action(HH, FORWARD, (0, 2)))
    with pytest.raises(StaleSiteError):
        apply(c, Action(CX_REV, FORWARD, (0,)))
    # identical adjacent gates of the other template's kind
    with pytest.raises(StaleSiteError):
        apply(circ(2, Gate.cx(0, 1), Gate.cx(0, 1)), Action(HH, FORWARD, (0, 1)))
    with pytest.raises(StaleSiteError):
        apply(circ(1, Gate.h(0), Gate.h(0)), Action(CXCX, FORWARD, (0, 1)))


def test_apply_refuses_a_site_of_the_wrong_length_or_an_unknown_template():
    c = circ(2, Gate.h(0), Gate.h(0), Gate.cx(0, 1))
    for a in (
        Action(HH, FORWARD, (2,)),
        Action(HH, FORWARD, (0, 1, 2)),
        Action(HH, REVERSE, (0, 1)),
        Action(CXCX, REVERSE, (0, 1, 0)),
        Action(CX_PAR, FORWARD, ()),
        Action(CX_REV, FORWARD, (2, 3)),
        Action(CX_REV, REVERSE, (2,)),
        Action(CX_PAR, REVERSE, (0, 1)),
        Action("HX", FORWARD, (0, 1)),
    ):
        with pytest.raises(StaleSiteError):
            apply(c, a)


def test_apply_inserts_only_shared_gates():
    # the input holds fresh gates, so a result gate that is none of them was
    # inserted by the rewrite, and must be Gate.h's or Gate.cx's shared gate;
    # the empty circuits are the ones that seed CNOT pairs
    inserting = set()
    for seed in range(60):
        shared = random_icmh_circuit(2 + seed % 3, seed % 9, seed)
        c = shared.with_gates(Gate(g.qubits, g.is_cx) for g in shared.gates)
        own = {id(g) for g in c.gates}
        for a in enumerate_actions(c):
            for g in apply(c, a).gates:
                if id(g) not in own:
                    assert g is (Gate.cx(*g.qubits) if g.is_cx else Gate.h(*g.qubits)), (a, g)
                    inserting.add((a.kind, a.direction))
    assert inserting == {(HH, REVERSE), (CXCX, REVERSE), (CX_REV, FORWARD)}


# --- enumeration ----------------------------------------------------------------


def test_enumerate_empty_circuit():
    actions = enumerate_actions(circ(2))
    kinds = {(a.kind, a.direction) for a in actions}
    assert kinds == {(HH, REVERSE), (CXCX, REVERSE)}
    assert all(action_key(a).endswith(":0") for a in actions)  # every insertion at position 0
    assert (0,) in [a.site for a in actions if a.kind == HH]


def test_enumerate_unoptimised_bv2():
    c = bv_circuit(BvSpec(2, 0b11))
    actions = enumerate_actions(c)
    rev_sites = [a.site for a in actions if a.kind == CX_REV]
    assert (3,) in rev_sites and (4,) in rev_sites
    assert not any(
        a.kind == HH and a.direction == FORWARD for a in actions
    )


def test_action_keys_unique_and_stable():
    for seed in range(30):
        c = random_icmh_circuit(3, seed % 10, seed)
        actions = enumerate_actions(c)
        keys = [action_key(a) for a in actions]
        assert len(keys) == len(set(keys))
        assert keys == [reference_key(a) for a in actions]
    c = circ(3, Gate.cx(0, 1))
    assert action_key(Action(CX_REV, FORWARD, (0,))) == "CX_REV.fwd@0"
    assert action_key(Action(HH, REVERSE, (3,))) == "HH.rev@all:3"
    assert action_key(Action(CXCX, REVERSE, (0, 2))) == "CXCX.rev@0-2:0"
    assert action_key(Action(HH, FORWARD, (1, 4))) == "HH.fwd@1-4"


def test_layered_enumeration_equals_filtered_full_space():
    # list equality, order included: the agent picks an index into this list
    circuits = [random_icmh_circuit(2 + i % 4, i % 23, 500 + i) for i in range(240)]
    circuits += [circ(3), circ(2, Gate.h(0), Gate.h(0), Gate.h(1)), bv_circuit(BvSpec(3, 5))]
    for c in circuits:
        layered = enumerate_actions(c, layered=True)
        assert layered == layered_filter(c, enumerate_actions(c)), state_string(c)
    sites = [a.site for a in enumerate_actions(circ(2), layered=True)]
    assert sites == [(0,), (0, 1), (1, 0)]
    # a CNOT-free circuit that is not empty seeds no CNOT pair in either space
    cnot_free = circ(2, Gate.h(0), Gate.h(0))
    assert [a.site for a in enumerate_actions(cnot_free)] == [
        (0, 1), (0,), (1,), (2,)
    ]
    sites = [a.site for a in enumerate_actions(cnot_free, layered=True)]
    assert sites == [(0, 1), (0,), (2,)]


def test_one_pass_enumeration_equals_the_per_template_matchers():
    # list equality, order included, in both spaces and at every budget from
    # below any template's delta to above an H layer's
    circuits = [random_icmh_circuit(2 + i % 5, i // 5 % 25, 3000 + i) for i in range(3000)]
    circuits += [bv_circuit(BvSpec(n, s)) for n in range(2, 6) for s in range(1 << n)]
    circuits += [opposite_cnot_chain(2 + i % 4, 4 + i % 20, i) for i in range(60)]
    templates = set()
    for c in circuits:
        templates.update((a.kind, a.direction) for a in enumerate_actions(c))
        for layered in (False, True):
            for budget in (None, *range(-3, 2 * c.n_wires + 6)):
                got = enumerate_actions(c, layered, budget)
                want = reference_enumeration(c, layered, budget)
                assert got == want, (state_string(c), layered, budget)
    assert templates == set(rewrite._ACTIONS)


def test_fast_path_actions_are_real_actions():
    # enumerate_actions returns shared Actions: every item must still be an
    # Action in type, fields, equality, key and application
    circuits = [random_icmh_circuit(2 + i % 5, i % 23, 900 + i) for i in range(300)]
    circuits.append(circ(3))
    circuits += [bv_circuit(BvSpec(n, s)) for n in (2, 3, 4) for s in range(1 << n)]
    for c in circuits:
        n = c.n_wires
        full, layered = enumerate_actions(c), enumerate_actions(c, layered=True)
        spaces = [full, layered]
        for in_layers, space in ((False, full), (True, layered)):
            for budget in range(-3, 2 * n + 6):
                budgeted = enumerate_actions(c, in_layers, budget)
                assert budgeted == budget_filter(space, n, budget), (state_string(c), budget)
                spaces.append(budgeted)
        for actions in spaces:
            for a in actions:
                assert type(a) is Action
                slow = Action(a.kind, a.direction, a.site)
                assert a == slow and hash(a) == hash(slow)
                assert (a.kind, a.direction, a.site) == tuple(slow)
                assert action_key(a) == action_key(slow) == reference_key(slow)
                assert apply(c, a) == apply(c, slow)


def test_enumeration_deterministic():
    # every action is the module's shared one: a second call returns the same objects
    for c in (random_icmh_circuit(4, 10, 11), circ(3)):
        for kwargs in ({}, {"budget": 2}, {"layered": True}, {"layered": True, "budget": 2}):
            first, second = enumerate_actions(c, **kwargs), enumerate_actions(c, **kwargs)
            assert first == second and first
            assert all(a is b for a, b in zip(first, second))


def test_action_key_cache_matches_uncached_formatter():
    # a key served from the cache equals the key formatted afresh, for every
    # template of both spaces
    templates = set()
    for i in range(200):
        c = random_icmh_circuit(2 + i % 4, i % 17, 1200 + i)
        for actions in (enumerate_actions(c), enumerate_actions(c, layered=True)):
            for a in actions:
                assert action_key(a) == uncached_action_key(a), a
                templates.add((a.kind, a.direction))
    assert templates == set(rewrite._TEMPLATES)


def test_a_repeated_run_adds_nothing_to_the_shared_tables():
    # the shared gates, edges, actions, keys and budget tests are bounded by
    # circuit size: a second identical phase 1 meets only values the first
    # one made
    spec = BvSpec(2, 0b11)
    cfg = benchmark_agent_config(spec, 100, 0)

    def sizes():
        return {
            "h gates": len(circuit._H_GATES),
            "cx gates": len(circuit._CX_GATES),
            "edge rows": len(dag._EDGES),
            "edges": sum(map(len, dag._EDGES)),
            "actions": sum(map(len, rewrite._ACTIONS.values())),
            "keys": len(rewrite._KEYS),
            "budget tests": len(rewrite._FITS),
        }

    run_baseline(spec, cfg)
    first = sizes()
    assert all(first.values()), first
    run_baseline(spec, cfg)
    assert sizes() == first


# --- soundness and structure ------------------------------------------------------


def test_gate_count_deltas():
    for seed in range(25):
        c = random_icmh_circuit(3, 3 + seed % 8, seed)
        for a in enumerate_actions(c):
            out = apply(c, a)
            assert len(out) - len(c) == gate_count_delta(a.kind, a.direction, c.n_wires), (a, c)
            if a.kind == CX_PAR:
                assert sorted(map(repr, out.gates)) == sorted(map(repr, c.gates))


def test_every_action_preserves_unitary():
    # smaller sweep here; the acceptance suite runs the full 200-circuit one
    for seed in range(40):
        c = random_icmh_circuit(2 + seed % 3, 2 + seed % 9, seed)
        u = unitary(c)
        for a in enumerate_actions(c):
            v = unitary(apply(c, a))
            assert np.allclose(u, v, atol=1e-9), (state_string(c), a)


def test_commutes_rule():
    assert commutes(Gate.cx(0, 1), Gate.cx(0, 2))
    assert not commutes(Gate.cx(0, 1), Gate.cx(1, 0))
    assert not commutes(Gate.cx(0, 1), Gate.cx(2, 1))
    assert not commutes(Gate.h(0), Gate.cx(0, 1))
    assert commutes(Gate.h(2), Gate.cx(0, 1))
    assert commutes(Gate.h(0), Gate.h(1))


def test_commutes_truth_table_matches_set_rule():
    gates = [Gate.h(q) for q in range(4)]
    gates += [Gate.cx(c, t) for c in range(4) for t in range(4) if c != t]
    for a in gates:
        for b in gates:
            assert commutes(a, b) == commutes_by_sets(a, b), (a, b)


def test_commutes_is_sound_against_the_unitary():
    # every ordered pair of the 16 gates on 4 wires: a pair the rule lets
    # commute has equal unitaries in both orders, and the pairs that commute
    # but are refused are exactly the identical pairs and the CNOT pairs
    # that share only a target
    gates = [Gate.h(q) for q in range(4)]
    gates += [Gate.cx(c, t) for c in range(4) for t in range(4) if c != t]
    refused = set()
    for a in gates:
        for b in gates:
            same = np.allclose(unitary(circ(4, a, b)), unitary(circ(4, b, a)), atol=1e-12)
            if commutes(a, b):
                assert same, (a, b)
            elif same:
                refused.add((a, b))
    identical = {(g, g) for g in gates}
    shared_target = {
        (a, b) for a in gates for b in gates
        if a.is_cx and b.is_cx and a.target == b.target and a.control != b.control
    }
    assert len(identical) == 16 and len(shared_target) == 24
    assert refused == identical | shared_target


def test_bfs_reaches_depth_three_within_six_actions():
    res = bfs_optimize(bv_circuit(BvSpec(2, 0b11)), target_depth=3, max_radius=6)
    assert res is not None
    radius, best, path = res
    assert radius <= 6
    assert depth(best) == 3
    assert len(path) == radius
    # replaying the path lands on the same circuit
    c = bv_circuit(BvSpec(2, 0b11))
    for a in path:
        c = apply(c, a)
    assert c == best
    assert np.allclose(unitary(c), unitary(bv_circuit(BvSpec(2, 0b11))), atol=1e-9)
