import numpy as np
import pytest

from oracles import bfs_optimize, commutes_by_sets, layered_filter, reference_key
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


def circ(n, *gates):
    return Circuit(n, tuple(gates))


def template_sites(c, kind, direction):
    """The sites of one template and direction, in enumeration order."""
    return [a.site for a in enumerate_actions(c) if (a.kind, a.direction) == (kind, direction)]


# --- matching ------------------------------------------------------------------


def test_hh_forward_adjacent_pair():
    assert template_sites(circ(1, Gate.h(0), Gate.h(0)), HH, FORWARD) == [
        ("pair", 0, 1)
    ]


def test_hh_forward_blocked_by_cnot():
    c = circ(2, Gate.h(0), Gate.cx(0, 1), Gate.h(0))
    assert template_sites(c, HH, FORWARD) == []


def test_hh_forward_sees_through_other_wires():
    c = circ(2, Gate.h(0), Gate.h(1), Gate.h(0))
    assert template_sites(c, HH, FORWARD) == [("pair", 0, 2)]


def test_hh_forward_triple_gives_consecutive_pairs():
    c = circ(1, Gate.h(0), Gate.h(0), Gate.h(0))
    assert template_sites(c, HH, FORWARD) == [("pair", 0, 1), ("pair", 1, 2)]


def test_cxcx_forward_pair():
    c = circ(2, Gate.cx(0, 1), Gate.cx(0, 1))
    assert template_sites(c, CXCX, FORWARD) == [("pair", 0, 1)]


def test_cxcx_forward_blocked_by_touching_gate():
    c = circ(2, Gate.cx(0, 1), Gate.h(0), Gate.cx(0, 1))
    assert template_sites(c, CXCX, FORWARD) == []


def test_cx_par_adjacent_same_control():
    c = circ(3, Gate.cx(0, 1), Gate.cx(0, 2))
    assert template_sites(c, CX_PAR, FORWARD) == [("pair", 0, 1)]


def test_cx_par_crosses_commuting_gates_only():
    # H(3) is support-disjoint from CNOT(0,2), so it may be crossed
    c = circ(4, Gate.cx(0, 1), Gate.h(3), Gate.cx(0, 2))
    assert template_sites(c, CX_PAR, FORWARD) == [("pair", 0, 2)]
    # H(2) touches the moving CNOT's target: blocked
    c = circ(4, Gate.cx(0, 1), Gate.h(2), Gate.cx(0, 2))
    assert template_sites(c, CX_PAR, FORWARD) == []


def test_cx_rev_forward_every_cnot():
    c = circ(3, Gate.h(0), Gate.cx(0, 1), Gate.cx(1, 2))
    assert template_sites(c, CX_REV, FORWARD) == [("rev", 1), ("rev", 2)]


def test_cx_rev_reverse_never_enumerated():
    # undoing a reversal goes through CX_REV forward plus HH cancellations;
    # there is no CX_REV reverse direction to enumerate
    c = apply(circ(2, Gate.cx(0, 1)), Action(CX_REV, FORWARD, ("rev", 0)))
    assert template_sites(c, CX_REV, REVERSE) == []


def test_cx_par_has_no_reverse():
    c = circ(3, Gate.cx(0, 2), Gate.cx(0, 1))  # the result of a CX_PAR move
    assert template_sites(c, CX_PAR, FORWARD) == [("pair", 0, 1)]
    assert template_sites(c, CX_PAR, REVERSE) == []


def test_hh_reverse_positions_near_wire_gates():
    c = circ(2, Gate.h(0), Gate.cx(0, 1))
    sites = template_sites(c, HH, REVERSE)
    assert ("ins", 0, 0) in sites and ("ins", 0, 1) in sites and ("ins", 0, 2) in sites
    # wire 1 is only touched by the CNOT at index 1
    assert ("ins", 1, 0) in sites and ("ins", 1, 1) in sites and ("ins", 1, 2) in sites
    assert all(s[0] != "ins" or s[2] <= 2 for s in sites)
    assert [s for s in sites if s[0] == "all"] == [("all", 0), ("all", 1), ("all", 2)]


# --- application ----------------------------------------------------------------


def test_apply_cx_rev_forward():
    c = apply(circ(2, Gate.cx(0, 1)), Action(CX_REV, FORWARD, ("rev", 0)))
    assert c.gates == (Gate.h(0), Gate.h(1), Gate.cx(1, 0), Gate.h(0), Gate.h(1))


def test_apply_hh_forward_deletes_pair():
    c = apply(
        circ(1, Gate.h(0), Gate.h(0)), Action(HH, FORWARD, ("pair", 0, 1))
    )
    assert c.gates == ()


def test_hh_insert_then_cancel_roundtrip():
    c0 = circ(2, Gate.cx(0, 1))
    ins = Action(HH, REVERSE, ("ins", 1, 1))
    c1 = apply(c0, ins)
    assert c1.gates == (Gate.cx(0, 1), Gate.h(1), Gate.h(1))
    c2 = apply(c1, Action(HH, FORWARD, ("pair", 1, 2)))
    assert c2 == c0


def test_apply_all_wires_insertion():
    c = apply(circ(2, Gate.cx(0, 1)), Action(HH, REVERSE, ("all", 1)))
    assert c.gates == (Gate.cx(0, 1), Gate.h(0), Gate.h(1), Gate.h(0), Gate.h(1))


def test_apply_cx_par_moves_gate():
    c = circ(4, Gate.cx(0, 1), Gate.h(3), Gate.cx(0, 2))
    moved = apply(c, Action(CX_PAR, FORWARD, ("pair", 0, 2)))
    assert moved.gates == (Gate.cx(0, 1), Gate.cx(0, 2), Gate.h(3))


def test_apply_stale_site_raises():
    c = circ(2, Gate.h(0), Gate.cx(0, 1), Gate.h(0))
    with pytest.raises(StaleSiteError):
        apply(c, Action(HH, FORWARD, ("pair", 0, 2)))
    with pytest.raises(StaleSiteError):
        apply(c, Action(CX_REV, FORWARD, ("rev", 0)))
    # identical adjacent gates of the other template's kind
    with pytest.raises(StaleSiteError):
        apply(circ(2, Gate.cx(0, 1), Gate.cx(0, 1)), Action(HH, FORWARD, ("pair", 0, 1)))
    with pytest.raises(StaleSiteError):
        apply(circ(1, Gate.h(0), Gate.h(0)), Action(CXCX, FORWARD, ("pair", 0, 1)))


# --- enumeration ----------------------------------------------------------------


def test_enumerate_empty_circuit():
    actions = enumerate_actions(circ(2))
    kinds = {(a.kind, a.direction) for a in actions}
    assert kinds == {(HH, REVERSE), (CXCX, REVERSE)}
    assert all(a.site[-1] == 0 for a in actions)  # every insertion at position 0
    assert ("all", 0) in [a.site for a in actions]


def test_enumerate_unoptimised_bv2():
    c = bv_circuit(BvSpec(2, 0b11))
    actions = enumerate_actions(c)
    rev_sites = [a.site for a in actions if a.kind == CX_REV]
    assert ("rev", 3) in rev_sites and ("rev", 4) in rev_sites
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
    assert action_key(Action(CX_REV, FORWARD, ("rev", 0))) == "CX_REV.fwd@0"
    assert action_key(Action(HH, REVERSE, ("ins", 2, 1))) == "HH.rev@2:1"
    assert action_key(Action(HH, REVERSE, ("all", 3))) == "HH.rev@all:3"
    assert action_key(Action(CXCX, REVERSE, ("cxins", 0, 2, 1))) == "CXCX.rev@0-2:1"
    assert action_key(Action(HH, FORWARD, ("pair", 1, 4))) == "HH.fwd@1-4"


def test_layered_enumeration_equals_filtered_full_space():
    # list equality, order included: the agent picks an index into this list
    circuits = [random_icmh_circuit(2 + i % 4, i % 23, 500 + i) for i in range(240)]
    circuits += [circ(3), circ(2, Gate.h(0), Gate.h(0), Gate.h(1)), bv_circuit(BvSpec(3, 5))]
    for c in circuits:
        layered = enumerate_actions(c, layered=True)
        assert layered == layered_filter(c, enumerate_actions(c)), state_string(c)
    sites = [a.site for a in enumerate_actions(circ(2), layered=True)]
    assert sites == [("all", 0), ("cxins", 0, 1, 0), ("cxins", 1, 0, 0)]
    # a CNOT-free circuit seeds CNOT pairs in the full space only
    cnot_free = circ(2, Gate.h(0), Gate.h(0))
    assert ("cxins", 0, 1, 0) in [a.site for a in enumerate_actions(cnot_free)]
    sites = [a.site for a in enumerate_actions(cnot_free, layered=True)]
    assert sites == [("pair", 0, 1), ("all", 0), ("all", 2)]


def test_budget_needs_the_layered_space():
    with pytest.raises(ValueError, match="layered"):
        enumerate_actions(circ(2), budget=4)


def test_enumeration_deterministic():
    c = random_icmh_circuit(4, 10, 11)
    assert enumerate_actions(c) == enumerate_actions(c)


# --- soundness and structure ------------------------------------------------------


def test_gate_count_deltas():
    for seed in range(25):
        c = random_icmh_circuit(3, 3 + seed % 8, seed)
        for a in enumerate_actions(c):
            out = apply(c, a)
            assert len(out) - len(c) == gate_count_delta(a, c.n_wires), (a, c)
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
