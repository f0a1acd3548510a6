import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from oracles import reference_asap_moments, reference_gate_fits, reference_state_string
from qcopt.circuit import (
    BvSpec,
    Circuit,
    CircuitError,
    Gate,
    Interned,
    _gate_fault,
    asap_moments,
    bv_circuit,
    depth,
    random_icmh_circuit,
    serialize_qasm,
    state_string,
    unitary,
)


def circ(n, *gates):
    return Circuit(n, tuple(gates))


# --- independent oracle: literal pairwise-conflict ASAP schedule -------------


def _conflict(a: Gate, b: Gate) -> bool:
    shared = set(a.qubits) & set(b.qubits)
    if not shared:
        return False
    if a.is_cx and b.is_cx and shared == {a.control} and shared == {b.control}:
        return False
    return True


def oracle_depth(c: Circuit) -> int:
    moments = []
    for j, g in enumerate(c.gates):
        m = 0
        for i in range(j):
            if _conflict(c.gates[i], g):
                m = max(m, moments[i] + 1)
        moments.append(m)
    return max(moments) + 1 if moments else 0


# --- construction invariants -------------------------------------------------


def test_gate_out_of_range_rejected():
    with pytest.raises(CircuitError):
        circ(2, Gate.h(2))


def test_cnot_equal_wires_rejected():
    with pytest.raises(CircuitError):
        circ(2, Gate.cx(1, 1))


@pytest.mark.parametrize("gate, message", [
    # a two-wire H would read back as "h 0"; a one-wire CNOT has no target
    (Gate((0, 1), False), r"an H gate takes 1 wire, got \(0, 1\)"),
    (Gate((1,), True), r"a CNOT takes 2 wires, got \(1,\)"),
    (Gate.h(2), "wire 2 out of range for 2 wires"),
    (Gate.cx(0, -1), "wire -1 out of range for 2 wires"),
    (Gate.cx(1, 1), r"CNOT control equals target \(wire 1\)"),
])
def test_bad_gate_error_names_the_fault(gate, message):
    with pytest.raises(CircuitError, match=message):
        circ(2, gate)


def test_gate_is_its_wires_and_cx_flag():
    assert Gate.h(1).is_cx is False
    assert Gate.cx(0, 1).is_cx is True
    assert Gate((0,), False) == Gate.h(0)
    assert hash(Gate((0, 1), True)) == hash(Gate.cx(0, 1))
    assert Gate((0, 1), False) != Gate.cx(0, 1)
    assert repr(Gate.h(0)) == "Gate(qubits=(0,), is_cx=False)"
    with pytest.raises(FrozenInstanceError):
        Gate.h(0).is_cx = True


def test_circuit_check_accepts_what_the_per_kind_test_accepts():
    # every H and CNOT on wires -1..n, and gates with the wrong wire count;
    # fresh gates, so the shared tables gain no malformed entry
    for n in range(1, 7):
        wires = range(-1, n + 1)
        gates = [Gate((q,), False) for q in wires]
        gates += [Gate((c, t), True) for c in wires for t in wires]
        gates += [Gate((), False), Gate((0, 1), False), Gate((), True), Gate((0,), True),
                  Gate((0, 1, 2), True)]
        for g in gates:
            if reference_gate_fits(g, n):
                assert Circuit(n, (g, g)).gates == (g, g)
            else:
                with pytest.raises(CircuitError) as err:
                    Circuit(n, (g,))
                assert str(err.value) == _gate_fault(g, n), (g, n)


def test_gate_constructors_share_one_gate_per_wires():
    # sharing shows only through `is`: the shared gate equals a fresh one
    for q in range(5):
        assert Gate.h(q) == Gate((q,), False)
        assert Gate.h(q) is Gate.h(q)
    for c in range(4):
        for t in range(4):
            if c != t:
                assert Gate.cx(c, t) == Gate((c, t), True)
                assert Gate.cx(c, t) is Gate.cx(c, t)
    assert Gate.cx(0, 1) is not Gate.cx(1, 0)


def test_interned_makes_each_key_once_and_lookups_make_none():
    made = []

    def make(key):
        made.append(key)
        return [key]  # a fresh object per call, so `is` tells calls apart

    table = Interned(make)
    assert table.get("a") is None and "a" not in table and made == []
    first = table["a"]
    assert first == ["a"] and made == ["a"]
    assert table["a"] is first and table.get("a") is first and "a" in table
    assert made == ["a"]
    assert table["b"] is table["b"] and made == ["a", "b"]
    assert table.get("c") is None and "c" not in table and made == ["a", "b"]
    assert dict(table) == {"a": ["a"], "b": ["b"]}


# --- qasm ---------------------------------------------------------------------


def assert_qasm_lists_gates(c: Circuit):
    """Each serialize_qasm line after the header is the state_string gate it
    comes from, in program order."""
    header, *lines = serialize_qasm(c).splitlines()
    assert header == f"qreg q[{c.n_wires}];"
    gates = state_string(c).split(", ") if c.gates else []
    assert len(lines) == len(gates)
    for line, gate in zip(lines, gates):
        kind, *wires = gate.split()
        assert line == f"{kind} " + ",".join(f"q[{w}]" for w in wires) + ";"


def test_serialize_examples():
    assert serialize_qasm(circ(2)) == "qreg q[2];\n"
    assert serialize_qasm(circ(2, Gate.h(0))) == "qreg q[2];\nh q[0];\n"
    assert serialize_qasm(circ(2, Gate.cx(1, 0))) == "qreg q[2];\ncx q[1],q[0];\n"


def test_roundtrip_random_circuits():
    for seed in range(1000):
        c = random_icmh_circuit(2 + seed % 4, seed % 14, seed)
        assert_qasm_lists_gates(c)


# --- state string --------------------------------------------------------------


def test_state_string_examples():
    assert state_string(circ(2, Gate.cx(0, 1), Gate.cx(1, 0))) == "cx 0 1, cx 1 0"
    assert state_string(circ(2)) == ""
    assert state_string(circ(3, Gate.h(2))) == "h 2"


def test_state_string_equals_per_gate_reference():
    rng = np.random.default_rng(30)
    circuits = [
        random_icmh_circuit(int(rng.integers(2, 7)), int(rng.integers(0, 31)), seed)
        for seed in range(2000)
    ]
    circuits += [bv_circuit(BvSpec(k, s)) for k in range(2, 6) for s in range(1 << k)]
    circuits.append(circ(3))
    for c in circuits:
        # the same gates built afresh, not taken from the shared tables
        fresh = c.with_gates(Gate(g.qubits, g.is_cx) for g in c.gates)
        assert all(f is not g for f, g in zip(fresh.gates, c.gates))
        assert state_string(c) == state_string(fresh) == reference_state_string(c)
        assert fresh == c and hash(fresh) == hash(c)
    assert Gate((2, 0), True) == Gate.cx(2, 0) and hash(Gate((2, 0), True)) == hash(Gate.cx(2, 0))
    assert Gate((3,), False) == Gate.h(3) and hash(Gate((3,), False)) == hash(Gate.h(3))
    assert repr(Gate.h(0)) == "Gate(qubits=(0,), is_cx=False)"


def test_state_string_injective_on_random_corpus():
    seen = {}
    for seed in range(300):
        c = random_icmh_circuit(3, seed % 9, seed)
        key = state_string(c)
        if key in seen:
            assert seen[key] == c
        seen[key] = c


# --- depth ----------------------------------------------------------------------


def test_depth_shared_control_parallelises():
    assert depth(circ(3, Gate.cx(0, 1), Gate.cx(0, 2))) == 1


def test_depth_unoptimised_bv2():
    assert depth(bv_circuit(BvSpec(2, 0b11))) == 4


def test_depth_shared_target_serialises():
    assert depth(circ(3, Gate.cx(0, 2), Gate.cx(1, 2))) == 2


def test_depth_empty():
    assert depth(circ(3)) == 0


def test_depth_matches_pairwise_oracle():
    for seed in range(200):
        c = random_icmh_circuit(2 + seed % 4, seed % 15, seed)
        assert depth(c) == oracle_depth(c), state_string(c)


def test_moments_match_the_max_based_scheduler():
    # per gate, not just the depth that test_depth_matches_pairwise_oracle checks
    for seed in range(600):
        c = random_icmh_circuit(2 + seed % 5, seed % 31, 3000 + seed)
        assert asap_moments(c) == reference_asap_moments(c), state_string(c)
    fan = circ(5, *(Gate.cx(0, t) for t in range(1, 5)))  # one shared control
    chain = circ(5, *(Gate.cx(q, 4) for q in range(4)))  # one shared target
    # cx 0 3 lands before the control's frontier, which must not move back
    late_fan = circ(4, Gate.cx(1, 2), Gate.cx(0, 2), Gate.cx(0, 3), Gate.h(0))
    mixed = circ(4, Gate.h(0), Gate.cx(0, 1), Gate.cx(0, 2), Gate.cx(3, 2), Gate.cx(2, 0),
                 Gate.cx(0, 3), Gate.h(3), Gate.cx(1, 3), Gate.cx(2, 3))
    for c, want in [
        (fan, [0, 0, 0, 0]),
        (chain, [0, 1, 2, 3]),
        (late_fan, [0, 1, 0, 2]),
        (mixed, [0, 1, 1, 2, 3, 4, 5, 6, 7]),
    ]:
        assert asap_moments(c) == reference_asap_moments(c) == want, state_string(c)
        assert depth(c) == max(want) + 1 == oracle_depth(c)


def test_depth_invariant_under_in_moment_reordering():
    rng = np.random.default_rng(7)
    for seed in range(50):
        c = random_icmh_circuit(2 + seed % 3, 10, seed)
        moments = asap_moments(c)
        order = sorted(
            range(len(c.gates)), key=lambda i: (moments[i], rng.random())
        )
        shuffled = c.with_gates(c.gates[i] for i in order)
        assert depth(shuffled) == depth(c)


# --- unitary ---------------------------------------------------------------------


def test_unitary_h_definition():
    u = unitary(circ(1, Gate.h(0)))
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(u, expected, atol=1e-12)


def test_unitary_hh_cancels():
    u = unitary(circ(1, Gate.h(0), Gate.h(0)))
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_unitary_cnot_reversal_identity():
    lhs = unitary(circ(2, Gate.cx(0, 1)))
    rhs = unitary(
        circ(2, Gate.h(0), Gate.h(1), Gate.cx(1, 0), Gate.h(0), Gate.h(1))
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_unitary_little_endian_convention():
    # CNOT(0,1): wire 0 (LSB) controls wire 1; |01> -> |11>
    u = unitary(circ(2, Gate.cx(0, 1)))
    state = np.zeros(4)
    state[0b01] = 1.0
    out = u @ state
    assert abs(out[0b11] - 1.0) < 1e-12


def test_unitary_wire_cap():
    with pytest.raises(CircuitError):
        unitary(Circuit(7, ()))


# --- Bernstein-Vazirani ------------------------------------------------------------


def test_bv_gate_list():
    c = bv_circuit(BvSpec(2, 0b11))
    expected = circ(
        3,
        Gate.h(0), Gate.h(1), Gate.h(2),
        Gate.cx(0, 2), Gate.cx(1, 2),
        Gate.h(0), Gate.h(1), Gate.h(2),
    )
    assert c == expected


def test_bv_unitary_equals_cnot_fanout():
    # H-conjugation turns the CNOT fan-in into a fan-out from the ancilla;
    # checks the construction against a hand-built equivalent circuit
    for n_data, secret in [(1, 0b1), (2, 0b11), (3, 0b101)]:
        spec = BvSpec(n_data, secret)
        fanout = circ(
            spec.n_wires,
            *[Gate.cx(spec.ancilla, i) for i in spec.secret_bits()],
        )
        assert np.allclose(
            unitary(bv_circuit(spec)), unitary(fanout), atol=1e-9
        )


def test_bv5_secret31_shape():
    c = bv_circuit(BvSpec(5, 31))
    assert sum(1 for g in c.gates if g.is_cx) == 5
    assert depth(c) == 7


def test_bv_zero_secret():
    c = bv_circuit(BvSpec(3, 0))
    assert c.gates == tuple([Gate.h(w) for w in range(4)] * 2)
    assert np.allclose(unitary(c), np.eye(16), atol=1e-12)


def test_bv_rejects_oversized_secret():
    with pytest.raises(CircuitError):
        BvSpec(2, 4)


@pytest.mark.parametrize("make, message", [
    (lambda: Circuit(0, ()), "circuit needs at least one wire, got 0"),
    (lambda: BvSpec(0, 0), "BV needs at least one data wire"),
], ids=["circuit-no-wires", "bv-no-data-wires"])
def test_no_wires_rejected(make, message):
    with pytest.raises(CircuitError, match=message):
        make()


# --- random generator ----------------------------------------------------------------


def test_random_circuit_empty():
    assert random_icmh_circuit(2, 0, 123).gates == ()


def test_random_circuit_deterministic():
    assert random_icmh_circuit(2, 5, 42) == random_icmh_circuit(2, 5, 42)


def test_random_circuit_valid_and_roundtrips():
    for seed in range(200):
        c = random_icmh_circuit(4, 12, seed)
        assert_qasm_lists_gates(c)


def test_random_circuit_needs_two_wires():
    with pytest.raises(CircuitError):
        random_icmh_circuit(1, 3, 0)
