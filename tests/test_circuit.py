import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qcopt.circuit import (
    BvSpec,
    Circuit,
    CircuitError,
    Gate,
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


def test_gate_is_its_wires_and_cx_flag():
    assert Gate.h(1).is_cx is False
    assert Gate.cx(0, 1).is_cx is True
    assert Gate((0,), False) == Gate.h(0)
    assert hash(Gate((0, 1), True)) == hash(Gate.cx(0, 1))
    assert Gate((0, 1), False) != Gate.cx(0, 1)
    assert repr(Gate.h(0)) == "Gate(qubits=(0,), is_cx=False)"
    with pytest.raises(FrozenInstanceError):
        Gate.h(0).is_cx = True


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
