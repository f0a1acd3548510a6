"""Circuit IR: H/CNOT gate lists, QASM output, depth metric, unitary oracle.

The circuit is the RL environment's state carrier.  Gates are restricted to
Hadamard and CNOT, and a gate is named by its wires: ``(q,)`` for H,
``(control, target)`` for CNOT, with an ``is_cx`` flag, its key text and
its wire bound stored beside them (see ``Gate``).
The depth metric uses ASAP scheduling with one relaxation:
CNOTs that share only their control qubit may occupy the same moment (this is
the fan-out parallelism that makes the optimised Bernstein-Vazirani circuit
depth three).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_UNITARY_WIRES = 6


class CircuitError(ValueError):
    """Invalid circuit structure (wrong wire count, wire out of range, control == target)."""


class Interned(dict):
    """Key -> one shared immutable value, made by ``make(key)`` at the first
    subscript and kept; ``get`` and ``in`` make nothing.  Phase 1 builds the
    same gates, actions, keys and DAG edges over and over; sharing them
    leaves the cyclic garbage collector little to count.  Their keys come
    from circuit wires, gate positions and gate budgets, so those module
    tables are bounded by circuit size, not by run length.  Phase 3's encode tables
    (``dvae.EncodeTable``) are kept per run instead."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate, named by its wires: ``(q,)`` for H, ``(control, target)`` for CNOT.

    ``Gate.h`` and ``Gate.cx`` return one shared gate per wire or wire pair,
    so a rewrite that inserts gates allocates no gate object.  A gate is
    frozen, so only ``is`` tells a shared gate from an equal fresh one.

    Its ``text`` (``"cx 0 3"``, its part of ``state_string``) and
    ``min_wires`` (the fewest wires that hold it, ``math.inf`` when
    malformed) are set once, when it is built, so a state key is one join
    and a circuit's check one comparison per gate.  Both follow from the
    wires and kind, so they stay out of ``==``, ``hash`` and ``repr``.
    """

    qubits: tuple[int, ...]
    # stored, not derived from len(qubits): the rewrite matchers read it on every gate
    is_cx: bool
    text: str = field(init=False, repr=False, compare=False)
    min_wires: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qs, cx = self.qubits, self.is_cx
        object.__setattr__(self, "text", " ".join(["cx" if cx else "h", *map(str, qs)]))
        well_formed = len(qs) == 1 + cx == len(set(qs)) and min(qs) >= 0
        object.__setattr__(self, "min_wires", max(qs) + 1 if well_formed else math.inf)

    @staticmethod
    def h(q: int) -> "Gate":
        return _H_GATES[q]

    @staticmethod
    def cx(control: int, target: int) -> "Gate":
        return _CX_GATES[control, target]

    @property
    def control(self) -> int:
        return self.qubits[0]

    @property
    def target(self) -> int:
        return self.qubits[1]


_H_GATES = Interned(lambda q: Gate((q,), False))
_CX_GATES = Interned(lambda wires: Gate(wires, True))


@dataclass(frozen=True, slots=True)
class Circuit:
    """Ordered gate sequence on ``n_wires`` wires.  Immutable; order is program order."""

    n_wires: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_wires < 1:
            raise CircuitError(f"circuit needs at least one wire, got {self.n_wires}")
        # every rewrite builds a circuit, so the check is one comparison per
        # gate; _gate_fault says what failed
        n = self.n_wires
        for g in self.gates:
            if g.min_wires > n:
                raise CircuitError(_gate_fault(g, n))

    def with_gates(self, gates) -> "Circuit":
        return Circuit(self.n_wires, tuple(gates))

    def __len__(self) -> int:
        return len(self.gates)


def _gate_fault(g: Gate, n_wires: int) -> str:
    if len(g.qubits) != 1 + g.is_cx:
        wires = "a CNOT takes 2 wires" if g.is_cx else "an H gate takes 1 wire"
        return f"{wires}, got {g.qubits}"
    for q in g.qubits:
        if not 0 <= q < n_wires:
            return f"wire {q} out of range for {n_wires} wires"
    return f"CNOT control equals target (wire {g.qubits[0]})"


@dataclass(frozen=True, slots=True)
class BvSpec:
    """Bernstein-Vazirani benchmark: ``n_data`` data wires plus one ancilla, hidden ``secret``."""

    n_data: int
    secret: int

    def __post_init__(self):
        if self.n_data < 1:
            raise CircuitError("BV needs at least one data wire")
        if not 0 <= self.secret < (1 << self.n_data):
            raise CircuitError(
                f"secret {self.secret} does not fit in {self.n_data} bits"
            )

    @property
    def n_wires(self) -> int:
        return self.n_data + 1

    @property
    def ancilla(self) -> int:
        return self.n_data

    def secret_bits(self) -> list[int]:
        """Data wires whose secret bit is set, ascending."""
        return [i for i in range(self.n_data) if (self.secret >> i) & 1]


# --- QASM output ------------------------------------------------------------


def serialize_qasm(c: Circuit) -> str:
    """Canonical QASM text: a ``qreg q[N];`` header, then one ``h q[i];`` or
    ``cx q[c],q[t];`` line per gate in program order."""
    lines = [f"qreg q[{c.n_wires}];"]
    for g in c.gates:
        if g.is_cx:
            lines.append(f"cx q[{g.control}],q[{g.target}];")
        else:
            lines.append(f"h q[{g.qubits[0]}];")
    return "\n".join(lines) + "\n"


def state_string(c: Circuit) -> str:
    """Comma-joined lowercase gate list, e.g. ``"cx 0 1, cx 1 0"``.

    Uniquely identifies the gate sequence; the exact (non-lossy) RL state key.
    """
    return ", ".join([g.text for g in c.gates])


# --- depth -----------------------------------------------------------------


def asap_moments(c: Circuit) -> list[int]:
    """Moment index per gate under ASAP scheduling.

    Two gates conflict iff their wire supports intersect, except that two
    CNOTs whose every shared wire is a common control do not conflict.
    O(gates) via per-wire frontiers, updated by comparisons, not builtin
    ``max``: ``blocked[w]`` is the last moment of a gate using w as H wire or
    CNOT target, ``ctrl[w]`` of a gate using w as CNOT control.
    """
    blocked = [-1] * c.n_wires
    ctrl = [-1] * c.n_wires
    moments = []
    for g in c.gates:
        if g.is_cx:
            cq, tq = g.qubits
            m, b, t = blocked[cq], blocked[tq], ctrl[tq]
            m = m if m > b else b
            blocked[tq] = m = (m if m > t else t) + 1  # always past blocked[tq]
            moments.append(m)
            if m > ctrl[cq]:
                ctrl[cq] = m
        else:
            q = g.qubits[0]
            b, t = blocked[q], ctrl[q]
            blocked[q] = m = (b if b > t else t) + 1
            moments.append(m)
    return moments


def depth(c: Circuit) -> int:
    """Schedule length of the ASAP schedule (0 for the empty circuit)."""
    if not c.gates:
        return 0
    return max(asap_moments(c)) + 1


# --- unitary oracle --------------------------------------------------------

_H1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of the circuit, little-endian (wire 0 least significant).

    Test oracle for template soundness; limited to MAX_UNITARY_WIRES wires.
    """
    n = c.n_wires
    if n > MAX_UNITARY_WIRES:
        raise CircuitError(
            f"unitary supports at most {MAX_UNITARY_WIRES} wires, got {n}"
        )
    dim = 1 << n
    # columns indexed by input basis state; u reshaped to one axis per wire,
    # axis k = wire k (little-endian), last axis = input index
    u = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    for g in c.gates:
        if g.is_cx:
            cq, tq = g.qubits
            idx0 = [slice(None)] * (n + 1)
            idx1 = [slice(None)] * (n + 1)
            idx0[n - 1 - cq] = 1
            idx1[n - 1 - cq] = 1
            idx0[n - 1 - tq] = 0
            idx1[n - 1 - tq] = 1
            tmp = u[tuple(idx0)].copy()
            u[tuple(idx0)] = u[tuple(idx1)]
            u[tuple(idx1)] = tmp
        else:
            axis = n - 1 - g.qubits[0]
            u = np.moveaxis(
                np.tensordot(_H1, u, axes=([1], [axis])), 0, axis
            )
    return np.ascontiguousarray(u.reshape(dim, dim))


# --- generators ------------------------------------------------------------


def bv_circuit(spec: BvSpec) -> Circuit:
    """Unoptimised Bernstein-Vazirani circuit on n_data + 1 wires.

    H on every wire, CNOT(i -> ancilla) for each set secret bit i ascending,
    H on every wire.
    """
    n = spec.n_wires
    gates = [Gate.h(w) for w in range(n)]
    gates += [Gate.cx(i, spec.ancilla) for i in spec.secret_bits()]
    gates += [Gate.h(w) for w in range(n)]
    return Circuit(n, tuple(gates))


def random_icmh_circuit(n_wires: int, n_gates: int, seed: int) -> Circuit:
    """Uniformly random H/CNOT circuit, deterministic for a fixed seed."""
    if n_wires < 2:
        raise CircuitError("random circuits need at least 2 wires")
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(n_gates):
        if rng.integers(2) == 0:
            gates.append(Gate.h(int(rng.integers(n_wires))))
        else:
            cq = int(rng.integers(n_wires))
            tq = int(rng.integers(n_wires - 1))
            if tq >= cq:
                tq += 1
            gates.append(Gate.cx(cq, tq))
    return Circuit(n_wires, tuple(gates))
