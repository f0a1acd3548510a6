"""Reference checks written independently of qcopt.

The benchmark judges the program's outputs with these functions only: its
own unitary, depth and gate-string parser, and a structural DAG validator.
None of them calls into ``qcopt``; circuits arrive as gate tuples
``("h", q)`` or ``("cx", control, target)``.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def parse_state_string(text: str) -> list[tuple]:
    """Gate tuples of an exact state key such as ``"h 0, cx 0 3"``."""
    gates = []
    for part in text.split(", ") if text else []:
        tok = part.split(" ")
        if tok[0] == "h" and len(tok) == 2:
            gates.append(("h", int(tok[1])))
        elif tok[0] == "cx" and len(tok) == 3:
            gates.append(("cx", int(tok[1]), int(tok[2])))
        else:
            raise ValueError(f"not a gate: {part!r}")
    return gates


def gates_of(circuit) -> list[tuple]:
    """Gate tuples of a circuit object exposing ``gates`` with ``is_cx`` and
    ``qubits``."""
    return [("cx", *g.qubits) if g.is_cx else ("h", g.qubits[0]) for g in circuit.gates]


def unitary(n_wires: int, gates: list[tuple]) -> np.ndarray:
    """Real 2^n x 2^n matrix of an H/CNOT circuit, built row-wise.

    Applying a gate G to the running product U gives G @ U: a Hadamard on
    wire q mixes each row pair that differs in bit q, a CNOT swaps the row
    pairs whose control bit is set and that differ in the target bit.
    """
    dim = 1 << n_wires
    idx = np.arange(dim)
    u = np.eye(dim)
    for g in gates:
        if g[0] == "h":
            bit = 1 << g[1]
            lo = idx[(idx & bit) == 0]
            hi = lo | bit
            a, b = u[lo], u[hi]
            u[lo], u[hi] = (a + b) * _SQRT_HALF, (a - b) * _SQRT_HALF
        else:
            c_bit, t_bit = 1 << g[1], 1 << g[2]
            lo = idx[((idx & c_bit) != 0) & ((idx & t_bit) == 0)]
            hi = lo | t_bit
            u[lo], u[hi] = u[hi], u[lo]
    return u


def same_unitary(n_wires: int, a: list[tuple], b: list[tuple]) -> bool:
    return bool(np.allclose(unitary(n_wires, a), unitary(n_wires, b), atol=1e-9))


def _conflict(a: tuple, b: tuple) -> bool:
    # two CNOTs may share a moment when every wire they share is a control of
    # both (fan-out parallelism); otherwise any shared wire conflicts
    shared = set(a[1:]) & set(b[1:])
    if not shared:
        return False
    if a[0] == "cx" and b[0] == "cx":
        return shared != {a[1]} or a[1] != b[1]
    return True


def depth(gates: list[tuple]) -> int:
    """ASAP schedule length: each gate lands one moment after the latest
    earlier gate it conflicts with."""
    moments: list[int] = []
    for i, g in enumerate(gates):
        m = 0
        for j in range(i):
            if moments[j] >= m and _conflict(gates[j], g):
                m = moments[j] + 1
        moments.append(m)
    return max(moments) + 1 if moments else 0


# (in-degree, out-degree) of every node type of a circuit DAG
_DEGREES = {
    "INPUT": (0, 1),
    "OUTPUT": (1, 0),
    "HADAMARD": (1, 1),
    "HELPER": (1, 1),
    "CTRL_OP": (2, 2),
    "TRGT_OP": (2, 2),
}


def dag_problems(n_wires: int, gates: list[tuple], types: list[str], edges) -> list[str]:
    """Why a DAG is not a valid view of the circuit; empty when it is.

    ``types`` are node type names and ``edges`` ordered node-id pairs.  The
    DAG threads every real wire plus one fake wire from an input to an
    output node, so it has n_wires + 1 of each, one HADAMARD node per H gate,
    one CTRL_OP and one TRGT_OP node per CNOT, fixed degrees per node type,
    no parallel edges and no cycle.
    """
    n = len(types)
    problems = []
    count = {t: 0 for t in _DEGREES}
    for t in types:
        if t not in count:
            return [f"unknown node type {t}"]
        count[t] += 1
    n_h = sum(1 for g in gates if g[0] == "h")
    n_cx = len(gates) - n_h
    expected = {"INPUT": n_wires + 1, "OUTPUT": n_wires + 1, "HADAMARD": n_h,
                "CTRL_OP": n_cx, "TRGT_OP": n_cx}
    for t, want in expected.items():
        if count[t] != want:
            problems.append(f"{count[t]} {t} nodes, expected {want}")

    indeg = [0] * n
    outdeg = [0] * n
    succ = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return problems + [f"bad edge {(u, v)}"]
        if (u, v) in seen:
            problems.append(f"parallel edge {(u, v)}")
        seen.add((u, v))
        outdeg[u] += 1
        indeg[v] += 1
        succ[u].append(v)
    for i, t in enumerate(types):
        if (indeg[i], outdeg[i]) != _DEGREES[t]:
            problems.append(f"node {i} ({t}) has degree {(indeg[i], outdeg[i])}")

    ready = [i for i in range(n) if indeg[i] == 0]
    left = list(indeg)
    done = 0
    while ready:
        u = ready.pop()
        done += 1
        for v in succ[u]:
            left[v] -= 1
            if left[v] == 0:
                ready.append(v)
    if done != n:
        problems.append("cycle")
    return problems
