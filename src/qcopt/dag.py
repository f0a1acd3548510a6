"""Typed-node DAG view of a circuit, the autoencoder's input representation.

Every wire (plus one extra *fake* wire) is threaded input -> gate nodes ->
output.  A CNOT becomes a ctrl_op node on its control wire and a trgt_op node
on its target wire; the fake wire connects ctrl -> trgt within each CNOT and
chains consecutive CNOTs, which keeps predecessor and successor counts equal
on every gate node.  When a fake-wire edge would duplicate an existing edge
between the same node pair (consecutive CNOTs whose target and control share
a wire), a helper node is inserted on that fake edge so the DAG stays free of
parallel edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .circuit import Circuit


class NodeType(Enum):
    # values are the one-hot feature indices
    INPUT = 0
    OUTPUT = 1
    HADAMARD = 2
    CTRL_OP = 3
    TRGT_OP = 4
    HELPER = 5

    @property
    def label(self) -> str:
        return self.name.lower()


_TYPE_BY_LABEL = {t.label: t for t in NodeType}
N_NODE_TYPES = len(NodeType)


@dataclass(frozen=True, slots=True)
class CircuitDag:
    """Nodes are ids 0..n-1 with a type each; edges are ordered pairs.

    ``wire_of_edge`` labels each edge with its wire (real wires 0..n-1, fake
    wire n) when the DAG came from a circuit; structure-only DAGs leave it
    empty.
    """

    types: tuple[NodeType, ...]
    edges: tuple[tuple[int, int], ...]
    wire_of_edge: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.types)

    def successors(self) -> list[list[int]]:
        out = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            out[u].append(v)
        return out

    def predecessors(self) -> list[list[int]]:
        out = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            out[v].append(u)
        return out


def to_dag(c: Circuit) -> CircuitDag:
    """Convert a circuit to its typed-node DAG (always passes validate)."""
    n = c.n_wires
    fake = n
    types: list[NodeType] = []
    edges: list[tuple[int, int]] = []
    wires: dict[tuple[int, int], int] = {}

    def add_node(t: NodeType) -> int:
        types.append(t)
        return len(types) - 1

    def add_edge(u: int, v: int, wire: int):
        edges.append((u, v))
        wires[(u, v)] = wire

    last = [add_node(NodeType.INPUT) for _ in range(n + 1)]
    fake_last = last[fake]

    for g in c.gates:
        if g.is_cx:
            cq, tq = g.qubits
            if fake_last == last[cq]:
                # fake edge would parallel the real edge into the ctrl node
                helper = add_node(NodeType.HELPER)
                add_edge(fake_last, helper, fake)
                fake_last = helper
            ctrl = add_node(NodeType.CTRL_OP)
            add_edge(last[cq], ctrl, cq)
            add_edge(fake_last, ctrl, fake)
            trgt = add_node(NodeType.TRGT_OP)
            add_edge(last[tq], trgt, tq)
            add_edge(ctrl, trgt, fake)
            last[cq] = ctrl
            last[tq] = trgt
            fake_last = trgt
        else:
            q = g.qubits[0]
            node = add_node(NodeType.HADAMARD)
            add_edge(last[q], node, q)
            last[q] = node

    last[fake] = fake_last
    for w in range(n + 1):
        out = add_node(NodeType.OUTPUT)
        add_edge(last[w], out, w)

    return CircuitDag(tuple(types), tuple(edges), wires)


def validate(d: CircuitDag) -> list[str]:
    """Check all structural invariants; an empty list means the DAG is valid."""
    violations: list[str] = []
    n = d.n_nodes
    indeg = [0] * n
    outdeg = [0] * n
    seen = set()
    for e in d.edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            violations.append(f"edge {e} references unknown node")
            continue
        if e in seen:
            violations.append(f"parallel edge {e}")
        seen.add(e)
        outdeg[u] += 1
        indeg[v] += 1

    for i, t in enumerate(d.types):
        if t is NodeType.INPUT:
            if indeg[i] != 0 or outdeg[i] != 1:
                violations.append(
                    f"input node {i} has degree ({indeg[i]}, {outdeg[i]})"
                )
        elif t is NodeType.OUTPUT:
            if indeg[i] != 1 or outdeg[i] != 0:
                violations.append(
                    f"output node {i} has degree ({indeg[i]}, {outdeg[i]})"
                )
        elif indeg[i] != outdeg[i]:
            violations.append(f"degree imbalance at node {i} ({indeg[i]} != {outdeg[i]})")

    # Kahn sweep for acyclicity
    deg = list(indeg)
    succ = d.successors()
    stack = [i for i in range(n) if deg[i] == 0]
    visited = 0
    while stack:
        u = stack.pop()
        visited += 1
        for v in succ[u]:
            deg[v] -= 1
            if deg[v] == 0:
                stack.append(v)
    if visited != n:
        violations.append("cycle")

    if d.wire_of_edge:
        for e in d.edges:
            if e not in d.wire_of_edge:
                violations.append(f"edge {e} missing wire label")

    return violations


def topo_order(d: CircuitDag) -> list[int]:
    """Deterministic topological order; ties go to the lowest node id.

    ``to_dag`` numbers nodes in program order, inputs by wire first and
    outputs by wire last, so on a circuit's DAG this follows the gate list.
    """
    n = d.n_nodes
    indeg = [0] * n
    succ = d.successors()
    for _, v in d.edges:
        indeg[v] += 1

    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != n:
        raise ValueError("cycle detected in DAG")
    return order


# --- debug export ----------------------------------------------------------


def dag_to_debug_text(d: CircuitDag) -> str:
    """`node <id> <type>` lines then `edge <src> <dst> <wire>` lines."""
    lines = [f"node {i} {t.label}" for i, t in enumerate(d.types)]
    for u, v in sorted(d.edges):
        lines.append(f"edge {u} {v} {d.wire_of_edge.get((u, v), -1)}")
    return "\n".join(lines) + "\n"


_DEBUG_FIELDS = {"node": 3, "edge": 4}


def dag_from_debug_text(text: str) -> CircuitDag:
    """Parse dag_to_debug_text output; a malformed line raises ValueError."""
    types: list[NodeType] = []
    edges: list[tuple[int, int]] = []
    wires: dict[tuple[int, int], int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != _DEBUG_FIELDS.get(parts[0], len(parts)):
            raise ValueError(f"malformed debug line {line!r}")
        if parts[0] == "node":
            idx, label = int(parts[1]), parts[2]
            if idx != len(types):
                raise ValueError(f"node ids must be dense and ordered, got {idx}")
            if label not in _TYPE_BY_LABEL:
                raise ValueError(f"unknown node type {label!r}")
            types.append(_TYPE_BY_LABEL[label])
        elif parts[0] == "edge":
            u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
            edges.append((u, v))
            if w >= 0:
                wires[(u, v)] = w
        else:
            raise ValueError(f"unknown debug line {line!r}")
    return CircuitDag(tuple(types), tuple(edges), wires)
