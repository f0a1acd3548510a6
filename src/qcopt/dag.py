"""Typed-node DAG view of a circuit, the autoencoder's input representation.

A DAG is node types and forward edges, nothing more: the encoder reads a
circuit by node type and structure alone, as D-VAE does, so edges carry no
wire labels.

Every wire (plus one extra *fake* wire) is threaded input -> gate nodes ->
output.  A CNOT becomes a ctrl_op node on its control wire and a trgt_op node
on its target wire; the fake wire connects ctrl -> trgt within each CNOT and
chains consecutive CNOTs, which keeps predecessor and successor counts equal
on every gate node.  When a fake-wire edge would duplicate an existing edge
between the same node pair (consecutive CNOTs whose target and control share
a wire), a helper node is inserted on that fake edge so the DAG stays free of
parallel edges.

Node ids are a topological order: every edge ``(u, v)`` has ``u < v``.
``to_dag`` numbers nodes in program order, so its DAGs keep this rule, and
the encoder visits nodes in id order.  ``dvae.encode_np`` also encodes a
circuit directly, walking its wires by the rules of ``to_dag`` below without
building the DAG; a change to those rules must change that walk too, and
``tests/test_dvae.py`` (``test_encode_np_circuit_walk_equals_dag_walk``)
holds the two equal bit for bit.

The debug text is one ``node <id> <type>`` line per node in id order, then
one ``edge <src> <dst>`` line per edge in stored order, so
``dag_from_debug_text(dag_to_debug_text(d)) == d``.  A corpus file
(``save_corpus``, ``load_corpus``) holds one debug text per DAG, the blocks
separated by a blank line.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .circuit import Circuit


class NodeType(IntEnum):
    # a type is its one-hot feature index
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
    """Nodes are ids 0..n-1 with a type each; edges are ordered pairs, and
    every edge goes forward (``u < v``), so the ids are a topological order.
    """

    types: tuple[NodeType, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.types)

    def predecessors(self) -> list[list[int]]:
        """Each node's predecessors in edge order.  Callers visit nodes in id
        order, so an edge that does not go forward raises ValueError."""
        out = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            if u >= v:
                raise ValueError(f"edge {(u, v)} does not go forward")
            out[v].append(u)
        return out


def to_dag(c: Circuit) -> CircuitDag:
    """Convert a circuit to its typed-node DAG (always passes validate).

    Nodes are numbered in program order: the n + 1 inputs (wire w is node w,
    the fake wire node n), then each gate's nodes, then the n + 1 outputs."""
    # members bound once (an Enum class attribute read is slow); k counts node ids
    hadamard, ctrl_op, trgt_op, helper_op = (
        NodeType.HADAMARD, NodeType.CTRL_OP, NodeType.TRGT_OP, NodeType.HELPER)
    n = c.n_wires
    fake = n
    types: list[NodeType] = [NodeType.INPUT] * (n + 1)
    edges: list[tuple[int, int]] = []
    last = list(range(n + 1))
    fake_last, k = fake, n + 1

    for g in c.gates:
        if g.is_cx:
            cq, tq = g.qubits
            if fake_last == last[cq]:
                # fake edge would parallel the real edge into the ctrl node
                types.append(helper_op)
                edges.append((fake_last, k))
                fake_last = k
                k += 1
            trgt = k + 1
            types += (ctrl_op, trgt_op)
            edges += ((last[cq], k), (fake_last, k), (last[tq], trgt), (k, trgt))
            last[cq] = k
            last[tq] = fake_last = trgt
            k += 2
        else:
            q = g.qubits[0]
            types.append(hadamard)
            edges.append((last[q], k))
            last[q] = k
            k += 1

    last[fake] = fake_last
    types += [NodeType.OUTPUT] * (n + 1)
    edges += [(last[w], k + w) for w in range(n + 1)]

    return CircuitDag(tuple(types), tuple(edges))


def validate(d: CircuitDag) -> list[str]:
    """Check all structural invariants; an empty list means the DAG is valid.

    Every edge must go forward; a cycle needs an edge that does not, so this
    also rules out cycles."""
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
        if u >= v:
            violations.append(f"edge {e} does not go forward")
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

    return violations


# --- debug text and corpus files --------------------------------------------


def dag_to_debug_text(d: CircuitDag) -> str:
    """`node <id> <type>` lines then `edge <src> <dst>` lines in stored order."""
    lines = [f"node {i} {t.label}" for i, t in enumerate(d.types)]
    lines += [f"edge {u} {v}" for u, v in d.edges]
    return "\n".join(lines) + "\n"


def dag_from_debug_text(text: str) -> CircuitDag:
    """Parse dag_to_debug_text output.  A malformed line, or a DAG that fails
    ``validate``, raises ValueError: this is where DAGs enter from outside."""
    types: list[NodeType] = []
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        kind, *args = line.split()
        try:
            if kind not in ("node", "edge") or len(args) != 2:
                raise ValueError("malformed, expected 'node <id> <type>' or 'edge <src> <dst>'")
            if kind == "edge":
                edges.append((int(args[0]), int(args[1])))
            elif int(args[0]) != len(types):
                raise ValueError(f"node ids must be dense and ordered, expected {len(types)}")
            elif args[1] not in _TYPE_BY_LABEL:
                raise ValueError(f"unknown node type {args[1]!r}")
            else:
                types.append(_TYPE_BY_LABEL[args[1]])
        except ValueError as exc:
            raise ValueError(f"debug line {line!r}: {exc}") from None
    d = CircuitDag(tuple(types), tuple(edges))
    violations = validate(d)
    if violations:
        raise ValueError(f"invalid DAG: {'; '.join(violations[:3])}")
    return d


def save_corpus(corpus: list[CircuitDag], path: str):
    with open(path, "w", encoding="utf-8") as fh:
        for d in corpus:
            fh.write(dag_to_debug_text(d))
            fh.write("\n")


def load_corpus(path: str) -> list[CircuitDag]:
    """Read a save_corpus file.  A bad block raises ValueError naming its
    number, counted from 1, and what is wrong in it."""
    with open(path, encoding="utf-8") as fh:
        blocks = [b for b in fh.read().split("\n\n") if b.strip()]
    corpus = []
    for i, block in enumerate(blocks, start=1):
        try:
            corpus.append(dag_from_debug_text(block))
        except ValueError as exc:
            raise ValueError(f"{path}: DAG block {i}: {exc}") from None
    return corpus
