"""Typed-node DAG view of a circuit, the autoencoder's input representation.

A DAG is node types and forward edges, nothing more: the encoder reads a
circuit by node type and structure alone, as D-VAE does, so edges carry no
wire labels.

The wire rules, which this module alone writes down: every wire (plus one
extra *fake* wire) is threaded input -> gate nodes -> output.  A CNOT
becomes a ctrl_op node on its control wire and a trgt_op node on its target
wire; the fake wire connects ctrl -> trgt within each CNOT and chains
consecutive CNOTs, which keeps predecessor and successor counts equal on
every gate node.  When a fake-wire edge would duplicate an existing edge
between the same node pair (consecutive CNOTs whose target and control share
a wire), a helper node is inserted on that fake edge so the DAG stays free of
parallel edges.  Nodes are numbered in program order: the n + 1 inputs (wire
w is node w, the fake wire node n), then each gate's nodes, then the n + 1
outputs.  So node ids are a topological order: every edge ``(u, v)`` has
``u < v``, and the encoder visits nodes in id order.

``DEGREES`` is the DAG contract, the (in, out) degree these rules give each
node type.  ``validate`` checks it, with forward, unrepeated edges, and the
autoencoder relies on it: a valid DAG has two nodes or more, node 0 an input
and as many outputs as inputs.

Two walks apply these rules.  ``to_dag`` builds the DAG (corpus harvest,
``verify``, tests), taking every edge pair from one shared table so that it
allocates no edge object.  ``hash_cons`` builds none: it keys each node by
its type and its predecessors' ids, reads the node's id from an
``Interned`` table by one subscript (the table makes the id of a new key)
and returns the output nodes' ids, all that ``dvae.encode_np`` needs.  One
walk calling back once per node made ``to_dag`` about twice as slow on the
3256 Q-table circuits of ``exact_bv3`` seed 0 (23 ms -> 43-45 ms, best of
9 on a 2-core host), so the two share no code; ``tests/test_dag.py`` holds
them to one graph.

The debug text is one ``node <id> <type>`` line per node in id order, then
one ``edge <src> <dst>`` line per edge in stored order, so
``dag_from_debug_text(dag_to_debug_text(d)) == d``.  A corpus file
(``save_corpus``, ``load_corpus``) holds one debug text per DAG, the blocks
separated by a blank line.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .circuit import Circuit, Interned


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

# the DAG contract: each node type's (in, out) degree
DEGREES = {
    NodeType.INPUT: (0, 1), NodeType.OUTPUT: (1, 0), NodeType.HADAMARD: (1, 1),
    NodeType.CTRL_OP: (2, 2), NodeType.TRGT_OP: (2, 2), NodeType.HELPER: (1, 1),
}


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


# _EDGES[v][u] is the shared edge (u, v).  A row is filled only with the
# edges built, not with all v pairs: one long circuit would otherwise hold a
# pair for every two of its nodes.
_EDGES: list[Interned] = []


def to_dag(c: Circuit) -> CircuitDag:
    """Convert a circuit to its typed-node DAG (always passes validate).

    Nodes are numbered in program order: the n + 1 inputs (wire w is node w,
    the fake wire node n), then each gate's nodes, then the n + 1 outputs.
    Each edge is the one shared ``(u, v)`` pair of the module's edge table,
    which grows to the largest DAG built (at most ``2(n + 1) + 3 * gates``
    nodes), so the DAG allocates no edge object; its edges compare equal to
    fresh pairs."""
    # members bound once (an Enum class attribute read is slow); k counts node ids
    hadamard, ctrl_op, trgt_op, helper_op = (
        NodeType.HADAMARD, NodeType.CTRL_OP, NodeType.TRGT_OP, NodeType.HELPER)
    n = c.n_wires
    fake = n
    rows = _EDGES
    for v in range(len(rows), 2 * (n + 1) + 3 * len(c.gates)):
        rows.append(Interned(lambda u, v=v: (u, v)))
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
                edges.append(rows[k][fake_last])
                fake_last = k
                k += 1
            trgt = k + 1
            types += (ctrl_op, trgt_op)
            into_ctrl, into_trgt = rows[k], rows[trgt]
            edges += (
                into_ctrl[last[cq]], into_ctrl[fake_last], into_trgt[last[tq]], into_trgt[k])
            last[cq] = k
            last[tq] = fake_last = trgt
            k += 2
        else:
            q = g.qubits[0]
            types.append(hadamard)
            edges.append(rows[k][last[q]])
            last[q] = k
            k += 1

    last[fake] = fake_last
    types += [NodeType.OUTPUT] * (n + 1)
    edges += [rows[k + w][last[w]] for w in range(n + 1)]

    return CircuitDag(tuple(types), tuple(edges))


def hash_cons(c: Circuit, nodes: Interned) -> tuple[int, ...]:
    """Ids of ``to_dag(c)``'s output nodes in id order, keying each node by
    its type and then its predecessors' ids in edge order: the id is
    ``nodes[key]``, which ``nodes`` makes for a key it lacks.  ``last``
    holds each wire's last node number, ``ids`` each node's id."""
    hadamard, ctrl_op, trgt_op, helper_op = (
        NodeType.HADAMARD, NodeType.CTRL_OP, NodeType.TRGT_OP, NodeType.HELPER)
    n = c.n_wires
    ids = [nodes[(NodeType.INPUT,)]] * (n + 1)
    last = list(range(n + 1))
    fake_last, k = n, n + 1
    for g in c.gates:
        if g.is_cx:
            cq, tq = g.qubits
            if fake_last == last[cq]:  # node numbers: the inputs share one id
                ids.append(nodes[helper_op, ids[fake_last]])
                fake_last = k
                k += 1
            ctrl = nodes[ctrl_op, ids[last[cq]], ids[fake_last]]
            ids += (ctrl, nodes[trgt_op, ids[last[tq]], ctrl])
            last[cq] = k
            last[tq] = fake_last = k + 1
            k += 2
        else:
            q = g.qubits[0]
            ids.append(nodes[hadamard, ids[last[q]]])
            last[q] = k
            k += 1
    last[n] = fake_last
    # a plain loop: a comprehension is a function call on Python 3.11
    sinks = []
    for u in last:
        sinks.append(nodes[NodeType.OUTPUT, ids[u]])
    return tuple(sinks)


def validate(d: CircuitDag) -> list[str]:
    """Check all structural invariants; an empty list means the DAG is valid.

    ``DEGREES`` is the DAG contract: every node must have its type's (in,
    out) degree, every edge must go forward and no edge may repeat.  A cycle
    needs an edge that does not go forward, so this also rules out cycles,
    and a DAG with no node is invalid.  A valid DAG thus has node 0 an input
    and as many outputs as inputs."""
    n = d.n_nodes
    violations = [] if n else ["DAG has no node"]
    indeg, outdeg, seen = [0] * n, [0] * n, set()
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
        if (indeg[i], outdeg[i]) != DEGREES[t]:
            violations.append(f"{t.label} node {i} has degree ({indeg[i]}, {outdeg[i]})")
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
