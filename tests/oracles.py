"""Shared test oracles: DAG isomorphism, node relabelling, random topological
orders, the agent's layered action space as a filter over the full one, the
gate budget as a per-action filter, action keys through a per-tag format
table, the set-based commutation rule, and forward-action BFS to a target depth.

The search is restricted to the forward direction of all four templates
(gate-count-nonincreasing, or structurally necessary for CX_REV).  The
agent's layered action space keeps every one of these moves, so a path found
here is valid in the agent's action space as long as it stays within the
agent's gate bound, and a radius bound certifies reachability for the agent.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from qcopt.circuit import Circuit, Gate, depth, state_string
from qcopt.dag import CircuitDag, NodeType
from qcopt.rewrite import REVERSE, Action, apply, enumerate_actions, gate_count_delta


def _digraph(d: CircuitDag) -> nx.MultiDiGraph:
    g = nx.MultiDiGraph()
    g.add_nodes_from((i, {"type": t}) for i, t in enumerate(d.types))
    g.add_edges_from(d.edges)
    return g


def is_isomorphic(a: CircuitDag, b: CircuitDag) -> bool:
    """True iff a bijection of node ids maps a's types and edges onto b's."""
    return nx.is_isomorphic(
        _digraph(a), _digraph(b), node_match=lambda x, y: x["type"] is y["type"]
    )


def relabelled(d: CircuitDag, perm: list[int]) -> CircuitDag:
    """The same DAG with node i renamed perm[i]; edges travel with their
    nodes."""
    types = [NodeType.INPUT] * d.n_nodes
    for i, t in enumerate(d.types):
        types[perm[i]] = t
    return CircuitDag(tuple(types), tuple(sorted((perm[u], perm[v]) for u, v in d.edges)))


def random_topological_order(d: CircuitDag, rng: np.random.Generator) -> list[int]:
    """A topological order of d's nodes by Kahn's algorithm, each step taking
    a uniformly drawn node among those whose predecessors are all placed."""
    indeg = [0] * d.n_nodes
    succ = [[] for _ in range(d.n_nodes)]
    for u, v in d.edges:
        indeg[v] += 1
        succ[u].append(v)
    ready = [i for i in range(d.n_nodes) if indeg[i] == 0]
    order = []
    while ready:
        u = ready.pop(int(rng.integers(len(ready))))
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    assert len(order) == d.n_nodes, "cycle"
    return order


def layered_filter(c: Circuit, actions: list[Action]) -> list[Action]:
    """Reference for ``enumerate_actions(c, layered=True)``: the full space
    with per-wire H-pair insertions dropped, all-wire H layers kept only at
    either end, and CNOT-pair insertions kept only on the empty circuit."""
    boundary = (0, len(c.gates))

    def keep(a):
        tag = a.site[0]
        if tag == "ins":
            return False
        if tag == "all":
            return a.site[1] in boundary
        if tag == "cxins":
            return not c.gates
        return True

    return [a for a in actions if keep(a)]


def budget_filter(actions: list[Action], n_wires: int, budget: int) -> list[Action]:
    """Reference for ``enumerate_actions(c, layered=True, budget=budget)``:
    the layered space filtered per action by its gate delta."""
    return [a for a in actions if gate_count_delta(a, n_wires) <= budget]


def reference_key(a: Action) -> str:
    """Reference for ``action_key``: a table of one format per site tag,
    written apart from ``action_key``'s branches."""
    tag, *rest = a.site
    site = {
        "pair": "{}-{}",
        "ins": "{}:{}",
        "all": "all:{}",
        "cxins": "{}-{}:{}",
        "rev": "{}",
    }[tag].format(*rest)
    return f"{a.kind}.{a.direction}@{site}"


def commutes_by_sets(a: Gate, b: Gate) -> bool:
    """Reference for ``rewrite.commutes``: disjoint wire sets, or CNOTs
    sharing only a control."""
    if a.is_cx and b.is_cx and a.control == b.control and a.target != b.target:
        return True
    return not set(a.qubits).intersection(b.qubits)


def _oracle_actions(c: Circuit) -> list[Action]:
    return [a for a in enumerate_actions(c) if a.direction != REVERSE]


def bfs_optimize(
    start: Circuit, target_depth: int = 3, max_radius: int = 8
) -> tuple[int, Circuit, list[Action]] | None:
    """Shortest forward-action path to depth <= target_depth.

    Returns (number of actions, final circuit, action path), or None when no
    circuit within max_radius reaches the target.
    """
    if depth(start) <= target_depth:
        return 0, start, []
    start_key = state_string(start)
    parents: dict[str, tuple[str, Action]] = {}
    circuits = {start_key: start}
    frontier = [start]
    for radius in range(1, max_radius + 1):
        next_frontier = []
        for c in frontier:
            c_key = state_string(c)
            for a in _oracle_actions(c):
                nxt = apply(c, a)
                key = state_string(nxt)
                if key in circuits:
                    continue
                circuits[key] = nxt
                parents[key] = (c_key, a)
                if depth(nxt) <= target_depth:
                    path = []
                    k = key
                    while k != start_key:
                        k, act = parents[k]
                        path.append(act)
                    path.reverse()
                    return radius, nxt, path
                next_frontier.append(nxt)
        frontier = next_frontier
    return None
