"""Shared test oracles: DAG isomorphism, node relabelling and forward-action
BFS to a target depth.

The search is restricted to the forward direction of all four templates
(gate-count-nonincreasing, or structurally necessary for CX_REV).  The
agent's layered action space keeps every one of these moves, so a path found
here is valid in the agent's action space as long as it stays within the
agent's gate bound, and a radius bound certifies reachability for the agent.
"""

from __future__ import annotations

import networkx as nx

from qcopt.circuit import Circuit, depth, state_string
from qcopt.dag import CircuitDag, NodeType
from qcopt.rewrite import REVERSE, Action, apply, enumerate_actions


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
    """The same DAG with node i renamed perm[i]; edges and wire labels
    travel with their nodes."""
    types = [NodeType.INPUT] * d.n_nodes
    for i, t in enumerate(d.types):
        types[perm[i]] = t
    return CircuitDag(
        tuple(types),
        tuple(sorted((perm[u], perm[v]) for u, v in d.edges)),
        {(perm[u], perm[v]): w for (u, v), w in d.wire_of_edge.items()},
    )


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
