"""Shared test oracles: DAG isomorphism, node relabelling, random topological
orders, the per-template forward matchers that ``enumerate_actions``' one
pass replaced, the reverse sites (H layers and CNOT-pair seeds) written
apart from ``rewrite``'s rule, the agent's layered action space as a filter
over the full one, the gate budget as a per-action filter, action keys
through a per-template format table and through the uncached formatter, the
set-based commutation rule, forward-action BFS to a target depth, frozen
copies of the ``max``-based ASAP scheduler, of the ``len``-numbered
``to_dag``, of the per-gate ``state_string`` and of ``Circuit``'s per-kind
gate check, which the faster versions in ``src/`` must match exactly,
hash-consing over
``to_dag``'s DAG as the reference for ``dag.hash_cons``, CNOT chains
dense in helper nodes, and the numpy latent key that ``dvae.latent_key``
must match string for string.

The search is restricted to the forward direction of all four templates
(gate-count-nonincreasing, or structurally necessary for CX_REV).  The
agent's layered action space keeps every one of these moves, so a path found
here is valid in the agent's action space as long as it stays within the
agent's gate bound, and a radius bound certifies reachability for the agent.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from qcopt.circuit import Circuit, Gate, depth, state_string
from qcopt.dag import CircuitDag, NodeType, to_dag
from qcopt.dvae import Latent
from qcopt.rewrite import (
    CX_PAR,
    CX_REV,
    CXCX,
    FORWARD,
    HH,
    REVERSE,
    Action,
    Site,
    apply,
    commutes,
    enumerate_actions,
    gate_count_delta,
)


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


# --- the forward matchers, one gate-list walk per template -------------------
# Copied unchanged from before ``enumerate_actions`` found every forward site
# in one pass, so its sites and their order can be compared against them.


def matches_hh_fwd(c: Circuit) -> list[Site]:
    # consecutive H pairs per wire <=> no intervening gate touches the wire
    sites = []
    last_h = [-1] * c.n_wires
    for i, g in enumerate(c.gates):
        if g.is_cx:
            cq, tq = g.qubits
            last_h[cq] = -1
            last_h[tq] = -1
        else:
            q = g.qubits[0]
            if last_h[q] >= 0:
                sites.append((last_h[q], i))
            last_h[q] = i
    sites.sort()
    return sites


def matches_cxcx_fwd(c: Circuit) -> list[Site]:
    sites = []
    gates = c.gates
    for i, g in enumerate(gates):
        if not g.is_cx:
            continue
        q = g.qubits
        cq, tq = q
        for j in range(i + 1, len(gates)):
            other = gates[j].qubits
            if cq not in other and tq not in other:
                continue
            if other == q:  # two wires: a CNOT
                sites.append((i, j))
            break
    return sites


def matches_cx_par(c: Circuit) -> list[Site]:
    # pairs (i, j), i < j, same control, distinct targets, where every gate
    # crossed when j moves to position i+1 commutes with gate j
    sites = []
    gates = c.gates
    for j, gj in enumerate(gates):
        if not gj.is_cx:
            continue
        cq, tq = gj.qubits
        for k in range(j - 1, -1, -1):
            gk = gates[k]
            if gk.is_cx and gk.qubits[0] == cq and gk.qubits[1] != tq:
                sites.append((k, j))
            if not commutes(gk, gj):
                break
    sites.sort()
    return sites


def matches_cx_rev_fwd(c: Circuit) -> list[Site]:
    return [(i,) for i, g in enumerate(c.gates) if g.is_cx]


# --- the reverse matchers, written apart from ``enumerate_actions``' rules ----


def matches_hh_rev(c: Circuit, layered: bool) -> list[Site]:
    # an H layer on every wire after each gate-list prefix; the layered
    # space keeps the prefixes that are empty or the whole circuit
    ends = {0, len(c.gates)}
    return [(p,) for p in range(len(c.gates) + 1) if not layered or p in ends]


def matches_cxcx_rev(c: Circuit) -> list[Site]:
    # the empty circuit seeds a CNOT pair on each ordered wire pair
    if c.gates:
        return []
    wires = range(c.n_wires)
    return [(ctrl, tgt) for ctrl in wires for tgt in wires if ctrl != tgt]


def reference_enumeration(
    c: Circuit, layered: bool = False, budget: int | None = None
) -> list[Action]:
    """Reference for ``enumerate_actions``: each template's matcher in turn,
    the ones above, and the budget tested on every action."""
    matchers = {
        (HH, FORWARD): matches_hh_fwd,
        (HH, REVERSE): lambda c: matches_hh_rev(c, layered),
        (CXCX, FORWARD): matches_cxcx_fwd,
        (CXCX, REVERSE): matches_cxcx_rev,
        (CX_PAR, FORWARD): matches_cx_par,
        (CX_REV, FORWARD): matches_cx_rev_fwd,
    }
    actions = [Action(*template, site) for template, match in matchers.items() for site in match(c)]
    if budget is None:
        return actions
    return [a for a in actions if gate_count_delta(a.kind, a.direction, c.n_wires) <= budget]


def layered_filter(c: Circuit, actions: list[Action]) -> list[Action]:
    """Reference for ``enumerate_actions(c, layered=True)``: the full space
    with all-wire H layers kept only at either end."""
    boundary = (0, len(c.gates))
    return [a for a in actions if (a.kind, a.direction) != (HH, REVERSE) or a.site[0] in boundary]


def budget_filter(actions: list[Action], n_wires: int, budget: int) -> list[Action]:
    """Reference for ``enumerate_actions(c, layered, budget)``: the space
    ``actions`` of either kind, filtered per action by its gate delta."""
    return [a for a in actions if gate_count_delta(a.kind, a.direction, n_wires) <= budget]


def reference_key(a: Action) -> str:
    """Reference for ``action_key``: a table of one format per template,
    written apart from ``action_key``'s branches."""
    site = {
        (HH, FORWARD): "{}-{}",
        (HH, REVERSE): "all:{}",
        (CXCX, FORWARD): "{}-{}",
        (CXCX, REVERSE): "{}-{}:0",
        (CX_PAR, FORWARD): "{}-{}",
        (CX_REV, FORWARD): "{}",
    }[a.kind, a.direction].format(*a.site)
    return f"{a.kind}.{a.direction}@{site}"


def uncached_action_key(a: Action) -> str:
    """Reference for ``action_key``'s cache: the formatter it runs once per
    distinct action, here run afresh on every call."""
    kind, direction, site = a
    if kind == CX_REV:
        return f"{kind}.{direction}@{site[0]}"
    if kind == HH and direction == REVERSE:
        return f"{kind}.{direction}@all:{site[0]}"
    if direction == REVERSE:
        return f"{kind}.{direction}@{site[0]}-{site[1]}:0"
    return f"{kind}.{direction}@{site[0]}-{site[1]}"


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


# --- frozen references for the scheduler and the DAG builder ------------------
# Copied unchanged from the versions they replaced, so every moment, node id
# and edge of the current code can be compared against them.


def reference_state_string(c: Circuit) -> str:
    """Comma-joined lowercase gate list, each gate formatted from its wires."""
    parts = []
    for g in c.gates:
        if g.is_cx:
            parts.append(f"cx {g.qubits[0]} {g.qubits[1]}")
        else:
            parts.append(f"h {g.qubits[0]}")
    return ", ".join(parts)


def reference_gate_fits(g: Gate, n_wires: int) -> bool:
    """Whether a circuit on ``n_wires`` wires may hold ``g``: one test per kind."""
    qs = g.qubits
    if g.is_cx:
        return len(qs) == 2 and qs[0] != qs[1] and 0 <= qs[0] < n_wires and 0 <= qs[1] < n_wires
    return len(qs) == 1 and 0 <= qs[0] < n_wires


def reference_asap_moments(c: Circuit) -> list[int]:
    """Moment index per gate under ASAP scheduling.

    Two gates conflict iff their wire supports intersect, except that two
    CNOTs whose every shared wire is a common control do not conflict.
    O(gates) via per-wire frontiers: ``blocked[w]`` is the last moment of a
    gate using w as H wire or CNOT target, ``ctrl[w]`` the last moment of a
    gate using w as CNOT control.
    """
    blocked = [-1] * c.n_wires
    ctrl = [-1] * c.n_wires
    moments = []
    for g in c.gates:
        if g.is_cx:
            cq, tq = g.qubits
            m = max(blocked[cq], blocked[tq], ctrl[tq]) + 1
            moments.append(m)
            if m > ctrl[cq]:
                ctrl[cq] = m
            if m > blocked[tq]:
                blocked[tq] = m
        else:
            q = g.qubits[0]
            m = max(blocked[q], ctrl[q]) + 1
            moments.append(m)
            blocked[q] = m
    return moments


def reference_to_dag(c: Circuit) -> CircuitDag:
    """Convert a circuit to its typed-node DAG (always passes validate).

    Nodes are numbered in program order: the n + 1 inputs (wire w is node w,
    the fake wire node n), then each gate's nodes, then the n + 1 outputs."""
    # members bound once: an Enum class attribute lookup is slow
    hadamard, ctrl_op, trgt_op, helper_op = (
        NodeType.HADAMARD, NodeType.CTRL_OP, NodeType.TRGT_OP, NodeType.HELPER)
    n = c.n_wires
    fake = n
    types: list[NodeType] = [NodeType.INPUT] * (n + 1)
    edges: list[tuple[int, int]] = []
    last = list(range(n + 1))
    fake_last = fake

    for g in c.gates:
        if g.is_cx:
            cq, tq = g.qubits
            if fake_last == last[cq]:
                # fake edge would parallel the real edge into the ctrl node
                helper = len(types)
                types.append(helper_op)
                edges.append((fake_last, helper))
                fake_last = helper
            ctrl = len(types)
            trgt = ctrl + 1
            types += (ctrl_op, trgt_op)
            edges += ((last[cq], ctrl), (fake_last, ctrl), (last[tq], trgt), (ctrl, trgt))
            last[cq] = ctrl
            last[tq] = trgt
            fake_last = trgt
        else:
            q = g.qubits[0]
            node = len(types)
            types.append(hadamard)
            edges.append((last[q], node))
            last[q] = node

    last[fake] = fake_last
    first_out = len(types)
    types += [NodeType.OUTPUT] * (n + 1)
    edges += [(last[w], first_out + w) for w in range(n + 1)]

    return CircuitDag(tuple(types), tuple(edges))


def reference_hash_cons(c: Circuit, nodes: dict) -> tuple[int, ...]:
    """Reference for ``dag.hash_cons`` with a table that numbers keys in
    order: ``to_dag(c)``'s nodes in id order, each keyed by its type and its
    predecessors' ids with ``setdefault``; the output nodes' ids in id order."""
    d = to_dag(c)
    ids = []
    for t, preds in zip(d.types, d.predecessors()):
        ids.append(nodes.setdefault((t, *(ids[u] for u in preds)), len(nodes)))
    return tuple(i for i, t in zip(ids, d.types) if t is NodeType.OUTPUT)


def opposite_cnot_chain(n_wires, length, seed):
    """CNOTs that mostly reverse the previous one's orientation on the same
    wire pair, with a few Hs between: ``to_dag`` inserts a helper wherever a
    CNOT's control is the previous CNOT's target with nothing in between."""
    rng = np.random.default_rng(seed)
    gates, cq, tq = [], 0, 1
    for _ in range(length):
        r = rng.random()
        if r < 0.15:
            gates.append(Gate.h(int(rng.integers(n_wires))))
            continue
        if r < 0.3:
            cq, tq = (int(w) for w in rng.choice(n_wires, 2, replace=False))
        gates.append(Gate.cx(cq, tq))
        cq, tq = tq, cq
    return Circuit(n_wires, tuple(gates))


def reference_latent_key(l: Latent, bin_width: float) -> str:
    """Reference for ``dvae.latent_key``: the numpy version it replaced,
    which divides the whole mean at once, refuses a quotient that is not
    finite and floors the rest."""
    if not 0 < bin_width < math.inf:
        raise ValueError("bin_width must be positive and finite")
    with np.errstate(over="ignore"):
        scaled = l.mu / bin_width
    if not np.all(np.isfinite(scaled)):
        raise ValueError("latent mean / bin_width is not finite")
    return ",".join(str(int(b)) for b in np.floor(scaled).tolist())
