"""The four rewrite templates, applied forward (simplify) or in reverse (expand).

    HH      two Hadamards on one wire cancel
    CXCX    two identical CNOTs cancel
    CX_PAR  a CNOT moves up next to an earlier CNOT sharing its control
    CX_REV  CNOT(c,t) -> H(c) H(t) CNOT(t,c) H(c) H(t)

CX_PAR and CX_REV apply forward only.  A reversal is undone by reversing the
flanked CNOT again and cancelling the Hadamard pairs; a one-step undo would
poison Q-learning with a reverse/unreverse oscillation that shadows the
productive cancellations.

Match enumeration over a circuit defines the RL action space; the agent's
layered part of it is enumerated directly.  Every action is unitary-preserving;
sites carry enough indices to re-apply the action, and each action has a
stable text key ``<KIND>.<fwd|rev>@<site>`` used by the Q-table (sites render
as ``i-j``, ``q:p``, ``all:p``, ``c-t:p`` or ``i``).  A template kind is the
string its keys start with (``HH``, ``CXCX``, ``CX_PAR``, ``CX_REV``), as a
direction is the string ``fwd`` or ``rev``.
"""

from __future__ import annotations

from typing import NamedTuple

from .circuit import Circuit, Gate

FORWARD = "fwd"
REVERSE = "rev"

HH = "HH"
CXCX = "CXCX"
CX_PAR = "CX_PAR"
CX_REV = "CX_REV"


# Site variants, as tagged tuples:
#   ("pair", i, j)       gate-index pair (HH/CXCX forward, CX_PAR)
#   ("ins", q, p)        insert on wire q at gate-list position p (HH reverse)
#   ("all", p)           insert an H pair on every wire at position p
#   ("cxins", c, t, p)   insert a CNOT(c,t) pair at position p (CXCX reverse)
#   ("rev", i)           CNOT at gate index i (CX_REV)
Site = tuple


class Action(NamedTuple):
    kind: str
    direction: str
    site: Site


class StaleSiteError(ValueError):
    """The site does not match the circuit it is being applied to."""


def action_key(a: Action) -> str:
    kind, direction, site = a
    tag = site[0]
    if tag == "pair":
        return f"{kind}.{direction}@{site[1]}-{site[2]}"
    if tag == "rev":
        return f"{kind}.{direction}@{site[1]}"
    if tag == "ins":
        return f"{kind}.{direction}@{site[1]}:{site[2]}"
    if tag == "all":
        return f"{kind}.{direction}@all:{site[1]}"
    if tag == "cxins":
        return f"{kind}.{direction}@{site[1]}-{site[2]}:{site[3]}"
    raise ValueError(f"unknown site {site!r}")


def commutes(a: Gate, b: Gate) -> bool:
    """Sound commutation rule: disjoint supports, or CNOTs sharing only a control."""
    qa, qb = a.qubits, b.qubits
    if b.is_cx:
        if a.is_cx and qa[0] == qb[0]:
            return qa[1] != qb[1]
        return qb[0] not in qa and qb[1] not in qa
    return qb[0] not in qa


# --- forward matches ---------------------------------------------------------


def _matches_hh_fwd(c: Circuit) -> list[Site]:
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
                sites.append(("pair", last_h[q], i))
            last_h[q] = i
    sites.sort()
    return sites


def _matches_cxcx_fwd(c: Circuit) -> list[Site]:
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
                sites.append(("pair", i, j))
            break
    return sites


def _matches_cx_par(c: Circuit) -> list[Site]:
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
                sites.append(("pair", k, j))
            if not commutes(gk, gj):
                break
    sites.sort()
    return sites


def _matches_cx_rev_fwd(c: Circuit) -> list[Site]:
    return [("rev", i) for i, g in enumerate(c.gates) if g.is_cx]


# --- reverse matches ---------------------------------------------------------


def _insert_positions(c: Circuit, q: int) -> list[int]:
    # positions adjacent to gates touching wire q, plus position 0
    pos = {0}
    for k, g in enumerate(c.gates):
        if q in g.qubits:
            pos.add(k)
            pos.add(k + 1)
    return sorted(pos)


def _matches_hh_rev(c: Circuit) -> list[Site]:
    sites: list[Site] = []
    for q in range(c.n_wires):
        sites.extend(("ins", q, p) for p in _insert_positions(c, q))
    sites.extend(("all", p) for p in range(len(c.gates) + 1))
    return sites


def _matches_cxcx_rev(c: Circuit) -> list[Site]:
    # duplicate an existing CNOT next to itself; on a CNOT-free circuit any
    # ordered wire pair may seed a pair at position 0 (keeps the inverse of
    # CXCX-forward available everywhere without exploding the action space)
    sites = set()
    for k, g in enumerate(c.gates):
        if g.is_cx:
            sites.add(("cxins", g.control, g.target, k))
            sites.add(("cxins", g.control, g.target, k + 1))
    if not sites:
        for ctrl in range(c.n_wires):
            for tgt in range(c.n_wires):
                if ctrl != tgt:
                    sites.add(("cxins", ctrl, tgt, 0))
    return sorted(sites)


_MATCHERS = {
    (HH, FORWARD): _matches_hh_fwd,
    (HH, REVERSE): _matches_hh_rev,
    (CXCX, FORWARD): _matches_cxcx_fwd,
    (CXCX, REVERSE): _matches_cxcx_rev,
    (CX_PAR, FORWARD): _matches_cx_par,
    (CX_REV, FORWARD): _matches_cx_rev_fwd,
}
# same keys in the same order: updating a key keeps its place
_LAYERED = {
    **_MATCHERS,
    (HH, REVERSE): lambda c: [("all", p) for p in sorted({0, len(c.gates)})],
    (CXCX, REVERSE): lambda c: [] if c.gates else _matches_cxcx_rev(c),
}


# --- application -------------------------------------------------------------


def _check(cond: bool, why: str):
    if not cond:
        raise StaleSiteError(why)


def _segment_clear(gates, i, j, wires) -> bool:
    return not any(
        w in gates[k].qubits for k in range(i + 1, j) for w in wires
    )


def apply(c: Circuit, a: Action) -> Circuit:
    """Apply one action; the result has exactly the same unitary.

    Raises StaleSiteError when the site does not fit the circuit (the action
    was enumerated on a different circuit).
    """
    gates = c.gates
    kind, direction, site = a

    if direction == FORWARD and kind in (HH, CXCX):
        # two identical gates with nothing between them on their wires cancel
        _, i, j = site
        _check(0 <= i < j < len(gates), "gate index out of range")
        gi = gates[i]
        _check(
            gi == gates[j] and gi.is_cx == (kind == CXCX),
            "site is not two identical gates of the template's kind",
        )
        _check(_segment_clear(gates, i, j, gi.qubits), "a gate blocks the wires")
        return c.with_gates(gates[:i] + gates[i + 1 : j] + gates[j + 1 :])

    if kind == HH and direction == REVERSE:
        if site[0] == "all":
            p = site[1]
            _check(0 <= p <= len(gates), "position out of range")
            layer = tuple(Gate.h(w) for w in range(c.n_wires))
            return c.with_gates(gates[:p] + layer + layer + gates[p:])
        _, q, p = site
        _check(0 <= q < c.n_wires and 0 <= p <= len(gates), "site out of range")
        return c.with_gates(gates[:p] + (Gate.h(q), Gate.h(q)) + gates[p:])

    if kind == CXCX and direction == REVERSE:
        _, ctrl, tgt, p = site
        _check(
            0 <= ctrl < c.n_wires and 0 <= tgt < c.n_wires and ctrl != tgt,
            "bad wire pair",
        )
        _check(0 <= p <= len(gates), "position out of range")
        pair = (Gate.cx(ctrl, tgt), Gate.cx(ctrl, tgt))
        return c.with_gates(gates[:p] + pair + gates[p:])

    if kind == CX_PAR and direction == FORWARD:
        _, i, j = site
        _check(0 <= i < j < len(gates), "gate index out of range")
        gi, gj = gates[i], gates[j]
        _check(
            gi.is_cx and gj.is_cx and gi.control == gj.control and gi.target != gj.target,
            "site is not a same-control CNOT pair",
        )
        _check(
            all(commutes(gates[k], gj) for k in range(i + 1, j)),
            "a crossed gate does not commute",
        )
        return c.with_gates(
            gates[: i + 1] + (gj,) + gates[i + 1 : j] + gates[j + 1 :]
        )

    if kind == CX_REV and direction == FORWARD:
        _, i = site
        _check(0 <= i < len(gates) and gates[i].is_cx, "site is not a CNOT")
        cq, tq = gates[i].qubits
        block = (Gate.h(cq), Gate.h(tq), Gate.cx(tq, cq), Gate.h(cq), Gate.h(tq))
        return c.with_gates(gates[:i] + block + gates[i + 1 :])

    raise StaleSiteError(f"unsupported action {a!r}")


def gate_count_delta(a: Action, n_wires: int) -> int:
    """How many gates the action adds (negative for cancellations)."""
    kind, direction, site = a
    if direction == FORWARD:
        if kind in (HH, CXCX):
            return -2
        if kind == CX_REV:
            return 4
        return 0
    if site[0] == "all":
        return 2 * n_wires
    return 2


def enumerate_actions(
    c: Circuit, layered: bool = False, budget: int | None = None
) -> list[Action]:
    """Union of all template matches in ``_MATCHERS`` order, unique keys.

    ``layered`` gives the agent's space, an order-preserving subsequence: H
    layers on all wires at either end only, CNOT pairs on the empty circuit only.

    ``budget`` (layered space only) keeps exactly the actions whose
    ``gate_count_delta`` is at most ``budget``.  In the layered space every
    site of one template has the same delta (HH reverse yields only ``all``
    sites, CXCX reverse only ``cxins`` sites, and the forward templates' deltas
    do not depend on the site), so the delta is computed once per template
    from its first site and a template over budget is skipped whole.
    """
    if budget is not None and not layered:
        raise ValueError("a gate budget needs the layered space")
    n = c.n_wires
    actions: list[Action] = []
    for (kind, direction), matcher in (_LAYERED if layered else _MATCHERS).items():
        sites = matcher(c)
        if not sites:
            continue
        if budget is not None and gate_count_delta(Action(kind, direction, sites[0]), n) > budget:
            continue
        actions.extend([Action(kind, direction, s) for s in sites])
    return actions
