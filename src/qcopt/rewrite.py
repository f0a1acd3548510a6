"""The four rewrite templates, applied forward (simplify) or in reverse (expand).

    HH      two Hadamards on one wire cancel
    CXCX    two identical CNOTs cancel
    CX_PAR  a CNOT moves up next to an earlier CNOT sharing its control
    CX_REV  CNOT(c,t) -> H(c) H(t) CNOT(t,c) H(c) H(t)

CX_PAR and CX_REV apply forward only.  A reversal is undone by reversing the
flanked CNOT again and cancelling the Hadamard pairs; a one-step undo would
poison Q-learning with a reverse/unreverse oscillation that shadows the
productive cancellations.

Match enumeration over a circuit defines the RL action space.  HH and
CXCX apply in reverse in one form each: an H layer on every wire, and a
CNOT pair seeded on the empty circuit.  The full space puts an H layer at
every gate-list position; the agent's layered space only at either end, and
is otherwise the same.  One forward pass over the gates finds every forward
site: per wire it keeps the last H since a CNOT (HH) and the last gate of
any kind, so a CNOT whose wires were both last touched by the same CNOT
closes a CXCX pair in O(1), and CX_PAR scans back from each CNOT the pass
collects.  Sites are sorted into a fixed order, because the agent draws an
index into the list.  Every site of one template has the same gate delta,
so a gate budget is tested once per template, in either space.

Every action is unitary-preserving; a site is just the indices its template
names, enough to re-apply the action, and each action has a stable text key
``<KIND>.<fwd|rev>@<site>`` used by the Q-table (sites render as ``i-j``,
``all:p``, ``c-t:0`` or ``i``).  A template kind is the string its keys
start with (``HH``, ``CXCX``, ``CX_PAR``, ``CX_REV``), as a direction is the
string ``fwd`` or ``rev``.

Phase 1 meets the same actions in state after state, so the module shares
one ``Action`` per (kind, direction, site) and formats each key once, and
``apply`` inserts only ``Gate.h`` and ``Gate.cx``'s shared gates: a rewrite
allocates no gate object.  All these values are immutable, so sharing them
shows only through ``is``.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .circuit import Circuit, Gate, Interned

FORWARD = "fwd"
REVERSE = "rev"

HH = "HH"
CXCX = "CXCX"
CX_PAR = "CX_PAR"
CX_REV = "CX_REV"


# A site is the tuple of indices its template names:
#   (i, j)   gate-index pair (HH/CXCX forward, CX_PAR)
#   (p,)     insert an H pair on every wire at gate-list position p (HH reverse)
#   (c, t)   insert a CNOT(c,t) pair at the front (CXCX reverse; only the
#            empty circuit seeds one)
#   (i,)     CNOT at gate index i (CX_REV)
Site = tuple

# (kind, direction) -> the length of its sites, in enumeration order
_TEMPLATES = {
    (HH, FORWARD): 2,
    (HH, REVERSE): 1,
    (CXCX, FORWARD): 2,
    (CXCX, REVERSE): 2,
    (CX_PAR, FORWARD): 2,
    (CX_REV, FORWARD): 1,
}


class Action(NamedTuple):
    kind: str
    direction: str
    site: Site


class StaleSiteError(ValueError):
    """The site does not match the circuit it is being applied to."""


def _format_key(a: Action) -> str:
    kind, direction, site = a
    if kind == CX_REV:
        return f"{kind}.{direction}@{site[0]}"
    if kind == HH and direction == REVERSE:
        return f"{kind}.{direction}@all:{site[0]}"
    if direction == REVERSE:
        return f"{kind}.{direction}@{site[0]}-{site[1]}:0"
    return f"{kind}.{direction}@{site[0]}-{site[1]}"


_KEYS = Interned(_format_key)
# action -> its Q-table key, formatted once per distinct action and shared
# from then on; the table's own lookup, so a key list is one C-level map
action_key = _KEYS.__getitem__


def commutes(a: Gate, b: Gate) -> bool:
    """Sound commutation rule: disjoint supports, or CNOTs sharing only a control."""
    qa, qb = a.qubits, b.qubits
    if b.is_cx:
        if a.is_cx and qa[0] == qb[0]:
            return qa[1] != qb[1]
        return qb[0] not in qa and qb[1] not in qa
    return qb[0] not in qa


# the one shared Action per site, per template
_ACTIONS = {template: Interned(partial(Action, *template)) for template in _TEMPLATES}


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
    was enumerated on a different circuit), when it does not fit its
    template, or when there is no such template.
    """
    gates = c.gates
    kind, direction, site = a
    if len(site) != _TEMPLATES.get((kind, direction)):
        raise StaleSiteError(f"site {site!r} does not fit template {kind}.{direction}")

    if direction == FORWARD and kind in (HH, CXCX):
        # two identical gates with nothing between them on their wires cancel
        i, j = site
        _check(0 <= i < j < len(gates), "gate index out of range")
        gi = gates[i]
        _check(
            gi == gates[j] and gi.is_cx == (kind == CXCX),
            "site is not two identical gates of the template's kind",
        )
        _check(_segment_clear(gates, i, j, gi.qubits), "a gate blocks the wires")
        return c.with_gates(gates[:i] + gates[i + 1 : j] + gates[j + 1 :])

    if kind == HH:  # reverse
        (p,) = site
        _check(0 <= p <= len(gates), "position out of range")
        layer = tuple(map(Gate.h, range(c.n_wires)))
        return c.with_gates(gates[:p] + layer + layer + gates[p:])

    if kind == CXCX:  # reverse
        ctrl, tgt = site
        _check(0 <= ctrl < c.n_wires and 0 <= tgt < c.n_wires and ctrl != tgt, "bad wire pair")
        cx = Gate.cx(ctrl, tgt)
        return c.with_gates((cx, cx) + gates)

    if kind == CX_PAR:
        i, j = site
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
        return c.with_gates(gates[: i + 1] + (gj,) + gates[i + 1 : j] + gates[j + 1 :])

    # CX_REV, the one template left
    (i,) = site
    _check(0 <= i < len(gates) and gates[i].is_cx, "site is not a CNOT")
    cq, tq = gates[i].qubits
    hc, ht = Gate.h(cq), Gate.h(tq)
    block = (hc, ht, Gate.cx(tq, cq), hc, ht)
    return c.with_gates(gates[:i] + block + gates[i + 1 :])


def gate_count_delta(kind: str, direction: str, n_wires: int) -> int:
    """How many gates an action of the template adds (negative for
    cancellations); every site of a template has the same delta."""
    if direction == FORWARD:
        if kind in (HH, CXCX):
            return -2
        if kind == CX_REV:
            return 4
        return 0
    if kind == HH:
        return 2 * n_wires
    return 2


# (n_wires, budget) -> per template, whether its gate delta is within the budget
_FITS = Interned(
    lambda key: tuple(key[1] is None or gate_count_delta(*t, key[0]) <= key[1] for t in _TEMPLATES)
)


def enumerate_actions(
    c: Circuit, layered: bool = False, budget: int | None = None
) -> list[Action]:
    """Union of all template matches in ``_TEMPLATES`` order, unique keys.

    The forward templates' sites come from one forward pass over the gates
    with two per-wire arrays: ``last_h[w]``, the last H on wire w since a
    CNOT touched it, and ``touch[w]``, the last gate of any kind on wire w.
    An H on q with ``last_h[q] >= 0`` closes an HH pair.  A CNOT j on (c, t)
    closes a CXCX pair with ``p = touch[c]`` exactly when ``p == touch[t]``
    and gate p is the same CNOT: nothing between them touches either wire.
    Every CNOT is a CX_REV site, and CX_PAR scans backward from each one,
    stopping at the first crossed gate that does not commute with it.  HH,
    CXCX and CX_PAR sites are then sorted as (first, second) index pairs: the
    agent draws an index into this list, so its order is part of every
    Q-table.

    HH reverse yields an H layer on all wires at every gate-list position,
    and CXCX reverse one CNOT-pair seed per ordered wire pair on the empty
    circuit only.  ``layered`` gives the agent's space, an order-preserving
    subsequence that keeps H layers at either end only.

    ``budget`` keeps exactly the actions whose ``gate_count_delta`` is at
    most ``budget``, in either space.  Every site of a template has the same
    delta, so the budget is tested once per template, through
    ``gate_count_delta`` on the template, before any site is sorted, scanned
    for or looked up: a template over budget is skipped whole, the CX_PAR
    scans included.  ``_FITS`` keeps the outcome per wire count and budget.

    Every item is the module's one shared ``Action`` for its kind, direction
    and site, so two calls on one circuit return identical objects and only
    the first meeting of an action allocates it.
    """
    gates = c.gates
    n = c.n_wires
    last_h = [-1] * n
    touch = [-1] * n
    hh: list[Site] = []
    cxcx: list[Site] = []
    rev: list[Site] = []
    for i, g in enumerate(gates):
        qs = g.qubits
        if g.is_cx:
            cq, tq = qs
            p = touch[cq]
            # gate p touches both wires, so it is a CNOT on them: compare
            # the orientation only
            if p >= 0 and p == touch[tq] and gates[p].qubits == qs:
                cxcx.append((p, i))
            rev.append((i,))
            last_h[cq] = last_h[tq] = -1
            touch[cq] = touch[tq] = i
        else:
            q = qs[0]
            h = last_h[q]
            if h >= 0:
                hh.append((h, i))
            last_h[q] = touch[q] = i

    hh_fits, hh_rev_fits, cxcx_fits, cxcx_rev_fits, par_fits, rev_fits = _FITS[n, budget]
    hh_actions, hh_rev_actions, cxcx_actions, cxcx_rev_actions, par_actions, rev_actions = (
        _ACTIONS.values()
    )
    actions: list[Action] = []
    if hh_fits and hh:
        hh.sort()
        actions += map(hh_actions.__getitem__, hh)
    if hh_rev_fits:
        # the layered space keeps the layers at either end only
        m = len(gates)
        ends = (0, m) if m else (0,)
        actions += [hh_rev_actions[p,] for p in (ends if layered else range(m + 1))]
    if cxcx_fits and cxcx:
        cxcx.sort()
        actions += map(cxcx_actions.__getitem__, cxcx)
    if cxcx_rev_fits and not gates:
        seeds = [(ctrl, tgt) for ctrl in range(n) for tgt in range(n) if ctrl != tgt]
        actions += map(cxcx_rev_actions.__getitem__, seeds)
    if par_fits and len(rev) > 1:
        par: list[Site] = []
        for (j,) in rev:
            cq, tq = gates[j].qubits
            # crossed gate k commutes with CNOT j iff it is a CNOT sharing
            # only j's control (a site) or touches neither of j's wires
            for k in range(j - 1, -1, -1):
                gk = gates[k]
                kq = gk.qubits
                if tq in kq:
                    break
                if cq in kq:
                    if kq[0] != cq or not gk.is_cx:
                        break
                    par.append((k, j))
        par.sort()
        actions += map(par_actions.__getitem__, par)
    if rev_fits:
        actions += map(rev_actions.__getitem__, rev)
    return actions
