import numpy as np
import pytest

from oracles import is_isomorphic, relabelled
from qcopt.circuit import BvSpec, Circuit, Gate, bv_circuit, random_icmh_circuit
from qcopt.dag import (
    CircuitDag,
    NodeType,
    dag_from_debug_text,
    dag_to_debug_text,
    load_corpus,
    save_corpus,
    to_dag,
    validate,
)


def circ(n, *gates):
    return Circuit(n, tuple(gates))


def count_types(d, t):
    return sum(1 for x in d.types if x is t)


# --- to_dag --------------------------------------------------------------------


def test_empty_circuit_dag():
    d = to_dag(circ(2))
    assert d.n_nodes == 6
    assert count_types(d, NodeType.INPUT) == 3
    assert count_types(d, NodeType.OUTPUT) == 3
    assert len(d.edges) == 3
    assert validate(d) == []


def test_single_h_dag():
    d = to_dag(circ(2, Gate.h(0)))
    assert count_types(d, NodeType.HADAMARD) == 1
    h = d.types.index(NodeType.HADAMARD)
    preds = d.predecessors()[h]
    succs = [v for u, v in d.edges if u == h]
    assert [d.types[p] for p in preds] == [NodeType.INPUT]
    assert [d.types[s] for s in succs] == [NodeType.OUTPUT]
    assert validate(d) == []


def test_single_cnot_dag_threads_fake_wire():
    d = to_dag(circ(2, Gate.cx(0, 1)))
    assert count_types(d, NodeType.CTRL_OP) == 1
    assert count_types(d, NodeType.TRGT_OP) == 1
    assert count_types(d, NodeType.HELPER) == 0
    ctrl = d.types.index(NodeType.CTRL_OP)
    trgt = d.types.index(NodeType.TRGT_OP)
    # the fake wire's input is input n_wires and its output the last node
    fake_in, fake_out = 2, d.n_nodes - 1
    assert d.types[fake_in] is NodeType.INPUT and d.types[fake_out] is NodeType.OUTPUT
    for edge in ((fake_in, ctrl), (ctrl, trgt), (trgt, fake_out)):
        assert edge in d.edges
    assert validate(d) == []


def test_same_orientation_cnot_pair_needs_no_helper():
    # fake thread trgt1 -> ctrl2 coexists with the real edges without clashing
    d = to_dag(circ(2, Gate.cx(0, 1), Gate.cx(0, 1)))
    assert count_types(d, NodeType.HELPER) == 0
    ctrls = [i for i, t in enumerate(d.types) if t is NodeType.CTRL_OP]
    trgts = [i for i, t in enumerate(d.types) if t is NodeType.TRGT_OP]
    assert (trgts[0], ctrls[1]) in d.edges
    assert validate(d) == []


def test_opposite_orientation_cnot_pair_inserts_helper():
    # trgt1 and ctrl2 sit adjacently on one real wire, so the fake-wire edge
    # would parallel the real edge; a helper disambiguates which is fake
    d = to_dag(circ(2, Gate.cx(0, 1), Gate.cx(1, 0)))
    assert count_types(d, NodeType.HELPER) == 1
    helper = d.types.index(NodeType.HELPER)
    preds = d.predecessors()[helper]
    succs = [v for u, v in d.edges if u == helper]
    assert [d.types[p] for p in preds] == [NodeType.TRGT_OP]
    assert [d.types[s] for s in succs] == [NodeType.CTRL_OP]
    assert validate(d) == []


def test_node_count_formula():
    for seed in range(500):
        c = random_icmh_circuit(2 + seed % 4, seed % 14, seed)
        d = to_dag(c)
        n_h = sum(1 for g in c.gates if not g.is_cx)
        n_cx = sum(1 for g in c.gates if g.is_cx)
        n_helpers = count_types(d, NodeType.HELPER)
        assert d.n_nodes == 2 * (c.n_wires + 1) + n_h + 2 * n_cx + n_helpers
        assert validate(d) == [], c


def test_bv_dag_valid():
    d = to_dag(bv_circuit(BvSpec(3, 0b101)))
    assert validate(d) == []


# --- validate ------------------------------------------------------------------


def test_validate_detects_cycle():
    # a cycle needs an edge that does not go forward
    d = CircuitDag(
        (NodeType.HADAMARD, NodeType.HADAMARD),
        ((0, 1), (1, 0)),
    )
    assert validate(d) == ["edge (1, 0) does not go forward"]


def test_validate_detects_degree_imbalance():
    d = CircuitDag(
        (NodeType.INPUT, NodeType.INPUT, NodeType.CTRL_OP, NodeType.OUTPUT),
        ((0, 2), (1, 2), (2, 3)),
    )
    assert any("imbalance" in v for v in validate(d))


def test_validate_detects_parallel_edge():
    d = CircuitDag(
        (NodeType.INPUT, NodeType.OUTPUT),
        ((0, 1), (0, 1)),
    )
    assert any("parallel" in v for v in validate(d))


def test_validate_detects_bad_io_degrees():
    d = CircuitDag((NodeType.INPUT, NodeType.OUTPUT, NodeType.OUTPUT), ((0, 1),))
    out = validate(d)
    assert any("output node 2" in v for v in out)


# --- node numbering -------------------------------------------------------------


def test_topo_empty_circuit_inputs_before_outputs():
    # node ids are the topological order: inputs by wire first, outputs by
    # wire last, each wire one edge input i -> output i, and the debug-text
    # round trip keeps the numbering
    c = circ(2)
    d = to_dag(c)
    for dag in (d, dag_from_debug_text(dag_to_debug_text(d))):
        k = c.n_wires + 1
        assert dag.types[:k] == (NodeType.INPUT,) * k
        assert dag.types[k:] == (NodeType.OUTPUT,) * k
        assert dag.edges == tuple((i, k + i) for i in range(k))
        assert dag == d


def test_topo_respects_edges():
    # every edge goes forward in id order, also after the debug-text round trip
    for seed in range(50):
        c = random_icmh_circuit(3, 10, seed)
        d = to_dag(c)
        for dag in (d, dag_from_debug_text(dag_to_debug_text(d))):
            k = c.n_wires + 1
            assert dag.types[:k] == (NodeType.INPUT,) * k
            assert dag.types[-k:] == (NodeType.OUTPUT,) * k
            assert all(u < v for u, v in dag.edges)


# --- isomorphism ----------------------------------------------------------------


def test_isomorphic_to_permutation_of_itself():
    rng = np.random.default_rng(3)
    for seed in range(20):
        d = to_dag(random_icmh_circuit(3, 8, seed))
        perm = list(rng.permutation(d.n_nodes))
        assert is_isomorphic(d, relabelled(d, perm))


def test_wire_relabelling_is_isomorphism():
    a = to_dag(circ(2, Gate.h(0)))
    b = to_dag(circ(2, Gate.h(1)))
    assert is_isomorphic(a, b)


def test_cnot_direction_symmetry():
    a = to_dag(circ(2, Gate.cx(0, 1)))
    b = to_dag(circ(2, Gate.cx(1, 0)))
    assert is_isomorphic(a, b)
    a2 = to_dag(circ(2, Gate.cx(0, 1), Gate.h(0)))
    assert not is_isomorphic(a2, b)


def test_non_isomorphic_same_sizes():
    # same node-type counts, different structure
    a = to_dag(circ(3, Gate.h(0), Gate.h(0)))
    b = to_dag(circ(3, Gate.h(0), Gate.h(1)))
    assert not is_isomorphic(a, b)


def test_isomorphism_reflexive_symmetric():
    dags = [to_dag(random_icmh_circuit(3, 6, s)) for s in range(6)]
    for d in dags:
        assert is_isomorphic(d, d)
    for x in dags:
        for y in dags:
            assert is_isomorphic(x, y) == is_isomorphic(y, x)


# --- debug export ----------------------------------------------------------------


def test_debug_text_roundtrip():
    # the text keeps the stored edge order, so the round trip is the identity
    for seed in range(200):
        d = to_dag(random_icmh_circuit(2 + seed % 4, seed % 14, seed))
        assert dag_from_debug_text(dag_to_debug_text(d)) == d


def test_debug_text_format():
    # edges in stored order: the fake wire's (1, 4) comes last, unsorted
    assert dag_to_debug_text(to_dag(circ(1, Gate.h(0)))) == (
        "node 0 input\nnode 1 input\nnode 2 hadamard\nnode 3 output\nnode 4 output\n"
        "edge 0 2\nedge 2 3\nedge 1 4\n"
    )


def test_debug_text_rejects_short_lines():
    # and long ones, such as an edge line with a wire column
    good = dag_to_debug_text(to_dag(circ(1, Gate.h(0))))
    for bad in ("edge 0 1 0", "edge 0", "node 0", "edge", "node"):
        with pytest.raises(ValueError, match="malformed"):
            dag_from_debug_text(good + bad + "\n")


def test_load_corpus_names_the_bad_block(tmp_path):
    corpus = [to_dag(random_icmh_circuit(2, 4, seed)) for seed in range(2)]
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, str(path))
    assert load_corpus(str(path)) == corpus
    first, second = path.read_text().split("\n\n", 1)
    assert "\nedge 0 " in second
    path.write_text(first + "\n\n" + second.replace("\nedge 0 ", "\nedge a ", 1))
    with pytest.raises(ValueError, match=r"DAG block 2: debug line 'edge a \d+': invalid literal"):
        load_corpus(str(path))
