"""Parser, canonical printing, causal structure, and foliation."""

import re
from collections.abc import Set
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optensor import (
    CircuitFragment,
    CircuitSyntaxError,
    ClosedLoop,
    Leg,
    OneWireViolation,
    SystemType,
    TypeMismatch,
    WireLabel,
    alternate_transpose_positivity,
    canonicalize,
    causal_structure,
    foliate,
    fragment_from_ops,
    parse_circuit,
    parse_registry,
    print_circuit,
    probability,
    probability_foliated,
    random_physical_transformation,
    random_preparation,
    random_result,
)
from optensor import notation
from optensor.notation import INPUT, OUTPUT, Foliation, PaddingIdentity
from conftest import (
    count_calls,
    mixed_circuits,
    random_brickwork,
    random_circuit,
    random_dag,
    scrambled,
)

MEDIUM = "A^{a1 b2} B^{a3 d4} C_{b2 a3}^{a5} D_{a1}^{b6} E_{a5 d4}^{c7} F_{b6 c7}"


def test_parse_simple_circuit():
    frag = parse_circuit("A^{a1} B_{a1}")
    assert frag.kind == "circuit"
    assert len(frag.internal_wires) == 1
    wire = frag.internal_wires[0]
    assert frag.ops[wire.producer].name == "A"
    assert frag.ops[wire.consumer].name == "B"
    assert wire.label == WireLabel("a", 1)


def test_parse_order_independent():
    a = canonicalize(parse_circuit("A^{a1} B_{a1}"))
    b = canonicalize(parse_circuit("B_{a1} A^{a1}"))
    assert a == b


def test_fragment_kinds():
    assert parse_circuit("A^{a1}").kind == "preparation"
    assert parse_circuit("A_{a1}").kind == "result"
    assert parse_circuit("A_{a1}^{b2}").kind == "transformation-fragment"
    assert parse_circuit("").kind == "circuit"


def test_closed_loop_two_cycle():
    with pytest.raises(ClosedLoop) as err:
        parse_circuit("A_{a1}^{a2} B_{a2}^{a1}")
    assert "A" in str(err.value) and "B" in str(err.value)


def test_closed_loop_names_first_cycle_in_sorted_visit_order():
    # A's successors are visited in declaration order: the B branch is
    # finished before the cycle through C is found.
    with pytest.raises(ClosedLoop, match="^A -> C -> E -> A$"):
        parse_circuit("A_{a9}^{a1 a2} B_{a1}^{a3} C_{a2}^{a4} D_{a3}^{a5} E_{a4}^{a9 a6} F_{a5 a6}")
    with pytest.raises(ClosedLoop, match="^A -> B -> D -> A$"):
        parse_circuit("A_{a8 a9}^{a1 a2} B_{a1}^{a3} C_{a2}^{a9} D_{a3}^{a8}")


def test_self_loop():
    with pytest.raises(ClosedLoop):
        parse_circuit("A_{a1}^{a1}")


def test_type_mismatch_on_shared_id():
    with pytest.raises(TypeMismatch):
        parse_circuit("A^{a1} B_{b1}")


def test_one_wire_violations():
    with pytest.raises(OneWireViolation):
        parse_circuit("A^{a1} B^{a1}")  # twice as output
    with pytest.raises(OneWireViolation):
        parse_circuit("A_{a1} B_{a1}")  # twice as input
    with pytest.raises(OneWireViolation):
        parse_circuit("A^{a1} B_{a1} C_{a1}")  # three occurrences
    with pytest.raises(OneWireViolation):
        parse_circuit("A^{a1 a1}")  # repeated within one declaration


def test_syntax_errors_carry_position():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("A^{a1")
    assert err.value.position == 5
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("A^{}")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("A^{a1}^{a2}")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("A^{1a}")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("A^{a0}")  # ids are positive
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("A^{a1b2}")  # labels must be separated


# Near-misses of valid circuit text, each edit at its k-th site: a brace, ``_``
# or ``^`` dropped or doubled, a subscript-then-superscript pair swapped, an id
# set to 0, a non-ASCII digit or space inserted, a space deleted.
EDITS = ("drop", "double", "swap", "zero", "insert", "despace")


def _edit(text: str, kind: str, k: int) -> str:
    if kind == "insert":
        i = k % (len(text) + 1)
        return text[:i] + "\xa0\u0661\u00b2\u2003"[k % 4] + text[i:]
    if kind == "swap":
        pairs = re.finditer(r"(_{[^}]*})(\^{[^}]*})", text)
        sites = [(m.start(), m.end(), m[2] + m[1]) for m in pairs]
    elif kind == "zero":
        ids = re.finditer(r"(?<=[A-Za-z])[0-9]+(?=[\s}])", text)
        sites = [(m.start(), m.end(), "0" * (1 + k % 2)) for m in ids]
    else:
        marks = {"drop": "{}_^", "double": "{}_^", "despace": " "}[kind]
        double = kind == "double"
        sites = [(i, i + 1, c * 2 if double else "") for i, c in enumerate(text) if c in marks]
    if not sites:
        return text
    start, stop, replacement = sites[k % len(sites)]
    return text[:start] + replacement + text[stop:]


def _outcome(text: str):
    """The fragment parsed from ``text``, or the error's class, message and position."""
    try:
        return parse_circuit(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _scanned(text: str):
    """:func:`_outcome` with every operation read by the character scanner alone."""
    scan_only = lambda text, pos, interned: notation._scan_op(text, pos)  # noqa: E731
    with mock.patch.object(notation, "_parse_op", scan_only):
        return _outcome(text)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dag=st.booleans(),
    edits=st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 10**6)), max_size=3),
)
def test_parser_agrees_with_the_scanner_on_near_misses(seed, dag, edits):
    """The one-pattern parse gives the scanner's fragment, or its error, class,
    message and position alike."""
    rng = np.random.default_rng(seed)
    frag = random_dag(rng, 20, 3)[0] if dag else random_circuit(rng, max_ops=6)[0]
    text = str(frag)
    for kind, k in edits:
        text = _edit(text, kind, k)
    assert _outcome(text) == _scanned(text)


def test_parser_reads_juxtaposed_operations_by_pattern(monkeypatch):
    """Whitespace between operations is optional, and well-formed text never
    reaches the scanner."""
    frag = parse_circuit("A^{a1}B_{a1}^{b2}C_{b2}")
    assert [str(op) for op in frag.ops] == ["A^{a1}", "B_{a1}^{b2}", "C_{b2}"]
    assert frag.kind == "circuit" and len(frag.internal_wires) == 2
    texts = [
        "A^{a1}B_{a1}^{b2}C_{b2}",
        "P^{a1 a2}G_{ a1\xa0a2 }^{a3}R_{a3}",
        "A^{a1}_{a2}",
        str(random_dag(np.random.default_rng(7), 300, 6)[0]),
    ]
    scans = count_calls(monkeypatch, notation, "_scan_op")
    parsed = [parse_circuit(text) for text in texts]
    assert scans == []
    assert parsed == [_scanned(text) for text in texts]


def test_print_canonical_sorting():
    assert print_circuit(parse_circuit("B_{a1} A^{a1}")) == "A^{a1} B_{a1}"


def test_print_empty():
    frag = parse_circuit("")
    assert print_circuit(frag) == ""
    assert canonicalize(parse_circuit(print_circuit(frag))) == canonicalize(frag)


def test_medium_circuit_is_canonical_fixed_point():
    once = print_circuit(parse_circuit(MEDIUM))
    assert once == MEDIUM
    assert print_circuit(parse_circuit(once)) == once


def test_print_parse_round_trip_random(rng):
    for _ in range(40):
        frag, _ = random_circuit(rng, max_ops=7)
        text = print_circuit(frag)
        again = parse_circuit(text)
        assert canonicalize(again) == canonicalize(frag)
        assert print_circuit(again) == text


def test_canonicalize_same_name_shared_wire():
    # the two Z ops differ only in their wiring, which alone must order them
    frag = parse_circuit("B^{a5} Z^{c4} Z_{a5}")
    text = print_circuit(frag)
    assert print_circuit(parse_circuit(text)) == text


def test_canonicalize_validates_only_the_chosen_ops(monkeypatch):
    frag, _ = random_dag(np.random.default_rng(7), 300, 6)
    calls = count_calls(monkeypatch, notation, "fragment_from_ops")
    canonicalize(frag)
    assert len(calls) == 1


def _assert_canonical(frag, rng, scrambles: int = 3) -> None:
    """One text for every operation order and wire numbering, and idempotent."""
    text = print_circuit(frag)
    once = canonicalize(frag)
    assert canonicalize(once) == once and str(once) == text
    for _ in range(scrambles):
        assert print_circuit(scrambled(frag, rng)) == text


@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), max_ops=st.integers(2, 14))
def test_canonical_form_ignores_order_and_ids_random_circuits(seed, max_ops):
    rng = np.random.default_rng(seed)
    _assert_canonical(random_circuit(rng, max_ops=max_ops)[0], rng)


@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 6), depth=st.integers(0, 6))
def test_canonical_form_ignores_order_and_ids_brickworks(seed, width, depth):
    rng = np.random.default_rng(seed)
    _assert_canonical(random_brickwork(rng, width, depth)[0], rng)


@settings(max_examples=15, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(2, 200), width=st.integers(1, 6))
def test_canonical_form_ignores_order_and_ids_random_dags(seed, n_ops, width):
    rng = np.random.default_rng(seed)
    _assert_canonical(random_dag(rng, n_ops, width)[0], rng)


def test_canonical_form_ignores_order_and_ids_mixed_circuits(rng):
    for frag, _ in mixed_circuits(rng):
        _assert_canonical(frag, rng)


@pytest.mark.parametrize(
    "texts, canonical",
    [
        (  # one width-2, depth-3 brickwork numbered two ways
            (
                "G2_{a1 a2}^{a3 a4} G2_{a3 a4}^{a5 a6} P1^{a1} P2^{a2} R5_{a5} R6_{a6}",
                "G2_{a1 a2}^{a3 a4} G2_{a5 a6}^{a1 a2} P1^{a5} P2^{a6} R5_{a3} R6_{a4}",
            ),
            "G2_{a1 a2}^{a3 a4} G2_{a5 a6}^{a1 a2} P1^{a5} P2^{a6} R5_{a3} R6_{a4}",
        ),
        (  # a straight and a crossed copy: the code must hold the neighbour's port
            (
                "A^{a1 a2} B_{a1 a2}^{a3} C_{a3} A^{a4 a5} B_{a5 a4}^{a6} C_{a6}",
                "A^{a9 a7} B_{a7 a9}^{a3} C_{a3} C_{a6} B_{a4 a5}^{a6} A^{a4 a5}",
            ),
            "A^{a1 a2} A^{a3 a4} B_{a1 a2}^{a5} B_{a4 a3}^{a6} C_{a5} C_{a6}",
        ),
        (
            ("A^{a1} B_{a1} A^{a2} B_{a2}", "B_{a7} A^{a9} B_{a9} A^{a7}"),
            "A^{a1} A^{a2} B_{a1} B_{a2}",
        ),
        (("M M M",), "M M M"),
        (("",), ""),
    ],
)
def test_canonical_form_of_repeated_names(rng, texts, canonical):
    for text in texts:
        frag = parse_circuit(text)
        assert print_circuit(frag) == canonical
        _assert_canonical(frag, rng)


def _component_count(frag: CircuitFragment) -> int:
    root = list(range(len(frag.ops)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for w in frag.internal_wires:
        root[find(w.producer)] = find(w.consumer)
    return sum(find(i) == i for i in range(len(frag.ops)))


def test_canonical_form_walks_each_component_twice(monkeypatch, rng):
    """One walk finds a component and one walk from its single rarest root
    numbers it, also on a chain of 2000 operations that share one name."""
    chain = " ".join(f"T_{{a{k}}}^{{a{k + 1}}}" for k in range(1, 2001))
    cases = [random_dag(np.random.default_rng(7), n_ops, 6)[0] for n_ops in (1000, 4000)]
    cases += [random_brickwork(rng, 8, 8)[0], scrambled(parse_circuit(chain), rng)]
    walks = count_calls(monkeypatch, notation, "_walk")
    for frag in cases:
        walks.clear()
        canonicalize(frag)
        assert len(walks) == 2 * _component_count(frag)


def test_fragment_keeps_its_dag_order_and_successors(rng):
    """``order`` is a topological order of the wiring and ``successors[i]`` the
    sorted distinct consumers of operation ``i``, on a fragment and on its
    canonical form; neither takes part in equality, hashing or printing."""
    cases = [random_dag(np.random.default_rng(7), n_ops, 6) for n_ops in (10, 200, 1000)]
    cases += [random_brickwork(rng, width, depth) for width, depth in ((2, 3), (5, 6))]
    cases += mixed_circuits(rng)
    for frag, _ in cases:
        for f in (frag, canonicalize(frag)):
            assert sorted(f.order) == list(range(len(f.ops)))
            position = {op: k for k, op in enumerate(f.order)}
            assert all(position[w.producer] < position[w.consumer] for w in f.internal_wires)
            consumers = [set() for _ in f.ops]
            for w in f.internal_wires:
                consumers[w.producer].add(w.consumer)
            assert f.successors == tuple(tuple(sorted(c)) for c in consumers)
        bare = replace(frag, order=(), successors=())
        assert bare == frag and hash(bare) == hash(frag) and repr(bare) == repr(frag)


def test_causal_structure_declared_relation():
    frag = parse_circuit("A_{a1 c2 b3}^{b4 a5 a6} B_{a6 b7}^{b8 a9} C_{d10 b8}^{b11}")
    declared = {
        (WireLabel("b", 4), WireLabel("b", 7)),
        (WireLabel("b", 4), WireLabel("d", 10)),
        (WireLabel("a", 5), WireLabel("b", 7)),
        (WireLabel("a", 5), WireLabel("d", 10)),
        (WireLabel("a", 9), WireLabel("d", 10)),
    }
    assert causal_structure(frag).open_pairs() == declared


def test_causal_structure_single_op_empty():
    frag = parse_circuit("A_{a1}^{b2}")
    assert causal_structure(frag).pairs == frozenset()


def test_causal_structure_chain_transitive():
    frag = parse_circuit("A^{a1} B_{a1}^{a2} C_{a2}")
    cs = causal_structure(frag)
    a1, a2 = WireLabel("a", 1), WireLabel("a", 2)
    assert cs.reaches(a1, a2)
    assert not cs.reaches(a2, a1)
    assert isinstance(cs.pairs, Set) and len(cs.pairs) == 3
    assert list(cs.pairs) == [(a1, a1), (a1, a2), (a2, a2)]
    assert (a1, a2) in cs.pairs and (a2, a1) not in cs.pairs and "a1" not in cs.pairs
    assert cs.pairs & {(a1, a2), (a2, a1)} == frozenset([(a1, a2)])
    with pytest.raises(TypeError):
        hash(cs.pairs)


def test_foliate_medium_circuit():
    frag = parse_circuit(MEDIUM)
    fol = foliate(frag)
    names = [sorted(frag.ops[i].name for i in layer) for layer in fol.layers]
    assert names == [["A", "B"], ["C", "D"], ["E"], ["F"]]
    pads = {(str(p.wire), p.layer) for p in fol.paddings}
    assert pads == {("d4", 1), ("b6", 2)}


def test_unknown_policy_rejected_on_an_empty_circuit():
    empty = parse_circuit("")
    for route in (
        lambda: foliate(empty, "bogus"),
        lambda: probability_foliated(empty, {}, policy="bogus"),
        lambda: alternate_transpose_positivity(empty, {}, policy="bogus"),
    ):
        with pytest.raises(ValueError, match="unknown foliation policy 'bogus'"):
            route()


def layer_map(fol) -> dict[int, int]:
    """Each operation index of a foliation mapped to its layer."""
    return {i: k for k, layer in enumerate(fol.layers) for i in layer}


def test_foliate_two_layers_no_padding():
    fol = foliate(parse_circuit("A^{a1} B_{a1}"))
    assert len(fol.layers) == 2
    assert fol.paddings == ()


def test_foliate_disjoint_circuits_interleave(rng):
    left = parse_circuit("A^{a1} B_{a1}^{a2} C_{a2}")
    right = parse_circuit("P^{b3} Q_{b3}")
    both = parse_circuit("A^{a1} B_{a1}^{a2} C_{a2} P^{b3} Q_{b3}")
    fol_l, fol_r, fol = foliate(left), foliate(right), foliate(both)
    assert len(fol.layers) == max(len(fol_l.layers), len(fol_r.layers))
    assert len(fol.paddings) == len(fol_l.paddings) + len(fol_r.paddings) == 0
    layer_l, layer_r, layer = layer_map(fol_l), layer_map(fol_r), layer_map(fol)
    # each op sits at the layer its own sub-circuit assigns
    for i, op in enumerate(both.ops):
        sub, sub_frag = (layer_l, left) if op.name in "ABC" else (layer_r, right)
        sub_index = [d.name for d in sub_frag.ops].index(op.name)
        assert layer[i] == sub[sub_index]


def test_foliation_layer_count_is_longest_path(rng):
    for _ in range(25):
        frag, _ = random_circuit(rng, max_ops=8)
        fol = foliate(frag)
        edges = {(w.producer, w.consumer) for w in frag.internal_wires}
        # brute-force longest path by memoized depth
        depth = {}

        def longest(i):
            if i not in depth:
                preds = [p for (p, c) in edges if c == i]
                depth[i] = 0 if not preds else 1 + max(longest(p) for p in preds)
            return depth[i]

        expected = 1 + max(longest(i) for i in range(len(frag.ops)))
        assert len(fol.layers) == expected
        # antichains: no edge within a layer, wires cross to later layers
        layer = layer_map(fol)
        for w in frag.internal_wires:
            assert layer[w.producer] < layer[w.consumer]


def test_foliate_latest_policy():
    frag = parse_circuit(MEDIUM)
    fol = foliate(frag, policy="latest")
    assert len(fol.layers) == 4
    layer = layer_map(fol)
    for w in frag.internal_wires:
        assert layer[w.producer] < layer[w.consumer]
    # D can wait until the layer before F
    names = [sorted(frag.ops[i].name for i in layer) for layer in fol.layers]
    assert names == [["A", "B"], ["C"], ["D", "E"], ["F"]]


def test_random_dags_accepted_and_mutations_rejected(rng):
    for _ in range(30):
        frag, _ = random_circuit(rng, max_ops=8)
        text = print_circuit(frag)  # parses cleanly: generation is the acceptance check
        parse_circuit(text)
        internal = [w.label for w in frag.internal_wires]
        if internal:
            wire = internal[rng.integers(len(internal))]
            # a third use of an internal id
            with pytest.raises(OneWireViolation):
                parse_circuit(text + f" W^{{{wire.sys}{wire.id}}}")
            # retype one endpoint of the wire
            other = "b" if wire.sys == "a" else "a"
            mutated = text.replace(f"{wire.sys}{wire.id}", f"{other}{wire.id}", 1)
            with pytest.raises(TypeMismatch):
                parse_circuit(mutated)
        # fresh two-cycle appended
        with pytest.raises(ClosedLoop):
            parse_circuit(text + " Y_{z900}^{z901} Z_{z901}^{z900}")


def test_open_ports_keep_declaration_order_at_scale():
    n = 2000
    frag = parse_circuit(" ".join(f"P{k}^{{a{n - k}}}" for k in range(n)))
    assert frag.kind == "preparation"
    assert frag.open_outputs == tuple(WireLabel("a", n - k) for k in range(n))


# ---------------------------------------------------------------------------
# The one DFS order against the graph algorithms it replaced: Floyd-Warshall
# reachability and Kahn-sorted foliation, kept verbatim apart from their names
# and docstrings.


def _reference_causal_structure(frag: CircuitFragment) -> frozenset:
    """The causal pairs, by a pure-Python Floyd-Warshall: O(n^3)."""
    n = len(frag.ops)
    reach = [[False] * n for _ in range(n)]
    for w in frag.internal_wires:
        reach[w.producer][w.consumer] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    producers = [(i, lab) for i, op in enumerate(frag.ops) for lab in op.outputs]
    consumers = [(j, lab) for j, op in enumerate(frag.ops) for lab in op.inputs]
    pairs = frozenset(
        (out_lab, in_lab)
        for i, out_lab in producers
        for j, in_lab in consumers
        if reach[i][j]
    )
    return pairs


def _reference_foliate(frag: CircuitFragment, policy: str = "earliest") -> Foliation:
    """Foliation over a Kahn sort that re-sorts its ready list after each pop."""
    n = len(frag.ops)
    if n == 0:
        return Foliation((), ())
    preds: dict[int, list[int]] = {i: [] for i in range(n)}
    succs: dict[int, list[int]] = {i: [] for i in range(n)}
    for w in frag.internal_wires:
        preds[w.consumer].append(w.producer)
        succs[w.producer].append(w.consumer)

    depth = [0] * n
    for i in _reference_topological_order(n, preds):
        if preds[i]:
            depth[i] = 1 + max(depth[p] for p in preds[i])
    n_layers = 1 + max(depth)

    if policy == "latest":
        late = [n_layers - 1] * n
        for i in reversed(_reference_topological_order(n, preds)):
            if succs[i]:
                late[i] = min(late[s] for s in succs[i]) - 1
        depth = late
    elif policy != "earliest":
        raise ValueError(f"unknown foliation policy {policy!r}")

    layers: list[list[int]] = [[] for _ in range(n_layers)]
    for i, d in enumerate(depth):
        layers[d].append(i)
    paddings = [
        PaddingIdentity(w.label, k)
        for w in frag.internal_wires
        for k in range(depth[w.producer] + 1, depth[w.consumer])
    ]
    return Foliation(tuple(tuple(l) for l in layers), tuple(paddings))


def _reference_topological_order(n: int, preds: dict[int, list[int]]) -> list[int]:
    remaining = {i: len(preds[i]) for i in range(n)}
    succ: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, ps in preds.items():
        for p in ps:
            succ[p].append(i)
    ready = sorted(i for i, c in remaining.items() if c == 0)
    order: list[int] = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for s in succ[i]:
            remaining[s] -= 1
            if remaining[s] == 0:
                ready.append(s)
        ready.sort()
    return order


def _generated_fragments(rng):
    """Random circuits and brickworks, each also reversed and unmeasured."""
    circuits = [random_circuit(rng, max_ops=int(rng.integers(4, 21)))[0] for _ in range(40)]
    circuits += [
        random_brickwork(rng, width=int(rng.integers(2, 6)), depth=int(rng.integers(1, 9)))[0]
        for _ in range(10)
    ]
    for frag in circuits:
        yield frag
        yield fragment_from_ops(frag.ops[::-1])
        yield fragment_from_ops(op for op in frag.ops if op.outputs)


def test_causal_structure_matches_floyd_warshall(rng):
    stranger = WireLabel("z", 999)  # a label in no generated fragment
    for frag in _generated_fragments(rng):
        cs = causal_structure(frag)
        reference = _reference_causal_structure(frag)
        assert set(cs.pairs) == reference
        assert len(cs.pairs) == len(reference)
        outs = [lab for op in frag.ops for lab in op.outputs] + [stranger]
        ins = [lab for op in frag.ops for lab in op.inputs] + [stranger]
        for o in outs:
            for i in ins:
                assert cs.reaches(o, i) == ((o, i) in reference)
        open_ports = set(frag.open_outputs) | set(frag.open_inputs)
        assert cs.open_pairs() == {
            (o, i) for o, i in reference if o in open_ports and i in open_ports
        }


def test_foliate_matches_kahn_reference(rng):
    for frag in _generated_fragments(rng):
        for policy in ("earliest", "latest"):
            assert foliate(frag, policy) == _reference_foliate(frag, policy)


def _assert_routes_agree(frag: CircuitFragment, binding) -> None:
    """Parse the fragment's text, foliate it, and evaluate it by both routes."""
    circuit = parse_circuit(str(frag))
    assert circuit == frag
    for policy in ("earliest", "latest"):
        foliate(circuit, policy)
    p = probability(circuit, binding)
    q = probability_foliated(circuit, binding)
    assert abs(p - q) <= 1e-10 and abs(p - q) <= 1e-8 * abs(p)


def test_closed_chain_causal_pairs_are_all_forward_pairs(rng):
    n = 5000
    text = "A^{a1} " + " ".join(f"T_{{a{k}}}^{{a{k + 1}}}" for k in range(1, n - 1))
    frag = parse_circuit(text + f" R_{{a{n - 1}}}")
    assert len(frag.ops) == n and frag.kind == "circuit"
    cs = causal_structure(frag)
    assert len(cs.pairs) == n * (n - 1) // 2
    first, last = WireLabel("a", 1), WireLabel("a", n - 1)
    assert cs.reaches(first, last) and not cs.reaches(last, first)
    binding = {
        "A": random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
        "T": random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng, trace_preserving=True
        ),
        "R": random_result([Leg("a", 1, INPUT, 2)], rng),
    }
    _assert_routes_agree(frag, binding)


def _bfs_pair_count(frag: CircuitFragment) -> int:
    """Size of the causal relation, by a breadth-first search from each operation."""
    succ: dict[int, set[int]] = {}
    for w in frag.internal_wires:
        succ.setdefault(w.producer, set()).add(w.consumer)
    count = 0
    for i, op in enumerate(frag.ops):
        seen: set[int] = set()
        frontier = {i}
        while frontier:
            frontier = {s for j in frontier for s in succ.get(j, ())} - seen
            seen |= frontier
        count += len(op.outputs) * sum(len(frag.ops[j].inputs) for j in seen)
    return count


def test_long_brickwork_causal_count_matches_bfs():
    frag, binding = random_brickwork(np.random.default_rng(7), width=4, depth=500)
    assert len(frag.ops) == 758
    _assert_routes_agree(frag, binding)
    unmeasured = fragment_from_ops(op for op in frag.ops if op.outputs)
    assert len(causal_structure(unmeasured).pairs) == _bfs_pair_count(unmeasured)


def test_thousand_op_random_dag():
    """Mixed qubits and qutrits, dimension-changing channels and reused names."""
    frag, binding = random_dag(np.random.default_rng(5), n_ops=1000, max_width=4)
    assert len(frag.ops) == 1000 and frag.kind == "circuit"
    assert {w.label.sys for w in frag.internal_wires} == {"a", "b"}
    assert any(
        {w.sys for w in op.inputs} != {w.sys for w in op.outputs}
        for op in frag.ops
        if op.inputs and op.outputs
    )
    assert len({op.name for op in frag.ops}) < 100
    assert probability(frag, binding) > 1e-3  # far from underflow
    _assert_routes_agree(frag, binding)
    assert len(causal_structure(frag).pairs) == _bfs_pair_count(frag)


def test_parse_registry():
    reg = parse_registry("a 2\nb 3\n# comment\n\nqud 5\n")
    assert reg["a"] == SystemType("a", 2)
    assert reg["qud"].dim == 5
    assert reg["b"].fiducial_count == 9
    with pytest.raises(ValueError):
        parse_registry("a two")
    with pytest.raises(ValueError):
        parse_registry("a 2\na 3")
    for text, message in (
        ("a 2\nb 0", "registry line 2: expected 'name dim' with dim >= 1: 'b 0'"),
        ("a \u00b2", "registry line 1: expected 'name dim' with dim >= 1: 'a \u00b2'"),
    ):
        with pytest.raises(ValueError) as caught:
            parse_registry(text)
        assert str(caught.value) == message
