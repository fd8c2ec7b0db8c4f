"""Edge cases across modules: repeated names, port-free operations,
multi-leg witnesses, and fragment linear combinations."""

import numpy as np
import pytest

import optensor as ot
from optensor import LabeledOperator, Leg, WireLabel
from optensor.cli import main
from optensor.notation import INPUT, OUTPUT


def test_duplicate_operation_names_share_one_operator(rng):
    frag = ot.parse_circuit("A^{a1} A^{a2} R_{a1 a2}")
    prep = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
    result = ot.random_result([Leg("a", 1, INPUT, 2), Leg("a", 2, INPUT, 2)], rng)
    value = ot.probability(frag, {"A": prep, "R": result}, check_physical=False)
    oracle = np.trace(np.kron(prep.matrix, prep.matrix) @ result.matrix).real
    assert value == pytest.approx(oracle)


def test_port_free_operation_is_a_scalar_factor():
    frag = ot.parse_circuit("K P^{a1} R_{a1}")
    assert frag.kind == "circuit"
    binding = {
        "K": ot.scalar_operator(0.25),
        "P": LabeledOperator((Leg("a", 1, OUTPUT, 2),), np.diag([1.0, 0.0])),
        "R": ot.identity_result(WireLabel("a", 1), 2),
    }
    assert ot.probability(frag, binding, check_physical=False) == pytest.approx(0.25)
    assert ot.probability_foliated(frag, binding, check_physical=False) == pytest.approx(0.25)


def test_witness_for_two_input_operator(rng):
    op = ot.random_physical_transformation(
        [Leg("a", 1, INPUT, 2), Leg("b", 2, INPUT, 2)],
        [Leg("a", 3, OUTPUT, 2)],
        rng,
    )
    bad = LabeledOperator(op.legs, op.matrix - 0.2 * np.eye(op.dim))
    report = ot.is_physical(bad)
    assert report.input_transpose_min_eig < -1e-9
    witness = ot.witness_nonphysical(bad)
    assert witness.condition == "positivity"
    assert witness.value == pytest.approx(report.input_transpose_min_eig / 4, abs=1e-12)
    # re-evaluate the witness circuit independently
    value = ot.circuit_trace([witness.preparation, bad, witness.result]).scalar
    assert value == pytest.approx(witness.value)


def test_witness_for_result_operator_failing_positivity():
    matrix = np.diag([0.5, -0.25])
    bad = LabeledOperator((Leg("a", 1, INPUT, 2),), matrix)
    witness = ot.witness_nonphysical(bad)
    assert witness.condition == "positivity"
    assert witness.value == pytest.approx(-0.25 / 2)


def test_fragment_expression_with_matching_signatures(rng):
    frag_a = ot.parse_circuit("P^{a1} W_{a1}^{a2}")
    frag_b = ot.parse_circuit("P^{a1} V_{a1}^{a2}")
    expr = ot.CircuitExpression(((0.5, frag_a), (0.5, frag_b)))  # same open ports
    assert len(expr.terms) == 2
    with pytest.raises(ot.NonCircuitTermError):
        ot.p_function(expr, {})


def test_mixed_dimension_wire_rejected(rng, tmp_path, capsys):
    """Every route that binds a fragment names the first wire, in operand-scan
    order, whose second end has another dimension; so does ``optensor eval``."""
    two_qubits = [Leg("a", 1, OUTPUT, 2), Leg("a", 2, OUTPUT, 2)]
    cases = [
        (
            "P^{a1} R_{a1}",
            {
                "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
                "R": ot.random_result([Leg("a", 1, INPUT, 3)], rng),
            },
            "wire id 1 joins a(dim 2) to a(dim 3)",
        ),
        (  # 2 + 2 -> 4 + 1: the total dimensions agree, the wires do not
            "P^{a1 a2} E_{a1} F_{a2}",
            {
                "P": ot.random_preparation(two_qubits, rng),
                "E": ot.random_result([Leg("a", 1, INPUT, 4)], rng),
                "F": ot.random_result([Leg("a", 1, INPUT, 1)], rng),
            },
            "wire id 1 joins a(dim 2) to a(dim 4)",
        ),
        (  # both wires mismatched: wire 2's second end is scanned first
            "E_{a1} F_{a2} P^{a2 a1}",
            {
                "P": ot.random_preparation(two_qubits, rng),
                "E": ot.random_result([Leg("a", 1, INPUT, 4)], rng),
                "F": ot.random_result([Leg("a", 1, INPUT, 1)], rng),
            },
            "wire id 2 joins a(dim 1) to a(dim 2)",
        ),
    ]
    routes = (
        lambda frag, binding: ot.probability(frag, binding, check_physical=False),
        lambda frag, binding: ot.probability_foliated(frag, binding, check_physical=False),
        ot.fragment_operator,
        lambda frag, binding: ot.p_function(ot.CircuitExpression(((1.0, frag),)), binding),
        ot.alternate_transpose_positivity,
    )
    for k, (text, binding, message) in enumerate(cases):
        frag = ot.parse_circuit(text)
        for route in routes:
            with pytest.raises(ot.DimMismatchError) as caught:
                route(frag, binding)
            assert str(caught.value) == message
        circuit, manifest = tmp_path / f"case{k}.circ", tmp_path / f"case{k}.txt"
        circuit.write_text(text + "\n")
        for name, op in binding.items():
            ot.save(op, tmp_path / f"case{k}_{name}.json")
        manifest.write_text("".join(f"{name} = case{k}_{name}.json\n" for name in binding))
        for method in ("tensor", "foliation"):
            code = main(["eval", str(circuit), str(manifest), "--method", method])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (65, "", f"error: {message}\n")


def test_canonicalize_is_idempotent_on_adversarial_names():
    texts = [
        "Z^{a5} Z_{a5} B^{a7} Z_{a7}^{a9} Z_{a9}",
        "Q^{a1 a2} Q_{a1}^{a3} Q_{a2 a3}",
        "M M M",
    ]
    for text in texts:
        frag = ot.parse_circuit(text)
        once = ot.canonicalize(frag)
        twice = ot.canonicalize(once)
        assert once == twice
        assert ot.print_circuit(frag) == str(once)


def test_scalar_property_guard():
    prep = LabeledOperator((Leg("a", 1, OUTPUT, 2),), np.eye(2))
    with pytest.raises(ValueError):
        prep.scalar
