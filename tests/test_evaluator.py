"""Both probability formulations, linear combinations, fragment operators,
and the formalism-locality proportionality test."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optensor as ot
from optensor import LabeledOperator, Leg, WireLabel
from optensor.binding import Binding, resolve_binding
from optensor.contraction import circuit_trace
from optensor.evaluator import (
    _bind_circuit,
    _BoundFragment,
    _hermitian_basis,
    _transfer_matrix,
)
from optensor.notation import CIRCUIT, INPUT, OUTPUT, CircuitFragment, foliate
from optensor.physicality import input_transpose
from conftest import (
    DIMS,
    count_bind_plan_check,
    mixed_circuits,
    pair_contract,
    random_brickwork,
    random_circuit,
    random_dag,
    random_open_fragment,
    with_portfree_op,
)

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)

MEDIUM = "A^{a1 b2} B^{a3 d4} C_{b2 a3}^{a5} D_{a1}^{b6} E_{a5 d4}^{c7} F_{b6 c7}"


def medium_binding(rng, dims):
    frag = ot.parse_circuit(MEDIUM)
    return frag, physical_binding(frag, rng, dims)


def physical_binding(frag, rng, dims):
    """A random physical operator for each name, on its first operation's wires."""

    def legs(wires, role):
        return [Leg(w.sys, w.id, role, dims[w.sys]) for w in wires]

    binding = {}
    for decl in frag.ops:
        if decl.name in binding:
            continue
        if not decl.inputs:
            binding[decl.name] = ot.random_preparation(legs(decl.outputs, OUTPUT), rng)
        elif not decl.outputs:
            binding[decl.name] = ot.random_result(legs(decl.inputs, INPUT), rng)
        else:
            binding[decl.name] = ot.random_physical_transformation(
                legs(decl.inputs, INPUT), legs(decl.outputs, OUTPUT), rng
            )
    return binding


class TestProbability:
    def test_matched_pair(self):
        frag = ot.parse_circuit("P^{a1} R_{a1}")
        binding = {
            "P": LabeledOperator((Leg("a", 1, OUTPUT, 2),), P0),
            "R": LabeledOperator((Leg("a", 1, INPUT, 2),), P0),
        }
        assert ot.probability(frag, binding) == pytest.approx(1.0)

    def test_orthogonal_through_identity_channel(self):
        frag = ot.parse_circuit("P^{a1} W_{a1}^{a2} R_{a2}")
        binding = {
            "P": LabeledOperator((Leg("a", 1, OUTPUT, 2),), P0),
            "W": ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2),
            "R": LabeledOperator((Leg("a", 2, INPUT, 2),), P1),
        }
        assert ot.probability(frag, binding) == pytest.approx(0.0, abs=1e-14)

    def test_open_fragment_rejected(self):
        frag = ot.parse_circuit("P^{a1}")
        with pytest.raises(ot.NonCircuitTermError):
            ot.probability(frag, {"P": LabeledOperator((Leg("a", 1, OUTPUT, 2),), P0)})

    def test_unbound_operation(self):
        frag = ot.parse_circuit("P^{a1} R_{a1}")
        with pytest.raises(ot.UnboundOperationError):
            ot.probability(frag, {"P": LabeledOperator((Leg("a", 1, OUTPUT, 2),), P0)})

    def test_signature_mismatch(self):
        frag = ot.parse_circuit("P^{a1} R_{a1}")
        wrong = LabeledOperator((Leg("a", 1, INPUT, 2),), P0)
        with pytest.raises(ot.SignatureMismatchError):
            ot.probability(frag, {"P": wrong, "R": wrong})

    def test_nonphysical_binding_warns_but_evaluates(self):
        frag = ot.parse_circuit("P^{a1} R_{a1}")
        binding = {
            "P": ot.identity_preparation(WireLabel("a", 1), 2),
            "R": LabeledOperator((Leg("a", 1, INPUT, 2),), P0),
        }
        with pytest.warns(ot.PhysicalityWarning):
            value = ot.probability(frag, binding)
        assert value == pytest.approx(1.0)

    def test_reused_nonphysical_gate_checked_once_warned_per_operation(self, monkeypatch):
        import warnings

        from optensor import evaluator

        frag = ot.parse_circuit("P^{a1} W_{a1}^{a2} W_{a2}^{a3} W_{a3}^{a4} R_{a4}")
        wire = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        binding = {
            "P": LabeledOperator((Leg("a", 1, OUTPUT, 2),), P0),
            "W": LabeledOperator(wire.legs, 1.5 * wire.matrix),  # output trace 1.5 I
            "R": ot.identity_result(WireLabel("a", 1), 2),
        }
        checked = []

        def counting_is_physical(op, eps):
            checked.append(op)
            return ot.is_physical(op, eps)

        monkeypatch.setattr(evaluator, "is_physical", counting_is_physical)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = ot.probability(frag, binding)
        assert len(checked) == 3
        messages = [str(w.message) for w in caught if w.category is ot.PhysicalityWarning]
        report = ot.is_physical(binding["W"])
        assert messages == [
            f"operator bound to 'W' is not physical "
            f"(min eig {report.input_transpose_min_eig:.3e}, "
            f"trace excess {report.output_trace_excess:.3e})"
        ] * 3
        assert value == pytest.approx(1.5**3)

    def test_physicality_warning_points_at_the_caller(self):
        frag = ot.parse_circuit("P^{a1} R_{a1}")
        binding = {
            "P": ot.identity_preparation(WireLabel("a", 1), 2),
            "R": LabeledOperator((Leg("a", 1, INPUT, 2),), P0),
        }
        expr = ot.CircuitExpression(((1.0, frag),))
        for evaluate in (ot.probability, ot.probability_foliated):
            with pytest.warns(ot.PhysicalityWarning) as caught:
                evaluate(frag, binding)
            assert [w.filename for w in caught] == [__file__]
        with pytest.warns(ot.PhysicalityWarning) as caught:
            ot.p_function(expr, binding)
        assert [w.filename for w in caught] == [__file__]

    def test_medium_circuit_matches_foliated(self, rng):
        frag, binding = medium_binding(rng, {"a": 2, "b": 2, "c": 2, "d": 2})
        direct = ot.probability(frag, binding, check_physical=False)
        layered = ot.probability_foliated(frag, binding, check_physical=False)
        assert abs(direct - layered) <= 1e-10


class TestProbabilityFoliated:
    def test_trace_preserving_chain_gives_one(self, rng):
        frag = ot.parse_circuit("P^{a1} W_{a1}^{a2} R_{a2}")
        binding = {
            "P": ot.random_preparation([Leg("a", 1, OUTPUT, 3)], rng, mixed=False),
            "W": ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 3)], [Leg("a", 2, OUTPUT, 3)], rng,
                trace_preserving=True,
            ),
            "R": ot.identity_result(WireLabel("a", 2), 3),
        }
        assert ot.probability_foliated(frag, binding) == pytest.approx(1.0)

    def test_agreement_on_random_circuits(self, rng):
        for _ in range(30):
            frag, binding = random_circuit(rng, max_ops=6)
            direct = ot.probability(frag, binding, check_physical=False)
            layered = ot.probability_foliated(frag, binding, check_physical=False)
            assert abs(direct - layered) <= 1e-10

    def test_three_op_example(self, rng):
        frag = ot.parse_circuit("A^{a1 b2} B_{b2}^{c3 a4} C_{a1 c3 a4}")
        binding = {
            "A": ot.random_preparation(
                [Leg("a", 1, OUTPUT, 2), Leg("b", 2, OUTPUT, 3)], rng
            ),
            "B": ot.random_physical_transformation(
                [Leg("b", 2, INPUT, 3)],
                [Leg("c", 3, OUTPUT, 2), Leg("a", 4, OUTPUT, 2)],
                rng,
            ),
            "C": ot.random_result(
                [Leg("a", 1, INPUT, 2), Leg("c", 3, INPUT, 2), Leg("a", 4, INPUT, 2)],
                rng,
            ),
        }
        direct = ot.probability(frag, binding)
        layered = ot.probability_foliated(frag, binding)
        assert abs(direct - layered) <= 1e-10

    def test_foliation_policy_independent(self, rng):
        for _ in range(10):
            frag, binding = random_circuit(rng, max_ops=7)
            early = ot.probability_foliated(frag, binding, policy="earliest",
                                            check_physical=False)
            late = ot.probability_foliated(frag, binding, policy="latest",
                                           check_physical=False)
            assert abs(early - late) <= 1e-10

    def test_disjoint_circuits_factorize(self, rng):
        left, bind_left = random_circuit(rng, max_ops=4, type_dims={"a": 2})
        right_text = "Q1^{c1} Q2_{c1}"
        right = ot.parse_circuit(right_text)
        bind_right = {
            "Q1": ot.random_preparation([Leg("c", 1, OUTPUT, 3)], rng),
            "Q2": ot.random_result([Leg("c", 1, INPUT, 3)], rng),
        }
        # relabel left's wires out of the way of right's
        shift = {w.id: ot.WireLabel(w.sys, w.id + 100) for op in left.ops for w in op.labels}
        shifted_ops = [
            ot.OperationDecl(
                d.name,
                tuple(shift[w.id] for w in d.inputs),
                tuple(shift[w.id] for w in d.outputs),
            )
            for d in left.ops
        ]
        joint = ot.fragment_from_ops(list(shifted_ops) + list(right.ops))
        binding = {**bind_left, **bind_right}
        p_joint = ot.probability(joint, binding, check_physical=False)
        p_left = ot.probability(ot.fragment_from_ops(shifted_ops), bind_left,
                                check_physical=False)
        p_right = ot.probability(right, bind_right, check_physical=False)
        assert abs(p_joint - p_left * p_right) <= 1e-12
        layered = ot.probability_foliated(joint, binding, check_physical=False)
        assert abs(layered - p_left * p_right) <= 1e-10

    def test_large_scale_channel_agrees_with_trace(self, rng):
        frag = ot.parse_circuit("P^{b1} W_{b1}^{b2} R_{b2}")
        for _ in range(5):
            chan = ot.random_physical_transformation(
                [Leg("b", 1, INPUT, 3)], [Leg("b", 2, OUTPUT, 3)], rng
            )
            binding = {
                "P": ot.random_preparation([Leg("b", 1, OUTPUT, 3)], rng),
                "W": LabeledOperator(chan.legs, 1e8 * chan.matrix),
                "R": ot.random_result([Leg("b", 1, INPUT, 3)], rng),
            }
            p = ot.probability(frag, binding, check_physical=False)
            q = ot.probability_foliated(frag, binding, check_physical=False)
            assert p > 1e6 and abs(p - q) <= 1e-10 * p


class TestPFunction:
    def test_single_term(self, rng):
        frag, binding = random_circuit(rng, max_ops=4)
        expr = ot.CircuitExpression(((1.0, frag),))
        assert ot.p_function(expr, binding, check_physical=False) == pytest.approx(
            ot.probability(frag, binding, check_physical=False)
        )

    def test_cancellation(self, rng):
        frag, binding = random_circuit(rng, max_ops=4)
        expr = ot.CircuitExpression(((1.0, frag), (-1.0, frag)))
        assert ot.p_function(expr, binding, check_physical=False) == pytest.approx(0.0)

    def test_mixture_matches_separate_calls(self, rng):
        frag_a, bind_a = random_circuit(rng, max_ops=4)
        frag_b_text = "Z1^{q900} Z2_{q900}"
        frag_b = ot.parse_circuit(frag_b_text)
        bind_b = {
            "Z1": ot.random_preparation([Leg("q", 900, OUTPUT, 2)], rng),
            "Z2": ot.random_result([Leg("q", 900, INPUT, 2)], rng),
        }
        binding = {**bind_a, **bind_b}
        expr = ot.CircuitExpression(((0.3, frag_a), (0.7, frag_b)))
        expected = 0.3 * ot.probability(frag_a, bind_a, check_physical=False) + \
            0.7 * ot.probability(frag_b, bind_b, check_physical=False)
        assert ot.p_function(expr, binding, check_physical=False) == pytest.approx(expected)

    def test_binds_each_term_once(self, rng, monkeypatch):
        frag_a, bind_a = random_circuit(rng, max_ops=4)
        frag_b = ot.parse_circuit("Z1^{q900} Z2_{q900}")
        bind_b = {
            "Z1": ot.random_preparation([Leg("q", 900, OUTPUT, 2)], rng),
            "Z2": ot.random_result([Leg("q", 900, INPUT, 2)], rng),
        }
        calls = count_bind_plan_check(monkeypatch)
        expr = ot.CircuitExpression(((0.3, frag_a), (0.7, frag_b)))
        ot.p_function(expr, {**bind_a, **bind_b})
        assert {name: len(made) for name, made in calls.items()} == {
            "bind_names": 2,
            "_plan_greedy": 2,
            "is_physical": len({decl.name for decl in frag_a.ops}) + 2,
        }

    def test_open_term_rejected(self):
        frag = ot.parse_circuit("P^{a1}")
        with pytest.raises(ot.NonCircuitTermError):
            ot.p_function(ot.CircuitExpression(((1.0, frag),)), {})

    def test_signature_homogeneity_enforced(self):
        with pytest.raises(ot.SignatureMismatchError):
            ot.CircuitExpression(
                ((1.0, ot.parse_circuit("P^{a1}")), (1.0, ot.parse_circuit("Q_{a1}")))
            )


class TestFragmentOperator:
    def test_single_op_returns_itself(self, rng):
        frag = ot.parse_circuit("W_{a1}^{a2}")
        op = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
        )
        out = ot.fragment_operator(frag, {"W": op})
        assert np.max(np.abs(out.matrix - op.matrix)) == 0.0

    def test_prep_plus_channel_equals_evolved_state(self, rng):
        frag = ot.parse_circuit("P^{a1} W_{a1}^{b2}")
        kraus = ot.random_kraus_set(2, 3, rng)
        prep = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
        binding = {
            "P": prep,
            "W": ot.operator_from_kraus(
                kraus, [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)]
            ),
        }
        composed = ot.fragment_operator(frag, binding)
        evolved = sum(K @ prep.matrix @ K.conj().T for K in kraus)
        assert np.max(np.abs(composed.matrix - evolved)) < 1e-12
        assert composed.legs == (Leg("b", 2, OUTPUT, 3),)

    def test_composite_of_physical_chain_is_physical(self, rng):
        for _ in range(5):
            frag = ot.parse_circuit("W1_{a1}^{a2} W2_{a2}^{a3}")
            binding = {
                "W1": ot.random_physical_transformation(
                    [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
                ),
                "W2": ot.random_physical_transformation(
                    [Leg("a", 2, INPUT, 2)], [Leg("a", 3, OUTPUT, 2)], rng
                ),
            }
            composite = ot.fragment_operator(frag, binding)
            assert ot.is_physical(composite).physical

    def test_binds_and_plans_once_and_never_warns(self, monkeypatch):
        frag = ot.parse_circuit("P^{a1} W_{a1}^{a2}")
        wire = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        binding = {
            "P": ot.identity_preparation(WireLabel("a", 1), 2),
            "W": LabeledOperator(wire.legs, 1.5 * wire.matrix),
        }
        assert not ot.is_physical(binding["W"]).physical
        calls = count_bind_plan_check(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ot.fragment_operator(frag, binding)
        assert {name: len(made) for name, made in calls.items()} == {
            "bind_names": 1,
            "_plan_greedy": 1,
            "is_physical": 0,
        }
        assert np.array_equal(out.matrix, 1.5 * np.eye(2))

    def test_bitwise_equal_to_circuit_trace_of_resolved_binding(self, rng):
        cases = [random_open_fragment(rng) for _ in range(20)]
        # prefixes and slices of closed circuits leave their cut wires open
        for frag, binding in mixed_circuits(rng):
            n = len(frag.ops)
            start, stop = sorted(rng.integers(0, n + 1, size=2))
            for ops in (frag.ops[: int(rng.integers(1, n))], frag.ops[start:stop]):
                if not ops:
                    continue
                sub = ot.fragment_from_ops(ops)
                open_wires = sub.open_inputs + sub.open_outputs
                if sub.kind != CIRCUIT and math.prod(DIMS[w.sys] for w in open_wires) <= 256:
                    cases.append((sub, binding))
        assert len(cases) >= 50
        for frag, binding in cases:
            got = ot.fragment_operator(frag, binding)
            want = _reference_fragment_operator(frag, binding)
            assert got.legs == want.legs
            assert np.array_equal(got.matrix, want.matrix)
        # closed circuits: the bound fragment plans its wire tables exactly as
        # the planner plans the relabeled operators, and evaluates them bit for bit
        closed = mixed_circuits(rng)
        closed.append(random_brickwork(rng, width=6, depth=6))
        closed.append(random_dag(np.random.default_rng(7), 1000, 6))
        for frag, binding in closed:
            ops = resolve_binding(frag, binding)
            plan, want = _BoundFragment(frag, binding).plan, ot.plan_contraction(ops)
            assert len(plan.steps) == len(want.steps)
            for got_step, want_step in zip(plan.steps, want.steps):
                assert got_step == want_step
            assert plan == want
            assert plan.dump() == want.dump()
            got = ot.probability(frag, binding, check_physical=False)
            assert got.hex() == circuit_trace(ops).scalar.hex()


def _reference_fragment_operator(frag: CircuitFragment, binding: Binding) -> LabeledOperator:
    """Fragment operators as they were built before the bound fragment served them."""
    return circuit_trace(resolve_binding(frag, binding))


class TestClosedOnlyEntryPoints:
    """Every route that needs a closed circuit refuses an open one before binding."""

    def open_case(self, rng):
        frag = ot.parse_circuit("P^{a1} W_{a1}^{a2}")
        binding = {
            "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
            "W": ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
            ),
        }
        return frag, binding

    @pytest.mark.parametrize(
        "entry",
        [
            ot.probability,
            ot.probability_foliated,
            ot.alternate_transpose_positivity,
            lambda frag, binding: ot.p_function(ot.CircuitExpression(((1.0, frag),)), binding),
        ],
        ids=["probability", "probability_foliated", "alternate_transpose", "p_function"],
    )
    def test_raises_before_binding(self, rng, monkeypatch, entry):
        frag, binding = self.open_case(rng)
        calls = count_bind_plan_check(monkeypatch)
        with pytest.raises(ot.NonCircuitTermError) as caught:
            entry(frag, binding)
        assert str(caught.value) == "fragment has open ports (kind=preparation)"
        assert {name: len(made) for name, made in calls.items()} == {
            "bind_names": 0,
            "_plan_greedy": 0,
            "is_physical": 0,
        }

    def test_p_function_checks_every_term_before_binding_any(self, rng, monkeypatch):
        frag, binding = self.open_case(rng)
        closed, closed_binding = random_circuit(rng, max_ops=4)
        # the constructor refuses to mix closed and open terms, so the mixture
        # is set directly: p_function must still check each term itself
        expr = ot.CircuitExpression(((1.0, closed),))
        object.__setattr__(expr, "terms", ((0.5, closed), (0.5, frag)))
        calls = count_bind_plan_check(monkeypatch)
        with pytest.raises(ot.NonCircuitTermError, match=r"kind=preparation\)$"):
            ot.p_function(expr, {**closed_binding, **binding})
        assert [len(made) for made in calls.values()] == [0, 0, 0]


class TestFormalismLocality:
    def scaled_pair(self, rng):
        frag_a = ot.parse_circuit("P^{a1} W_{a1}^{a2}")
        frag_b = ot.parse_circuit("P^{a1} W2_{a1}^{a2}")
        chan = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
        )
        binding = {
            "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
            "W": chan,
            "W2": LabeledOperator(chan.legs, 0.5 * chan.matrix),
        }
        return frag_a, frag_b, binding

    def test_scaled_fragments_have_ratio_two(self, rng):
        frag_a, frag_b, binding = self.scaled_pair(rng)
        ratio = ot.formalism_locality_ratio(frag_a, frag_b, binding)
        assert ratio == pytest.approx(2.0, abs=1e-10)

    def test_ratio_predicts_all_completions(self, rng):
        frag_a, frag_b, binding = self.scaled_pair(rng)
        ratio = ot.formalism_locality_ratio(frag_a, frag_b, binding)
        for k in range(20):
            result = ot.random_result([Leg("a", 2, INPUT, 2)], rng)
            full = dict(binding, E=result)
            pa = ot.probability(
                ot.parse_circuit("P^{a1} W_{a1}^{a2} E_{a2}"), full,
                check_physical=False,
            )
            pb = ot.probability(
                ot.parse_circuit("P^{a1} W2_{a1}^{a2} E_{a2}"), full,
                check_physical=False,
            )
            assert abs(pa - ratio * pb) <= 1e-8 * max(1.0, abs(pa))

    def test_binds_and_plans_each_fragment_once(self, rng, monkeypatch):
        frag_a, frag_b, binding = self.scaled_pair(rng)
        calls = count_bind_plan_check(monkeypatch)
        assert ot.formalism_locality_ratio(frag_a, frag_b, binding) is not None
        assert {name: len(made) for name, made in calls.items()} == {
            "bind_names": 2,
            "_plan_greedy": 2,
            "is_physical": 0,
        }

    def test_different_channels_not_proportional(self, rng):
        frag_a = ot.parse_circuit("P^{a1} W_{a1}^{a2}")
        frag_b = ot.parse_circuit("P^{a1} W2_{a1}^{a2}")
        binding = {
            "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
            "W": ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
            ),
            "W2": ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
            ),
        }
        assert ot.formalism_locality_ratio(frag_a, frag_b, binding) is None

    @pytest.mark.parametrize(
        "text_b",
        ["W_{a1}^{a3}", "W_{a2}^{a1}", "V_{a1}^{b2}"],
        ids=["other-id", "same-ids-other-roles", "other-type"],
    )
    def test_different_open_ports_rejected(self, rng, text_b):
        binding = {
            "W": ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng
            ),
            "V": ot.random_physical_transformation(
                [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], rng
            ),
        }
        frag_a, frag_b = ot.parse_circuit("W_{a1}^{a2}"), ot.parse_circuit(text_b)
        with pytest.raises(ot.SignatureMismatchError, match="different open ports"):
            ot.formalism_locality_ratio(frag_a, frag_b, binding)

    def test_zero_reference_fragment(self, rng):
        frag_a = ot.parse_circuit("P^{a1}")
        frag_b = ot.parse_circuit("Z^{a1}")
        binding = {
            "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
            "Z": LabeledOperator((Leg("a", 1, OUTPUT, 2),), np.zeros((2, 2))),
        }
        with pytest.raises(ot.ZeroFragmentError):
            ot.formalism_locality_ratio(frag_a, frag_b, binding)

    def test_open_fragment_pair_random(self, rng):
        frag, binding = random_open_fragment(rng)
        scaled = {name: LabeledOperator(op.legs, 0.25 * op.matrix)
                  for name, op in binding.items()}
        # same fragment names, operators scaled: build B under a renamed map
        ratio = ot.formalism_locality_ratio(
            frag, frag, binding
        )
        assert ratio == pytest.approx(1.0)
        # mixed binding via distinct names would be needed for a non-unit
        # ratio on one call; scale check done at operator level instead
        op_a = ot.fragment_operator(frag, binding)
        op_b = ot.fragment_operator(frag, scaled)
        scale = 0.25 ** len(frag.ops)
        assert np.max(np.abs(op_b.matrix - scale * op_a.matrix)) < 1e-10


class TestCompletenessSum:
    def test_instrument_sums_to_deterministic_result(self, rng):
        kraus = ot.random_kraus_set(2, 2, rng, n_kraus=4, trace_preserving=True)
        legs_in = [Leg("a", 1, INPUT, 2)]
        legs_out = [Leg("a", 2, OUTPUT, 2)]
        elements = [
            ot.operator_from_kraus(kraus[:1], legs_in, legs_out),
            ot.operator_from_kraus(kraus[1:3], legs_in, legs_out),
            ot.operator_from_kraus(kraus[3:], legs_in, legs_out),
        ]
        assert ot.is_complete_set(elements, eps=1e-10)
        prep = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
        circuit = ot.parse_circuit("P^{a1} M_{a1}^{a2} R_{a2}")
        iden = ot.identity_result(WireLabel("a", 2), 2)
        total = sum(
            ot.probability(circuit, {"P": prep, "M": element, "R": iden},
                           check_physical=False)
            for element in elements
        )
        deterministic = ot.probability(
            ot.parse_circuit("P^{a1} R_{a1}"),
            {"P": prep, "R": ot.identity_result(WireLabel("a", 1), 2)},
            check_physical=False,
        )
        assert abs(total - deterministic) <= 1e-9


def test_two_thousand_op_chain_evaluates_by_both_routes(rng):
    """Parsing, planning and foliation stay within the default recursion limit."""
    n_gates = 1998
    text = " ".join(
        ["P^{a1}"]
        + [f"G_{{a{k}}}^{{a{k + 1}}}" for k in range(1, n_gates + 1)]
        + [f"R_{{a{n_gates + 1}}}"]
    )
    frag = ot.parse_circuit(text)
    assert len(frag.ops) == 2000
    binding = {
        "P": ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng),
        "G": ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], rng, trace_preserving=True
        ),
        "R": ot.identity_result(WireLabel("a", 1), 2),
    }
    direct = ot.probability(frag, binding)
    layered = ot.probability_foliated(frag, binding)
    assert abs(direct - 1.0) <= 1e-10
    assert abs(direct - layered) <= 1e-10


def test_large_value_passes_the_hermiticity_check_at_its_scale():
    """A 300-op DAG with every other name scaled by 1.5 evaluates to about 3.4e24;
    rounding leaves the trace's result about 7e8 from Hermitian, 2e-16 of it."""
    frag, binding = random_dag(np.random.default_rng(7), 300, 6)
    scaled = dict(binding)
    for name in sorted(binding)[::2]:
        scaled[name] = LabeledOperator(binding[name].legs, 1.5 * binding[name].matrix)
    direct = ot.probability(frag, scaled, check_physical=False)
    layered = ot.probability_foliated(frag, scaled, check_physical=False)
    assert direct > 1e24
    assert abs(direct - layered) <= 1e-8 * abs(layered)


def test_ten_qubit_brickwork_routes_agree(rng):
    """Both routes on a 61-op brickwork whose foliated state spans 2**20 entries."""
    frag, binding = random_brickwork(rng, width=10, depth=9)
    assert len(frag.ops) == 61
    direct = ot.probability(frag, binding)
    layered = ot.probability_foliated(frag, binding)
    assert 0.0 < direct < 1.0
    assert abs(direct - layered) <= 1e-10
    assert abs(direct - layered) <= 1e-8 * direct


# ---------------------------------------------------------------------------
# The real-coefficient foliated route against the complex one it replaced.
# The reference is kept verbatim apart from its name and docstring, and its
# bind step: it warns through the route under test's bind and relabels each
# operation through resolve_binding.


def _reference_foliated(
    circuit: CircuitFragment,
    binding: Binding,
    policy: str = "earliest",
    eps: float = 1e-9,
    check_physical: bool = True,
) -> float:
    """The complex foliated route: the state holds ket and bra axes per
    live wire and each operation contracts its Choi tensor into it."""
    _bind_circuit(circuit, binding, eps, check_physical)
    bound = resolve_binding(circuit, binding)
    fol = foliate(circuit, policy)

    # Relabeling keeps leg order and matrix (see relabel_to_decl), so one
    # Choi tensor serves every operation with a given name.
    chois: dict[str, np.ndarray] = {}
    live: list[int] = []  # wire ids carried by the state, in axis order
    state = np.array(1.0 + 0.0j)  # axes: kets of live wires, then bras
    for layer in fol.layers:
        for op_index in layer:
            decl = circuit.ops[op_index]
            in_ids = [w.id for w in decl.inputs]
            choi = chois.get(decl.name)
            if choi is None:
                ordered = bound[op_index].permuted(in_ids + [w.id for w in decl.outputs])
                choi = chois[decl.name] = input_transpose(ordered).tensor()
            p = len(in_ids)
            q = len(decl.outputs)
            k = len(live)
            # state axes: 0..k-1 kets, k..2k-1 bras
            state_subs = list(range(2 * k))
            choi_subs = [0] * (2 * (p + q))
            out_new = list(range(2 * k, 2 * k + 2 * q))
            positions = [live.index(i) for i in in_ids]
            for a, pos in enumerate(positions):
                choi_subs[a] = state_subs[pos]              # ket of consumed wire
                choi_subs[p + q + a] = state_subs[k + pos]  # bra of consumed wire
            for b in range(q):
                choi_subs[p + b] = out_new[b]
                choi_subs[p + q + p + b] = out_new[q + b]
            keep = [i for i in range(k) if i not in positions]
            out_subs = (
                [state_subs[i] for i in keep]
                + out_new[:q]
                + [state_subs[k + i] for i in keep]
                + out_new[q:]
            )
            state = pair_contract(state, state_subs, choi, choi_subs, out_subs)
            live = [live[i] for i in keep] + [w.id for w in decl.outputs]
    if live:
        raise AssertionError("open wires remained after the final layer")
    value = complex(state)
    return float(value.real)


# Circuits that reach each layout case of the in-place evolution under one
# policy or both: consumed wires adjacent and in declaration order, reversed,
# or apart; a 2->1 channel and a qutrit-to-qubit-and-qutrit channel; a
# preparation after a channel (under "latest"); a result on a middle axis.
# kernel_cases adds a port-free operation to each.
KERNEL_CASES = [
    "P^{a1 a2} G_{a1 a2}^{a3 a4} G_{a4 a3}^{a5 a6} R_{a5 a6}",
    "P^{a1 a2 a3} R_{a2} G_{a1 a3}^{a4 a5} Q_{a5 a4}",
    "P^{a1 a2 b3} M_{a1 a2}^{b4} T_{b4}^{a5 b6} Q_{a5 b6 b3}",
    "P^{a1} G_{a1}^{a2} P^{a3} M_{a2 a3}^{a4} R_{a4}",
    "P^{a1 b2 a3 b4} G_{a1 a3}^{a5 a6} H_{b4 b2}^{b7} Q_{a6 b7 a5}",
]


def kernel_cases(rng):
    cases = []
    for text in KERNEL_CASES:
        frag = ot.parse_circuit(text)
        binding = physical_binding(frag, rng, {"a": 2, "b": 3})
        cases.append(with_portfree_op(frag, binding, float(rng.uniform(0.2, 1.0))))
    return cases


class TestRealFoliatedRoute:
    def test_matches_complex_reference(self, rng):
        for frag, binding in mixed_circuits(rng) + kernel_cases(rng):
            for policy in ("earliest", "latest"):
                got = ot.probability_foliated(frag, binding, policy, check_physical=False)
                want = _reference_foliated(frag, binding, policy, check_physical=False)
                assert abs(got - want) <= 1e-12

    def test_brickworks_evolve_without_permuting(self, rng, monkeypatch):
        copies = []  # the evolution permutes its state only through np.copyto
        copyto = np.copyto

        def counting(dst, src, *args, **kwargs):
            copies.append(dst.shape)
            return copyto(dst, src, *args, **kwargs)

        monkeypatch.setattr(np, "copyto", counting)
        for width in range(1, 7):
            frag, binding = random_brickwork(rng, width=width, depth=4)
            ot.probability_foliated(frag, binding, "earliest", check_physical=False)
        assert copies == []
        # G's wires a1 and a3 are apart, so it permutes the state
        frag = ot.parse_circuit(KERNEL_CASES[4])
        binding = physical_binding(frag, rng, {"a": 2, "b": 3})
        ot.probability_foliated(frag, binding, "earliest", check_physical=False)
        assert len(copies) >= 1

    def test_impossible_state_is_not_applicable(self):
        frag, binding = random_dag(np.random.default_rng(7), 300, 6)
        with pytest.raises(ot.NotApplicableError) as raised:
            ot.probability_foliated(frag, binding, "latest", check_physical=False)
        message = str(raised.value)
        assert message.startswith("the foliated state under policy 'latest' needs ")
        assert message.endswith(" bytes in two float64 buffers, which cannot be allocated")
        assert isinstance(raised.value.__cause__, (ValueError, MemoryError))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_basis_is_hermitian_orthonormal_and_spanning(self, dim):
        basis = _hermitian_basis(dim)
        assert basis.shape == (dim * dim, dim, dim)
        assert not basis.flags.writeable
        assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
        gram = np.einsum("aij,bji->ab", basis, basis)
        np.testing.assert_allclose(gram, np.eye(dim * dim), atol=1e-15)
        # orthonormal d^2 elements of a d^2-dimensional real space span it
        flat = basis.reshape(dim * dim, -1)
        real_rank = np.linalg.matrix_rank(np.concatenate([flat.real, flat.imag], axis=1))
        assert real_rank == dim * dim
        assert _hermitian_basis(dim) is basis

    def test_identity_channel_transfers_identity(self):
        for dim in (2, 3):
            wire = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), dim)
            transfer = _transfer_matrix(wire)
            assert transfer.dtype == np.float64
            np.testing.assert_allclose(transfer, np.eye(dim * dim), atol=1e-15)

    def test_transfer_matrix_evolves_coefficients(self, rng):
        rho = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], rng)
        chan = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)], rng
        )
        evolved = ot.circuit_trace([rho, chan]).matrix
        coefficients = np.einsum("aij,ji->a", _hermitian_basis(2), rho.matrix).real
        want = np.einsum("aij,ji->a", _hermitian_basis(3), evolved).real
        np.testing.assert_allclose(coefficients @ _transfer_matrix(chan), want, atol=1e-14)


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), max_ops=st.integers(2, 12))
def test_routes_agree_on_random_circuits(seed, max_ops):
    frag, binding = random_circuit(np.random.default_rng(seed), max_ops=max_ops)
    assert_routes_agree(frag, binding)


@settings(max_examples=15, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 5), depth=st.integers(0, 6))
def test_routes_agree_on_random_brickworks(seed, width, depth):
    frag, binding = random_brickwork(np.random.default_rng(seed), width=width, depth=depth)
    assert_routes_agree(frag, binding)


def assert_routes_agree(frag, binding):
    direct = ot.probability(frag, binding, check_physical=False)
    layered = ot.probability_foliated(frag, binding, check_physical=False)
    assert abs(direct - layered) <= 1e-10
    assert abs(direct - layered) <= 1e-8 * abs(direct)
