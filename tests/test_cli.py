"""Command-line interface: exit codes, report fields, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

import optensor as ot
from optensor import Leg, WireLabel
from optensor.cli import main
from optensor.notation import INPUT, OUTPUT
from conftest import capped_only, count_bind_plan_check, random_brickwork, run_capped

P0 = np.array([[1, 0], [0, 0]], dtype=complex)

MEDIUM = "A^{a1 b2} B^{a3 d4} C_{b2 a3}^{a5} D_{a1}^{b6} E_{a5 d4}^{c7} F_{b6 c7}"


@pytest.fixture
def workspace(tmp_path):
    circuit = tmp_path / "pair.circ"
    circuit.write_text("P^{a1} R_{a1}\n")
    prep = ot.LabeledOperator((Leg("a", 1, OUTPUT, 2),), P0)
    result = ot.LabeledOperator((Leg("a", 1, INPUT, 2),), P0)
    ot.save(prep, tmp_path / "prep.json")
    ot.save(result, tmp_path / "result.json")
    manifest = tmp_path / "binding.txt"
    manifest.write_text("P = prep.json\nR = result.json\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_six_op_circuit(self, tmp_path, capsys):
        path = tmp_path / "medium.circ"
        path.write_text(MEDIUM)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "circuit" in out

    def test_canonical_ignores_operation_order_and_ids(self, tmp_path, capsys):
        texts = (
            "G2_{a1 a2}^{a3 a4} G2_{a3 a4}^{a5 a6} P1^{a1} P2^{a2} R5_{a5} R6_{a6}",
            "R6_{a14} P2^{a16} G2_{a11 a12}^{a13 a14} R5_{a13} G2_{a15 a16}^{a11 a12} P1^{a15}",
        )
        reports = []
        for k, text in enumerate(texts):
            path = tmp_path / f"brick{k}.circ"
            path.write_text(text + "\n")
            code, out, err = run(capsys, "validate", str(path), "--format", "json")
            assert (code, err) == (0, "")
            reports.append(json.loads(out))
        assert reports[0] == reports[1]
        assert reports[0]["canonical"] == (
            "G2_{a1 a2}^{a3 a4} G2_{a5 a6}^{a1 a2} P1^{a5} P2^{a6} R5_{a3} R6_{a4}"
        )

    def test_closed_loop_exit_2(self, tmp_path, capsys):
        path = tmp_path / "loop.circ"
        path.write_text("A_{a1}^{a2} B_{a2}^{a1}")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "ClosedLoop" in err

    @pytest.mark.parametrize("command", ["validate", "foliate", "eval"])
    @pytest.mark.parametrize(
        "text, prefix",
        [("A_{a1}^{a2} B_{a2}^{a1}", "ClosedLoop: "), ("A^{a1", "syntax error: ")],
    )
    def test_invalid_circuit_exit_2_for_every_command(
        self, workspace, capsys, command, text, prefix
    ):
        path = workspace / "bad.circ"
        path.write_text(text)
        with pytest.raises((ot.WiringError, ot.CircuitSyntaxError)) as caught:
            ot.parse_circuit(text)
        extra = [str(workspace / "binding.txt")] if command == "eval" else []
        code, out, err = run(capsys, command, str(path), *extra)
        assert (code, out, err) == (2, "", f"{prefix}{caught.value}\n")

    def test_seed_only_on_tomography(self, tmp_path, capsys):
        path = tmp_path / "pair.circ"
        path.write_text("P^{a1} R_{a1}")
        code, _, err = run(capsys, "validate", str(path), "--seed", "3")
        assert code == 64 and "--seed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "x.circ"),
            ("foliate", "x.circ"),
            ("decompose", "op.json"),
            ("reconstruct", "op.duo.json"),
            ("tomography", "op.json"),
        ],
    )
    def test_eps_only_where_read(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--eps", "1e-3")
        assert (code, out) == (64, "") and "--eps" in err

    def test_eps_accepted_where_read(self, workspace, capsys):
        ws = str(workspace)
        for argv in (
            ("eval", f"{ws}/pair.circ", f"{ws}/binding.txt"),
            ("physical", f"{ws}/prep.json"),
            ("locality", f"{ws}/pair.circ", f"{ws}/pair.circ", f"{ws}/binding.txt"),
        ):
            code, _, err = run(capsys, *argv, "--eps", "1e-3")
            assert (code, err) == (0, "")

    def test_missing_file_exit_66(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.circ")
        assert code == 66

    def test_registry_check(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        circ.write_text("P^{z1} R_{z1}")
        reg = tmp_path / "types.txt"
        reg.write_text("a 2\n")
        code, _, err = run(capsys, "validate", str(circ), "--types", str(reg))
        assert code == 2 and "z" in err


class TestEval:
    def test_probability_format(self, workspace, capsys):
        code, out, err = run(
            capsys, "eval", str(workspace / "pair.circ"), str(workspace / "binding.txt")
        )
        assert code == 0
        assert "1.000000000000" in out

    def test_both_methods_agree(self, workspace, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            str(workspace / "pair.circ"),
            str(workspace / "binding.txt"),
            "--method",
            "both",
            "--format",
            "json",
        )
        payload = json.loads(out)
        assert float(payload["difference"]) <= 1e-10

    def test_nonphysical_binding_warns_on_stderr(self, workspace, capsys):
        ot.save(
            ot.identity_preparation(WireLabel("a", 1), 2), workspace / "prep.json"
        )
        code, out, err = run(
            capsys, "eval", str(workspace / "pair.circ"), str(workspace / "binding.txt")
        )
        assert code == 0
        assert "warning" in err
        assert "probability_tensor" in out

    def test_require_physical_exit_3(self, workspace, capsys):
        ot.save(
            ot.identity_preparation(WireLabel("a", 1), 2), workspace / "prep.json"
        )
        code, _, _ = run(
            capsys,
            "eval",
            str(workspace / "pair.circ"),
            str(workspace / "binding.txt"),
            "--require-physical",
        )
        assert code == 3

    def test_explain_dumps_plan(self, workspace, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            str(workspace / "pair.circ"),
            str(workspace / "binding.txt"),
            "--explain",
        )
        assert code == 0 and "contract 0 1" in out

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            (
                "text",
                "plan: ['contract 0 1 over [a1] -> dim 1']\n"
                "peak_dim: 2\n"
                "probability_tensor: 1.000000000000\n"
                "probability_foliation: 1.000000000000\n"
                "difference: 0.000e+00\n",
            ),
            (
                "json",
                '{\n  "plan": [\n    "contract 0 1 over [a1] -> dim 1"\n  ],\n'
                '  "peak_dim": 2,\n'
                '  "probability_tensor": "1.000000000000",\n'
                '  "probability_foliation": "1.000000000000",\n'
                '  "difference": "0.000e+00"\n}\n',
            ),
        ],
    )
    def test_both_explain_output_is_pinned(self, workspace, capsys, fmt, expected):
        code, out, err = run(
            capsys,
            "eval",
            str(workspace / "pair.circ"),
            str(workspace / "binding.txt"),
            "--method",
            "both",
            "--explain",
            "--format",
            fmt,
        )
        assert (code, out, err) == (0, expected, "")

    def test_both_explain_binds_and_plans_once(self, workspace, capsys, monkeypatch):
        (workspace / "chain.circ").write_text("P^{a1} W_{a1}^{a2} W_{a2}^{a3} R_{a3}\n")
        wire = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        ot.save(ot.LabeledOperator(wire.legs, 1.5 * wire.matrix), workspace / "wire.json")
        (workspace / "chain.txt").write_text(
            "P = prep.json\nW = wire.json\nR = result.json\n"
        )
        calls = count_bind_plan_check(monkeypatch)
        code, out, err = run(
            capsys,
            "eval",
            str(workspace / "chain.circ"),
            str(workspace / "chain.txt"),
            "--method",
            "both",
            "--explain",
        )
        assert code == 0 and "probability_foliation: 2.250000000000" in out
        assert err.count("warning: operator bound to 'W' is not physical") == 1
        assert {name: len(made) for name, made in calls.items()} == {
            "bind_names": 1,
            "_plan_greedy": 1,
            "is_physical": 3,  # P, W and R
        }

    @pytest.mark.parametrize("explain", [False, True])
    @pytest.mark.parametrize("method", ["tensor", "foliation", "both"])
    def test_binds_once_and_plans_only_when_needed(
        self, workspace, capsys, monkeypatch, method, explain
    ):
        calls = count_bind_plan_check(monkeypatch)
        argv = ["eval", str(workspace / "pair.circ"), str(workspace / "binding.txt")]
        code, _, _ = run(capsys, *argv, "--method", method, *["--explain"] * explain)
        assert code == 0
        assert {name: len(made) for name, made in calls.items()} == {
            "bind_names": 1,
            "_plan_greedy": 0 if method == "foliation" and not explain else 1,
            "is_physical": 2,  # P and R
        }

    def test_open_fragment_exit_65_before_binding(self, workspace, capsys, monkeypatch):
        (workspace / "open.circ").write_text("P^{a1}\n")
        calls = count_bind_plan_check(monkeypatch)
        result = run(capsys, "eval", str(workspace / "open.circ"), str(workspace / "binding.txt"))
        assert result == (65, "", "error: fragment has open ports (kind=preparation)\n")
        assert [len(made) for made in calls.values()] == [0, 0, 0]

    def test_foliated_state_too_large_exit_65(self, workspace, capsys, rng):
        # eval foliates earliest, which prepares all 41 qubits in layer 0
        ops = ["P^{a1}"]
        for k in range(40):
            ops.append(f"P^{{a{2 * k + 2}}} M_{{a{2 * k + 1} a{2 * k + 2}}}^{{a{2 * k + 3}}}")
        ops.append("R_{a81}")
        (workspace / "merge.circ").write_text(" ".join(ops) + "\n")
        qubit = [Leg("a", 1, INPUT, 2), Leg("a", 2, INPUT, 2)]
        merge = ot.random_physical_transformation(qubit, [Leg("a", 3, OUTPUT, 2)], rng)
        ot.save(merge, workspace / "merge.json")
        (workspace / "merge.txt").write_text("P = prep.json\nM = merge.json\nR = result.json\n")
        result = run(
            capsys,
            "eval",
            str(workspace / "merge.circ"),
            str(workspace / "merge.txt"),
            "--method",
            "foliation",
        )
        assert_one_line_failure(result, 65)
        assert result[2] == (
            f"error: the foliated state under policy 'earliest' needs {4**41} coefficients, "
            f"{16 * 4**41} bytes in two float64 buffers, which cannot be allocated\n"
        )

    @capped_only
    def test_trace_plan_too_large_exit_65(self, tmp_path):
        """A 12x12 brickwork whose greedy plan peaks at dimension 16384, 4 GiB."""
        frag, binding = random_brickwork(np.random.default_rng(1), 12, 12)
        (tmp_path / "brick.circ").write_text(f"{frag}\n")
        for name, op in binding.items():
            ot.save(op, tmp_path / f"{name}.json")
        (tmp_path / "brick.txt").write_text("".join(f"{n} = {n}.json\n" for n in binding))
        child = run_capped(
            "sys.exit(optensor.cli.main(sys.argv[1:]))",
            "eval", str(tmp_path / "brick.circ"), str(tmp_path / "brick.txt"),
        )
        assert_one_line_failure((child.returncode, child.stdout, child.stderr), 65)
        assert child.stderr == (
            f"error: the contraction plan's peak intermediate has dimension 16384, "
            f"{16 * 16384**2} bytes of complex128, which cannot be allocated\n"
        )


class TestPhysical:
    def test_identity_result_physical(self, tmp_path, capsys):
        ot.save(ot.identity_result(WireLabel("a", 1), 2), tmp_path / "op.json")
        code, out, _ = run(capsys, "physical", str(tmp_path / "op.json"))
        assert code == 0
        assert "physical: True" in out

    def test_identity_prep_nonphysical_with_witness(self, tmp_path, capsys):
        ot.save(ot.identity_preparation(WireLabel("b", 2), 2), tmp_path / "op.json")
        code, out, _ = run(
            capsys,
            "physical",
            str(tmp_path / "op.json"),
            "--witness",
            "--output",
            str(tmp_path / "wit"),
        )
        assert code == 0
        assert "physical: False" in out
        assert "witness_condition: trace" in out
        assert (tmp_path / "wit" / "witness_result.json").exists()

    def test_require_physical_exit_code(self, tmp_path, capsys):
        ot.save(ot.identity_preparation(WireLabel("b", 2), 2), tmp_path / "op.json")
        code, _, _ = run(
            capsys, "physical", str(tmp_path / "op.json"), "--require-physical"
        )
        assert code == 3

    def test_swap_margins(self, tmp_path, capsys):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        ot.save(swap, tmp_path / "swap.json")
        code, out, _ = run(capsys, "physical", str(tmp_path / "swap.json"), "--format", "json")
        payload = json.loads(out)
        assert payload["physical"] is True
        assert float(payload["input_transpose_min_eig"]) >= -1e-12


class TestDecomposeReconstruct:
    def test_file_round_trip(self, tmp_path, capsys):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        ot.save(swap, tmp_path / "swap.json")
        code, _, _ = run(
            capsys,
            "decompose",
            str(tmp_path / "swap.json"),
            "--output",
            str(tmp_path / "swap.duo.json"),
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "reconstruct",
            str(tmp_path / "swap.duo.json"),
            "--output",
            str(tmp_path / "swap.back.json"),
        )
        assert code == 0
        back = ot.load(tmp_path / "swap.back.json")
        assert np.max(np.abs(back.matrix - swap.matrix)) <= 1e-10


class TestTomography:
    def test_exact_mode(self, tmp_path, capsys):
        swap = ot.identity_transformation(WireLabel("a", 1), WireLabel("a", 2), 2)
        ot.save(swap, tmp_path / "swap.json")
        code, out, _ = run(
            capsys, "tomography", str(tmp_path / "swap.json"), "--format", "json"
        )
        assert code == 0
        assert float(json.loads(out)["max_entry_error"]) <= 1e-10

    def test_sampled_mode_regression(self, tmp_path, capsys):
        chan = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], seed=4
        )
        ot.save(chan, tmp_path / "chan.json")
        code, out, _ = run(
            capsys,
            "tomography",
            str(tmp_path / "chan.json"),
            "--shots",
            "1000000",
            "--seed",
            "0",
            "--format",
            "json",
        )
        assert code == 0
        assert float(json.loads(out)["max_entry_error"]) <= 0.02

    def test_seeded_runs_byte_identical(self, tmp_path, capsys):
        chan = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], seed=4
        )
        ot.save(chan, tmp_path / "chan.json")
        outputs = []
        for name in ("one.json", "two.json"):
            run(
                capsys,
                "tomography",
                str(tmp_path / "chan.json"),
                "--shots",
                "10000",
                "--seed",
                "7",
                "--output",
                str(tmp_path / name),
            )
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]


class TestLocality:
    def test_proportional_pair(self, tmp_path, capsys):
        (tmp_path / "a.circ").write_text("P^{a1} W_{a1}^{a2}")
        (tmp_path / "b.circ").write_text("P^{a1} V_{a1}^{a2}")
        chan = ot.random_physical_transformation(
            [Leg("a", 1, INPUT, 2)], [Leg("a", 2, OUTPUT, 2)], seed=3
        )
        half = ot.LabeledOperator(chan.legs, 0.5 * chan.matrix)
        prep = ot.random_preparation([Leg("a", 1, OUTPUT, 2)], seed=3)
        ot.save(prep, tmp_path / "prep.json")
        ot.save(chan, tmp_path / "chan.json")
        ot.save(half, tmp_path / "half.json")
        (tmp_path / "bind.txt").write_text(
            "P = prep.json\nW = chan.json\nV = half.json\n"
        )
        code, out, _ = run(
            capsys,
            "locality",
            str(tmp_path / "a.circ"),
            str(tmp_path / "b.circ"),
            str(tmp_path / "bind.txt"),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["proportional"] is True
        assert float(payload["ratio"]) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "fragment_b, fmt, expected",
        [
            ("scaled.circ", "text", "proportional: True\nratio: 3.333333333333\n"),
            (
                "scaled.circ",
                "json",
                '{\n  "proportional": true,\n  "ratio": "3.333333333333"\n}\n',
            ),
            ("other.circ", "text", "proportional: False\n"),
            ("other.circ", "json", '{\n  "proportional": false\n}\n'),
        ],
    )
    def test_output_is_pinned(self, tmp_path, capsys, fragment_b, fmt, expected):
        # a qubit-to-qutrit channel next to a disconnected preparation, against
        # the channel scaled by 0.3 and against an unrelated channel
        (tmp_path / "a.circ").write_text("P^{a1} W_{a1}^{b2} Q^{a3}\n")
        (tmp_path / "scaled.circ").write_text("P^{a1} V_{a1}^{b2} Q^{a3}\n")
        (tmp_path / "other.circ").write_text("P^{a1} U_{a1}^{b2} Q^{a3}\n")
        qubit_in, qutrit_out = [Leg("a", 1, INPUT, 2)], [Leg("b", 2, OUTPUT, 3)]
        chan = ot.random_physical_transformation(qubit_in, qutrit_out, seed=11)
        other = ot.random_physical_transformation(qubit_in, qutrit_out, seed=14)
        ot.save(ot.random_preparation([Leg("a", 1, OUTPUT, 2)], seed=12), tmp_path / "p.json")
        ot.save(ot.random_preparation([Leg("a", 1, OUTPUT, 2)], seed=13), tmp_path / "q.json")
        ot.save(chan, tmp_path / "w.json")
        ot.save(ot.LabeledOperator(chan.legs, 0.3 * chan.matrix), tmp_path / "v.json")
        ot.save(other, tmp_path / "u.json")
        (tmp_path / "bind.txt").write_text(
            "P = p.json\nQ = q.json\nW = w.json\nV = v.json\nU = u.json\n"
        )
        argv = [str(tmp_path / name) for name in ("a.circ", fragment_b, "bind.txt")]
        result = run(capsys, "locality", *argv, "--format", fmt)
        assert result == (0, expected, "")


class TestFoliate:
    def test_six_op_circuit_layers(self, tmp_path, capsys):
        (tmp_path / "m.circ").write_text(MEDIUM)
        code, out, _ = run(capsys, "foliate", str(tmp_path / "m.circ"), "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["layer_count"] == 4
        assert payload["paddings"] == ["d4@layer1", "b6@layer2"]


class TestUsageAndData:
    def test_usage_error_exit_64(self, capsys):
        code, _, _ = run(capsys, "eval")  # missing arguments
        assert code == 64

    def test_unknown_command_exit_64(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 64

    def test_bad_operator_file_exit_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "physical", str(bad))
        assert code == 65

    def test_negative_shots_exit_64(self, workspace, capsys):
        code, out, err = run(capsys, "tomography", str(workspace / "prep.json"), "--shots", "-5")
        assert (code, out) == (64, "")
        assert "--shots" in err and "-5" in err

    def test_negative_seed_exit_64(self, workspace, capsys):
        argv = ("tomography", str(workspace / "prep.json"), "--shots", "10", "--seed", "-1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert "argument --seed: must not be negative, got -1" in err


# Every file argument of every command: (argv with TARGET in the slot under
# test, kind of file), run from inside the workspace.  Circuit text that does
# not parse is a validation failure (exit 2), tested above.
TARGET = "<target>"
FILE_ARGUMENTS = [
    (("validate", TARGET), "circuit"),
    (("validate", "pair.circ", "--types", TARGET), "registry"),
    (("eval", TARGET, "binding.txt"), "circuit"),
    (("eval", "pair.circ", TARGET), "binding"),
    (("physical", TARGET), "operator"),
    (("decompose", TARGET), "operator"),
    (("reconstruct", TARGET), "duotensor"),
    (("tomography", TARGET), "operator"),
    (("locality", TARGET, "pair.circ", "binding.txt"), "circuit"),
    (("locality", "pair.circ", TARGET, "binding.txt"), "circuit"),
    (("locality", "pair.circ", "pair.circ", TARGET), "binding"),
    (("foliate", TARGET), "circuit"),
]
MALFORMED = {
    "registry": "a two\n",
    "binding": "P prep.json\n",
    "operator": "{not json",
    "duotensor": '{"indices": []}',
}


def run_on(capsys, argv, target):
    return run(capsys, *(target if arg == TARGET else arg for arg in argv))


def assert_one_line_failure(result, code):
    got_code, out, err = result
    assert (got_code, out) == (code, "")
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err


class TestFileErrors:
    """A file that cannot be read or written ends in one stderr line, never a traceback."""

    @pytest.fixture(autouse=True)
    def inside(self, workspace, monkeypatch):
        monkeypatch.chdir(workspace)
        ot.save(ot.identity_preparation(WireLabel("a", 1), 2), workspace / "bent.json")
        prep = ot.load(workspace / "prep.json")
        duo = ot.decompose(prep, ot.default_fiducials_for(prep))
        (workspace / "prep.duo.json").write_text(
            json.dumps(ot.duotensor.duotensor_to_json_dict(duo))
        )
        (workspace / "folder").mkdir()

    @pytest.mark.parametrize("argv, kind", FILE_ARGUMENTS)
    def test_missing_input_exit_66(self, capsys, argv, kind):
        result = run_on(capsys, argv, "absent.json")
        assert_one_line_failure(result, 66)
        assert result[2] == "missing file: absent.json\n"

    @pytest.mark.parametrize("argv, kind", FILE_ARGUMENTS)
    def test_directory_input_exit_66(self, capsys, argv, kind):
        result = run_on(capsys, argv, "folder")
        assert_one_line_failure(result, 66)
        assert result[2] == "cannot open folder: Is a directory\n"

    @pytest.mark.parametrize(
        "argv, kind", [(argv, kind) for argv, kind in FILE_ARGUMENTS if kind in MALFORMED]
    )
    def test_malformed_input_exit_65(self, capsys, argv, kind):
        Path("bad.txt").write_text(MALFORMED[kind])
        assert_one_line_failure(run_on(capsys, argv, "bad.txt"), 65)

    @pytest.mark.parametrize("argv, kind", FILE_ARGUMENTS)
    def test_non_utf8_input_exit_65(self, capsys, argv, kind):
        Path("latin.txt").write_bytes(b"\xff\xfe")
        result = run_on(capsys, argv, "latin.txt")
        assert_one_line_failure(result, 65)
        assert result[2].startswith(f"error: bad {kind} file latin.txt: 'utf-8' codec")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("P = prep.json\nR = result.json\nP = prep.json\n", "'P' bound twice"),
            ("P = prep.json\nR = result.json\n = result.json\n", "empty operation name"),
        ],
        ids=["repeated", "empty"],
    )
    def test_repeated_or_empty_binding_name_exit_65(self, capsys, text, problem):
        Path("names.txt").write_text(text)
        result = run(capsys, "eval", "pair.circ", "names.txt")
        assert_one_line_failure(result, 65)
        assert result[2] == f"error: bad binding file names.txt line 3: {problem}\n"

    @pytest.mark.parametrize("bad", [2.9, True, "2"])
    @pytest.mark.parametrize(
        "command, source, kind, entries",
        [
            ("physical", "prep.json", "operator", "labels"),
            ("reconstruct", "prep.duo.json", "duotensor", "indices"),
        ],
    )
    def test_non_integer_dim_exit_65(self, capsys, command, source, kind, entries, bad):
        data = json.loads(Path(source).read_text())
        data[entries][0]["dim"] = bad
        Path("bad.json").write_text(json.dumps(data))
        result = run(capsys, command, "bad.json")
        assert_one_line_failure(result, 65)
        assert result[2] == (
            f"error: bad {kind} file bad.json: field 'dim' must be an integer, got {bad!r}\n"
        )

    @pytest.mark.parametrize(
        "command, source, kind, place, bad, problem",
        [
            ("physical", "prep.json", "operator", ("labels", "type"), 1, "must be a string, got 1"),
            ("physical", "prep.json", "operator", ("labels", "role"), 1, "must be a string, got 1"),
            ("physical", "prep.json", "operator", ("matrix",), [True, False],
             "entries must be numbers, got True"),
            ("reconstruct", "prep.duo.json", "duotensor", ("indices", "type"), 7,
             "must be a string, got 7"),
            ("reconstruct", "prep.duo.json", "duotensor", ("indices", "role"), 7,
             "must be a string, got 7"),
            ("reconstruct", "prep.duo.json", "duotensor", ("indices", "color"), 7,
             "must be a string, got 7"),
            ("reconstruct", "prep.duo.json", "duotensor", ("data",), "0.25",
             "entries must be numbers, got '0.25'"),
        ],
    )
    def test_wrongly_typed_json_field_exit_65(
        self, capsys, command, source, kind, place, bad, problem
    ):
        data = json.loads(Path(source).read_text())
        if len(place) == 2:
            data[place[0]][0][place[1]] = bad
        else:
            data[place[0]][0] = bad
        Path("bad.json").write_text(json.dumps(data))
        result = run(capsys, command, "bad.json")
        assert_one_line_failure(result, 65)
        assert result[2] == (
            f"error: bad {kind} file bad.json: field {place[-1]!r} {problem}\n"
        )

    def test_malformed_operator_in_binding_exit_65(self, capsys):
        Path("prep.json").write_text("{not json")
        result = run(capsys, "eval", "pair.circ", "binding.txt")
        assert_one_line_failure(result, 65)
        assert "prep.json" in result[2]

    @pytest.mark.parametrize(
        "argv, output",
        [
            (("decompose", "prep.json"), "absent/out.json"),
            (("decompose", "prep.json"), "folder"),
            (("reconstruct", "prep.duo.json"), "absent/out.json"),
            (("reconstruct", "prep.duo.json"), "folder"),
            (("tomography", "prep.json"), "absent/out.json"),
            (("tomography", "prep.json"), "folder"),
            # physical writes into a directory it creates; a file blocks it
            (("physical", "bent.json", "--witness"), "pair.circ"),
        ],
    )
    def test_unwritable_output_exit_66(self, capsys, argv, output):
        assert_one_line_failure(run(capsys, *argv, "--output", output), 66)

    @pytest.mark.parametrize(
        "argv",
        [("decompose", "prep.json"), ("reconstruct", "prep.duo.json"), ("tomography", "prep.json")],
    )
    def test_output_in_missing_directory_names_the_write(self, capsys, argv):
        result = run(capsys, *argv, "--output", "absent/out.json")
        assert result[2] == "cannot write absent/out.json: No such file or directory\n"
