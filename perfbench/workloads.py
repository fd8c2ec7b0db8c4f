"""The benchmark workloads: what one item does, and how its output is checked.

Each workload has ``setup()`` (input files and one unchecked warm-up call),
``generate(index)`` (the inputs of item ``index``, drawn from the workload
seed), ``run(inputs)`` (the timed calls into optensor) and
``check(inputs, output)`` (a list of failed checks; empty when the output is
correct).  Library calls go through
module attributes at call time, so tracing and fault injection can rebind them.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import inputs
import optensor as ot
from optensor import cli

ROUTE_ATOL = 1e-10  # circuit trace against foliated evolution
ROUTE_RTOL = 1e-8
UNIT_SLACK = 1e-10  # a probability may leave [0, 1] by this much
EXACT_TOL = 1e-10  # exact reconstruction and duotensor identities
SAMPLED_TOL = 0.02  # acceptance bound C6 for 10**6 shots
SHOTS = 10**6
# sandwich_check settings: fixed ancilla dims and samples, sized to take
# under a third of a tomography item
SANDWICH_ANCILLAS = (1, 2, 4)
SANDWICH_SAMPLES = 300
CLI_SHOTS = 10**4
# C6's 0.02 at 10**6 shots, scaled by sqrt(10**6 / 10**4) for shot noise
CLI_SAMPLED_TOL = 0.2


def item_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


class Residues:
    """Largest numeric residues seen by the checks, by name."""

    def __init__(self):
        self.max: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.max[name] = max(self.max.get(name, 0.0), float(value))


class CircuitWorkload:
    """Parse, evaluate by both routes, and analyse the causal structure."""

    def __init__(self, seed: int, make_circuit):
        self.seed = seed
        self.make_circuit = make_circuit
        self.residues = Residues()

    def setup(self) -> None:
        small = inputs.register_circuit(item_rng(self.seed, 1), ["a", "a"], 12)
        self.run(small)

    def generate(self, index: int) -> inputs.Circuit:
        return self.make_circuit(item_rng(self.seed, 0, index), index)

    def run(self, circ: inputs.Circuit):
        circuit = ot.parse_circuit(circ.text)
        p = ot.probability(circuit, circ.binding)
        q = ot.probability_foliated(circuit, circ.binding)
        unmeasured = ot.fragment_from_ops(op for op in circuit.ops if op.outputs)
        return p, q, ot.causal_structure(unmeasured)

    def check(self, circ: inputs.Circuit, output) -> list[str]:
        p, q, causal = output
        diff = abs(p - q)
        self.residues.add("evaluator.route_diff_max", diff)
        fails = []
        if not (diff <= ROUTE_ATOL and diff <= ROUTE_RTOL * abs(p)):
            fails.append(f"routes differ: tensor {p!r}, foliated {q!r}")
        if not -UNIT_SLACK <= p <= 1 + UNIT_SLACK:
            fails.append(f"probability {p!r} outside [0, 1]")
        floor = inputs.RESULT_SPECTRUM[0] ** circ.width
        if not p >= floor - UNIT_SLACK:
            fails.append(f"probability {p!r} below the generator's floor {floor!r}")
        if len(causal.pairs) != circ.causal_pairs or causal.open_pairs():
            fails.append(
                f"causal structure has {len(causal.pairs)} pairs, expected {circ.causal_pairs}"
            )
        return fails


class RecordingBox:
    """A black box that delegates to another and keeps every probed value.

    The check compares ``convert_dots(decompose(op))`` with these values, the
    black duotensor the probe built, without probing a second time.
    """

    def __init__(self, box):
        self.box = box
        self.values: dict[tuple[int, ...], float] = {}

    @property
    def signature(self):
        return self.box.signature

    def probability(self, setting, fsets):
        value = self.box.probability(setting, fsets)
        self.values[tuple(setting)] = value
        return value


class TomographyWorkload:
    """Fiducials, exact and sampled reconstruction, duotensor identities, sandwich."""

    def __init__(self, seed: int):
        self.seed = seed
        self.residues = Residues()

    def setup(self) -> None:
        self.run(self._draw(item_rng(self.seed, 1), [(("a",), ("a",))]))

    def generate(self, index: int):
        return self._draw(item_rng(self.seed, 0, index), inputs.TOMOGRAPHY_SIGNATURES)

    @staticmethod
    def _draw(rng, signatures):
        """A channel per signature, each with a shot-noise seed and a sandwich seed."""
        return [
            (inputs.channel(rng, ins, outs), int(rng.integers(2**31)), int(rng.integers(2**31)))
            for ins, outs in signatures
        ]

    def run(self, draws):
        results = []
        for op, shot_seed, sandwich_seed in draws:
            fsets = ot.default_fiducials_for(op)
            box = RecordingBox(ot.ExactBlackBox(op))
            exact = ot.reconstruct_operation(box, fsets)
            sampled = ot.reconstruct_operation(ot.SampledBlackBox(op, SHOTS, shot_seed), fsets)
            white = ot.decompose(op, fsets)
            black = ot.convert_dots(white, ot.BLACK, fsets)
            rebuilt = ot.reconstruct(white, fsets, legs=op.legs)
            sandwich = ot.sandwich_check(
                op, SANDWICH_ANCILLAS, SANDWICH_SAMPLES, seed=sandwich_seed
            )
            results.append((fsets, box.values, exact, sampled, black, rebuilt, sandwich))
        return results

    def check(self, draws, output) -> list[str]:
        fails = []
        for (op, _, _), (fsets, probed, exact, sampled, black, rebuilt, sandwich) in zip(
            draws, output
        ):
            where = " ".join(str(leg) for leg in op.legs)
            if set(fsets) != {leg.sys for leg in op.legs}:
                fails.append(f"{where}: fiducial sets for {sorted(fsets)}")
            exact_err = _max_entry_error(exact, op)
            sampled_err = _max_entry_error(sampled, op)
            self.residues.add("tomography.exact_err_max", exact_err)
            self.residues.add("tomography.sampled_err_max", sampled_err)
            if not exact_err <= EXACT_TOL:
                fails.append(f"{where}: exact reconstruction error {exact_err:.3e}")
            if not sampled_err <= SAMPLED_TOL:
                fails.append(f"{where}: {SHOTS}-shot reconstruction error {sampled_err:.3e}")
            if len(probed) != black.data.size:
                fails.append(f"{where}: probe asked {len(probed)} of {black.data.size} settings")
            else:
                dots_err = max(abs(black.data[s] - v) for s, v in probed.items())
                if not dots_err <= EXACT_TOL:
                    fails.append(
                        f"{where}: convert_dots(decompose) differs from probe by {dots_err:.3e}"
                    )
            if not _max_entry_error(rebuilt, op) <= EXACT_TOL:
                fails.append(f"{where}: reconstruct(decompose(op)) differs from op")
            if not sandwich.passed:
                fails.append(f"{where}: sandwich check failed ({sandwich})")
        return fails


def _max_entry_error(got, want) -> float:
    if got.legs != want.legs:
        return float("inf")
    return float(np.max(np.abs(got.matrix - want.matrix)))


# -- command line --------------------------------------------------------------

LAUNCH = "import sys; from optensor.cli import main; sys.exit(main())"


class CliWorkload:
    """One ``optensor`` command per item, cycling a fixed session over set-up files.

    Commands run as subprocesses, as users run them.  With ``in_process`` they
    call ``cli.main`` directly instead, so that a tracer can see the layers.
    """

    def __init__(self, seed: int, workdir: Path, src: Path, in_process: bool = False):
        self.seed = seed
        self.dir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.in_process = in_process
        self.residues = Residues()
        self.session = self._session()

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self) -> None:
        rng = item_rng(self.seed, 1)
        self.dir.mkdir(parents=True, exist_ok=True)
        circ = inputs.register_circuit(rng, ["a", "b", "a"], 17)
        self.circuit = circ
        (self.dir / "eval.circ").write_text(circ.text)
        lines = []
        for name, op in circ.binding.items():
            ot.save(op, self.path(f"op_{name}.json"))
            lines.append(f"{name} = op_{name}.json")
        (self.dir / "eval.bind").write_text("\n".join(lines) + "\n")
        self.probability = ot.probability(ot.parse_circuit(circ.text), circ.binding)

        self.channel = inputs.channel(rng, ("a", "b"), ("b",))
        ot.save(self.channel, self.path("channel.json"))
        bent = inputs.channel(rng, ("a",), ("a",))
        nonphysical = ot.LabeledOperator(bent.legs, bent.matrix - 0.05 * np.eye(bent.dim))
        ot.save(nonphysical, self.path("nonphysical.json"))
        (self.dir / "invalid.circ").write_text("A_{a2}^{a1} B_{a1}^{a2}\n")
        self.run(("validate", self.path("eval.circ")))

    def _session(self):
        """(command, arguments, files the command writes) for each step."""
        p = self.path
        witness = [p("witness/witness_preparation.json"), p("witness/witness_result.json")]
        return [
            ("validate", (p("eval.circ"),), []),
            ("foliate", (p("eval.circ"),), []),
            ("eval", (p("eval.circ"), p("eval.bind"), "--method", "both", "--explain"), []),
            ("physical", (p("nonphysical.json"), "--witness", "--output", p("witness")), witness),
            ("decompose", (p("channel.json"), "--output", p("channel.duo.json")),
             [p("channel.duo.json")]),
            ("reconstruct", (p("channel.duo.json"), "--output", p("channel.rec.json")),
             [p("channel.rec.json")]),
            ("tomography", (p("channel.json"), "--shots", str(CLI_SHOTS)), []),
            ("validate", (p("invalid.circ"),), []),
        ]

    def generate(self, index: int):
        """The argv of session step ``index``, after removing what it will write.

        The session runs in order, so reconstruct reads the file that the
        decompose step before it wrote.
        """
        command, args, writes = self.session[index % len(self.session)]
        for name in writes:
            Path(name).unlink(missing_ok=True)
        return (command, *args, "--format", "json")

    def run(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCH, *argv],
            cwd=self.dir, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, argv, output) -> list[str]:
        code, out, err = output
        command, target = argv[0], Path(argv[1]).name
        if target == "invalid.circ":
            if code != 2 or out or "ClosedLoop" not in err:
                return [f"invalid circuit: exit {code}, stderr {err.strip()!r}"]
            return []
        if code != 0:
            return [f"{command}: exit {code}, stderr {err.strip()!r}"]
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return [f"{command}: output is not JSON: {out[:200]!r}"]
        return self._check_report(command, report)

    def _check_report(self, command: str, report: dict) -> list[str]:
        circ = self.circuit
        if command == "validate":
            ok = report["ok"] is True and report["operations"] == circ.n_ops
            return [] if ok else [f"validate: {report}"]
        if command == "foliate":
            ok = report["layer_count"] == circ.layers
            expected = f"expected {circ.layers}"
            return [] if ok else [f"foliate: {report['layer_count']} layers, {expected}"]
        if command == "eval":
            p = float(report["probability_tensor"])
            q = float(report["probability_foliation"])
            self.residues.add("evaluator.route_diff_max", abs(p - q))
            # values are printed to 12 decimals
            ok = (
                abs(p - self.probability) <= 1e-12
                and abs(q - self.probability) <= ROUTE_ATOL + 1e-12
                and len(report["plan"]) == circ.n_ops - 1
            )
            return [] if ok else [f"eval: {report}, expected p={self.probability:.12f}"]
        if command == "physical":
            value = float(report.get("witness_value", "nan"))
            files = [Path(f) for f in report.get("witness_files", [])]
            ok = (
                report["physical"] is False
                and report.get("witness_condition") == "positivity"
                and value < -UNIT_SLACK
                and len(files) == 2
                and all(f.is_file() for f in files)
            )
            return [] if ok else [f"physical: {report}"]
        if command == "decompose":
            written = json.loads(Path(report["written"]).read_text())
            ok = report["indices"] == len(written["indices"]) == len(self.channel.legs)
            return [] if ok else [f"decompose: {report}"]
        if command == "reconstruct":
            err = _max_entry_error(ot.load(report["written"]), self.channel)
            self.residues.add("duotensor.round_trip_err_max", err)
            return [] if err <= EXACT_TOL else [f"reconstruct: round trip error {err:.3e}"]
        if command == "tomography":
            err = float(report["max_entry_error"])
            self.residues.add("tomography.cli_sampled_err_max", err)
            ok = report["shots"] == CLI_SHOTS and err <= CLI_SAMPLED_TOL
            return [] if ok else [f"tomography: {report}"]
        return [f"no check for command {command!r}"]
