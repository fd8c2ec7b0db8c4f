"""Command-line interface.

Exit codes: 0 success, 2 validation failure, 3 physicality required but
absent, 64 usage error (including a negative ``--shots`` or ``--seed``),
65 malformed data, 66 an input or output file that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from . import duotensor as duo
from . import evaluator, notation, operators, tomography
from .errors import CircuitSyntaxError, WiringError
from .physicality import is_physical, witness_nonphysical

EX_OK = 0
EX_VALIDATION = 2
EX_NONPHYSICAL = 3
EX_USAGE = 64
EX_DATA = 65
EX_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _non_negative_int(text: str) -> int:
    """``--shots`` and ``--seed``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


class _CannotWrite(OSError):
    pass


@contextlib.contextmanager
def _writing():
    """Re-raise a failure to write an output so that it is reported as one."""
    try:
        yield
    except OSError as exc:
        raise _CannotWrite(exc.errno, exc.strerror, exc.filename) from exc


def _read_text(path: str, kind: str) -> str:
    """The UTF-8 text of ``path``, naming the file if it does not decode."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"bad {kind} file {path}: {exc}") from exc


def _parse_file(path: str, kind: str, parse):
    """``parse`` the text of ``path``, naming the file if the text is malformed."""
    text = _read_text(path, kind)
    try:
        return parse(text)
    except Exception as exc:
        raise ValueError(f"bad {kind} file {path}: {exc}") from exc


def _load_operator(path: str) -> operators.LabeledOperator:
    return _parse_file(path, "operator", operators.loads)


def _load_circuit(path: str) -> notation.CircuitFragment:
    return notation.parse_circuit(_read_text(path, "circuit"))


def _load_binding(path: str) -> dict[str, operators.LabeledOperator]:
    base = Path(path).parent
    binding: dict[str, operators.LabeledOperator] = {}
    for lineno, raw in enumerate(_read_text(path, "binding").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad binding file {path} line {lineno}: {raw!r}")
        name, ref = (part.strip() for part in line.split("=", 1))
        if not name:
            raise ValueError(f"bad binding file {path} line {lineno}: empty operation name")
        if name in binding:
            raise ValueError(f"bad binding file {path} line {lineno}: {name!r} bound twice")
        ref_path = Path(ref)
        if not ref_path.is_absolute():
            ref_path = base / ref_path
        binding[name] = _load_operator(str(ref_path))
    return binding


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        print(f"{key}: {value}")


# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    frag = _load_circuit(args.circuit)
    if args.types:
        registry = notation.parse_registry(_read_text(args.types, "registry"))
        unknown = {lab.sys for lab in notation.iter_labels(frag)} - set(registry)
        if unknown:
            raise WiringError(f"unknown system types: {sorted(unknown)}")
    _emit(
        {
            "ok": True,
            "kind": frag.kind,
            "operations": len(frag.ops),
            "internal_wires": len(frag.internal_wires),
            "canonical": notation.print_circuit(frag),
        },
        args.format,
    )
    return EX_OK


def cmd_eval(args) -> int:
    frag = _load_circuit(args.circuit)
    binding = _load_binding(args.bindings)
    report: dict = {}
    bound = evaluator._bind_circuit(frag, binding, args.eps, check_physical=False)
    warned = bound.nonphysical
    if args.explain:
        report["plan"] = bound.plan.dump().splitlines()
        report["peak_dim"] = bound.plan.peak_dim
    if args.method in ("tensor", "both"):
        tensor = bound.trace()
        report["probability_tensor"] = f"{tensor:.12f}"
    if args.method in ("foliation", "both"):
        foliation = bound.foliated("earliest")
        report["probability_foliation"] = f"{foliation:.12f}"
    if args.method == "both":
        report["difference"] = f"{abs(tensor - foliation):.3e}"
    for message in dict.fromkeys(warned):
        print(f"warning: {message}", file=sys.stderr)
    _emit(report, args.format)
    if warned and args.require_physical:
        return EX_NONPHYSICAL
    return EX_OK


def cmd_physical(args) -> int:
    op = _load_operator(args.operator)
    report_obj = is_physical(op, args.eps)
    report = {
        "physical": report_obj.physical,
        "input_transpose_min_eig": f"{report_obj.input_transpose_min_eig:.12e}",
        "output_trace_excess": f"{report_obj.output_trace_excess:.12e}",
    }
    if args.witness and not report_obj.physical:
        witness = witness_nonphysical(op, args.eps)
        report["witness_condition"] = witness.condition
        report["witness_value"] = f"{witness.value:.12e}"
        if args.output:
            out = Path(args.output)
            with _writing():
                out.mkdir(parents=True, exist_ok=True)
                operators.save(witness.preparation, out / "witness_preparation.json")
                operators.save(witness.result, out / "witness_result.json")
            report["witness_files"] = [
                str(out / "witness_preparation.json"),
                str(out / "witness_result.json"),
            ]
    _emit(report, args.format)
    if args.require_physical and not report_obj.physical:
        return EX_NONPHYSICAL
    return EX_OK


def cmd_decompose(args) -> int:
    op = _load_operator(args.operator)
    fsets = duo.default_fiducials_for(op)
    dt = duo.decompose(op, fsets)
    payload = duo.duotensor_to_json_dict(dt)
    if args.output:
        with _writing():
            Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        _emit({"written": args.output, "indices": len(dt.indices)}, args.format)
    else:
        print(json.dumps(payload, indent=2))
    return EX_OK


def cmd_reconstruct(args) -> int:
    dt = _parse_file(
        args.duotensor, "duotensor", lambda text: duo.duotensor_from_json_dict(json.loads(text))
    )
    op = duo.reconstruct(dt, duo.default_fiducials_for(dt.indices))
    if args.output:
        with _writing():
            operators.save(op, args.output)
        _emit({"written": args.output, "dim": op.dim}, args.format)
    else:
        print(operators.dumps(op))
    return EX_OK


def cmd_tomography(args) -> int:
    hidden = _load_operator(args.operator)
    fsets = duo.default_fiducials_for(hidden)
    if args.shots > 0:
        box = tomography.SampledBlackBox(hidden, args.shots, args.seed)
    else:
        box = tomography.ExactBlackBox(hidden)
    recovered = tomography.reconstruct_operation(box, fsets)
    error = float(np.max(np.abs(recovered.matrix - hidden.matrix)))
    report = {
        "shots": args.shots,
        "seed": args.seed,
        "max_entry_error": f"{error:.12e}",
    }
    if args.output:
        with _writing():
            operators.save(recovered, args.output)
        report["written"] = args.output
    _emit(report, args.format)
    return EX_OK


def cmd_locality(args) -> int:
    frag_a = _load_circuit(args.fragment_a)
    frag_b = _load_circuit(args.fragment_b)
    binding = _load_binding(args.bindings)
    ratio = evaluator.formalism_locality_ratio(frag_a, frag_b, binding, eps=args.eps)
    if ratio is None:
        _emit({"proportional": False}, args.format)
    else:
        _emit({"proportional": True, "ratio": f"{ratio:.12f}"}, args.format)
    return EX_OK


def cmd_foliate(args) -> int:
    frag = _load_circuit(args.circuit)
    fol = notation.foliate(frag, args.policy)
    report = {
        "layers": [
            " ".join(frag.ops[i].name for i in layer) for layer in fol.layers
        ],
        "layer_count": len(fol.layers),
        "paddings": [f"{pad.wire}@layer{pad.layer}" for pad in fol.paddings],
    }
    _emit(report, args.format)
    return EX_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="optensor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check circuit text against the wiring rules")
    p.add_argument("circuit")
    p.add_argument("--types", help="system-type registry file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate a circuit probability")
    p.add_argument("circuit")
    p.add_argument("bindings", help="manifest of opName = operator.json lines")
    p.add_argument("--method", choices=["tensor", "foliation", "both"], default="tensor")
    p.add_argument("--explain", action="store_true", help="dump the contraction plan")
    p.add_argument("--require-physical", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("physical", help="test an operator for physicality")
    p.add_argument("operator")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--require-physical", action="store_true")
    p.add_argument("--output", help="directory for witness operator files")
    p.set_defaults(func=cmd_physical)

    p = sub.add_parser("decompose", help="expand an operator in default fiducials")
    p.add_argument("operator")
    p.add_argument("--output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="rebuild an operator from a duotensor file")
    p.add_argument("duotensor")
    p.add_argument("--output")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("tomography", help="reconstruct an operator by probing it")
    p.add_argument("operator", help="hidden operator file (also the reference)")
    p.add_argument("--shots", type=_non_negative_int, default=0, help="0 = exact probabilities")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="shot-noise seed")
    p.add_argument("--output")
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("locality", help="proportionality test between two fragments")
    p.add_argument("fragment_a")
    p.add_argument("fragment_b")
    p.add_argument("bindings")
    p.set_defaults(func=cmd_locality)

    p = sub.add_parser("foliate", help="print the layering of a circuit")
    p.add_argument("circuit")
    p.add_argument("--policy", choices=["earliest", "latest"], default="earliest")
    p.set_defaults(func=cmd_foliate)

    for name, p in sub.choices.items():
        p.add_argument("--format", choices=["text", "json"], default="text")
        if name in ("eval", "physical", "locality"):  # the commands that test physicality
            p.add_argument("--eps", type=float, default=1e-9)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        # the one place a failure becomes an exit code; subclasses before bases
        for types, code, describe in (
            (CircuitSyntaxError, EX_VALIDATION, lambda e: f"syntax error: {e}"),
            (WiringError, EX_VALIDATION, lambda e: f"{type(e).__name__}: {e}"),
            (_CannotWrite, EX_NOINPUT, lambda e: f"cannot write {e.filename}: {e.strerror}"),
            (FileNotFoundError, EX_NOINPUT, lambda e: f"missing file: {e.filename}"),
            (OSError, EX_NOINPUT, lambda e: f"cannot open {e.filename}: {e.strerror}"),
            ((ValueError, KeyError), EX_DATA, lambda e: f"error: {e}"),
        ):
            if isinstance(exc, types):
                print(describe(exc), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
