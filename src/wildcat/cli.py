"""Command line interface: analyze, directions, scaffold, verify, reduce, sample.

Machine output is a JSON document with stable key order and no timing data,
so repeated runs on one instance (and seed) are byte-identical; certificates
are included so every verdict can be rechecked by a few lines of script.
Text output is the same content rendered for people, plus wall-clock time.

Exit codes: 0 success; 1 a well-formed input that fails (a candidate that
violates the Stokes conditions, a point with no Levi reduction, a relation
the sampler cannot solve); 2 a malformed or unsuitable input; 3 an
inconclusive analysis, when the MeatAxe can neither split a module nor
certify it irreducible over the field (the reason goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .algebra import MeatAxeInconclusive
from .engine import (
    NotPolystable,
    StabilityReport,
    TwistedInput,
    is_stable,
    levi_reduction,
)
from .instances import InstanceError, InstanceFile, parse_instance
from .linalg import Matrix, Subspace
from .stokes import (
    RepCandidate,
    Scaffold,
    UnsolvableRelation,
    build_scaffold,
    grouped_directions,
    random_candidate,
    singular_directions,
    to_framed_point,
    verify_candidate,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


@dataclass
class Report:
    """Analysis result: verdicts plus machine-checkable certificates."""

    command: str
    field: int
    stability: StabilityReport

    def to_json(self):
        return {"command": self.command, "field": self.field,
                "report": self.stability.to_json()}

    @staticmethod
    def from_json(data) -> "Report":
        m = data["field"]
        raw = data["report"]
        stability = StabilityReport(
            polystable=raw["polystable"],
            stable=raw["stable"],
            radical_witness=None if raw["radical_witness"] is None
            else Matrix.from_json(raw["radical_witness"], m),
            invariant_subspace_witness=None if raw["invariant_subspace_witness"] is None
            else Subspace.from_json(raw["invariant_subspace_witness"], m),
            stabilizer_dim=raw["stabilizer_dim"],
            kernel_dim=raw["kernel_dim"],
            levi_decomposition=None if raw["levi_decomposition"] is None
            else [Subspace.from_json(s, m) for s in raw["levi_decomposition"]],
        )
        return Report(data["command"], m, stability)


def _emit(payload: dict, fmt: str, text_lines, started: float):
    if fmt == "machine":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)
        print(f"elapsed: {time.perf_counter() - started:.3f}s")


def _matrix_text(mat: Matrix):
    return ["    [" + "  ".join(repr(x) for x in mat.row(i)) + "]"
            for i in range(mat.rows)]


def _vector_text(row) -> str:
    return "(" + ", ".join(repr(x) for x in row) + ")"


def _levi_text(blocks):
    return [f"Levi blocks ({len(blocks)}):"] + [
        f"    dim {b.dim}: " + "; ".join(_vector_text(row) for row in b.basis) for b in blocks]


def _report_text(report: StabilityReport):
    lines = [f"polystable: {report.polystable}"]
    if report.stable is not None:
        lines.append(f"stable: {report.stable}")
    if report.stabilizer_dim is not None:
        lines.append(f"stabilizer Lie dimension: {report.stabilizer_dim}")
        lines.append(f"action kernel Lie dimension: {report.kernel_dim}")
    if report.radical_witness is not None:
        lines.append("radical witness (nilpotent certificate):")
        lines += _matrix_text(report.radical_witness)
    if report.invariant_subspace_witness is not None:
        lines.append("invariant subspace witness (echelon basis):")
        lines += ["    " + _vector_text(row) for row in report.invariant_subspace_witness.basis]
    if report.levi_decomposition is not None:
        lines += _levi_text(report.levi_decomposition)
    return lines


def _resolve_point(inst: InstanceFile):
    """The framed point of an instance, building and verifying as needed.

    Returns (point, error_message, exit_code)."""
    if inst.mode == "tuple":
        if inst.point is None:
            return None, "tuple instance carries no point", EXIT_INPUT
        return inst.point, None, EXIT_OK
    sc = build_scaffold(inst.surface)
    if inst.candidate is None:
        return None, "stokes instance needs a candidate (use sample to create one)", EXIT_INPUT
    try:
        return to_framed_point(sc, RepCandidate(inst.candidate)), None, EXIT_OK
    except ValueError as exc:  # the candidate fails verification
        return None, str(exc), EXIT_INVALID


def _cmd_analyze(inst: InstanceFile, args, started) -> int:
    point, err, code = _resolve_point(inst)
    if point is None:
        print(err, file=sys.stderr)
        return code
    try:
        report = is_stable(point)
    except MeatAxeInconclusive as exc:
        print(f"analysis inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    payload = Report("analyze", inst.conductor, report).to_json()
    _emit(payload, args.format, _report_text(report), started)
    return EXIT_OK


def _cmd_reduce(inst: InstanceFile, args, started) -> int:
    point, err, code = _resolve_point(inst)
    if point is None:
        print(err, file=sys.stderr)
        return code
    try:
        blocks = levi_reduction(point)
    except NotPolystable:
        print("point is not polystable: no Levi reduction", file=sys.stderr)
        return EXIT_INVALID
    except TwistedInput as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except MeatAxeInconclusive as exc:
        print(f"reduction inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    payload = {"command": "reduce", "field": inst.conductor,
               "blocks": [b.to_json() for b in blocks]}
    _emit(payload, args.format, _levi_text(blocks), started)
    return EXIT_OK


def _cmd_directions(inst: InstanceFile, args, started) -> int:
    payload = {"command": "directions", "field": inst.conductor, "punctures": []}
    lines = []
    for i, cls in enumerate(inst.surface.punctures):
        infos = singular_directions(cls)
        groups = grouped_directions(infos)
        payload["punctures"].append({
            "incidences": [{"theta": d.theta, "pair": list(d.pair), "level": str(d.level)}
                           for d in infos],
            "directions": [{"theta": t, "pattern": [list(p) for p in pairs]}
                           for t, pairs in groups],
        })
        lines.append(f"puncture {i + 1}: {len(groups)} singular directions")
        for t, pairs in groups:
            lines.append(f"    theta = {t:.12g}: pattern blocks {pairs}")
    _emit(payload, args.format, lines, started)
    return EXIT_OK


def _scaffold_json(sc: Scaffold):
    return {
        "n": sc.n,
        "genus": sc.genus,
        "field": sc.conductor,
        "generators": [{"name": g.name, "kind": g.kind,
                        **({"puncture": g.puncture + 1} if g.puncture is not None else {}),
                        **({"theta": g.theta} if g.theta is not None else {}),
                        **({"pattern": [list(p) for p in g.pattern]}
                           if g.pattern is not None else {})}
                       for g in sc.generators],
        "relation": [[name, exp] for name, exp in sc.relation],
    }


def _cmd_scaffold(inst: InstanceFile, args, started) -> int:
    sc = build_scaffold(inst.surface)
    payload = {"command": "scaffold", **_scaffold_json(sc)}
    word = " ".join(name if exp == 1 else f"{name}^-1" for name, exp in sc.relation)
    lines = [f"{len(sc.generators)} generators:"]
    for g in sc.generators:
        extra = ""
        if g.kind == "stokes":
            extra = f"  theta={g.theta:.12g}  pattern={g.pattern}"
        elif g.kind == "formal":
            extra = "  (twisted graded support)"
        lines.append(f"    {g.name}: {g.kind}{extra}")
    lines.append(f"relation: {word} = 1")
    _emit(payload, args.format, lines, started)
    return EXIT_OK


def _cmd_verify(inst: InstanceFile, args, started) -> int:
    if inst.candidate is None:
        print("verify requires a candidate", file=sys.stderr)
        return EXIT_INPUT
    sc = build_scaffold(inst.surface)
    violations = verify_candidate(sc, RepCandidate(inst.candidate))
    payload = {"command": "verify", "field": inst.conductor, "violations": violations}
    lines = ["candidate verifies: no violations"] if not violations else \
        [f"{len(violations)} violations:"] + [f"    {v}" for v in violations]
    _emit(payload, args.format, lines, started)
    return EXIT_OK if not violations else EXIT_INVALID


def _cmd_sample(inst: InstanceFile, args, started) -> int:
    sc = build_scaffold(inst.surface)
    try:
        cand = random_candidate(sc, args.seed)
    except UnsolvableRelation as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    payload = {"command": "sample", "field": sc.conductor, "seed": args.seed,
               "candidate": cand.to_json()}
    lines = [f"verified candidate for seed {args.seed}:"]
    for name, mat in sorted(cand.assignment.items()):
        lines.append(f"  {name}:")
        lines += _matrix_text(mat)
    _emit(payload, args.format, lines, started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildcat",
        description="Exact stability analysis of twisted tuples and Stokes representations")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "analyze": "decide polystability and stability, print certificates",
        "directions": "list singular directions and Stokes block patterns",
        "scaffold": "print the generators and the surface relation",
        "verify": "check a candidate against the Stokes conditions",
        "reduce": "print the Levi decomposition of a polystable point",
        "sample": "emit a random verified candidate for a seed",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--instance", required=True, help="path to a JSON instance file")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
        sp.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first command and reused by every later one."""
    return build_parser()


# commands that need the surface of a stokes instance
_SURFACE_COMMANDS = ("directions", "scaffold", "verify", "sample")

_COMMANDS = {
    "analyze": _cmd_analyze,
    "directions": _cmd_directions,
    "scaffold": _cmd_scaffold,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "sample": _cmd_sample,
}


def run_command(argv) -> int:
    started = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0,) else EXIT_OK
    try:
        inst = parse_instance(args.instance)
    except InstanceError as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return EXIT_INPUT
    if args.command in _SURFACE_COMMANDS and (inst.mode != "stokes" or inst.surface is None):
        print(f"{args.command} requires a stokes instance", file=sys.stderr)
        return EXIT_INPUT
    return _COMMANDS[args.command](inst, args, started)


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
