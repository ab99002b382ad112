"""Command line interface: analyze, directions, scaffold, verify, reduce, sample.

Machine output is a JSON document with stable key order and no timing data,
so repeated runs on one instance (and seed) are byte-identical; certificates
are included so every verdict can be rechecked by a few lines of script.
It is written by ``machine_text``, a recursive join that gives the bytes of
``json.dumps(payload, sort_keys=True, indent=2)`` without the pure-Python
encoder that CPython 3.10 and 3.11 fall back to under an indent.
Text output is the same content rendered for people, plus wall-clock time.

A command returns (payload, text, exit code) or raises, with its text lines
as a zero-argument function that ``run_command`` calls only for text output,
so ``--format machine`` renders no matrix as text; only ``run_command``
prints, reads the clock and maps a failure to an exit code.
Exit codes: 0 success; 1 a well-formed input that fails (a candidate that
violates the Stokes conditions, a point with no Levi reduction, a relation
the sampler cannot solve); 2 a malformed or unsuitable input; 3 an
inconclusive analysis, when the MeatAxe can neither split a module nor
certify it irreducible over the field.  Past parsing, a failure's code is
chosen in ``_FAILURES`` and its message goes to stderr; ``verify`` returns
1 itself, with the violations on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii

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
    InvalidCandidate,
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


class _Refused(Exception):
    """An instance its command cannot run on: the wrong mode, or no candidate."""


# the exit code of every failure a schema-valid instance can meet
_FAILURES = {
    InvalidCandidate: EXIT_INVALID,
    NotPolystable: EXIT_INVALID,
    UnsolvableRelation: EXIT_INVALID,
    TwistedInput: EXIT_INPUT,
    _Refused: EXIT_INPUT,
    MeatAxeInconclusive: EXIT_INCONCLUSIVE,
}


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


def _matrix_text(mat: Matrix):
    return ["    [" + "  ".join(mat.row(i)) + "]" for i in range(mat.rows)]


def _vector_text(row) -> str:
    return "(" + ", ".join(row) + ")"


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


def _point(inst: InstanceFile):
    """The framed point of an instance, a Stokes candidate's built and verified."""
    if inst.mode == "tuple":
        return inst.point
    if inst.candidate is None:
        raise _Refused("stokes instance needs a candidate (use sample to create one)")
    return to_framed_point(build_scaffold(inst.surface), inst.candidate)


def _cmd_analyze(inst: InstanceFile, args):
    report = is_stable(_point(inst))
    payload = Report("analyze", inst.conductor, report).to_json()
    return payload, lambda: _report_text(report), EXIT_OK


def _cmd_reduce(inst: InstanceFile, args):
    blocks = levi_reduction(_point(inst))
    payload = {"command": "reduce", "field": inst.conductor,
               "blocks": [b.to_json() for b in blocks]}
    return payload, lambda: _levi_text(blocks), EXIT_OK


def _cmd_directions(inst: InstanceFile, args):
    payload = {"command": "directions", "field": inst.conductor, "punctures": []}
    grouped = []
    for cls in inst.surface.punctures:
        infos = singular_directions(cls)
        groups = grouped_directions(infos)
        grouped.append(groups)
        payload["punctures"].append({
            "incidences": [{"theta": d.theta, "pair": list(d.pair), "level": str(d.level)}
                           for d in infos],
            "directions": [{"theta": t, "pattern": [list(p) for p in pairs]}
                           for t, pairs in groups],
        })

    def lines():
        out = []
        for i, groups in enumerate(grouped):
            out.append(f"puncture {i + 1}: {len(groups)} singular directions")
            out += [f"    theta = {t:.12g}: pattern blocks {pairs}" for t, pairs in groups]
        return out
    return payload, lines, EXIT_OK


def _cmd_scaffold(inst: InstanceFile, args):
    sc = build_scaffold(inst.surface)
    payload = {
        "command": "scaffold",
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

    def lines():
        word = " ".join(name if exp == 1 else f"{name}^-1" for name, exp in sc.relation)
        out = [f"{len(sc.generators)} generators:"]
        for g in sc.generators:
            extra = ""
            if g.kind == "stokes":
                extra = f"  theta={g.theta:.12g}  pattern={g.pattern}"
            elif g.kind == "formal":
                extra = "  (twisted graded support)"
            out.append(f"    {g.name}: {g.kind}{extra}")
        out.append(f"relation: {word} = 1")
        return out
    return payload, lines, EXIT_OK


def _cmd_verify(inst: InstanceFile, args):
    if inst.candidate is None:
        raise _Refused("verify requires a candidate")
    violations = verify_candidate(build_scaffold(inst.surface), inst.candidate)
    payload = {"command": "verify", "field": inst.conductor, "violations": violations}

    def lines():
        if not violations:
            return ["candidate verifies: no violations"]
        return [f"{len(violations)} violations:"] + [f"    {v}" for v in violations]
    return payload, lines, EXIT_OK if not violations else EXIT_INVALID


def _cmd_sample(inst: InstanceFile, args):
    sc = build_scaffold(inst.surface)
    cand = sorted(random_candidate(sc, args.seed).items())
    payload = {"command": "sample", "field": sc.conductor, "seed": args.seed,
               "candidate": {name: mat.to_json() for name, mat in cand}}

    def lines():
        out = [f"verified candidate for seed {args.seed}:"]
        for name, mat in cand:
            out.append(f"  {name}:")
            out += _matrix_text(mat)
        return out
    return payload, lines, EXIT_OK


# name -> (handler, whether it needs the surface of a stokes instance, help)
_COMMANDS = {
    "analyze": (_cmd_analyze, False, "decide polystability and stability, print certificates"),
    "directions": (_cmd_directions, True, "list singular directions and Stokes block patterns"),
    "scaffold": (_cmd_scaffold, True, "print the generators and the surface relation"),
    "verify": (_cmd_verify, True, "check a candidate against the Stokes conditions"),
    "reduce": (_cmd_reduce, False, "print the Levi decomposition of a polystable point"),
    "sample": (_cmd_sample, True, "emit a random verified candidate for a seed"),
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first command and reused by every later one;
    the command is a positional choice, and every command takes one set of options."""
    parser = argparse.ArgumentParser(
        prog="wildcat",
        description="Exact stability analysis of twisted tuples and Stokes representations",
        epilog="commands:\n" + "\n".join(f"  {name:<12}{help_text}"
                                          for name, (_, _, help_text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--instance", required=True, help="path to a JSON instance file")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def machine_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a payload of
    dicts with string keys, lists, tuples and JSON leaves: strings through
    the C string encoder, ints through ``int.__repr__`` as the encoder
    writes them, other leaves through ``json.dumps``, dict keys sorted,
    tuples written as lists, and ``{}`` and ``[]`` when empty.  ``indent``
    is the newline and indent before the value's closing bracket."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " +
                 (encode_basestring_ascii(v) if type(v) is str else machine_text(v, inner))
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [encode_basestring_ascii(v) if type(v) is str else machine_text(v, inner)
                 for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return int.__repr__(value) if type(value) is int else json.dumps(value)


def run_command(argv) -> int:
    started = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    handler, needs_surface, _ = _COMMANDS[args.command]
    try:
        inst = parse_instance(args.instance)
        if needs_surface and inst.mode != "stokes":
            raise _Refused(f"{args.command} requires a stokes instance")
        payload, lines, code = handler(inst, args)
    except InstanceError as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return EXIT_INPUT
    except tuple(_FAILURES) as exc:
        print(exc, file=sys.stderr)
        return next(code for kind, code in _FAILURES.items() if isinstance(exc, kind))
    if args.format == "machine":
        print(machine_text(payload))
    else:
        for line in lines():
            print(line)
        print(f"elapsed: {time.perf_counter() - started:.3f}s")
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
