"""Command-line front end.

Exit codes for `check`: 0 WITNESS, 1 OBSTRUCTED, 2 UNKNOWN, 3 and up errors.
`verify` exits 0 on success and 1 on a failed re-verification. An input
file that is missing or does not hold JSON exits 3, and so does an
expression or file nested too deeply to parse.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .dsl import parse_manifold
from .errors import QrobError
from .homsearch import EnumBudget
from .manifolds import build_with_classes
from .pipeline import (
    Query,
    document_json,
    kunneth_ideal_basis_doc,
    pairings_obj,
    result_to_obj,
    ring_document,
    run_query,
    verify_document,
)
from .ring import GradedRing, kunneth_ideal_basis

USAGE_ERROR = 3
INTERNAL_ERROR = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qrob", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring inspection")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    show = ring_sub.add_parser("show", help="dims, labels, and duality pairings")
    show.add_argument("expr")
    _output_flags(show)

    ideal = sub.add_parser("kunneth-ideal", help="basis of the degree-k product ideal")
    ideal.add_argument("expr")
    ideal.add_argument("--k", type=int, required=True)
    _output_flags(ideal)

    check = sub.add_parser("check", help="full obstruction/witness pipeline")
    check.add_argument("expr")
    check.add_argument("--omega", required=True)
    check.add_argument("--n", type=int, required=True)
    check.add_argument(
        "--coeff-set",
        default="-1,0,1",
        help="comma-separated exact coefficients for the enumeration search",
    )
    check.add_argument("--enum-budget", type=int, default=50_000)
    _output_flags(check)

    verify = sub.add_parser("verify", help="re-check an emitted document")
    verify.add_argument("file")
    verify.add_argument("--ring", dest="ring_file", default=None)
    verify.add_argument("--subring", dest="subring_file", default=None)

    export = sub.add_parser("export", help="write a ring file for an expression")
    export.add_argument("expr")
    export.add_argument("-o", "--output", required=True)
    return parser


def _output_flags(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("-o", "--output", default=None)


def _read_ring(path: str) -> GradedRing:
    """A ring file: a ring document or a bare ring object."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(obj, dict) and "ring" in obj:
        obj = obj["ring"]
    return GradedRing.from_obj(obj)


def _load_expr(text: str):
    if text.startswith("@"):
        return None, _read_ring(text[1:]), None
    expr = parse_manifold(text)
    ring, factors = build_with_classes(expr)
    return expr, ring, factors


def _emit(args, obj: dict, text: str) -> None:
    if args.output:
        Path(args.output).write_text(document_json(obj), encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(document_json(obj))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_ring_show(args) -> int:
    _, ring, _ = _load_expr(args.expr)
    doc = ring_document(ring)
    doc["pairings"] = pairings_obj(ring)
    lines = [
        f"top_degree: {ring.top_degree}",
        f"dims: {list(ring.dims)}",
        f"ring_hash: {ring.hash_hex()}",
    ]
    for k in range(ring.top_degree + 1):
        if ring.dims[k]:
            lines.append(f"H^{k}: " + ", ".join(ring.labels[k]))
    for k in range(ring.top_degree + 1):
        if ring.dims[k]:
            lines.append(f"pairing H^{k} x H^{ring.top_degree - k}:")
            for row in doc["pairings"][str(k)]:
                lines.append("  [" + ", ".join(row) + "]")
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_kunneth_ideal(args) -> int:
    _, ring, _ = _load_expr(args.expr)
    basis = kunneth_ideal_basis(ring, args.k)
    doc = kunneth_ideal_basis_doc(ring, args.k, basis)
    lines = [f"dim K^{args.k} = {len(basis)}"]
    lines += [f"  {b}" for b in basis]
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    try:
        coeffs = tuple(
            Fraction(tok.strip()) for tok in args.coeff_set.split(",") if tok.strip()
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad --coeff-set {args.coeff_set!r}: {exc}") from exc
    if args.enum_budget < 0:
        raise _UsageError(f"--enum-budget must be >= 0, got {args.enum_budget}")
    budget = EnumBudget(coefficients=coeffs, max_nodes=args.enum_budget)
    result = run_query(Query(args.expr, args.omega, args.n), budget=budget)
    doc = result_to_obj(result)
    lines = [f"verdict: {result.verdict}"]
    lines.append(
        "preconditions: "
        + ", ".join(f"{k}={v}" for k, v in result.preconditions.items())
    )
    if result.certificate is not None:
        cert = result.certificate
        ineq = cert.inequality
        lines.append(f"certificate: {cert.kind}")
        lines.append(f"inequality: {ineq.lhs} {ineq.rel} {ineq.rhs}")
        lines.append(f"conclusion: {cert.conclusion}")
    if result.witness is not None:
        lines.append(f"witness: ambient_n={result.witness.ambient_n}")
        for k in sorted(result.witness.images):
            per = result.witness.images[k]
            for i, img in enumerate(per):
                lines.append(f"  phi({result.ring.labels[k][i]}) = {img}")
    if result.search_log:
        lines.append(f"search_log: {json.dumps(result.search_log, sort_keys=True)}")
    _emit(args, doc, "\n".join(lines))
    return result.exit_code


def _cmd_verify(args) -> int:
    obj = json.loads(Path(args.file).read_text(encoding="utf-8"))
    ring = _read_ring(args.ring_file) if args.ring_file else None
    subring = _read_ring(args.subring_file) if args.subring_file else None
    try:
        summary = verify_document(obj, ring=ring, subring=subring)
    except QrobError as exc:
        sys.stdout.write(f"FAIL: {exc}\n")
        return 1
    sys.stdout.write(f"OK: {summary}\n")
    return 0


def _cmd_export(args) -> int:
    _, ring, _ = _load_expr(args.expr)
    Path(args.output).write_text(document_json(ring_document(ring)), encoding="utf-8")
    sys.stdout.write(f"wrote {args.output} ({ring.hash_hex()})\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "ring":
            return _cmd_ring_show(args)
        if args.command == "kunneth-ideal":
            return _cmd_kunneth_ideal(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "export":
            return _cmd_export(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR
    except (QrobError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except RecursionError:
        sys.stderr.write("error: input nested too deeply to parse\n")
        return USAGE_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
