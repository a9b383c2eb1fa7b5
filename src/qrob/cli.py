"""qrob: graded-ring obstruction and witness certificates.

usage: qrob check EXPR --omega OMEGA --n N [--enum-budget N]
                  [--format text|json] [-o FILE]
       qrob verify FILE [--ring RING_FILE]
       qrob ring show EXPR [--format text|json] [-o FILE]
       qrob kunneth-ideal EXPR --k K [--format text|json] [-o FILE]
       qrob export EXPR -o FILE
Each flag takes `--flag value` or `--flag=value`; -o is also --output.
The last stage of `check` enumerates generator images whose blade
coefficients are +1 or -1, up to --enum-budget assignments (default 50000).

Exit codes for `check`: 0 WITNESS, 1 OBSTRUCTED, 2 UNKNOWN, 3 and up errors.
`verify` exits 0 on success and 1 on a failed re-verification. Every usage
error exits 3; so does an input file that is missing or does not hold JSON,
and an expression or file nested too deeply to parse.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from .dsl import parse_manifold
from .errors import QrobError
from .homsearch import MAX_NODES
from .manifolds import build
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


class _UsageError(Exception):
    pass


def _read_ring(path: str) -> GradedRing:
    """A ring file: a ring document or a bare ring object."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(obj, dict) and "ring" in obj:
        obj = obj["ring"]
    return GradedRing.from_obj(obj)


def _load_ring(text: str) -> GradedRing:
    """The ring of an expression, or of a ring file given as @FILE."""
    return _read_ring(text[1:]) if text.startswith("@") else build(parse_manifold(text))


def _emit(args, obj: dict, text: str) -> None:
    if args.output:
        Path(args.output).write_text(document_json(obj), encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(document_json(obj))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_ring_show(args) -> int:
    ring = _load_ring(args.expr)
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
    ring = _load_ring(args.expr)
    basis = kunneth_ideal_basis(ring, args.k)
    doc = kunneth_ideal_basis_doc(ring, args.k, basis)
    lines = [f"dim K^{args.k} = {len(basis)}"]
    lines += [f"  {b}" for b in basis]
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    if args.enum_budget < 0:
        raise _UsageError(f"--enum-budget must be >= 0, got {args.enum_budget}")
    result = run_query(Query(args.expr, args.omega, args.n), args.enum_budget)
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
    try:
        summary = verify_document(obj, ring=ring)
    except QrobError as exc:
        sys.stdout.write(f"FAIL: {exc}\n")
        return 1
    sys.stdout.write(f"OK: {summary}\n")
    return 0


def _cmd_export(args) -> int:
    ring = _load_ring(args.expr)
    Path(args.output).write_text(document_json(ring_document(ring)), encoding="utf-8")
    sys.stdout.write(f"wrote {args.output} ({ring.hash_hex()})\n")
    return 0


_REQUIRED = object()
_INTEGER_FIELDS = ("k", "n", "enum_budget")
# ASCII digits only, as in the expression language
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_OUTPUT = {"--format": ("format", "text"), "-o": ("output", None), "--output": ("output", None)}
# command words -> (handler, positional names, {flag: (field, default or _REQUIRED)})
_COMMANDS = {
    ("ring", "show"): (_cmd_ring_show, ("expr",), _OUTPUT),
    ("kunneth-ideal",): (_cmd_kunneth_ideal, ("expr",), {"--k": ("k", _REQUIRED), **_OUTPUT}),
    ("check",): (_cmd_check, ("expr",), {
        "--omega": ("omega", _REQUIRED), "--n": ("n", _REQUIRED),
        "--enum-budget": ("enum_budget", MAX_NODES), **_OUTPUT,
    }),
    ("verify",): (_cmd_verify, ("file",), {"--ring": ("ring_file", None)}),
    ("export",): (_cmd_export, ("expr",),
                  {"-o": ("output", _REQUIRED), "--output": ("output", _REQUIRED)}),
}


def _parse_args(argv: list[str]):
    """The handler of argv's command and the fields that it reads."""
    words = next((w for w in _COMMANDS if tuple(argv[: len(w)]) == w), None)
    if words is None:
        raise _UsageError(f"unknown command {' '.join(argv[:2])!r}; see --help")
    handler, positionals, flags = _COMMANDS[words]
    command, fields, given = " ".join(words), dict(flags.values()), []
    tokens = iter(argv[len(words):])
    for tok in tokens:
        if not tok.startswith("-"):
            given.append(tok)
            continue
        flag, eq, value = tok.partition("=")
        if flag not in flags:
            raise _UsageError(f"{command}: unknown option {flag!r}")
        if not eq and ((value := next(tokens, None)) is None or value in flags):
            raise _UsageError(f"{command}: {flag} needs a value")
        field = flags[flag][0]
        if field in _INTEGER_FIELDS:
            if not _INTEGER_RE.fullmatch(value):
                raise _UsageError(f"{command}: {flag} needs an integer, got {value!r}")
            value = int(value)
        fields[field] = value
    if len(given) != len(positionals):
        raise _UsageError(f"{command} takes {' '.join(positionals).upper()}, got {given}")
    for flag, (field, default) in flags.items():
        if default is _REQUIRED and fields[field] is _REQUIRED:
            raise _UsageError(f"{command} needs {flag}")
    if fields.get("format", "text") not in ("text", "json"):
        raise _UsageError(f"--format must be text or json, got {fields['format']!r}")
    return handler, SimpleNamespace(**fields, **dict(zip(positionals, given)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return 0
    try:
        handler, args = _parse_args(argv)
        return handler(args)
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
