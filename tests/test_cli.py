"""Command-line interface: subcommands, exit codes, file round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qrob import build, parse_manifold
from qrob.cli import _COMMANDS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_show_text(capsys):
    code, out, _ = run(capsys, "ring", "show", "torus(2)")
    assert code == 0
    assert "dims: [1, 2, 1]" in out
    assert "pairing H^1 x H^1:" in out


def test_ring_show_json(capsys):
    code, out, _ = run(capsys, "ring", "show", "torus(2)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"]["dims"] == [1, 2, 1]
    assert doc["pairings"]["1"] == [["0", "1"], ["-1", "0"]]


def test_ring_show_long_connected_sum(capsys):
    # a connected sum of 500 summands parses to a left-nested chain of 499
    # nodes; the build flattens it once, and nothing hashes the chain
    code, out, err = run(capsys, "ring", "show", "connsum(s2xs2,500)")
    assert (code, err) == (0, "")
    assert "dims: [1, 0, 1000, 0, 1]" in out


def test_ring_show_connected_sum_of_1000_summands(capsys):
    # a chain deeper than the recursion limit: its summands are flattened
    # with a loop, so the build neither recurses down it nor caps its length
    code, out, err = run(capsys, "ring", "show", "connsum(s2xs2,1000)")
    assert (code, err) == (0, "")
    assert "dims: [1, 0, 2000, 0, 1]" in out


def test_kunneth_ideal_dims(capsys):
    code, out, _ = run(capsys, "kunneth-ideal", "cp(2)", "--k", "4")
    assert code == 0 and "dim K^4 = 1" in out
    code, out, _ = run(capsys, "kunneth-ideal", "sphere(4)", "--k", "4")
    assert code == 0 and "dim K^4 = 0" in out


@pytest.mark.parametrize("k", ["1", "5"])
def test_kunneth_ideal_undefined_degree_exit_three(capsys, k):
    # below degree 2 and above the top degree the ideal is undefined
    code, _, err = run(capsys, "kunneth-ideal", "torus(2)", "--k", k)
    assert code == 3 and err.startswith("error:")


def test_check_witness_exit_zero(capsys, tmp_path):
    out_file = tmp_path / "verdict.json"
    code, out, _ = run(
        capsys, "check", "surface(1) * cp(2)", "--omega", "vol(1)^sym(2)",
        "--n", "4", "-o", str(out_file),
    )
    assert code == 0
    assert "verdict: WITNESS" in out
    doc = json.loads(out_file.read_text())
    assert doc["verdict"] == "WITNESS"
    assert doc["witness"]["ring_hash"] == doc["ring_hash"]


def test_check_obstructed_exit_one(capsys):
    code, out, _ = run(
        capsys, "check", "surface(2) * cp(2)", "--omega", "vol(1)^sym(2)", "--n", "4"
    )
    assert code == 1
    assert "certificate: H1Annihilator" in out
    assert "inequality: 4 >= 4" in out


def test_check_unknown_exit_two(capsys):
    code, out, _ = run(
        capsys, "check", "connsum(s2xs2,2) * cp(2)", "--omega", "vol(1)^sym(2)",
        "--n", "6", "--enum-budget", "200",
    )
    assert code == 2
    assert "verdict: UNKNOWN" in out


def test_check_precondition_failure_is_unknown(capsys):
    # omega outside the product ideal: hypotheses fail, no search is run
    code, out, _ = run(
        capsys, "check", "sphere(4)", "--omega", "vol(1)", "--n", "4"
    )
    assert code == 2
    assert "omega_in_kunneth_ideal=False" in out


def test_check_parse_error_exit_three(capsys):
    code, _, err = run(capsys, "check", "blob(2)", "--omega", "vol(1)", "--n", "2")
    assert code == 3 and "error" in err


@pytest.mark.parametrize("manifold,omega", [("torus(²)", "vol(1)"), ("torus(2)", "²*vol(1)")])
def test_check_non_ascii_digit_exit_three(capsys, manifold, omega):
    # "²" passes str.isdigit but not int(): a parse error, not an internal one
    code, _, err = run(capsys, "check", manifold, "--omega", omega, "--n", "2")
    assert code == 3 and "position" in err


def test_check_bad_dimension_exit_three(capsys):
    code, _, err = run(
        capsys, "check", "torus(2)", "--omega", "vol(1)", "--n", "7"
    )
    assert code == 3 and "top degree" in err


def test_usage_error_exit_three(capsys):
    assert run(capsys, "check")[0] == 3
    assert run(capsys, "nonsense")[0] == 3


_CHECK = ("check", "torus(2)", "--omega", "vol(1)", "--n", "2")


@pytest.mark.parametrize("argv", [
    ("nonsense", "torus(2)"),
    ("ring", "list", "torus(2)"),
    (*_CHECK, "--bogus", "1"),
    (*_CHECK, "-x"),
    ("check", "torus(2)", "--om", "vol(1)", "--n", "2"),  # no prefix abbreviations
    ("check", "torus(2)", "--omega", "vol(1)", "--n"),
    ("check", "torus(2)", "--omega", "--n", "2"),
    ("check", "torus(2)", "--n", "2"),
    ("check", "torus(2)", "--omega", "vol(1)"),
    ("kunneth-ideal", "cp(2)"),
    ("export", "torus(2)"),
    ("check", "--omega", "vol(1)", "--n", "2"),
    (*_CHECK, "torus(3)"),
    ("verify",),
    ("check", "torus(2)", "--omega", "vol(1)", "--n", "2.0"),
    ("kunneth-ideal", "cp(2)", "--k", "four"),
    (*_CHECK, "--enum-budget", "1e3"),
    (*_CHECK, "--format", "yaml"),
], ids=[
    "unknown-command", "unknown-subcommand", "unknown-long-option", "unknown-short-option",
    "abbreviated-option", "flag-without-value", "flag-followed-by-flag", "missing-omega",
    "missing-n", "missing-k", "missing-output", "no-positional", "two-positionals",
    "verify-without-file", "non-integer-n", "non-integer-k", "non-integer-enum-budget",
    "unknown-format",
])
def test_usage_errors_exit_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and err.startswith("usage error:")
    assert "Traceback" not in out + err


def test_flag_value_spellings_write_the_same_document(capsys, tmp_path):
    docs = []
    for name, flags in (("a.json", ("--n", "4")), ("b.json", ("--n=4",))):
        code, _, _ = run(
            capsys, "check", "surface(1) * cp(2)", "--omega=vol(1)^sym(2)", *flags,
            "-o", str(tmp_path / name),
        )
        assert code == 0
        docs.append((tmp_path / name).read_bytes())
    assert docs[0] == docs[1]


@pytest.mark.parametrize("argv", [("--help",), ("check", "--help"), ("verify", "-h")])
def test_help_exits_zero(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("qrob:") and "qrob check EXPR --omega OMEGA" in out
    # the usage text names every command and flag of the table that parses argv
    for words, (_, _, flags) in _COMMANDS.items():
        assert "qrob " + " ".join(words) in out
        assert all(flag in out for flag in flags)


def test_importing_the_cli_does_not_load_argparse():
    # building an argparse parser, or importing dataclasses (which loads
    # inspect and generates each class's methods by exec), in a fresh process
    # costs each cold `check` and `verify` milliseconds
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, qrob.cli; print(*(m in sys.modules for m in sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", probe, "argparse", "dataclasses", "inspect"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert done.stdout == "False False False\n"


def test_verify_witness_document(capsys, tmp_path):
    out_file = tmp_path / "verdict.json"
    run(
        capsys, "check", "surface(1) * cp(2)", "--omega", "vol(1)^sym(2)",
        "--n", "4", "-o", str(out_file),
    )
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0 and out.startswith("OK")


def test_enumeration_witness_checks_and_verifies(capsys, tmp_path):
    # no template covers connsum(s2xs2,2), so the enumeration finds the witness
    out_file = tmp_path / "verdict.json"
    code, out, _ = run(
        capsys, "check", "connsum(s2xs2,2)", "--omega", "vol(1)", "--n", "4",
        "-o", str(out_file),
    )
    assert code == 0 and "verdict: WITNESS" in out
    doc = json.loads(out_file.read_text())
    assert doc["search_log"] == {"witness_method": "enumeration", "nodes": 18090}
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0 and out == "OK: witness re-verified\n"


def test_verify_certificate_document(capsys, tmp_path):
    out_file = tmp_path / "verdict.json"
    run(
        capsys, "check", "connsum(s2xs2,8) * cp(2)", "--omega", "vol(1)^sym(2)",
        "--n", "6", "-o", str(out_file),
    )
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0 and "DualPair" in out


def test_verify_detects_tampering(capsys, tmp_path):
    out_file = tmp_path / "verdict.json"
    run(
        capsys, "check", "surface(2) * cp(2)", "--omega", "vol(1)^sym(2)",
        "--n", "4", "-o", str(out_file),
    )
    doc = json.loads(out_file.read_text())
    doc["certificate"]["classes"]["annihilators"][0]["coords"]["1"][0] = "2"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(tampered))
    assert code == 1
    assert "annihilators[0]" in out


@pytest.mark.parametrize("manifold,n,role", [
    ("connsum(s2xs2,8) * cp(2)", "6", "left"),
    ("surface(2) * cp(2)", "4", "annihilators"),
])
def test_verify_rejects_a_mixed_degree_row_class(capsys, tmp_path, manifold, n, role):
    # the product tables take classes of one degree: a degree-0 part added to
    # the first row class is a failed verification, not a traceback
    out_file = tmp_path / "verdict.json"
    code, _, _ = run(
        capsys, "check", manifold, "--omega", "vol(1)^sym(2)", "--n", n, "-o", str(out_file)
    )
    assert code == 1
    doc = json.loads(out_file.read_text())
    doc["certificate"]["classes"][role][0]["coords"]["0"] = ["1"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(tampered))
    assert code == 1 and out.startswith("FAIL: NonHomogeneousError") and err == ""


@pytest.mark.parametrize("manifold,n,row,col,kp", [
    ("connsum(s2xs2,8) * cp(2)", "6", "left", "right", 2),
    ("surface(2) * cp(2)", "4", "annihilators", "duals", 1),
])
def test_verify_rejects_a_family_larger_than_the_degrees(capsys, tmp_path, manifold, n, row, col, kp):
    # m independent row classes need m <= min(dims[k'], dims[k - k']): a
    # family padded past that fails before any of its products is formed
    out_file = tmp_path / "verdict.json"
    run(capsys, "check", manifold, "--omega", "vol(1)^sym(2)", "--n", n, "-o", str(out_file))
    doc = json.loads(out_file.read_text())
    classes = doc["certificate"]["classes"]
    k = doc["certificate"]["degree"]  # of the diagonal class
    dims = build(parse_manifold(manifold)).dims
    most = min(dims[kp], dims[k - kp])
    for role in (row, col):
        classes[role] = [classes[role][0]] * (most + 1)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(forged))
    message = (
        f"{row} has {most + 1} classes, more than the "
        f"min(dims[{kp}], dims[{k - kp}]) = {most} that can pair off"
    )
    assert (code, err) == (1, "") and out == f"FAIL: InvalidSystemError: {message}\n"


def test_export_and_verify_ring(capsys, tmp_path):
    ring_file = tmp_path / "ring.json"
    code, out, _ = run(capsys, "export", "surface(2) * cp(2)", "-o", str(ring_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(ring_file))
    assert code == 0 and "ring re-validated" in out
    # the exported ring is accepted back as an @file expression
    code, out, _ = run(capsys, "ring", "show", f"@{ring_file}")
    assert code == 0 and "top_degree: 6" in out


def test_standalone_witness_file_with_ring(capsys, tmp_path):
    from qrob import build_with_classes, parse_manifold, parse_omega, witness_template
    from qrob.pipeline import document_json, ring_document, witness_to_obj

    ring, factors = build_with_classes(parse_manifold("torus(4)"))
    omega = parse_omega("vol(1)", ring, factors)
    witness = witness_template(parse_manifold("torus(4)"), factors, omega, 4)
    wfile = tmp_path / "witness.json"
    rfile = tmp_path / "ring.json"
    wfile.write_text(document_json(witness_to_obj(witness, omega)))
    rfile.write_text(document_json(ring_document(ring)))
    code, out, _ = run(capsys, "verify", str(wfile), "--ring", str(rfile))
    assert code == 0 and "witness re-verified" in out
    # single-coefficient tampering is caught
    obj = json.loads(wfile.read_text())
    obj["images"]["1"][0]["terms"][0]["coeff"] = "2"
    wfile.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(wfile), "--ring", str(rfile))
    assert code == 1


def test_coeff_set_is_an_unknown_option(capsys):
    # the enumeration's coefficients are fixed at +1 and -1
    code, out, err = run(capsys, *_CHECK, "--coeff-set", "-1,0,1")
    assert code == 3 and err.startswith("usage error:")
    assert "unknown option '--coeff-set'" in err and out == ""


@pytest.mark.parametrize("argv, flag", [
    (("check", "torus(4)", "--omega", "vol(1)", "--n", "\u0664"), "--n"),
    ((*_CHECK, "--enum-budget", "1_0"), "--enum-budget"),
    (("kunneth-ideal", "cp(2)", "--k", " 4 "), "--k"),
])
def test_integer_flags_take_only_ascii_digits(capsys, argv, flag):
    code, _, err = run(capsys, *argv)
    assert code == 3 and err.startswith("usage error:") and flag in err


def test_negative_enum_budget_exit_three(capsys, tmp_path):
    out_file = tmp_path / "verdict.json"
    code, _, err = run(
        capsys, "check", "connsum(s2xs2,2) * cp(2)", "--omega", "vol(1)^sym(2)",
        "--n", "6", "--enum-budget", "-5", "-o", str(out_file),
    )
    assert code == 3 and "--enum-budget" in err
    assert not out_file.exists()
    # a zero budget is still a valid (empty) search
    code, _, _ = run(
        capsys, "check", "connsum(s2xs2,2) * cp(2)", "--omega", "vol(1)^sym(2)",
        "--n", "6", "--enum-budget", "0",
    )
    assert code == 2


def test_check_json_format(capsys):
    code, out, _ = run(
        capsys, "check", "surface(2) * cp(2)", "--omega", "vol(1)^sym(2)",
        "--n", "4", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["certificate"]["inequality"] == {"lhs": 4, "rel": ">=", "rhs": 4}


def test_check_output_stable_across_runs(capsys, tmp_path):
    files = []
    for name in ("a.json", "b.json"):
        out_file = tmp_path / name
        run(
            capsys, "check", "surface(3) * cp(2)", "--omega", "vol(1)^sym(2)",
            "--n", "4", "-o", str(out_file),
        )
        files.append(out_file.read_bytes())
    assert files[0] == files[1]


# verify takes its one ring from --ring; no document names a subring
_NO_SUBRING = "usage error: verify: unknown option '--subring'\n"


def test_malformed_ring_files_exit_three(capsys, tmp_path):
    doc_file = tmp_path / "verdict.json"
    run(
        capsys, "check", "torus(2)", "--omega", "vol(1)", "--n", "2",
        "-o", str(doc_file),
    )
    for i, bad in enumerate(({"foo": 1}, [1, 2], "ring", None, {"ring": [1, 2]})):
        bad_file = tmp_path / f"bad{i}.json"
        bad_file.write_text(json.dumps(bad))
        for argv, message in (
            (("ring", "show", f"@{bad_file}"), "error:"),
            (("verify", str(doc_file), "--ring", str(bad_file)), "error:"),
            (("verify", str(doc_file), "--subring", str(bad_file)), _NO_SUBRING),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3, (bad, argv)
            assert err.startswith(message) and "Traceback" not in out + err


_T2_PRODUCTS = [[0, 1, [[0, "1"]]], [1, 0, [[0, "-1"]]]]  # t1 * t2 = vol = -t2 * t1


@pytest.mark.parametrize("structure, message", [
    # t1 * t2 = vol with coordinate 0 listed twice
    ([{"p": 1, "q": 1, "products": [[0, 1, [[0, "1"], [0, "1"]]], _T2_PRODUCTS[1]]}],
     "coordinate index 0 is repeated"),
    # the dense vector that qrob.ring/1 wrote for t1 * t2
    ([{"p": 1, "q": 1, "products": [[0, 1, ["1"]], _T2_PRODUCTS[1]]}],
     '[index, "coefficient"]'),
    # t1 * t2 = 5 vol = -t2 * t1 in front of the true products
    ([{"p": 1, "q": 1, "products": [[0, 1, [[0, "5"]]], [1, 0, [[0, "-5"]]], *_T2_PRODUCTS]}],
     "product (0, 1) of table (1, 1) is repeated"),
    # a (1, 1) table saying t1 * t2 = 7 vol in front of the true one
    ([{"p": 1, "q": 1, "products": [[0, 1, [[0, "7"]]]]},
      {"p": 1, "q": 1, "products": _T2_PRODUCTS}],
     "structure table (1, 1) is repeated"),
], ids=["repeated-index", "dense-vector", "repeated-product", "repeated-table"])
def test_ring_file_products_must_be_index_coefficient_pairs(
    capsys, tmp_path, structure, message
):
    ring_file = tmp_path / "ring.json"
    run(capsys, "export", "torus(2)", "-o", str(ring_file))
    doc = json.loads(ring_file.read_text())
    assert doc["ring"]["structure"] == [{"p": 1, "q": 1, "products": _T2_PRODUCTS}]
    doc["ring"]["structure"] = structure
    ring_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "ring", "show", f"@{ring_file}")
    assert code == 3 and err.startswith("error:") and message in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("literal, message", [
    ("1/0", "zero denominator"),
    ("1\n", "not an exact rational literal"),
    ("\u0663/\u0664", "not an exact rational literal"),
], ids=["zero-denominator", "trailing-newline", "arabic-indic-digits"])
def test_ring_file_bad_coefficient_exit_three(capsys, tmp_path, literal, message):
    ring_file, doc_file = tmp_path / "ring.json", tmp_path / "verdict.json"
    run(capsys, "export", "torus(2)", "-o", str(ring_file))
    run(capsys, "check", "torus(2)", "--omega", "vol(1)", "--n", "2", "-o", str(doc_file))
    doc = json.loads(ring_file.read_text())
    doc["ring"]["structure"][0]["products"][0][2][0][1] = literal
    ring_file.write_text(json.dumps(doc))
    for argv in (
        ("ring", "show", f"@{ring_file}"),
        ("export", f"@{ring_file}", "-o", str(tmp_path / "out.json")),
        ("kunneth-ideal", f"@{ring_file}", "--k", "2"),
        ("verify", str(doc_file), "--ring", str(ring_file)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and err.startswith("error:") and message in err, argv
        assert "Traceback" not in out + err
    # the ring document itself fails re-verification
    code, out, _ = run(capsys, "verify", str(ring_file))
    assert code == 1 and out.startswith("FAIL:") and message in out


@pytest.mark.parametrize("argv", [
    ("verify", "{garbage}"),
    ("verify", "{missing}"),
    ("verify", "{doc}", "--ring", "{garbage}"),
    ("verify", "{doc}", "--subring", "{missing}"),
    ("ring", "show", "@{garbage}"),
    ("kunneth-ideal", "@{missing}", "--k", "2"),
])
def test_unreadable_input_exit_three(capsys, tmp_path, argv):
    # a missing file or text that is not JSON is an input error
    doc = tmp_path / "verdict.json"
    run(capsys, "check", "torus(2)", "--omega", "vol(1)", "--n", "2", "-o", str(doc))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    paths = {"doc": doc, "garbage": garbage, "missing": tmp_path / "missing.json"}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 3 and err.startswith(_NO_SUBRING if "--subring" in argv else "error:")
    assert "Traceback" not in out + err


_DEEP = 5000


@pytest.mark.parametrize("argv", [
    ("check", "(" * _DEEP + "torus(2)" + ")" * _DEEP, "--omega", "vol(1)", "--n", "2"),
    ("check", "torus(2)", "--omega", "(" * _DEEP + "vol(1)" + ")" * _DEEP, "--n", "2"),
    ("verify", "{deep}"),
], ids=["manifold", "omega", "verify"])
def test_deeply_nested_input_exit_three(capsys, tmp_path, argv):
    # nesting past the parsers' depth is an input error; for `check` an
    # uncaught traceback would exit 1, which reads as OBSTRUCTED
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *(arg.format(deep=deep) for arg in argv))
    assert code == 3 and err.startswith("error:")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("value", [[1, 2], "verdict", 3, None])
def test_verify_non_object_document_fails(capsys, tmp_path, value):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(value))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out.startswith("FAIL:")
    assert "Traceback" not in out + err


def test_ring_show_document_verifies(capsys, tmp_path):
    # `ring show` adds the duality pairings, which verify re-derives too
    out_file = tmp_path / "ring.json"
    run(capsys, "ring", "show", "torus(2)", "-o", str(out_file))
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0 and "ring re-validated" in out
    doc = json.loads(out_file.read_text())
    doc["pairings"]["1"][0][1] = "2"
    out_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 1 and "pairings.1" in out


def test_generator_out_of_range_message(capsys, tmp_path):
    # the message shows the generator as Generator(degree=..., index=..., name=...)
    ring_file = tmp_path / "ring.json"
    run(capsys, "export", "surface(2) * cp(2)", "-o", str(ring_file))
    doc = json.loads(ring_file.read_text())
    doc["ring"]["monomial_presentation"]["generators"][0]["index"] = 99
    ring_file.write_text(json.dumps(doc))
    message = "generator out of range: Generator(degree=1, index=99, name='c1⊗1')"
    assert run(capsys, "ring", "show", f"@{ring_file}") == (3, "", f"error: {message}\n")
    code, out, err = run(capsys, "verify", str(ring_file))
    assert (code, out, err) == (1, f"FAIL: RingValidationError: {message}\n", "")


@pytest.mark.parametrize("expr, message", [
    ("sphere(0)", "sphere dimension must be >= 1"),
    ("torus(0)", "torus dimension must be >= 1"),
    ("surface(0)", "surface genus must be >= 1 (the sphere is excluded)"),
    ("cp(0)", "projective space needs m >= 1"),
])
def test_constructor_below_one_exit_three(capsys, expr, message):
    code, out, err = run(capsys, "check", expr, "--omega", "vol(1)", "--n", "2")
    assert (code, out, err) == (3, "", f"error: {message} (at position 0)\n")


@pytest.mark.parametrize("gid", [7, -1])
def test_presentation_word_with_unknown_generator_exit_three(capsys, tmp_path, gid):
    # an out-of-range id used to raise IndexError; a negative one resolved to
    # the last generator, which for words[1][1] is the right one
    ring_file = tmp_path / "ring.json"
    run(capsys, "export", "torus(2)", "-o", str(ring_file))
    doc = json.loads(ring_file.read_text())
    doc["ring"]["monomial_presentation"]["words"][1][1] = [gid]
    ring_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "ring", "show", f"@{ring_file}")
    assert code == 3 and err.startswith("error:") and f"no generator {gid}" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("path, value", [
    (("top_degree",), 2.5),
    (("dims", 1), 2.0),
    (("fundamental_index",), 0.4),
    (("structure", 0, "p"), 1.9),
    (("structure", 0, "products", 0, 0), 0.2),
    (("monomial_presentation", "generators", 0, "index"), False),
    (("monomial_presentation", "words", 1, 1, 0), 1.7),
    (("structure", 0, "products", 0, 2, 0, 0), 0.3),
])
def test_ring_file_integer_fields_must_be_integers(capsys, tmp_path, path, value):
    # int() would truncate each value to the honest torus(2) one, so the
    # edited file would load and hash like the real ring
    doc_file, ring_file = tmp_path / "verdict.json", tmp_path / "ring.json"
    run(capsys, "check", "torus(2)", "--omega", "vol(1)", "--n", "2", "-o", str(doc_file))
    run(capsys, "export", "torus(2)", "-o", str(ring_file))
    doc = json.loads(ring_file.read_text())
    target = doc["ring"]
    for key in path[:-1]:
        target = target[key]
    assert target[path[-1]] == int(value)
    target[path[-1]] = value
    ring_file.write_text(json.dumps(doc))
    for argv in (
        ("ring", "show", f"@{ring_file}"),
        ("verify", str(doc_file), "--ring", str(ring_file)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and err.startswith("error:"), argv
        assert "must be an integer" in err and "Traceback" not in out + err


def test_verify_kunneth_ideal_document(capsys, tmp_path):
    ideal_file, ring_file = tmp_path / "ki.json", tmp_path / "ring.json"
    run(capsys, "kunneth-ideal", "cp(2)", "--k", "4", "-o", str(ideal_file))
    run(capsys, "export", "cp(2)", "-o", str(ring_file))
    code, out, _ = run(capsys, "verify", str(ideal_file), "--ring", str(ring_file))
    assert code == 0 and out.startswith("OK:")
    code, out, _ = run(capsys, "verify", str(ideal_file))
    assert code == 1 and "no ring available" in out
    doc = json.loads(ideal_file.read_text())
    doc["basis"][0]["coords"]["4"] = ["2"]
    ideal_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(ideal_file), "--ring", str(ring_file))
    assert code == 1 and out.startswith("FAIL:") and "basis" in out
    assert "Traceback" not in out + err


def test_verify_kunneth_ideal_against_another_ring_fails(capsys, tmp_path):
    ideal_file, ring_file = tmp_path / "ki.json", tmp_path / "ring.json"
    run(capsys, "kunneth-ideal", "surface(2) * cp(2)", "--k", "2", "-o", str(ideal_file))
    run(capsys, "export", "surface(3) * cp(2)", "-o", str(ring_file))
    code, out, _ = run(capsys, "verify", str(ideal_file), "--ring", str(ring_file))
    assert code == 1 and "ring_hash" in out


@pytest.mark.parametrize("doc, needed, edit, expected", [
    ("ring-show", (), ("--ring", "ring"),
     (1, "FAIL: --ring is unused: it is not the ring this document holds\n", "")),
    ("verdict", (), ("--subring", "ring"), (3, "", _NO_SUBRING)),
    ("ideal", ("--ring", "cp2"), ("--subring", "ring-show"), (3, "", _NO_SUBRING)),
    # the retired SubmanifoldBound kind and its report are read like any
    # other unknown kind and format
    ("certificate", ("--ring", "ring"), {"kind": "SubmanifoldBound"},
     (1, "FAIL: InvalidSystemError: unknown certificate kind 'SubmanifoldBound'\n", "")),
    ("certificate", ("--ring", "ring"), {"format": "qrob.submanifold-report/3"},
     (1, "FAIL: unrecognized document format 'qrob.submanifold-report/3'\n", "")),
], ids=["ring-document-with-another-ring", "verdict-with-subring", "ideal-with-subring",
        "certificate-of-kind-SubmanifoldBound", "submanifold-report-format"])
def test_verify_rejects_an_unused_ring_option(capsys, tmp_path, doc, needed, edit, expected):
    files = {name: str(tmp_path / f"{name}.json")
             for name in ("ring-show", "verdict", "ideal", "ring", "cp2", "obstructed",
                          "certificate")}
    for argv in (
        ("ring", "show", "torus(2)", "-o", files["ring-show"]),
        ("check", "surface(1) * cp(2)", "--omega", "vol(1)^sym(2)", "--n", "4",
         "-o", files["verdict"]),
        ("kunneth-ideal", "cp(2)", "--k", "4", "-o", files["ideal"]),
        ("export", "surface(2) * cp(2)", "-o", files["ring"]),
        ("export", "cp(2)", "-o", files["cp2"]),
    ):
        assert run(capsys, *argv)[0] == 0
    assert run(capsys, "check", "surface(2) * cp(2)", "--omega", "vol(1)^sym(2)",
               "--n", "4", "-o", files["obstructed"])[0] == 1
    # the verdict's certificate as a standalone document, checked against --ring
    certificate = json.loads(Path(files["obstructed"]).read_text())["certificate"]
    Path(files["certificate"]).write_text(json.dumps(certificate))
    needed = [files.get(arg, arg) for arg in needed]
    code, out, _ = run(capsys, "verify", files[doc], *needed)
    assert code == 0 and out.startswith("OK:")
    if isinstance(edit, dict):
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**json.loads(Path(files[doc]).read_text()), **edit}))
        argv = (str(edited), *needed)
    else:
        argv = (files[doc], *needed, edit[0], files[edit[1]])
    assert run(capsys, "verify", *argv) == expected
