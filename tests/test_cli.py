import glob
import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import treetrace.cli
import treetrace.surgery
from treetrace.cli import (
    ReplicationReport,
    _UsageError,
    _emit_report,
    _parse_args,
    _print_values,
    _rational,
    build_report,
    load_knot_document,
    main,
)
from treetrace.exact import FreeVec
from treetrace.forms import cocycle_values
from treetrace.grammar import format_hvec, parse_twist
from treetrace.surgery import BUILTIN_KNOTS, bounding_casson
from treetrace.symplectic import BasisLabel, omega, seifert_form
from treetrace.trees import tau2_bscc_twist

from cli_outcomes import parse_outcome, parsed_outcome
from helpers import (argparse_commands, argparse_parse, argparse_parser,
                     report_dict, seifert_q_j)

SRC = str(Path(treetrace.cli.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_text_passes(capsys):
    code, out, _ = run_cli(capsys, "report")
    assert code == 0
    assert "overall: PASS" in out
    assert "FAIL" not in out
    assert "PASS cocycle_coefficients: (3, 3/4)" in out
    assert "PASS poincare_obstruction: 24" in out


def test_report_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "report", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall_pass"] is True
    assert json.loads(json.dumps(doc)) == doc
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["q_trefoil"]["computed"] == "48"
    assert by_name["cocycle_figure_eight"]["computed"] == "132"
    assert all(c["pass"] for c in doc["checks"])
    # Emitted values parse back to the same exact strings.
    rebuilt = report_dict(build_report(doc["genus"]))
    assert rebuilt == doc


def test_report_stable_across_genus(capsys):
    def computed(*genus):
        code, out, _ = run_cli(capsys, "report", "--format", "json", *genus)
        assert code == 0
        return {c["name"]: c["computed"] for c in json.loads(out)["checks"]}

    base = computed()
    for genus in ("6", "8", "12", "20"):
        assert computed("--genus", genus) == base


def test_report_with_dependent_rows_fails_its_check(capsys, monkeypatch):
    # Q = 4 J on both knots makes the two coefficient rows proportional.
    values = treetrace.cli.cocycle_values

    def proportional(lam_x, x, lam_y, y):
        _, j, b, c = values(lam_x, x, lam_y, y)
        return 4 * j, j, b, c

    monkeypatch.setattr(treetrace.cli, "cocycle_values", proportional)
    code, out, err = run_cli(capsys, "report")
    assert code == 1
    assert "FAIL cocycle_coefficients" in out
    assert "Traceback" not in err


def test_report_rejects_small_genus(capsys):
    code, _, err = run_cli(capsys, "report", "--genus", "4")
    assert code == 2
    assert "genus" in err


def test_cocycle_of_builtin_knots(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "trefoil", "trefoil")
    assert code == 0
    assert "Q = 48" in out and "J = 12" in out and "C = 108" in out
    code, out, _ = run_cli(capsys, "cocycle", "figure-eight", "figure-eight")
    assert code == 0
    assert "Q = 80" in out and "J = 12" in out and "C = 132" in out


def test_cocycle_of_disjoint_twists(capsys):
    code, out, _ = run_cli(capsys, "cocycle",
                           "twist(a1; b1)", "twist(a3; b3)",
                           "--lambda-x", "2", "--lambda-y", "-5")
    assert code == 0
    assert "Q = 0" in out and "J = 0" in out
    assert "C = -360" in out  # only the 36*lambda*lambda part survives


def test_cocycle_rejects_indices_beyond_genus(capsys):
    code, _, err = run_cli(capsys, "cocycle",
                           "twist(a6; b6)", "twist(a1; b1)", "--genus", "5")
    assert code == 2
    assert "genus" in err
    # Built-in knots and twist specs fail the same check, at the twist.
    for argv, top, genus in (
            (("trefoil", "trefoil", "--genus", "1"), 2, 1),
            (("twist(a1; b1)", "twist(a7; b7)"), 7, 5)):
        code, out, err = run_cli(capsys, "cocycle", *argv)
        assert (code, out) == (2, "")
        assert err == "error: twist uses index %d beyond genus %d\n" % (
            top, genus)


def test_cocycle_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "cocycle", "twist(a1 $; b1)", "twist(a1; b1)")
    assert code == 2
    assert "offset" in err
    code, out, err = run_cli(capsys, "cocycle", "twist(a 1; b1)", "trefoil")
    assert code == 2 and out == ""
    assert "(at offset 7)" in err


def test_surgery_builtin_values(capsys):
    code, out, _ = run_cli(capsys, "surgery", "trefoil", "1")
    assert code == 0
    assert "lambda = 1" in out
    assert "lambda2 = 39" in out
    assert "d2 = 21" in out
    assert "vanishing_combo = 24" in out

    code, out, _ = run_cli(capsys, "surgery", "figure-eight", "1")
    assert code == 0
    assert "lambda = -1" in out
    assert "lambda2 = 69" in out
    assert "d2 = 51" in out
    assert "vanishing_combo = 48" in out

    code, out, _ = run_cli(capsys, "surgery", "trefoil", "0")
    assert code == 0
    assert out.count("= 0") == 4


def test_surgery_from_knot_document(tmp_path, capsys):
    doc = {
        "name": "trefoil-copy",
        "conway": [[2, 1], [0, 1]],
        "jones": [[1, 1], [3, 1], [4, -1]],
        "bscc_basis": ["a1 + b1", "a2 - b1 + b2"],
    }
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(doc))
    knot = load_knot_document(str(path))
    assert knot.name == "trefoil-copy"
    code, out, _ = run_cli(capsys, "surgery", str(path), "2")
    assert code == 0
    assert "lambda = 2" in out
    assert "lambda2 = 186" in out


def run_python(*args, **env):
    """Run a fresh interpreter with ``treetrace`` importable from this
    checkout's sources and ``env`` added to the environment."""
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    env.pop("PYTHONUTF8", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, encoding="utf-8")


def test_knot_document_is_read_as_utf8_under_any_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259), whatever the locale's encoding says.
    path = tmp_path / "knot.json"
    path.write_bytes(json.dumps(dict(TREFOIL_DOC, name="tr\u00e9foil"),
                                ensure_ascii=False).encode("utf-8"))
    command = ("-m", "treetrace.cli", "surgery", str(path), "1")
    for proc in (run_python("-X", "utf8=0", *command, LC_ALL="C"),
                 run_python("-X", "warn_default_encoding",
                            "-W", "error::EncodingWarning", *command)):
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("lambda = 1\nlambda2 = 39\nd2 = 21\n"
                               "vanishing_combo = 24\n")


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # Compared with the modules loaded before the import, so that what
    # site loads at start-up does not count.
    proc = run_python("-c", "import sys; before = set(sys.modules); "
                            "import treetrace.cli; "
                            "print(sorted(set(sys.modules) - before))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.replace("'", '"')))
    assert "treetrace.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_running_a_report_loads_no_argparse_gettext_or_locale():
    # -X importtime lists every module the process imports, site included.
    proc = run_python("-X", "importtime", "-m", "treetrace", "report")
    assert proc.returncode == 0
    assert proc.stdout.endswith("overall: PASS\n")
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"treetrace.cli", "json", "fractions"} <= imported
    assert not imported & {"argparse", "gettext", "locale"}


def test_reused_parser_keeps_no_state_between_calls(capsys):
    x, y = "twist(a1; b1)", "twist(a3; b3)"
    code, out, _ = run_cli(capsys, "cocycle", x, y, "--lambda-x", "2",
                           "--lambda-y", "-5", "--format", "json")
    assert code == 0 and json.loads(out)["C"] == "-360"
    with pytest.raises(SystemExit) as exit_info:
        main(["cocycle", x, "--genus", "x"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(capsys, "cocycle", x, y)
    fresh = run_python("-m", "treetrace.cli", "cocycle", x, y)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert out == "Q = 0\nJ = 0\nC = 0\n"


def test_surgery_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "surgery", str(path), "1")
    assert code == 2
    assert err


def test_coinvariants_chord_fixed_point(capsys):
    code, out, _ = run_cli(capsys, "coinvariants", "a1*b1*a2*b2")
    assert code == 0
    assert out.strip() == "a1*b1*a2*b2"


def test_coinvariants_unbalanced_to_zero(capsys):
    code, out, _ = run_cli(capsys, "coinvariants", "a1*a1*b2*b2")
    assert code == 0
    assert out.strip() == "0"


def test_coinvariants_case_four_split(capsys):
    code, out, _ = run_cli(capsys, "coinvariants", "a1*a1*b1*b1")
    assert code == 0
    assert out.strip() == "a1*a2*b1*b2 + a1*a2*b2*b1"


def test_coinvariants_precondition_errors(capsys):
    code, _, err = run_cli(capsys, "coinvariants", "a1*b1", "--genus", "1")
    assert code == 2
    assert err


@pytest.mark.parametrize("tensor, genus", [("0", "-3"),
                                           ("a1*b1 - a1*b1", "1")])
def test_coinvariants_refuse_small_genus_for_the_zero_vector(
        capsys, tensor, genus):
    code, out, err = run_cli(capsys, "coinvariants", tensor, "--genus", genus)
    assert (code, out) == (2, "")
    assert err == "error: coinvariants need genus >= 2, got genus %s\n" % genus


def chord_of_pairs(n):
    """The chord a1*b1*...*an*bn: one matching, so it reduces to itself."""
    return "*".join("a%d*b%d" % (i, i) for i in range(1, n + 1))


def test_coinvariants_of_a_long_chord_print_it(capsys):
    code, out, err = run_cli(capsys, "coinvariants", chord_of_pairs(500),
                             "--genus", "501")
    assert (code, out, err) == (0, chord_of_pairs(500) + "\n", "")


def test_coinvariants_too_deep_to_reduce_is_a_usage_error(capsys):
    # Pairing the slots recurses once per pair; past Python's recursion
    # limit that is a one-line error, not a traceback.
    code, out, err = run_cli(capsys, "coinvariants", chord_of_pairs(1100),
                             "--genus", "1101")
    assert out == ""
    assert_one_line_usage_error(code, err)
    assert err == ("error: tensor of degree 2200 has too many slot pairs "
                   "to reduce\n")


def test_coinvariants_of_more_than_nine_factorial_chords_is_a_usage_error(
        capsys):
    for p, genus in ((10, "11"), (12, "13")):
        tensor = "*".join(["a1"] * p + ["b1"] * p)
        code, out, err = run_cli(capsys, "coinvariants", tensor,
                                 "--genus", genus)
        assert out == ""
        assert_one_line_usage_error(code, err)
        assert err == ("error: tensor of degree %d has more than 9! = 362880 "
                       "chords to enumerate\n" % (2 * p))


def test_coinvariants_of_a_label_beyond_a_and_b_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "coinvariants", "a1*c1", "--genus", "3")
    assert out == ""
    assert_one_line_usage_error(code, err)
    assert err.startswith("parse error: expected a basis label")


def test_python_dash_m_treetrace_runs_the_cli():
    proc = run_python("-m", "treetrace", "coinvariants", "a1*a1*b1*b1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "a1*a2*b1*b2 + a1*a2*b2*b1\n"
    proc = run_python("-m", "treetrace", "coinvariants", "a1*")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("parse error: ")


def test_trace_subcommand(capsys):
    code, out, _ = run_cli(capsys, "trace", "T(b2, b3; b4, a2)", "--side", "A")
    assert code == 0
    assert out.strip() == "b3*b4"
    code, out, _ = run_cli(capsys, "trace", "T(a1, a3; a4, b1)", "--side", "B")
    assert code == 0
    assert out.strip() == "-a3*a4"
    code, out, _ = run_cli(capsys, "trace", "T(a2, b2; b3, b4)", "--side", "A")
    assert code == 0
    assert out.strip() == "0"


def test_trace_rejects_deep_indices(capsys):
    code, _, err = run_cli(capsys, "trace", "T(a9, b9; b1, b2)", "--genus", "5")
    assert code == 2
    assert "genus" in err


@pytest.mark.parametrize("genus", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("trace", "T(0, 0; 0, 0)"), ("trace", "T(a1, b1; a1, b1)"),
    ("cocycle", "trefoil", "trefoil"),
    ("cocycle", "twist(a1; b1)", "twist(0; 0)")])
def test_trace_and_cocycle_refuse_a_genus_below_one(capsys, argv, genus):
    code, out, err = run_cli(capsys, *argv, "--genus", genus)
    assert (code, out) == (2, "")
    assert err == "error: %s needs genus >= 1, got genus %s\n" % (
        argv[0], genus)


def test_unknown_knot_name(capsys):
    # A misspelt knot is named with the built-in knots, for both commands.
    message = ("error: unknown knot 'granny': neither a built-in knot "
               "(trefoil, figure-eight) nor %s\n")
    for argv, other in (
            (("surgery", "granny", "1"), "an existing knot document"),
            (("cocycle", "granny", "trefoil"), "a twist(x; y) spec"),
            (("cocycle", "trefoil", "granny"), "a twist(x; y) spec")):
        assert run_cli(capsys, *argv) == (2, "", message % other), argv


def test_twist_basis_index_zero_is_a_parse_error(capsys):
    assert run_cli(capsys, "cocycle", "twist(a0; b1)", "trefoil") == (
        2, "", "parse error: basis index must be at least 1 (at offset 8)\n")


def test_genus_too_long_for_int_is_a_usage_error(capsys):
    # int() refuses more than 4 300 digits (sys.get_int_max_str_digits).
    digits = "7" * 5000
    with pytest.raises(SystemExit) as stop:
        main(["report", "--genus", digits])
    assert stop.value.code == 2
    assert capsys.readouterr() == (
        "", "error: argument --genus: invalid int value: %r\n" % digits)


def test_cocycle_json_output(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "trefoil", "trefoil",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"Q": "48", "J": "12", "C": "108"}


def test_surgery_json_output(capsys):
    code, out, _ = run_cli(capsys, "surgery", "trefoil", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"lambda": "1", "lambda2": "39", "d2": "21",
                   "vanishing_combo": "24"}


def printed(writer, *args):
    """(return value, stdout text) of ``writer(*args)``."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = writer(*args)
    return code, buf.getvalue()


# Quotes, backslashes, line breaks, other control characters and non-ASCII
# text, all of which JSON strings escape.
AWKWARD = ('"', "\\", "\n", "\r\t", "\x00\x1f\x7f", "caf\u00e9",
           "\u03bb\u2082", "\U0001d54a", "\u2028")
awkward_text = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=8))


def report_of(genus, rows):
    report = ReplicationReport(genus)
    for name, expected, computed, passes in rows:
        report.add(name, expected, expected if passes else computed)
    return report


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.lists(st.tuples(
    awkward_text, awkward_text, awkward_text, st.booleans()), max_size=4))
@example(5, [])
@example(8, [("q_trefoil", "48", "47", False)])
@example(6, [('na"me\\', "\n\x01caf\u00e9", "\u03bb", False),
             ("ok", "1/2", "", True)])
def test_report_json_is_what_json_dumps_writes(genus, rows):
    report = report_of(genus, rows)
    assert printed(_emit_report, report, "json") == (
        0 if report.overall_pass else 1,
        json.dumps(report_dict(report), indent=2) + "\n")


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(awkward_text, st.one_of(
    st.integers(), st.integers(max_value=-1), st.fractions()), max_size=5))
@example({"Q": 48, "J": -12, "C": Fraction(-27, 4)})
@example({})
def test_value_json_is_what_json_dumps_writes(values):
    assert printed(_print_values, values, "json") == (
        0, json.dumps({k: str(v) for k, v in values.items()}, indent=2)
        + "\n")


def test_trace_without_required_label_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "trace", "T(b1, b2; b3, b4)", "--side", "A")
    assert code == 2
    assert err


def assert_one_line_usage_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_trace_error_names_the_term_in_label_notation(capsys):
    code, _, err = run_cli(capsys, "trace", "T(b2, b3; b4, b2)", "--side", "A")
    assert_one_line_usage_error(code, err)
    assert "(b2^b3)(b2^b4)" in err
    assert "BasisLabel" not in err


def test_bad_lambda_is_a_usage_error(capsys):
    # Fraction() reads '١/٢' (Arabic-Indic digits) as 1/2.
    for option, value in (("--lambda-x", "1/0"), ("--lambda-y", "three"),
                          ("--lambda-x", "١/٢"), ("--lambda-y", "1_0"),
                          ("--lambda-x", " 1")):
        code, _, err = run_cli(capsys, "cocycle", "twist(a1; b1)", "trefoil",
                               option, value)
        assert_one_line_usage_error(code, err)
        assert option in err


@pytest.mark.parametrize("argv", (
    ["cocycle", "--lambda-x=--", "--", "", ""],
    ["cocycle", "--format=--", "trefoil", "trefoil"],
    ["trace", "--genus=--", "T(b2, b3; b4, a2)"],
    ["trace", "--side=--", "T(b2, b3; b4, a2)"],
    ["report", "--genus=--"],
))
def test_option_given_a_bare_double_dash_is_a_usage_error(argv, capsys):
    # argparse read a lone "--" value as an empty list of values.
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_zero_denominator_in_tree_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, "trace", "T(1/0*a1, b1; a2, b2)")
    assert_one_line_usage_error(code, err)
    assert "denominator" in err and "offset 4" in err


def test_cocycle_rejects_degenerate_twists(capsys):
    for spec in ("twist(a1; a1)", "twist(a1; a2)"):
        code, _, err = run_cli(capsys, "cocycle", spec, "trefoil")
        assert_one_line_usage_error(code, err)
        assert "omega" in err


def test_builtin_knot_bases_pass_as_twist_specs(capsys):
    # omega(x, y) is -1 for the trefoil's basis and +1 for the figure-eight's.
    for spec, lam, c in (("twist(a1 + b1; a2 - b1 + b2)", "1", "C = 108"),
                         ("twist(a1 + b1; a2 + b1 - b2)", "-1", "C = 132")):
        code, out, _ = run_cli(capsys, "cocycle", spec, spec,
                               "--lambda-x", lam, "--lambda-y", lam)
        assert code == 0
        assert c in out
        # Without the options the Casson value is the basis's own c2.
        assert run_cli(capsys, "cocycle", spec, spec) == (0, out, "")


def test_knot_document_rejects_degenerate_basis(tmp_path, capsys):
    doc = {
        "name": "degenerate",
        "conway": [[2, 1], [0, 1]],
        "jones": [[1, 1], [3, 1], [4, -1]],
        "bscc_basis": ["a1 + b1", "a1 + b1"],
    }
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "surgery", str(path), "1")
    assert_one_line_usage_error(code, err)
    assert "omega" in err


def test_lambda_option_contradicting_a_builtin_knot_is_a_usage_error(capsys):
    for option, value in (("--lambda-x", "5"), ("--lambda-y", "0")):
        code, out, err = run_cli(capsys, "cocycle", "trefoil", "trefoil",
                                 option, value)
        assert_one_line_usage_error(code, err)
        assert option in err and "trefoil" in err
        assert out == ""
    # Repeating the knot's own Casson value changes nothing.
    code, out, _ = run_cli(capsys, "cocycle", "trefoil", "figure-eight",
                           "--lambda-x", "1", "--lambda-y=-2/2")
    assert code == 0
    assert out == run_cli(capsys, "cocycle", "trefoil", "figure-eight")[1]


TREFOIL_DOC = {
    "name": "trefoil-copy",
    "conway": [[2, 1], [0, 1]],
    "jones": [[1, 1], [3, 1], [4, -1]],
}


def write_document(tmp_path, doc):
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_knot_document_of_the_wrong_shape_is_a_usage_error(tmp_path, capsys):
    for doc in ([1, 2],
                dict(TREFOIL_DOC, conway=5),
                dict(TREFOIL_DOC, jones=[[1, 1], [3]]),
                dict(TREFOIL_DOC, jones=[[1, 1], [3, 1], [4, "-1"]]),
                dict(TREFOIL_DOC, name=None),
                dict(TREFOIL_DOC, bscc_basis="a1 + b1")):
        path = write_document(tmp_path, doc)
        with pytest.raises(ValueError):
            load_knot_document(path)
        code, out, err = run_cli(capsys, "surgery", path, "1")
        assert_one_line_usage_error(code, err)
        assert out == ""


def test_inconsistent_knot_document_is_rejected(tmp_path, capsys):
    for change, word in (({"conway": [[0, 1], [1, 1]]}, "Conway"),
                         ({"conway": [[0, 2], [2, 1]]}, "Conway"),
                         ({"jones": [[0, 2], [1, -1]]}, "V'(1)"),
                         ({"conway": [[0, 1], [2, -1]]}, "-6*c2"),
                         ({"bscc_basis": ["a1 + b1", "a2 + b1 - b2"]},
                          "c2 = -1"),
                         ({"conway": [[2, 1], [0, 1], [4, 1]],
                           "bscc_basis": ["a1 + b1", "a2 - b1 + b2"]},
                          "above z^2")):
        path = write_document(tmp_path, dict(TREFOIL_DOC, **change))
        code, out, err = run_cli(capsys, "surgery", path, "1")
        assert_one_line_usage_error(code, err)
        assert word in err
        assert out == ""


def test_non_integral_bounding_basis_is_a_usage_error(tmp_path, capsys):
    # omega = 1 in both: a 1/2 coefficient times a 2 in the other vector.
    code, out, err = run_cli(capsys, "cocycle",
                             "twist(a1 + 1/2*b1 + a2; b1 + a3 + b3)", "trefoil")
    assert_one_line_usage_error(code, err)
    assert "integer" in err and out == ""
    path = write_document(tmp_path, {"name": "half", "conway": [[0, 1]],
                                     "jones": [[0, 1]],
                                     "bscc_basis": ["1/2*a1", "2*b1"]})
    code, out, err = run_cli(capsys, "surgery", path, "1")
    assert_one_line_usage_error(code, err)
    assert "integer" in err and out == ""


def test_deeply_nested_knot_document_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 2000 + "]" * 2000)
    with pytest.raises(ValueError):
        load_knot_document(str(path))
    code, out, err = run_cli(capsys, "surgery", str(path), "1")
    assert_one_line_usage_error(code, err)
    assert out == ""


def test_knot_document_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    # The message names the document, without the OSError's "[Errno N]".
    with pytest.raises(ValueError):
        load_knot_document(str(tmp_path))
    assert run_cli(capsys, "surgery", str(tmp_path), "1") == (
        2, "", "error: cannot read knot document %r: Is a directory\n"
        % str(tmp_path))


def test_knot_document_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(dict(TREFOIL_DOC, name="tr\u00e9foil"),
                                ensure_ascii=False).encode("latin-1"))
    with pytest.raises(ValueError):
        load_knot_document(str(path))
    assert run_cli(capsys, "surgery", str(path), "1") == (
        2, "", "error: knot document %r is not UTF-8 text\n" % str(path))


def test_non_ascii_digit_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "coinvariants", "a²*b1")
    assert_one_line_usage_error(code, err)
    assert err.startswith("parse error") and "(at offset 1)" in err
    assert out == ""


def test_non_ascii_digit_in_an_integer_option_is_a_usage_error(capsys):
    # int() reads '١' and '٥' (Arabic-Indic one and five) as 1 and 5.
    for argv in (("surgery", "trefoil", "١"),
                 ("coinvariants", "a1*b1", "--genus", "٥"),
                 ("surgery", "trefoil", "1_0"),
                 ("coinvariants", "a1*b1", "--genus", "1_0"),
                 ("surgery", "trefoil", " 1")):
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        assert stop.value.code == 2
        assert capsys.readouterr().out == ""


def test_lambda_exponent_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "cocycle", "twist(a1; b1)", "trefoil",
                             "--lambda-x", "1e999999999")
    assert_one_line_usage_error(code, err)
    assert out == ""


@st.composite
def cli_argv(draw):
    """A coinvariants/trace/cocycle/surgery command line with random values.
    Options are passed as ``--name=value`` and positionals after ``--``, so
    no drawn value can be read as an option such as ``--help``."""
    def text(*samples):
        return st.one_of(st.text(alphabet="ab0123456789*/+-;,() Ttwis²١e."),
                         st.text(max_size=12), st.sampled_from(samples))

    genus = st.integers(0, 8).map(str)
    number = st.one_of(st.integers(-3, 3).map(str), text("1", "-2"))
    rational = st.one_of(st.fractions(max_denominator=9).map(str),
                         text("3/4"))
    twist = text("trefoil", "figure-eight", "twist(a1; b1)",
                 "twist(a1 + b1; a2 - b1 + b2)")
    command = draw(st.sampled_from(
        ("coinvariants", "trace", "cocycle", "surgery")))
    values = {
        "coinvariants": ({"genus": genus},
                         (text("a1*a1*b1*b1", "0",
                               "a1*b1*a2*b2 - 1/2*b1*a1*a1*b1"),)),
        "trace": ({"genus": genus, "side": st.sampled_from("AB")},
                  (text("T(b2, b3; b4, a2)", "T(a1 + b1, a2; b1, b2)"),)),
        "cocycle": ({"genus": genus, "lambda-x": rational,
                     "lambda-y": rational,
                     "format": st.sampled_from(("text", "json"))},
                    (twist, twist)),
        "surgery": ({"format": st.sampled_from(("text", "json"))},
                    (text("trefoil", "figure-eight"), number)),
    }
    options, positionals = values[command]
    argv = [command]
    for name, value in options.items():
        if draw(st.booleans()):
            argv.append("--%s=%s" % (name, draw(value)))
    return argv + ["--"] + [draw(value) for value in positionals]


@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_cli_exits_0_or_2_on_any_arguments(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # the parser rejected the command line
            assert_one_line_usage_error(stop.code, err.getvalue())
            return
    assert code in (0, 2), argv
    if code == 2:
        assert_one_line_usage_error(code, err.getvalue())


def test_lambda_option_is_an_int_when_integral():
    for text, integral in (("2", True), ("-4/2", True), ("2.0", True),
                           ("3/4", False), ("0.5", False)):
        got = _rational("--lambda-x", text)
        assert got == Fraction(text)
        assert (type(got) is int) == integral, text


@st.composite
def twist_specs(draw, genus=6):
    """A bounding basis (x, y) with int coefficients and its text.  The
    basis is (a_i, b_i) moved by transvections u -> u + omega(v, u) v,
    which keep omega(x, y) = 1; each coefficient is written as an integer,
    as k*c/k, or (for 1) not at all."""
    index = st.integers(1, genus)
    label = st.builds(BasisLabel, index, st.sampled_from("ab"))
    i = draw(index)
    x, y = FreeVec({BasisLabel(i, "a"): 1}), FreeVec({BasisLabel(i, "b"): 1})
    for _ in range(draw(st.integers(0, 3))):
        v = FreeVec(draw(st.dictionaries(label, st.sampled_from((1, -1)),
                                         min_size=1, max_size=2)))
        x, y = x + omega(v, x) * v, y + omega(v, y) * v

    def text(vec):
        parts = []
        for n, (lbl, c) in enumerate(vec.sorted_items()):
            k = draw(st.integers(0, 3))
            if k:
                coeff = "%d/%d*" % (abs(c) * k, k)
            elif abs(c) != 1 or draw(st.booleans()):
                coeff = "%d*" % abs(c)
            else:
                coeff = ""
            sign = ("-" if c < 0 else "") if n == 0 else (
                " - " if c < 0 else " + ")
            parts.append("%s%s%s" % (sign, coeff, lbl))
        return "".join(parts)

    return x, y, "twist(%s; %s)" % (text(x), text(y))


lambda_texts = st.one_of(
    st.none(),
    st.integers(-5, 5).map(str),
    st.fractions(min_value=-5, max_value=5, max_denominator=9).map(str),
    st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(
        lambda t: "%d/%d" % (t[0] * t[1], t[1])),
    st.tuples(st.integers(-20, 20), st.integers(0, 99)).map(
        lambda t: "%d.%02d" % t))


@settings(max_examples=60, deadline=None)
@given(twist_specs(), twist_specs(), lambda_texts, lambda_texts)
def test_cocycle_text_path_matches_fraction_vectors(first, second,
                                                    lam_x, lam_y):
    # The CLI's int text path against the same twists with Fraction
    # coefficients and Fraction Casson values, to the printed string.
    argv = ["cocycle", first[2], second[2], "--genus", "6", "--format", "json"]
    want = []
    for (x, y, _), lam, option in ((first, lam_x, "--lambda-x"),
                                   (second, lam_y, "--lambda-y")):
        xf, yf = (FreeVec({k: Fraction(c) for k, c in u.items()})
                  for u in (x, y))
        if lam is None:
            want.append(Fraction(bounding_casson(xf, yf)))
        else:
            argv.append("%s=%s" % (option, lam))
            want.append(Fraction(lam))
        want.append(tau2_bscc_twist(xf, yf, 6))
    q, j, _, c = cocycle_values(*want)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    assert json.loads(out.getvalue()) == {
        "Q": str(q), "J": str(j), "C": str(c)}, argv


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--"], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                "'report', 'cocycle', 'surgery', 'coinvariants', 'trace')"),
    (["surgery", "trefoil"], "the following arguments are required: n"),
    (["cocycle"], "the following arguments are required: x, y"),
    (["coinvariants", "a1*b1", "a2"], "unrecognized arguments: a2"),
    (["report", "--bogus", "--"], "unrecognized arguments: --bogus --"),
    (["report", "--x\ny"], "unrecognized arguments: --x y"),
    (["cocycle", "--lambda", "1", "trefoil", "trefoil"],
     "ambiguous option: --lambda could match --lambda-x, --lambda-y"),
    (["report", "--genus", "x"], "argument --genus: invalid int value: 'x'"),
    (["surgery", "trefoil", "1/2"], "argument n: invalid int value: '1/2'"),
    (["trace", "T(a1, b1; a2, b2)", "--side", "C"],
     "argument --side: invalid choice: 'C' (choose from 'A', 'B')"),
    (["report", "--format="], "argument --format: invalid choice: '' "
                              "(choose from 'text', 'json')"),
    (["report", "--genus", "--"], "argument --genus: expected one argument"),
    (["cocycle", "a", "--", "--"], "argument y: expected one argument"),
    (["cocycle", "a", "b", "--lambda-x", "-1/2"],
     "argument --lambda-x: expected one argument"),
    (["report", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
])
def test_command_line_errors_are_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_help_names_every_command_and_option(capsys):
    commands = argparse_commands(argparse_parser())
    for flag in ("-h", "--help", "-hh", "--he"):
        with pytest.raises(SystemExit) as stop:
            main([flag])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: treetrace") and all(
            name in out for name in commands)
        for name, parser in commands.items():
            with pytest.raises(SystemExit) as stop:
                main([name, flag])
            assert stop.value.code == 0
            out, err = capsys.readouterr()
            assert out.startswith("usage: treetrace %s" % name) and err == ""
            for action in parser._actions:
                names = action.option_strings or [action.dest]
                assert all(word in out for word in names), (name, names)


# Each command's options, with values it accepts, and its positional count.
COMMAND_LINES = {
    "report": ({"--genus": ("5", "8"), "--format": ("text", "json")}, 0),
    "cocycle": ({"--genus": ("6", "+2"), "--lambda-x": ("3/4", "-1"),
                 "--lambda-y": ("2", "-1 2"), "--format": ("json",)}, 2),
    "surgery": ({"--format": ("text", "json")}, 2),
    "coinvariants": ({"--genus": ("5", "-3")}, 1),
    "trace": ({"--side": ("A", "B"), "--genus": ("7",)}, 1),
}
ODD_TOKENS = ("-h", "-hh", "-hx", "--he", "--help=x", "--bogus", "--bog=1",
              "---", "-x", "-", "--", "-h=h", "-h=", "--gen 1", "--gen=1 2")


@st.composite
def command_lines(draw):
    """A command line of options (whole or a prefix, "--opt value" or
    "--opt=value", repeated, or missing their value), one positional more,
    fewer or as many as the command takes, values such as -1, -1/2 and
    "1 2", "--", and odd or unknown options, in any order."""
    value = st.one_of(
        st.sampled_from(("trefoil", "a1*b1", "1", "-1", "-1/2", "-.5", "-1.",
                         "1 2", "-1 2", "x", "--", "-", "", "-5 ", "--genus=3",
                         "١", "-١", "T(a1, b1; a2, b2)")),
        st.text("-=h 1ab", max_size=4))
    command = draw(st.sampled_from((*COMMAND_LINES,) * 4 + ("bogus",)))
    options, positionals = COMMAND_LINES.get(command, ({"--genus": ()}, 0))
    count = draw(st.sampled_from((positionals,) * 3 + (
        positionals + 1, max(positionals - 1, 0))))
    def one_of(common, other):      # the common values seven times in eight
        return draw(st.sampled_from(common) if draw(st.integers(0, 7))
                    else other)

    units = [[one_of(("trefoil", "1", "-1", "T(a1, b1; a2, b2)", "--"),
                     value)] for _ in range(count)]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(sorted(options)))
        text = one_of(options[flag] + ("--",) if options[flag] else ("5",),
                      value)
        flag = flag[:draw(st.integers(3, len(flag)))]
        units.append(draw(st.sampled_from((
            [flag, text], ["%s=%s" % (flag, text)], [flag]))))
    for token, odds in (("--", 3), (ODD_TOKENS, 7)):
        if not draw(st.integers(0, odds)):
            units.append([token if token == "--" else draw(
                st.sampled_from(token))])
    argv = [command] + [token for unit in draw(st.permutations(units))
                        for token in unit]
    if not draw(st.integers(0, 19)):
        argv[0] = draw(st.sampled_from(ODD_TOKENS))
    elif not draw(st.integers(0, 19)):
        argv.insert(0, draw(st.sampled_from(ODD_TOKENS)))
    return argv


COCYCLE_DEFAULTS = dict(command="cocycle", genus=5, lambda_x=None,
                        lambda_y=None, format="text")
USAGE = "argument command: invalid choice: %r (choose from 'report', " \
    "'cocycle', 'surgery', 'coinvariants', 'trace')"


# Python 3.11's argparse on "--", "-h=..." and tokens that look like
# options, written out so that they hold on every Python.
ARGPARSE_311_CASES = [
    (["report", "--genus=--"], (2, "argument --genus: expected one argument")),
    (["report", "--genus=--", "--gen=6"],
     ("ok", dict(command="report", genus=6, format="text"))),
    (["cocycle", "--", "--", "--"], (2, "argument y: expected one argument")),
    (["cocycle", "--", "--", "a"],
     ("ok", dict(COCYCLE_DEFAULTS, x="--", y="a"))),
    (["cocycle", "a", "--", "b", "--"], (2, "unrecognized arguments: --")),
    (["surgery", "trefoil", "-1 2"],
     (2, "argument n: invalid int value: '-1 2'")),
    (["surgery", "-1", "-.5", "--format", "json"],
     (2, "argument n: invalid int value: '-.5'")),
    (["--gen=1 2", "report"], (2, USAGE % "--gen=1 2")),
    (["--bogus", "--"], (2, "the following arguments are required: command")),
    (["--", "report"], (2, USAGE % "--")),
    (["report", "-h="],
     (2, "argument -h/--help: ignored explicit argument ''")),
    (["report", "-h=h"], ("help",)),
    (["-hh", "bogus"], ("help",)),
]


@pytest.mark.parametrize("argv, outcome", ARGPARSE_311_CASES)
def test_parser_keeps_argparse_311_rules(argv, outcome):
    assert parsed_outcome(argv) == outcome


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the parser follows Python 3.11's argparse; later releases "
           "changed how they read '--' and single-dash options")
@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_parser_agrees_with_argparse(argv):
    assert parse_outcome(_parse_args, argv) == parse_outcome(
        argparse_parse, argv), argv


def other_pythons() -> list:
    """Every CPython >= 3.10 but this one that starts: python3.1N on PATH
    and pyenv's 3.1x versions, each once, by its own sys.executable."""
    here = os.path.realpath(sys.executable)
    found = {}
    on_path = [shutil.which("python3.%d" % minor) for minor in range(10, 20)]
    pyenv = glob.glob(os.path.expanduser("~/.pyenv/versions/3.1*/bin/python"))
    for exe in filter(None, on_path + pyenv):
        try:
            probe = subprocess.run(
                [exe, "-c", "import platform, sys; print(sys.version_info "
                 ">= (3, 10) and platform.python_implementation() == "
                 "'CPython', sys.executable)"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = probe.stdout.split(" ", 1)
        if probe.returncode == 0 and words[0] == "True":
            real = os.path.realpath(words[1].strip())
            if real != here:
                found.setdefault(real, exe)
    return sorted(found.values())


def test_other_pythons_print_what_this_one_prints():
    # pyproject.toml allows Python >= 3.10: the report, and the parser on
    # the argparse 3.11 cases above, must not change with the interpreter.
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 starts here")
    cases = json.dumps([argv for argv, _ in ARGPARSE_311_CASES])
    script = str(Path(__file__).with_name("cli_outcomes.py"))
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")

    def outputs(exe):
        return [(proc.returncode, proc.stdout, proc.stderr) for proc in (
            subprocess.run([exe, *args], input=stdin, env=env, timeout=300,
                           capture_output=True, text=True, encoding="utf-8")
            for args, stdin in (
                (("-m", "treetrace", "report", "--genus", "8", "--format",
                  "json"), None), ((script,), cases)))]

    want = outputs(sys.executable)
    assert want[0][0] == 0 and json.loads(want[0][1])["overall_pass"]
    assert want[1][0] == 0 and json.loads(want[1][1]) == json.loads(
        json.dumps([outcome for _, outcome in ARGPARSE_311_CASES]))
    for exe in pythons:
        assert outputs(exe) == want, exe


def refuse_tree_images(monkeypatch):
    def refuse(*args):
        raise AssertionError("cocycle built a tree image")
    monkeypatch.setattr(treetrace.cli, "tau2_bscc_twist", refuse)
    monkeypatch.setattr(treetrace.trees, "tau2_square", refuse)


def test_cocycle_builds_no_tree_image(capsys, monkeypatch):
    cases = [("trefoil", "trefoil", None, None),
             ("trefoil", "figure-eight", "1", None),
             ("figure-eight", "twist(a1 + 2*b3; b1 - a2)", None, "3/4"),
             ("twist(a1; b1)", "twist(a3; b3)", "2", "-5"),
             ("twist(a1 + b1; a2 - b1 + b2)", "twist(b2 + a1 - 2*b3; a2 + b3)",
              "0.5", None)]
    want = []
    for case in cases:
        values = []
        for text, lam in zip(case[:2], case[2:]):
            knot = BUILTIN_KNOTS.get(text)
            basis = knot.bscc_basis if knot else parse_twist(text)
            values.append(bounding_casson(*basis) if lam is None
                          else Fraction(lam))
            values.append(tau2_bscc_twist(*basis, 5))
        want.append(cocycle_values(*values))
    refuse_tree_images(monkeypatch)
    for (x, y, lam_x, lam_y), (q, j, _, c) in zip(cases, want):
        argv = ["cocycle", x, y]
        for option, lam in (("--lambda-x", lam_x), ("--lambda-y", lam_y)):
            if lam is not None:
                argv += [option, lam]
        assert run_cli(capsys, *argv) == (
            0, "Q = %s\nJ = %s\nC = %s\n" % (q, j, c), ""), argv


def test_cocycle_of_dense_twists_at_genus_300(capsys, monkeypatch):
    # Every a_i and b_i coefficient in +-1, +-2, but b_1 of the second
    # vector, which is set so that omega(x, y) = 1; the tree images would
    # hold about 10^10 terms.
    genus, rng = 300, random.Random(300)
    bases = []
    for _ in range(2):
        x, y = ({BasisLabel(i, f): rng.choice((-2, -1, 1, 2))
                 for i in range(1, genus + 1) for f in "ab"}
                for _ in range(2))
        x[BasisLabel(1, "a")] = 1
        x, y = FreeVec(x), FreeVec(y)
        y += (1 - omega(x, y)) * FreeVec.single(BasisLabel(1, "b"))
        bases.append((x, y))
    refuse_tree_images(monkeypatch)
    code, out, err = run_cli(
        capsys, "cocycle", *("twist(%s; %s)" % tuple(map(format_hvec, basis))
                             for basis in bases),
        "--genus", str(genus), "--format", "json")
    assert (code, err) == (0, "")
    q, j = seifert_q_j(*bases)
    lam_x, lam_y = (bounding_casson(*basis) for basis in bases)
    c = 36 * lam_x * lam_y + 3 * j + Fraction(3, 4) * q
    assert q and j
    assert json.loads(out) == {"Q": str(q), "J": str(j), "C": str(c)}


@pytest.mark.parametrize("argv, message", [
    (["twist(a1; b1)", "twist(a7; b7)"],
     "twist uses index 7 beyond genus 5"),
    (["trefoil", "trefoil", "--genus", "1"],
     "twist uses index 2 beyond genus 1"),
    (["twist(a9; b9)", "twist(a1; a2)"], "twist uses index 9 beyond genus 5"),
    (["twist(a1; a2)", "twist(a9; b9)"],
     "bounding-curve basis needs omega(x, y) = 1 or -1, got 0"),
    (["twist(a1; a2)", "trefoil", "--lambda-y", "three"],
     "bounding-curve basis needs omega(x, y) = 1 or -1, got 0"),
    (["trefoil", "twist(2*a1; b1)"],
     "bounding-curve basis needs omega(x, y) = 1 or -1, got 2"),
    (["twist(a1 + 1/2*b1 + a2; b1 + a3 + b3)", "trefoil"],
     "bounding-curve basis needs integer coefficients"),
    (["trefoil", "twist(a1 + 1/2*b1 + a2; b1 + a3 + b3)", "--genus", "2"],
     "bounding-curve basis needs integer coefficients"),
    (["trefoil", "trefoil", "--lambda-x", "5"],
     "--lambda-x 5 contradicts the Casson value 1 of the built-in knot "
     "'trefoil'"),
    (["trefoil", "figure-eight", "--lambda-y=0.5"],
     "--lambda-y 1/2 contradicts the Casson value -1 of the built-in knot "
     "'figure-eight'"),
    (["figure-eight", "twist(a6; b6)", "--lambda-x", "3"],
     "--lambda-x 3 contradicts the Casson value -1 of the built-in knot "
     "'figure-eight'"),
])
def test_cocycle_refusals_keep_their_messages(capsys, argv, message):
    # The first refusal wins: the first argument's checks run before any
    # check of the second, in the order option value, basis, Casson value,
    # genus.
    assert run_cli(capsys, "cocycle", *argv) == (2, "", "error: %s\n"
                                                 % message)


# One argument with two faults shows the first of _twist_basis's checks:
# the lambda option, the knot name, the parse, the basis, a built-in
# knot's Casson value, the genus.
LAMBDA_REFUSAL = "--lambda-x expects an exact rational like 3/4, got 'x'"


@pytest.mark.parametrize("argv, message", [
    (["granny", "trefoil", "--lambda-x", "x"], "error: " + LAMBDA_REFUSAL),
    (["twist(a1; b 1)", "trefoil", "--lambda-x", "x"],
     "error: " + LAMBDA_REFUSAL),
    (["twist(a1; a2)", "trefoil", "--lambda-x", "x"],
     "error: " + LAMBDA_REFUSAL),
    (["trefoil", "trefoil", "--lambda-x", "x", "--genus", "1"],
     "error: " + LAMBDA_REFUSAL),
    (["twist(a1; b 1)", "granny"],
     "parse error: expected an integer (at offset 11)"),
    (["twist(a9; 1/2*b9)", "trefoil"],
     "error: bounding-curve basis needs integer coefficients"),
    (["twist(a9; a8)", "trefoil"],
     "error: bounding-curve basis needs omega(x, y) = 1 or -1, got 0"),
    (["trefoil", "trefoil", "--lambda-x", "5", "--genus", "1"],
     "error: --lambda-x 5 contradicts the Casson value 1 of the built-in "
     "knot 'trefoil'"),
])
def test_cocycle_checks_each_argument_in_order(capsys, argv, message):
    assert run_cli(capsys, "cocycle", *argv) == (2, "", message + "\n")


@pytest.mark.parametrize("x, y", [
    ("twist(a1 + b1; a2 - b1 + b2)", "twist(b2 + a1 - 2*b3; a2 + b3)"),
    ("trefoil", "twist(a1; b1)"),
    ("trefoil", "figure-eight"),
])
def test_cocycle_reads_twelve_seifert_values(capsys, monkeypatch, x, y):
    # 4 for each basis's Seifert matrix, read and checked once, and 4 for
    # N = [L(q_k, p_i)]: the 12 of the surgery module's closed form.
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return seifert_form(u, v)

    monkeypatch.setattr(treetrace.surgery, "seifert_form", counted)
    assert run_cli(capsys, "cocycle", x, y, "--lambda-x", "1")[0] == 0
    assert len(calls) == 12
