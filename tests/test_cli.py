import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import treetrace.cli
from treetrace.cli import build_report, load_knot_document, main


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
    rebuilt = build_report(doc["genus"]).to_dict()
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


def test_unknown_knot_name(capsys):
    code, _, err = run_cli(capsys, "surgery", "granny", "1")
    assert code == 2
    assert err


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
        except SystemExit as stop:  # argparse rejected the command line
            assert stop.code == 2, argv
            return
    assert code in (0, 2), argv
    if code == 2:
        assert_one_line_usage_error(code, err.getvalue())
