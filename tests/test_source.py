"""Static checks on the package source, with the standard library only."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treetrace"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement of ``source`` that no other
    expression of it reads (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_guard_sees_an_unused_import():
    source = "from itertools import permutations, product\nproduct()\n"
    assert unused_imports(source) == [(1, "permutations")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def import_time_re_calls(source: str) -> list:
    """The lines of ``source`` where code that runs at import (a module-level
    statement, a class body, a default value or a decorator) calls a
    function of ``re``, such as ``re.compile``."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for part in (*node.decorator_list, node.args, node.returns):
                if part is not None:
                    visit(part)
            return
        if isinstance(node, ast.Lambda):
            return visit(node.args)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_guard_sees_a_regex_compiled_at_import():
    source = ("import re\n"
              "A = re.compile('a')\n"
              "class B:\n    C = re.compile('c')\n"
              "def d(e=re.compile('e')):\n    return re.compile('d')\n"
              "f = lambda: re.compile('f')\n")
    assert import_time_re_calls(source) == [2, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_regex_is_compiled_at_import(path):
    # A pattern is compiled where it is first used: a report compiles
    # none, and each compilation costs about 0.2 ms.
    assert import_time_re_calls(path.read_text(encoding="utf-8")) == []


# The modules whose public functions ``perfbench/bench_trace.py`` wraps, and
# the names each binds that do not start with an underscore.  The tracer
# makes every such function a traced span, so a per-term helper given a
# public name would swamp the trace; a change to these lists should be
# deliberate.
TRACED_NAMES = {
    "exact": ["Fraction", "FreeVec", "annotations", "canonical", "scalar"],
    "symplectic": [
        "BasisLabel", "DEFAULT_GENUS", "Elementary", "FAMILY_A", "FAMILY_B",
        "FreeVec", "GLGenerator", "NamedTuple", "SignFlip", "Transposition",
        "Union", "a", "annotations", "b", "basis_labels", "cache",
        "coinvariant_reduce", "gl_generator_action", "hvec", "label_omega",
        "omega", "product", "seifert_form"],
    "trees": [
        "DEFAULT_GENUS", "FreeVec",
        "HTree", "NamedTuple", "a2_normalize", "annotations", "hvec",
        "lambda4_embed", "sym_product", "tau2_bscc_twist", "tau2_square",
        "tree", "tree_expand", "wedge_expand"],
    "forms": [
        "FAMILY_A", "FAMILY_B", "Fraction", "FreeVec", "annotations",
        "cocycle", "cocycle_values", "contract_cs", "eta_s", "j_form",
        "nabla", "project_bidegree", "q_form", "scalar", "trace_a",
        "trace_b", "w0_member"],
    "surgery": [
        "BUILTIN_KNOTS", "FIGURE_EIGHT", "Fraction", "FreeVec", "KnotRecord",
        "LaurentPoly", "NamedTuple", "Optional", "POINCARE",
        "SphereInvariants", "TREFOIL", "a", "annotations", "b",
        "bounding_casson", "casson_surgery", "connected_sum", "d2_value",
        "index", "jones_h_derivative", "lambda2_surgery",
        "reverse_orientation", "seifert_form", "solve_alpha_r",
        "surgery_cocycle_value", "twist_forms", "vanishing_combo"],
    "grammar": [
        "BasisLabel", "Fraction", "FreeVec", "HTree", "ParseError",
        "annotations", "canonical", "format_hvec", "format_s2l2",
        "format_tensor", "format_tree", "parse_hvec", "parse_tensor",
        "parse_tree", "parse_twist", "re"],
    "cli": [
        "BUILTIN_KNOTS", "CheckResult", "DEFAULT_GENUS", "NamedTuple",
        "POINCARE", "ParseError", "ReplicationReport", "SimpleNamespace",
        "annotations", "build_report", "casson_surgery", "cocycle_values",
        "jones_h_derivative", "lambda2_surgery", "main", "solve_alpha_r",
        "surgery_cocycle_value", "sys", "tau2_bscc_twist",
        "vanishing_combo"],
}


@pytest.mark.parametrize("module", sorted(TRACED_NAMES))
def test_traced_modules_keep_their_public_names(module):
    names = vars(importlib.import_module("treetrace." + module))
    assert sorted(n for n in names if not n.startswith("_")) == \
        TRACED_NAMES[module]
