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
        "coinvariant_reduce", "generator_label_image", "gl_generator_action",
        "hvec", "label_omega", "max_index", "omega", "product",
        "seifert_form"],
    "trees": [
        "BasisLabel", "DEFAULT_GENUS", "FAMILY_A", "FAMILY_B", "FreeVec",
        "HTree", "NamedTuple", "a2_normalize", "annotations", "hvec",
        "key_labels", "lambda4_embed", "sym_product", "tau2_bscc_twist",
        "tau2_square", "tree", "tree_expand", "wedge_expand"],
    "forms": [
        "FAMILY_A", "FAMILY_B", "Fraction", "FreeVec", "annotations",
        "cocycle", "cocycle_values", "contract_cs", "eta_s", "j_form",
        "key_bidegree", "key_labels", "nabla", "project_bidegree", "q_form",
        "scalar", "trace_a", "trace_b", "w0_member"],
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
        "BUILTIN_KNOTS", "CheckResult", "DEFAULT_GENUS", "Fraction",
        "KnotRecord", "LaurentPoly", "NamedTuple", "POINCARE", "ParseError",
        "ReplicationReport", "SimpleNamespace", "SphereInvariants",
        "annotations", "build_report", "canonical",
        "casson_surgery", "cocycle_values", "coinvariant_reduce", "d2_value",
        "format_tensor", "jones_h_derivative", "json", "lambda2_surgery",
        "load_knot_document", "main", "max_index", "parse_hvec",
        "parse_tensor", "parse_tree", "parse_twist", "re", "solve_alpha_r",
        "surgery_cocycle_value", "sys", "tau2_bscc_twist", "trace_a",
        "trace_b", "tree_expand", "vanishing_combo"],
}


@pytest.mark.parametrize("module", sorted(TRACED_NAMES))
def test_traced_modules_keep_their_public_names(module):
    names = vars(importlib.import_module("treetrace." + module))
    assert sorted(n for n in names if not n.startswith("_")) == \
        TRACED_NAMES[module]
