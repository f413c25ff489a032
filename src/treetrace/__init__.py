"""Exact symplectic tree-algebra calculator.

Public surface: exact free vectors over the rationals (``exact``), the
symplectic module with the GL generators' action on tensor powers and the
closed-form coinvariant reduction (``symplectic``), H-trees and the tree
space with its closed-form Lambda^4 normal form (``trees``), bidegree
projections, traces and bilinear forms (``forms``), knot polynomials and
surgery formulas (``surgery``), the text grammar (``grammar``), and the
command line (``cli``).
"""

from types import ModuleType as _ModuleType

from .exact import FreeVec
from .symplectic import (
    BasisLabel,
    DEFAULT_GENUS,
    Elementary,
    SignFlip,
    Transposition,
    a,
    b,
    basis_labels,
    coinvariant_reduce,
    gl_generator_action,
    hvec,
    omega,
)
from .trees import (
    HTree,
    a2_normalize,
    lambda4_embed,
    tau2_bscc_twist,
    tau2_square,
    tree,
    tree_expand,
)
from .forms import (
    cocycle,
    cocycle_values,
    contract_cs,
    eta_s,
    j_form,
    nabla,
    project_bidegree,
    q_form,
    trace_a,
    trace_b,
    w0_member,
)
from .surgery import (
    BUILTIN_KNOTS,
    FIGURE_EIGHT,
    KnotRecord,
    LaurentPoly,
    POINCARE,
    SphereInvariants,
    TREFOIL,
    casson_surgery,
    connected_sum,
    d2_value,
    jones_h_derivative,
    lambda2_surgery,
    reverse_orientation,
    solve_alpha_r,
    vanishing_combo,
)
from .grammar import (
    ParseError,
    format_hvec,
    format_tensor,
    parse_hvec,
    parse_tensor,
    parse_tree,
    parse_twist,
)

# Every public name imported above; the submodules are not among them.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
