"""Exact-arithmetic toolkit for inhomogeneous quadratic exchange algebras.

The package keeps one concern per module:

* :mod:`diffalg.presentation` — the text format and admissibility checks
* :mod:`diffalg.engine` — ordered rewriting, normal forms, confluence
* :mod:`diffalg.classify` — index-set decomposition and family patterns
* :mod:`diffalg.templates` — symbolic template rows and instantiation
* :mod:`diffalg.calculus` — twisting families, differentials, graded forms
* :mod:`diffalg.smoothness` — the three-valued verdict and its evidence
* :mod:`diffalg.exprs` — the polynomial grammar and canonical rendering
* :mod:`diffalg.records` — the immutable base of the result records
* :mod:`diffalg.cli` — the command-line entry point
"""

from .calculus import (
    AffineAutomorphismFamily, CalculusError, GradedForm, apply_automorphism,
    basis_form, build_automorphisms, check_connectedness, check_d_squared,
    check_integrating_form, differential, form_differential, left_multiply,
    leibniz_defects, no_go_residual, nu_omega, nu_omega_inverse,
    partial_derivative, pi_omega, right_multiply, scalar_form, shift_ansatz,
    verify_automorphisms, wedge,
)
from .classify import Decomposition, FamilyIdentification, decompose, identify_family
from .engine import (
    PBWReport, Poly, TripleCheck, diamond_check_triple, is_pbw, monomial_word,
    multiply, normal_form, power, word_exponents,
)
from .exprs import ExpressionError, format_poly, format_word, parse_poly
from .presentation import (
    AlgebraPresentation, PresentationError, load_presentation,
    parse_presentation, validate_presentation,
)
from .scalars import format_rational, parse_rational, rational
from .smoothness import (
    NotPbwError, Obstruction, SmoothnessError, SmoothnessVerdict,
    WitnessReport, decide_smoothness, gk_dimension, verify_witness,
)
from .templates import (
    TemplateError, TemplateSkeleton, generate_templates, instantiate_template,
    render_template,
)

__version__ = "0.1.0"

__all__ = [
    "AffineAutomorphismFamily", "CalculusError", "GradedForm",
    "apply_automorphism", "basis_form", "build_automorphisms",
    "check_connectedness", "check_d_squared", "check_integrating_form",
    "differential", "form_differential",
    "left_multiply", "leibniz_defects", "no_go_residual", "nu_omega",
    "nu_omega_inverse", "partial_derivative", "pi_omega", "right_multiply",
    "scalar_form", "shift_ansatz", "verify_automorphisms", "wedge",
    "Decomposition", "FamilyIdentification", "decompose", "identify_family",
    "PBWReport", "Poly", "TripleCheck", "diamond_check_triple", "is_pbw",
    "monomial_word", "multiply", "normal_form", "power", "word_exponents",
    "ExpressionError", "format_poly", "format_word", "parse_poly",
    "AlgebraPresentation", "PresentationError", "load_presentation",
    "parse_presentation", "validate_presentation", "format_rational",
    "parse_rational", "rational", "NotPbwError", "Obstruction",
    "SmoothnessError", "SmoothnessVerdict", "WitnessReport",
    "decide_smoothness", "gk_dimension", "verify_witness", "TemplateError",
    "TemplateSkeleton", "generate_templates", "instantiate_template",
    "render_template",
]
