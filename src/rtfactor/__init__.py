"""rtfactor: exact quantum link invariants and their perturbative shadows.

The package computes framed link invariants from ribbon representation data,
cross-checks them against an independent skein-relation oracle, expands them
into power series, and compares the series coefficients with Lie-theoretic
weight systems, Chevalley-Eilenberg cohomology and Clifford algebra
calculations on the other side of the correspondence.

The most commonly combined names are re-exported here; each submodule keeps
its full surface (diagram catalogs, graph weights, curve integrals, the
acceptance suite in ``rtfactor.acceptance``, and the command-line front end
in ``rtfactor.cli``).  Only ``rtfactor.confint`` imports numpy, so importing
the package does not.
"""

from .ring import (
    HSeries,
    LaurentPoly,
    Rational,
    format_hseries,
    format_laurent,
    laurent_to_hseries,
    parse_hseries,
    parse_laurent,
    series_exp,
    series_inverse,
    series_log,
)
from .lie import LieAlgebra, Representation, builtin, killing_form
from .diagram import CATALOG, LinkSpec, resolve_link
from .kauffman import jones_polynomial, kauffman_bracket
from .quantum_group import quantum_dimension, sln_fundamental_ribbon
from .rt import (
    compare_with_bracket,
    framed_invariant,
    hbar_expand_invariant,
    jones_from_quantum,
    normalized_invariant,
    writhe_corrected_invariant,
)

__all__ = [
    "CATALOG",
    "HSeries",
    "LaurentPoly",
    "LieAlgebra",
    "LinkSpec",
    "Rational",
    "Representation",
    "builtin",
    "compare_with_bracket",
    "format_hseries",
    "format_laurent",
    "framed_invariant",
    "hbar_expand_invariant",
    "jones_from_quantum",
    "jones_polynomial",
    "kauffman_bracket",
    "killing_form",
    "laurent_to_hseries",
    "normalized_invariant",
    "parse_hseries",
    "parse_laurent",
    "quantum_dimension",
    "resolve_link",
    "series_exp",
    "series_inverse",
    "series_log",
    "sln_fundamental_ribbon",
    "writhe_corrected_invariant",
]

__version__ = "0.1.0"
