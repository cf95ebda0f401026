"""Tamari lattice intervals and the cellular diagonal of the associahedron.

Exact, fully deterministic toolkit: binary/Schröder tree combinatorics
(trees), exhaustive interval engines for the Tamari and m-Tamari lattices
(lattice, paths), diagonal face counts and decompositions (diagonal),
closed-form counting formulas (formulas), the exact polynomial kernel
(polys), and truncated-series machinery for the functional equations the
counts satisfy, checked against frozen equation data (series, equations).
The command-line entry point lives in tamari.cli.
"""

from .diagonal import (
    DiagonalFace,
    EdgeClassification,
    classify_edges,
    decomposition_report,
    diagonal_faces,
    diagonal_fvector,
    internal_fvector,
    is_internal_face,
)
from .formulas import (
    a_formula,
    b_formula,
    catalan,
    fuss_catalan,
    interval_count_formula,
    m_tamari_intervals_formula,
    new_interval_formula,
    synchronized_formula,
)
from .lattice import (
    BudgetExceeded,
    StatTable,
    all_trees,
    interval_count,
    interval_histogram,
    intervals,
)
from .paths import (
    dyck_to_tree,
    m_tamari_elements,
    m_tamari_intervals,
    tree_to_dyck,
)
from .polys import ZPolynomial
from .series import TruncatedSeries, newton_solve, quartic_equation
from .trees import (
    asc,
    canopy,
    des,
    ell,
    parse_tree,
    serialize,
    tamari_leq,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DiagonalFace",
    "EdgeClassification",
    "StatTable",
    "TruncatedSeries",
    "ZPolynomial",
    "__version__",
    "a_formula",
    "all_trees",
    "asc",
    "b_formula",
    "canopy",
    "catalan",
    "classify_edges",
    "decomposition_report",
    "des",
    "diagonal_faces",
    "diagonal_fvector",
    "dyck_to_tree",
    "ell",
    "fuss_catalan",
    "interval_count",
    "interval_count_formula",
    "interval_histogram",
    "intervals",
    "internal_fvector",
    "is_internal_face",
    "m_tamari_elements",
    "m_tamari_intervals",
    "m_tamari_intervals_formula",
    "new_interval_formula",
    "newton_solve",
    "parse_tree",
    "quartic_equation",
    "serialize",
    "synchronized_formula",
    "tamari_leq",
    "tree_to_dyck",
]
