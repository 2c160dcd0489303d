"""Caps (quad-free sets) in the binary affine geometry AG(n,2).

Points are bit vectors added by XOR; a quad is four distinct points
XORing to zero, and a cap is a quad-free set.  The package builds the
reference caps of dimension 7, decomposes caps over internal affine
bases, tests affine equivalence through canonical forms, and classifies
all caps of a given dimension by exhaustive, isomorph-free search.
"""

from .capset import Cap, extension_candidates, find_quad, is_cap, is_complete, quad_closure_1
from .classifier import (
    ClassEntry,
    ClassTable,
    VerificationReport,
    brute_force_class_counts,
    classify,
    max_cap_size,
    tait_won_bounds,
    verify_paper,
)
from .decomp import (
    BasisDecomposition,
    ExtendedType,
    decompose,
    exchange_basis,
    extended_type,
    type_census,
)
from .equivalence import CanonicalForm, are_equivalent, canonical_form, find_isomorphism, verify_map
from .errors import CapError
from .gf2 import (
    AffineMap,
    Point,
    PointSet,
    affine_dim,
    affine_span,
    apply_affine_map,
    extract_basis,
    random_invertible_affine,
)
from .templates import (
    LABELS,
    TEMPLATES,
    TemplateId,
    expected_extended_type,
    generating_basis,
    higherdim_pair,
    instantiate,
)

__version__ = "2.0.0"
