"""Unitals, conics and Veronese geometry over small Galois fields."""

from .analysis import (
    AfklReport,
    DiffSetReport,
    PencilReport,
    PencilType,
    UnionCertificate,
    admissible_ks,
    canonical_case_pair,
    case_residual_formula,
    certify_union_of_conics,
    classify_pair,
    conics_contained,
    lemma1_search,
    lemma2_search,
    verify_afkl,
)
from .conic import Conic, PencilKind, canonical_pencil
from .geom import PointSet, projective_plane, projective_space
from .gf import GF, field
from .unital import UnitalReport, behs_unital, hermitian_unital, is_unital, tangent_structure
from .veronese import cone_residual_intersection, line_meets_veronese

__version__ = "0.1.0"
