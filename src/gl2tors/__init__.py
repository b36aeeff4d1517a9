"""Subgroups of GL2(Z/nZ), their action on torsion points, j-map fiber
products, exact rational point searches, and a verification CLI."""

from .action import (ComplementWitness, OrbitRecord, index3_fixing_count,
                     index6_complement_search, minus_one_complements,
                     orbit_stabilizer)
from .catalog import (CatalogEntry, CatalogError, NAMED_GROUP_GENERATORS,
                      identify_candidates, is_admissible_torsion,
                      named_group, parse_catalog, serialize_catalog)
from .elliptic import (CM_J, CurveQ, FrobSignature, IdentifyResult,
                       count_points, curve_Et, curve_invariants,
                       frobenius_signature, identify_image, is_cm_j,
                       parse_curve, rational_3isogeny_kernel,
                       torsion_over_Q, two_torsion_image)
from .groups import (Applicability, GenGroup, SubgroupClass, closure,
                     contains_minus_identity, det_image, dickson_classify,
                     gl2_order, is_applicable, is_conjugate,
                     is_conjugate_subgroup, reduce_level, stable_lines,
                     standard_subgroup)
from .jmaps import (JMAP_LABELS, JMap, POLE, PlaneCurve, DescentHit,
                    FiberPoint, fiber_curve, fiber_points, jmap_eval,
                    named_jmap, search_hyperelliptic, search_plane,
                    zeta3_descent_search)
from .modmat import GMat, TorVec, least_nonresidue, vector_exact_order
from .polynomial import (BiPoly, UniPoly, farey_fractions, parse_bipoly,
                         parse_poly, poly_gcd, rational_roots, resultant)
from .verify import VerificationReport, run_all

__version__ = "0.1.0"

__all__ = [
    "Applicability", "BiPoly", "CM_J", "CatalogEntry", "CatalogError",
    "ComplementWitness", "CurveQ", "DescentHit", "FiberPoint",
    "FrobSignature", "GMat", "GenGroup", "IdentifyResult", "JMAP_LABELS",
    "JMap", "NAMED_GROUP_GENERATORS", "OrbitRecord", "POLE", "PlaneCurve",
    "SubgroupClass", "TorVec", "UniPoly", "VerificationReport", "closure",
    "contains_minus_identity", "count_points", "curve_Et", "curve_invariants",
    "det_image", "dickson_classify", "farey_fractions", "fiber_curve",
    "fiber_points", "frobenius_signature", "gl2_order", "identify_candidates",
    "identify_image", "index3_fixing_count", "index6_complement_search",
    "is_admissible_torsion", "is_applicable", "is_cm_j", "is_conjugate",
    "is_conjugate_subgroup", "jmap_eval", "least_nonresidue",
    "minus_one_complements", "named_group", "named_jmap", "orbit_stabilizer",
    "parse_bipoly", "parse_catalog", "parse_curve",
    "parse_poly", "poly_gcd", "rational_3isogeny_kernel", "rational_roots",
    "reduce_level", "resultant", "run_all", "search_hyperelliptic",
    "search_plane", "serialize_catalog", "stable_lines", "standard_subgroup",
    "torsion_over_Q", "two_torsion_image", "vector_exact_order",
    "zeta3_descent_search",
]
