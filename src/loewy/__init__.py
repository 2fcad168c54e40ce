"""Loewy structure of split local symmetric monomial algebras.

The algebra A[q, n, z] (equivalently A(q, n, e) with e = (q^n - 1)/z) has a
basis b_0..b_z in which b_k carries the base-q digit expansion of k*e; all
structural questions (products, Loewy layers, length, the upper bound
floor(n(q-1)/m) + 1 and its attainment) reduce to arithmetic modulo z.
"""

from .algebra import (
    Algebra,
    LoewyProfile,
    OrbitRow,
    Witness,
    concat_witness,
    same_table,
    shift_witness,
    transport_witness,
    verify_witness,
)
from .criteria import CriterionVerdict, evaluate_criteria, reduction_targets
from .database import (
    DbRecord,
    EquivKey,
    isomorphism_screen,
    scan_records,
    scan_to_file,
    stats,
    subgroup_representatives,
)
from .errors import CapacityError, DomainError
from .invariants import (
    FrobeniusMap,
    frobenius,
    frobenius_image_set,
    frobenius_kernel_dims,
    invariant_report,
    pair_count,
    socle_series,
)
from .mfunc import (
    LargeMCase,
    MResult,
    classify_large_m,
    m_bfs,
    m_closed_form,
    m_functional_equation,
    m_value,
    m_via_z,
    residue_witness,
    small_e_candidates,
)

__all__ = [
    "Algebra",
    "CapacityError",
    "CriterionVerdict",
    "DbRecord",
    "DomainError",
    "EquivKey",
    "FrobeniusMap",
    "LargeMCase",
    "LoewyProfile",
    "MResult",
    "OrbitRow",
    "Witness",
    "classify_large_m",
    "concat_witness",
    "evaluate_criteria",
    "frobenius",
    "frobenius_image_set",
    "frobenius_kernel_dims",
    "invariant_report",
    "isomorphism_screen",
    "m_bfs",
    "m_closed_form",
    "m_functional_equation",
    "m_value",
    "m_via_z",
    "pair_count",
    "reduction_targets",
    "residue_witness",
    "same_table",
    "scan_records",
    "scan_to_file",
    "shift_witness",
    "small_e_candidates",
    "socle_series",
    "stats",
    "subgroup_representatives",
    "transport_witness",
    "verify_witness",
]

__version__ = "0.1.0"
