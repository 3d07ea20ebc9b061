"""Exact approximate-degree certificates for symmetric properties of
functions between finite sets.

The pipeline: encode functions by Boolean indicators or by frequency
counts (`ypoly`, `sympoly`, both on the polynomial core `sparse`),
average between the two representations (`symmetrize`), move symmetric
approximations between range sizes (`rangexfer`), classify frequency
classes (`properties`), search for the minimum degree via exact rational
LPs (`degreelp`, `lp`), cross-check everything by explicit enumeration
(`oracle`), and relate two-level AND-OR trees to one-to-one testing
(`andor`).  `cli` exposes all of it as the `symdeg` command.
"""

from .andor import BoolAssignment, XPolynomial, andor_value, f_to_assignment, substitute
from .budget import BudgetExceededError, default_budget
from .degreelp import (
    DegreeCertificate,
    DegreeStep,
    LPInstance,
    approx_degree,
    build_lp,
    eps_min_indicator_basis,
    solve_lp,
    sweep,
)
from .oracle import (
    Report,
    Violation,
    enumerate_functions,
    verify_approximation,
)
from .polyio import (
    dump_polynomial,
    dumps_polynomial,
    load_polynomial,
    polynomial_from_dict,
    polynomial_to_dict,
)
from .properties import (
    ALWAYS_ONE,
    BUILTIN_PROPERTIES,
    COLLISION,
    ELEMENT_DISTINCTNESS,
    MODIFIED_ELEMENT_DISTINCTNESS,
    Label,
    PropertySpec,
    enumerate_classes,
    get_property,
    property_from_dict,
    property_from_file,
)
from .rangexfer import TransferResult, extend, restrict, transfer_approximation
from .symmetrize import (
    average_oracle,
    average_over_counts,
    desymmetrize,
    symmetrize,
    symmetrize_monomial,
)
from .sympoly import (
    FrequencyVector,
    SymPolynomial,
    ZPolynomial,
    eval_msym,
    partitions,
    symmetrize_variables,
)
from .ypoly import FunctionTable, YPolynomial, normalize_monomial

__version__ = "0.1.0"

__all__ = [
    "ALWAYS_ONE",
    "BUILTIN_PROPERTIES",
    "BoolAssignment",
    "BudgetExceededError",
    "COLLISION",
    "DegreeCertificate",
    "DegreeStep",
    "ELEMENT_DISTINCTNESS",
    "FrequencyVector",
    "FunctionTable",
    "Label",
    "LPInstance",
    "MODIFIED_ELEMENT_DISTINCTNESS",
    "PropertySpec",
    "Report",
    "SymPolynomial",
    "TransferResult",
    "Violation",
    "XPolynomial",
    "YPolynomial",
    "ZPolynomial",
    "andor_value",
    "approx_degree",
    "average_oracle",
    "average_over_counts",
    "build_lp",
    "default_budget",
    "desymmetrize",
    "dump_polynomial",
    "dumps_polynomial",
    "enumerate_classes",
    "enumerate_functions",
    "eps_min_indicator_basis",
    "eval_msym",
    "extend",
    "f_to_assignment",
    "get_property",
    "load_polynomial",
    "normalize_monomial",
    "partitions",
    "polynomial_from_dict",
    "polynomial_to_dict",
    "property_from_dict",
    "property_from_file",
    "restrict",
    "solve_lp",
    "substitute",
    "sweep",
    "symmetrize",
    "symmetrize_monomial",
    "symmetrize_variables",
    "transfer_approximation",
    "verify_approximation",
]
