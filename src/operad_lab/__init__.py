"""Exact simplicial calculus on connected multiplicative operads.

Three concrete operads (permutations, increasing integer sequences, and
endomorphism operads of finite-dimensional algebras) share one generic layer
of faces, degeneracies, boundary and coboundary operators, right braces,
m-products, and the prefix/suffix coproduct, plus an exact cohomology
calculator and a randomized identity verifier.
"""

from .scalars import RationalField, PrimeField, get_field, power_sign, ScalarError
from .elements import Element, OperadError
from .linalg import SparseMatrix, equal_up_to_global_sign
from .assoc import AssocOperad, standardize, compose_blocks, compose_formula, concat
from .shift import ShiftOperad, compose_shift, gamma_shift
from .endo import (
    EndoOperad,
    FinAlgebra,
    ground_field_algebra,
    dual_numbers,
    matrix2,
    classical_coboundary,
    cup_product,
)
from .core import (
    compose,
    gamma,
    face,
    degeneracy,
    subset_restriction,
    boundary,
    coboundary,
    brace,
    dot_product,
    odot_product,
    aw_coproduct,
    counit,
    multi_face,
    multi_degeneracy,
    block_sign_exponent,
    random_element,
)
from .cohomology import ComplexSpec, differential_matrix, betti
from .serialize import element_to_json, element_from_json

__version__ = "0.1.0"

__all__ = [
    "RationalField",
    "PrimeField",
    "get_field",
    "power_sign",
    "ScalarError",
    "Element",
    "OperadError",
    "SparseMatrix",
    "equal_up_to_global_sign",
    "AssocOperad",
    "standardize",
    "compose_blocks",
    "compose_formula",
    "concat",
    "ShiftOperad",
    "compose_shift",
    "gamma_shift",
    "EndoOperad",
    "FinAlgebra",
    "ground_field_algebra",
    "dual_numbers",
    "matrix2",
    "classical_coboundary",
    "cup_product",
    "compose",
    "gamma",
    "face",
    "degeneracy",
    "subset_restriction",
    "boundary",
    "coboundary",
    "brace",
    "dot_product",
    "odot_product",
    "aw_coproduct",
    "counit",
    "multi_face",
    "multi_degeneracy",
    "block_sign_exponent",
    "random_element",
    "ComplexSpec",
    "differential_matrix",
    "betti",
    "element_to_json",
    "element_from_json",
    "__version__",
]
