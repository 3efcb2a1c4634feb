"""Exact rational toolkit for the Schur algebra S(n,d).

Basis indexed by n x n nonnegative integer matrices with entry sum d;
products by path counting on bipartite multigraphs; centre from symmetric
group class sums; primitive central idempotents from characters; and a
weight-block operator oracle on the word space that cross-checks products.
"""

from .basis import (
    GeneralizedPermutation,
    Matrix,
    MultiIndex,
    SchurElement,
    apply_basis,
    basis_count,
    basis_element,
    canonical_pair,
    col_sums,
    enumerate_basis,
    identity_element,
    matrix_from_pair,
    row_sums,
)
from .centre import (
    centre_basis_element,
    centre_dimension,
    class_coefficient,
    is_central,
    primitive_idempotent,
)
from .multiplication import (
    EulerClass,
    class_multiplicity,
    euler_classes,
    multiply,
    product_graph,
    structure_constant,
)
from .oracle import (
    DEFAULT_MAX_TENSOR_DIM,
    TensorDimensionError,
    dense_operator,
    find_product_mismatch,
    multiply_via_oracle,
)
from .partitions import (
    Partition,
    Permutation,
    character,
    class_size,
    conjugate,
    cycle_type,
    inverse_permutation,
    partitions_of,
    permutations_by_type,
    permute_positions,
    tableaux_count,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_TENSOR_DIM",
    "EulerClass",
    "GeneralizedPermutation",
    "Matrix",
    "MultiIndex",
    "Partition",
    "Permutation",
    "SchurElement",
    "TensorDimensionError",
    "apply_basis",
    "basis_count",
    "basis_element",
    "canonical_pair",
    "centre_basis_element",
    "centre_dimension",
    "character",
    "class_coefficient",
    "class_multiplicity",
    "class_size",
    "col_sums",
    "conjugate",
    "cycle_type",
    "dense_operator",
    "enumerate_basis",
    "euler_classes",
    "find_product_mismatch",
    "identity_element",
    "inverse_permutation",
    "is_central",
    "matrix_from_pair",
    "multiply",
    "multiply_via_oracle",
    "partitions_of",
    "permutations_by_type",
    "permute_positions",
    "primitive_idempotent",
    "product_graph",
    "row_sums",
    "structure_constant",
    "tableaux_count",
]
