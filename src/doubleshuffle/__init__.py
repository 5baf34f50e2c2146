"""Exact double-shuffle algebra over roots of unity.

Words over a cyclic mark group carry two commutative products: the merge
(quasi-shuffle) product coming from nested-sum representations, and the
interleaving (shuffle) product transported from letter words.  This package
computes both, provides a closed-form expansion of the transported product
with explicit binomial coefficients, generates the resulting relations among
multiple zeta values, alternating sums and polylogarithms at roots of unity,
and verifies them numerically, each value with a certified error bound.
"""

from .core import (MINUS_ONE, ONE, DomainError, GroupElement, IndexedWord,
                   LinComb, ShuffleWord, bilinear, binomial, group_elements)
from .explicit import (coeff, coeff_factor, coeff_nonzero, enum_compositions,
                       enum_index_pairs, enum_shuffle_perms, epsilon,
                       explicit_product_b, explicit_product_e, h_value,
                       merge_marks_b, merge_marks_e, pair_of_sigma,
                       perm_coeff, perm_product_b, sigma_of_pair)
from .maps import (eta, eta_inv, product_b, product_e, rho, rho_inv, theta,
                   theta_inv)
from .recursive import op_P, op_Q, quasi_shuffle, shuffle
from .values import (Relation, double_shuffle_relations, euler_relation,
                     hoffman_difference, lambda_numeric, mpl_numeric,
                     verify_relation_numeric, worked_examples)

__all__ = [
    "DomainError", "GroupElement", "IndexedWord", "LinComb",
    "MINUS_ONE", "ONE", "Relation", "ShuffleWord", "bilinear", "binomial",
    "coeff", "coeff_factor", "coeff_nonzero", "double_shuffle_relations",
    "enum_compositions", "enum_index_pairs", "enum_shuffle_perms", "epsilon",
    "eta", "eta_inv", "euler_relation", "explicit_product_b",
    "explicit_product_e", "group_elements", "h_value", "hoffman_difference",
    "lambda_numeric", "merge_marks_b", "merge_marks_e", "mpl_numeric",
    "op_P", "op_Q", "pair_of_sigma", "perm_coeff", "perm_product_b",
    "product_b", "product_e", "quasi_shuffle", "rho", "rho_inv",
    "shuffle", "sigma_of_pair", "theta", "theta_inv",
    "verify_relation_numeric", "worked_examples",
]

__version__ = "0.1.0"

