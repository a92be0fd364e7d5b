"""Exact kernel for free anti-commutative and generic Poisson algebras."""

from .ac import (
    ACPoly,
    FlipOrbit,
    OperatorWord,
    Variable,
    Word,
    ac_bracket,
    enumerate_polylinear_basis,
    flip,
    flip_orbit,
    height,
    i_normal_form,
    is_normal,
    normalize_word,
)
from .assoc import (
    AssocPoly,
    ExteriorElem,
    alternating_sum,
    commutator,
    exterior_image,
    is_lie_element,
)
from .gp import (
    GPPoly,
    Weight,
    fine_components,
    substitute,
)
from .identities import (
    FarkasHeight,
    ProductDecomposition,
    derivation_difference,
    farkas_height,
    is_derivation_in,
    is_jacobian,
    jacobian_product_decompose,
    jacobian_reduce,
    jacobian_reduce_trace,
    jacobian_space,
    jacobiator,
    linearize,
    multiplication_operator,
    strip_bare_factors,
)
from .parsing import ParseError, parse, to_ac, to_assoc, to_gp
from .ratfunc import MultiPoly, RatFunc
from .realize import (
    Realization,
    Witness,
    evaluate_gp,
    identity_witness_search,
    realized_bracket,
    structured_witness,
)

__version__ = "0.1.0"
