"""Exact spectral combinatorics of quantum affine algebras.

Denominator polynomials between fundamental representations, the block
invariants they induce, the hidden simply-laced root system attached to
each of the fourteen affine families, and block labels for module lists --
all in exact cyclotomic/rational arithmetic.
"""

from .affine import (
    AffineData,
    AffineType,
    Family,
    NodeOutOfRange,
    RankOutOfRange,
    build,
    component_class,
    parse_type_string,
)
from .blocks import BlockLabel, GramResult, NotInW0, block_label, delta0, gram, partition_blocks, psi_lattice
from .denominators import RootMultiset, denominator, denominator_factors
from .invariants import (
    DecompositionUnavailable,
    SigmaFunction,
    SigmaPoint,
    de,
    dual_shift,
    e_of,
    lambda_,
    lambda_inf,
    pairing,
    parse_sigma_point,
    s_func,
    sigma_point,
)
from .qcartan import (
    CTildeTable,
    InvalidQDatum,
    NotInHatIQ,
    QDatum,
    ctilde_formula,
    ctilde_oracle,
    custom_qdatum,
    default_qdatum,
    i_q,
    psi_q,
    tau_q,
    validate_qdatum,
)
from .qdata import phi_q, phi_q_map, sigma_q_points
from .roots import FinRootSystem, root_system
from .scalars import (
    InvariantViolation,
    ParseError,
    QAffineError,
    RootOutsideDomain,
    SpectralScalar,
    nth_roots,
    parse_scalar,
    print_scalar,
    scalar,
)

__version__ = "0.1.0"
