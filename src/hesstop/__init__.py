"""Exact certification toolkit for hyperbolic homogeneous polynomials."""

from .census import CensusRow, certify_row, enumerate_rows, lower_bound
from .classify import (
    NonnegativityCertificate,
    SignCertificate,
    SturmChain,
    Verdict,
    certify_nonnegative,
    certify_pairing_nonpositive,
    is_hyperbolic,
    sign_on_punctured_plane,
)
from .foliation import (
    CurveSet,
    alignment_form,
    count_separatrices,
    trace_foliation,
)
from .isotopy import (
    IsotopyCertificate,
    certify_gradient_term_path,
    certify_product_isotopy,
)
from .lineindex import (
    DirectionTrace,
    HalfIndex,
    hyperbolic_index,
    index_at_origin,
)
from .polyalg import (
    HomoPoly,
    complex_power_parts,
    format_poly,
    multiply,
    parse,
    partial,
    product_family,
    radial_family,
    saddle_family,
)
from .quadform import (
    QuadForm,
    discriminant,
    hessian_pairing,
    second_fundamental_form,
)

__version__ = "0.1.0"
