"""Exact symbolic engine for reduced trace maps of polynomial algebras."""

from .gcalg import AlgebraElement, InvalidInputError, koszul_sign, render
from .derham import Form, bigrade_split, d, euler_contract, exactness_witness
from .resolution import RElement, abelianize, delta_R, s_inv
from .trace import (
    TraceMethod,
    UnsupportedDegreeError,
    cs_coefficient,
    cs_trace_raw,
    D_op,
    F_eval,
    hat_D_op,
    trace,
    trace_diffop,
    trace_simple,
)

__all__ = [
    "AlgebraElement",
    "Form",
    "InvalidInputError",
    "RElement",
    "TraceMethod",
    "UnsupportedDegreeError",
    "abelianize",
    "bigrade_split",
    "cs_coefficient",
    "cs_trace_raw",
    "d",
    "delta_R",
    "D_op",
    "euler_contract",
    "exactness_witness",
    "F_eval",
    "hat_D_op",
    "koszul_sign",
    "render",
    "s_inv",
    "trace",
    "trace_diffop",
    "trace_simple",
]
