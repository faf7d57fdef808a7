"""Campana sets over Q: Hilbert symbols, radical place sets, constructive
parametrization, and compilation of the defining forall-exists formulas."""

from .arith import crt, factorize, is_prime, legendre, valuation
from .circuits import Circuit
from .errors import DegenerateSampler, SearchExhausted
from .forms import BinaryForm
from .formulas import (
    Formula,
    FormulaStats,
    build_campana,
    build_integrality,
    build_S,
    combine_many,
    combine_pair,
    combine_sos,
    emit,
    evaluate_matrix,
    norm_form,
    parse,
    prenex_or,
    stats,
    substitute_form,
)
from .kernels import BACKEND
from .memo import clear_memos, memos
from .parametrize import ConstructionReport, SearchConfig, construct_omega, find_b
from .places import (
    PlaceSet,
    delta,
    delta_upper,
    hilbert,
    hilbert_oracle,
    omega,
    reciprocity_check,
)
from .semantics import (
    campana_member,
    campana_member_form,
    campana_via_coordinates,
    disjoint_omegas,
    generate_trace_element,
    in_J,
    in_Jn,
    in_inv_Jn,
    s_integer_member,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
