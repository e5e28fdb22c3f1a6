"""Exact computations with generalized Beilinson algebra representations,
kE_r-modules, Jordan types, and Kronecker Auslander-Reiten theory over
prime fields."""

from .linalg import (
    DimensionMismatch,
    FpMatrix,
    image_basis,
    kernel_basis,
    rank,
)
from .reps import (
    BeilinsonRep,
    ConfigMismatch,
    ProjPoint,
    alpha_operator,
    direct_sum,
    dualize,
    first_point,
    hom_space,
    injective,
    is_costandardly_graded,
    is_standardly_graded,
    m_module,
    proj_points,
    projective,
    rep_isomorphic,
    simple,
    support,
    validate,
    w_module,
    x_module,
)
from .emod import (
    ErModule,
    JordanType,
    end_algebra,
    forget,
    group_algebra_radical_power,
    is_indecomposable,
    is_isomorphic,
    jordan_type,
    jt_formula,
    loewy_length,
    rad_series,
    radical,
    soc_series,
    socle,
    twist,
)
from .properties import (
    PropertyReport,
    constant_jordan_type,
    constant_rank,
    is_eip_def,
    is_eip_hom,
    is_ekp_def,
    is_ekp_hom,
    no_maps_check,
)
from .kronecker import (
    Classification,
    TauOrbitReport,
    classify,
    coxeter_dims,
    e_lambda,
    tau,
    tau_inv,
    tits_form,
    width,
    wmod_shift_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
