"""Exact-arithmetic moment and cumulant machinery for multiplicative
convolutions of probability measures on the unit circle, covering the
one-state (free, boolean) and two-state worlds, with partition-level
oracles for every identity."""

from .errors import (
    ArgumentError,
    CfreeError,
    DomainError,
    NumericalError,
    ResourceLimitError,
    UnsupportedDomainError,
)
from .partitions import (
    NCLinkedPartition,
    NCPartition,
    SetPartition,
    enumerate_nc,
    enumerate_nc_0,
    enumerate_nc_s,
    enumerate_ncl,
    kreweras,
    ncl_classify,
    partition_from_json,
)
from .series import ComplexRational, TruncatedSeries
from .transforms import (
    TransformBundle,
    b_series,
    cfree_cumulants_from_moments,
    ct_transform,
    eta,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
    moments_from_t,
    phi_moments_from_cfree_cumulants,
    phi_moments_from_ct,
    sigma_series,
    t_transform,
)
from .measures import (
    CircleMeasure,
    IdGenerator,
    MeasurePair,
    boolean_convolve,
    cfree_multiplicative_convolve,
    free_multiplicative_convolve,
    herglotz_exp,
    idiv_boolean_measure,
    idiv_free_measure,
    limit_experiment,
    semigroup_pair,
    toeplitz_psd_check,
)
# Production code calls no oracle, but perfbench/layers.find_function finds
# the oracle routes that perfbench times only in modules already loaded.  The
# lattice join lives with the oracles and stays public.
from .oracles import (
    boxed_convolution,
    cf_weight,
    nc_join,
    product_phi_cumulants,
    product_psi_cumulants,
)

# The former two-state law class, kept because perfbench's oracle_crosscheck
# workload builds its laws through this name.
TwoStateData = TransformBundle

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CfreeError",
    "CircleMeasure",
    "ComplexRational",
    "DomainError",
    "IdGenerator",
    "MeasurePair",
    "NCLinkedPartition",
    "NCPartition",
    "NumericalError",
    "ResourceLimitError",
    "SetPartition",
    "TransformBundle",
    "TruncatedSeries",
    "UnsupportedDomainError",
    "b_series",
    "boolean_convolve",
    "boxed_convolution",
    "cf_weight",
    "cfree_cumulants_from_moments",
    "cfree_multiplicative_convolve",
    "ct_transform",
    "enumerate_nc",
    "enumerate_nc_0",
    "enumerate_nc_s",
    "enumerate_ncl",
    "eta",
    "free_cumulants_from_moments",
    "free_multiplicative_convolve",
    "herglotz_exp",
    "idiv_boolean_measure",
    "idiv_free_measure",
    "kreweras",
    "limit_experiment",
    "moments_from_free_cumulants",
    "moments_from_t",
    "nc_join",
    "ncl_classify",
    "partition_from_json",
    "phi_moments_from_cfree_cumulants",
    "phi_moments_from_ct",
    "product_phi_cumulants",
    "product_psi_cumulants",
    "semigroup_pair",
    "sigma_series",
    "t_transform",
    "toeplitz_psd_check",
]
