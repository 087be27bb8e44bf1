"""Pointwise reliability certificates for classifier predictions under
metric-ball test-time attacks and distribution shift."""

from .core import (
    BaseBoundary,
    Dataset,
    DatasetFormatError,
    DimensionMismatchError,
    FiniteMap,
    LinearHomogeneous,
    MetricBall,
    OffsetBoundary,
    Threshold,
    empirical_disagreement,
    empirical_error,
    hypothesis_from_dict,
    predict,
    read_dataset_csv,
    write_dataset_csv,
)
from .distributions import (
    IsotropicGaussian,
    MeanShift,
    NearlyUniform,
    RadialHeavyTail,
    UniformBall,
    UniformCube,
    density_bounds,
    sample,
    spec_from_dict,
    spec_to_dict,
)
from .estimators import (
    RegionEstimate,
    ThetaEstimate,
    dis_ball_membership_rotinv,
    epsilon_for_sample_size,
    mc_mass,
    reliable_correctness,
    sr_mass,
    theta_pq,
)
from .losses import LossKind, RobustLossResult, fixed_loss, robust_loss_sup
from .reliability import (
    LabelConstancyError,
    ReliabilityCertificate,
    ViolationReport,
    certify,
    certify_general_finite,
    margin_certify,
    margin_certify_many,
    safely_reliable_membership,
    verify_contract,
)
from .version_space import (
    ConeVS,
    DegenerateVersionSpaceError,
    IntervalVS,
    Membership,
    OffsetClass,
    RealizabilityError,
    agree_membership,
    concept_from_dict,
    concept_to_dict,
    dis_distance,
    erm,
    fit_version_space,
    fit_version_spaces,
    margin_exclusion_delta,
    margin_exclusion_delta1_bound,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
