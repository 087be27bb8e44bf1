"""Pointwise reliability certificates for classifier predictions under
metric-ball test-time attacks and distribution shift."""

from .core import (
    BaseBoundary,
    Dataset,
    DatasetFormatError,
    DimensionMismatchError,
    LinearHomogeneous,
    OffsetBoundary,
    Threshold,
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
    sample,
    spec_from_dict,
)
from .estimators import (
    RegionEstimate,
    ThetaEstimate,
    epsilon_for_sample_size,
    reliable_correctness,
    sr_mass,
    theta_pq,
)
from .losses import LossKind, fixed_loss
from .reliability import (
    LabelConstancyError,
    ReliabilityCertificate,
    ViolationReport,
    certify,
    margin_certify_many,
    safely_reliable_membership,
    verify_contract,
)
from .version_space import (
    ConeVS,
    DegenerateVersionSpaceError,
    IntervalVS,
    OffsetClass,
    RealizabilityError,
    concept_from_dict,
    erm,
    fit_version_space,
    fit_version_spaces,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
