"""Segmentation of matrix- and tensor-valued time series into uncorrelated column groups.

The package exports the pipeline, its configuration and result, the two
series containers and the error types.  Pipeline stages and estimators are
imported from their submodules (``matseg.segmentation``,
``matseg.estimators``, ``matseg.threshold_cv``, ``matseg.linalg``,
``matseg.simulation``, ``matseg.tensor``).
"""

from .errors import (
    DegenerateColumn,
    DegenerateCovariance,
    DegenerateVariance,
    InvalidInput,
    InvalidState,
    MatsegError,
    NumericalFailure,
    ParseError,
    ResourceLimit,
)
from .segmentation import (
    CvThreshold,
    FixedThreshold,
    NoThreshold,
    SegmentationConfig,
    SegmentationResult,
    pair_score_matrix,
    segment,
)
from .series import MatrixSeries, TensorSeries
from .simulation import gen_example
from .tensor import sequential_segment

__version__ = "0.1.0"

__all__ = [
    "segment",
    "SegmentationConfig",
    "SegmentationResult",
    "NoThreshold",
    "FixedThreshold",
    "CvThreshold",
    "pair_score_matrix",
    "sequential_segment",
    "gen_example",
    "MatrixSeries",
    "TensorSeries",
    "MatsegError",
    "InvalidInput",
    "ParseError",
    "NumericalFailure",
    "DegenerateCovariance",
    "DegenerateColumn",
    "DegenerateVariance",
    "InvalidState",
    "ResourceLimit",
    "__version__",
]
