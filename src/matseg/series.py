"""Container types for observed matrix- and tensor-valued series."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput


def _series_array(data) -> np.ndarray:
    """Series data as a float array: finite, (n, p1, ..., pr) with r >= 2, n >= 2, all p >= 1."""
    arr = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("series data contains non-finite entries")
    if arr.ndim < 3:
        raise InvalidInput(f"series data must have at least 3 axes, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise InvalidInput(f"series length must be at least 2, got {arr.shape[0]}")
    if min(arr.shape[1:]) < 1:
        raise InvalidInput(f"series dimensions must be positive, got {arr.shape[1:]}")
    return arr


@dataclass(frozen=True)
class MatrixSeries:
    """A length-n series of p x q matrices, stored as an (n, p, q) array.

    Rows index the p observation rows of each matrix, columns the q
    variables that segmentation may group.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _series_array(self.data)
        if arr.ndim != 3:
            raise InvalidInput(f"matrix series data must have 3 axes, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @property
    def q(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class TensorSeries:
    """A length-n series of order-r tensors, stored as an (n, p1, ..., pr) array."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _series_array(self.data))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def order(self) -> int:
        return self.data.ndim - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.data.shape[1:])
