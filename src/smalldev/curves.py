"""Shared container for bound curves."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError


@dataclass(frozen=True)
class BoundCurve:
    """Points (x, lower, upper) with a label saying which rule produced them.

    `x` is a radius r or a covering scale epsilon depending on context;
    either side may be None when only one bound is available.
    """

    x: np.ndarray
    lower: np.ndarray | None
    upper: np.ndarray | None
    label: str
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.x)
        for side in (self.lower, self.upper):
            if side is not None and len(side) != n:
                raise PreconditionError("curve sides must match x in length")
