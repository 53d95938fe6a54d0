"""Bound reports: one estimated quantity against one right-hand side.

A report passes when estimate <= bound + ci_half_width, i.e. when
margin + ci_half_width >= 0 with margin = bound - estimate.  Checks of the
form "statistic >= floor" store the negated statistic and floor so the same
pass rule applies; such names carry a ``_floor`` suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CSV_COLUMNS = (
    "name", "family", "dim", "t", "r", "delta", "beta",
    "estimate", "ci", "bound", "margin", "pass", "n_samples", "seed",
)


@dataclass(frozen=True)
class BoundReport:
    name: str
    estimate: float
    ci_half_width: float
    bound: float
    family: str = ""
    dim: int = 0
    t: float = math.nan
    r: float = math.nan
    delta: float = math.nan
    beta: float = math.nan
    n_samples: int = 0
    seed: int = 0
    anchored: bool = True  # False for desk-scale conventions (floors/ceilings)

    def __post_init__(self):
        # keep builtin floats throughout so CSV repr stays clean
        for name in ("estimate", "ci_half_width", "bound", "t", "r", "delta", "beta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "n_samples", int(self.n_samples))
        object.__setattr__(self, "seed", int(self.seed))
        if not (self.ci_half_width >= 0.0 or math.isnan(self.ci_half_width)):
            raise ValueError("ci_half_width must be >= 0")

    @property
    def margin(self) -> float:
        return self.bound - self.estimate

    @property
    def passed(self) -> bool:
        total = self.margin + self.ci_half_width
        return bool(total >= 0.0) if not math.isnan(total) else False

    def csv_row(self) -> list[str]:
        def fmt(v) -> str:
            if isinstance(v, float):
                return "" if math.isnan(v) else repr(v)
            return str(v)

        return [
            self.name, self.family, str(self.dim),
            fmt(self.t), fmt(self.r), fmt(self.delta), fmt(self.beta),
            fmt(self.estimate), fmt(self.ci_half_width), fmt(self.bound),
            fmt(self.margin), str(self.passed), str(self.n_samples), str(self.seed),
        ]
