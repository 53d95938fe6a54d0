"""Bound reports: one estimated quantity against one right-hand side.

A report passes when estimate <= bound + ci_half_width, i.e. when
margin + ci_half_width >= 0 with margin = bound - estimate.  Checks of the
form "statistic >= floor" store the negated statistic and floor so the same
pass rule applies; such names carry a ``_floor`` suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

CSV_COLUMNS = (
    "name", "family", "dim", "t", "r", "delta", "beta",
    "estimate", "ci", "bound", "margin", "pass", "n_samples", "seed",
)


class Row(NamedTuple):
    anchored: bool      # a miss fails the run
    cap: float | None   # the trivial value of the bound (1 for a probability or a TV gap), if any


# The row table: each row name up to a ``!`` or ``@`` suffix, with the statement it
# checks and, after ``--``, its source, in the notation of the ``verify`` docstring.
ROWS = {
    # gamma(Q_t f > r) <= 1/r -- Markov: Q_t f integrates to 1
    "tail_markov": Row(True, 1.0),
    # max_r gamma(Q_t f > r) r sqrt(L) min(1, t) <= 20 -- desk stand-in for C_t
    "tail_curve_ceiling": Row(False, None),
    # tilt |u| = sqrt(2L): gamma(f > r) r sqrt(L) >= 0.1 -- sqrt(L) is sharp (EL)
    "sharpness_floor": Row(False, None),
    # E int_0^1 |v|^2 / 2 = H(f dgamma | gamma) -- Foellmer (Lehec, AIHP 2013)
    "entropy_identity_gap": Row(True, None),
    # E E_T <= 2L -- K = S + E/2 with K_0 = 0 and K_T <= L, stopped at T (EL)
    "drift_energy": Row(True, None),
    # E D^d = 1 -- Girsanov
    "girsanov_mean_gap": Row(True, None),
    # E f(X^d) D^d = 1 -- Girsanov: X^d is standard Gaussian under D^d dP
    "girsanov_product_gap": Row(True, None),
    # log f(X^d) >= log f(X_1) + d <v_1, I_T> - beta d^2 E_T / 2 on each path
    # -- Taylor under Hess log f >= -beta
    "convexity_floor": Row(True, None),
    # f(X^d) D^d >= e^Z (1 - 1e-6) on each path, tilt only
    # -- convexity_floor and K_1 = S_1 + E_1 / 2, exact for the discrete K of a constant drift
    "pathwise_product_floor": Row(True, None),
    # E e^Z <= 1 -- pathwise_product_floor and girsanov_product_gap (EL)
    "exp_moment": Row(True, None),
    # P(Z <= -2) <= -E Z -- E e^Z <= 1 and e^z - 1 - z >= 1{z <= -2}
    "deviation_bound": Row(True, 1.0),
    # P(Z <= -2) <= d^2 (beta + 1) L
    # -- deviation_bound, drift_energy and -E Z = (beta + 1) d^2 E E_T / 2 (EL)
    "deviation_budget": Row(True, 1.0),
    # E <v_1 - v_s, v_s> 1{s <= T} = 0 up to an allowance -- v is a martingale
    "drift_martingale_gap": Row(True, None),
    # KS gap of f(X_1) and f(X^d) <= d sqrt((beta + 1) L) -- EL's TV step
    "tv_lower_bound": Row(True, 1.0),
    # the same gap <= d sqrt((beta + 1) L / 2) -- no stated source
    "tv_pinsker": Row(False, 1.0),
    # P(f(X^d) <= r^{1+2d} e^{-4}) <= P(f(X_1) <= r) + (beta + 4) d^2 L
    # -- EL's shell-shift proposition (the ``prop2`` token)
    "shell_shift": Row(True, 1.0),
    # P(r < f(X_1) <= e r) sqrt(L) / max(beta, 1) <= 20 -- desk stand-in
    "shell_ratio": Row(False, None),
    # gamma(f > r) <= E sum_k 1{f(X_1) in (e^k r, e^{k+1} r]} / (e^k r)
    # -- Markov per shell: gamma(f > r) = E[1/f(X_1); f(X_1) > r]
    "tail_reduction": Row(True, 1.0),
    # lambda_min(Hess log Q_t f) >= -1/(2t) -- smoothing, any f: the beta
    # -> inf limit of ``ou_image``'s beta_t is 1/(e^{2t} - 1) <= 1/(2t)
    "log_hessian_floor": Row(True, None),
    # ||Q_t f||_q <= ||f||_p, q = 1 + e^{2t} (p - 1) -- Nelson (1973)
    "hypercontractivity": Row(True, None),
}


def _entry(name: str) -> Row:
    """The ``ROWS`` entry of a row name; ValueError if it has none."""
    base = name.partition("!")[0].partition("@")[0]
    if base not in ROWS:
        raise ValueError(f"row {name!r} has no entry in reports.ROWS")
    return ROWS[base]


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

    def __post_init__(self):
        _entry(self.name)  # no row outside the table
        # keep builtin floats throughout so CSV repr stays clean
        for name in ("estimate", "ci_half_width", "bound", "t", "r", "delta", "beta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "n_samples", int(self.n_samples))
        object.__setattr__(self, "seed", int(self.seed))
        if not (self.ci_half_width >= 0.0 or math.isnan(self.ci_half_width)):
            raise ValueError("ci_half_width must be >= 0")

    @property
    def anchored(self) -> bool:
        """A miss fails the run: per ``ROWS``, and never for a ``!`` (NaN stand-in) row."""
        return _entry(self.name).anchored and "!" not in self.name

    @property
    def vacuous(self) -> bool:
        """The bound is at or above the row's cap; False without a cap or for a NaN bound."""
        cap = _entry(self.name).cap
        return cap is not None and self.bound >= cap

    @property
    def margin(self) -> float:
        return self.bound - self.estimate

    @property
    def passed(self) -> bool:
        total = self.margin + self.ci_half_width
        return bool(total >= 0.0) if not math.isnan(total) else False

    def csv_row(self) -> list[str]:
        def fmt(v: float) -> str:
            return "" if math.isnan(v) else repr(v)

        return [
            self.name, self.family, str(self.dim),
            fmt(self.t), fmt(self.r), fmt(self.delta), fmt(self.beta),
            fmt(self.estimate), fmt(self.ci_half_width), fmt(self.bound),
            fmt(self.margin), str(self.passed), str(self.n_samples), str(self.seed),
        ]
