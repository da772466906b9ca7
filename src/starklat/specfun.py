"""Integer-order Bessel kernel J_n(x) and numerical checks of its elementary bounds.

Every value comes from `bessel_row`: Miller's downward recurrence (DLMF
10.74(iv)), normalized by J_0 + 2*sum_k J_{2k} = 1, and for |x| < SMALL_X,
where 2k/|x| overflows the recurrence, the leading power-series term.
Values below 1e-300 are flushed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

H_MIN = 1e-8
X_MAX = 1e6
UNDERFLOW_FLOOR = 1e-300
# below this |x|, J_n(x) = (|x|/2)^|n| / |n|! to relative (x/2)^2 / (|n| + 1) < 2.5e-17
SMALL_X = 1e-8

_MILLER_OFFSET = 30
_RESCALE_LIMIT = 1e250


@dataclass
class BoundReport:
    """Outcome of one Lemma-style bound check.

    For bounds with explicit constants max_ratio is observed lhs/rhs; for
    bounds with existential constants the smallest feasible constants are
    recorded in `fitted` instead of being asserted.
    """

    max_ratio: float
    fitted: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + 1e-12


def _miller_orders(n_max: int, x: float) -> np.ndarray:
    """J_0(x)..J_{n_max}(x) by one downward recurrence pass, x > 0."""
    m_start = n_max + int(math.ceil(x)) + _MILLER_OFFSET
    out = np.zeros(n_max + 1)
    jp = 0.0
    j = 1e-30
    norm = 2.0 * j if m_start % 2 == 0 else 0.0
    for k in range(m_start, 0, -1):
        jm = (2.0 * k / x) * j - jp
        jp, j = j, jm
        order = k - 1
        if order <= n_max:
            out[order] = j
        if order == 0:
            norm += j
        elif order % 2 == 0:
            norm += 2.0 * j
        if abs(j) > _RESCALE_LIMIT:
            jp *= 1.0 / _RESCALE_LIMIT
            j *= 1.0 / _RESCALE_LIMIT
            norm *= 1.0 / _RESCALE_LIMIT
            out *= 1.0 / _RESCALE_LIMIT
    out /= norm
    out[np.abs(out) < UNDERFLOW_FLOOR] = 0.0
    return out


def _validate_x(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError("non-finite Bessel argument")
    if abs(x) > X_MAX:
        raise ValueError(f"|x| > {X_MAX:g} not supported")


def bessel_j(n: int, x: float) -> float:
    """Bessel function J_n(x) for integer n, real x."""
    return float(bessel_row(int(n), 0, 0, x)[0])


def bessel_row(m: int, j_lo: int, j_hi: int, x: float) -> np.ndarray:
    """Row of basis overlaps J_{m-j}(x) for j = j_lo..j_hi (one pass)."""
    if j_lo > j_hi:
        raise ValueError("j_lo > j_hi")
    _validate_x(x)
    orders = m - np.arange(j_lo, j_hi + 1)
    n = np.abs(orders)
    xa = abs(x)
    if xa == 0.0:
        return np.where(orders == 0, 1.0, 0.0)
    if xa < SMALL_X:
        # (|x|/2)^k / k! as a running product, at most 2k roundings; exp(k ln(|x|/2) - lgamma)
        # would carry the rounding of its large argument, 1.3e-13 relative at |x| = 1e-12
        terms = np.cumprod(np.concatenate(([1.0], 0.5 * xa / np.arange(1, n.max() + 1))))
        vals = terms[n]
        vals[vals < UNDERFLOW_FLOOR] = 0.0
    else:
        vals = _miller_orders(int(n.max()), xa)[n]
    # J_{-n}(x) = (-1)^n J_n(x);  J_n(-x) = (-1)^n J_n(x)
    flip = (n % 2 == 1) & ((orders < 0) != (x < 0))
    return np.where(flip, -vals, vals)


def check_upper_bound(n_max: int, x: float) -> BoundReport:
    """|J_n(x)| <= (|x|/2)^|n| / |n|!  for all |n| <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    row = bessel_row(0, -n_max, n_max, x)[::-1]  # J_{-n_max} .. J_{n_max}
    worst = 0.0
    for n, val in zip(range(-n_max, n_max + 1), row):
        k = abs(n)
        lhs = abs(float(val))
        if k == 0:
            log_rhs = 0.0
        elif x == 0.0:
            log_rhs = -math.inf
        else:
            log_rhs = k * (math.log(abs(x)) - math.log(2.0)) - math.lgamma(k + 1.0)
        if lhs == 0.0:
            ratio = 0.0
        elif log_rhs < -700.0:
            ratio = math.inf
        else:
            ratio = lhs / math.exp(log_rhs)
        worst = max(worst, ratio)
    return BoundReport(worst)


def check_summability(x: float, tail: int) -> BoundReport:
    """sum_{|n|<=tail} |J_n(x)| <= 2 exp(|x|/2) - 1."""
    _validate_x(x)
    if tail < 2 * math.ceil(abs(x)) + 50:
        raise ValueError("tail too small for a faithful sum")
    row = bessel_row(0, -tail, tail, x)
    total = float(np.sum(np.abs(row)))
    bound = 2.0 * math.exp(abs(x) / 2.0) - 1.0
    return BoundReport(total / bound, fitted={"sum": total, "bound": bound})


def pair_decay_sum(n: int, m: int, x: float, tail: int) -> BoundReport:
    """sum_j |J_{n-j}(x) J_{m-j}(x)| with the fitted decay envelope.

    The envelope is C exp(c|m-n|) / |(m-n)/2|! with c = max(ln|x|, 1); the
    smallest feasible C is recorded, not asserted.
    """
    _validate_x(x)
    center = (n + m) // 2
    js_lo, js_hi = center - tail, center + tail
    a = np.abs(bessel_row(n, js_lo, js_hi, x))
    b = np.abs(bessel_row(m, js_lo, js_hi, x))
    value = float(np.sum(a * b))
    c = max(math.log(abs(x)), 1.0) if x != 0.0 else 1.0
    half = abs(m - n) / 2.0
    log_env = c * abs(m - n) - math.lgamma(half + 1.0)
    c_fit = value / math.exp(log_env)
    return BoundReport(
        0.0 if value == 0.0 else 1.0, fitted={"value": value, "c": c, "C_fit": c_fit}
    )
