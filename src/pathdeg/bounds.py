"""Closed-form girth thresholds and the Lambert W_{-1} numerics behind
them.

Every evaluator returns a BoundResult carrying the real threshold and the
smallest integer girth strictly exceeding it; the theorems guarantee the
relevant degeneracy for graphs whose girth exceeds the threshold.

x > A*log(x) + B is solved in one place, `_beta`, in the form
u = B/A + log(A) - 1: 0 for u < 0, else -A*W_{-1}(-e^{-u-1}) by bisection
in u, so e^{-u-1}, an underflow past u = 745, is never formed.  Nor is
C = (24*sqrt(2)*a)**(1/b), an overflow for a large a with a small b: the
polynomial threshold sums u = log(A*C*p) - 1 in logarithms.  A girth,
clique degree or weak-coloring bound past the float range is refused by
a ValueError naming the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class ExpansionParams:
    """Polynomial expansion envelope: depth r admits density at most
    a * (r + 1/2)**b."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("a and b must be positive")

    @property
    def log_slope(self) -> float:
        """A = b / log 2."""
        return self.b / LOG2

    @property
    def log_scale(self) -> float:
        """log C = (log(24 * sqrt(2)) + log a) / b, for the scale
        C = (24 * sqrt(2) * a) ** (1/b), which itself may pass the float
        range."""
        return (math.log(24.0 * math.sqrt(2.0)) + math.log(self.a)) / self.b

    def log_acp(self, p: int) -> float:
        """log(A * C * p), summed in logarithms."""
        return math.log(self.log_slope) + self.log_scale + math.log(p)


@dataclass(frozen=True)
class BoundResult:
    threshold: float
    integer_girth_threshold: int
    provenance: str

    @classmethod
    def of(cls, threshold: float, provenance: str) -> "BoundResult":
        return cls(threshold=threshold,
                   integer_girth_threshold=math.floor(threshold) + 1,
                   provenance=provenance)


def lambert_w_minus1(t: float) -> float:
    """Lower real branch of the inverse of w -> w*e^w on [-1/e, 0), the
    t-form entry point: `_w_minus1_of_u` at u = -1 - log(-t), clamped at 0
    against roundoff at t = -1/e.  Returns w <= -1."""
    if not (-1.0 / math.e <= t < 0.0):
        raise ValueError(f"W_-1 requires -1/e <= t < 0, got {t}")
    return _w_minus1_of_u(max(0.0, -1.0 - math.log(-t)))


def _w_minus1_of_u(u: float) -> float:
    """W_-1(-e^{-u-1}) for u >= 0, where e^{-u-1} need not be a float.

    The root lies in the sandwich
    -1 - sqrt(2u) - u < W(-e^{-u-1}) < -1 - sqrt(2u) - 2u/3 (u > 0), a
    theorem (Chatzigeorgiou 2013), so bisecting it cannot lose the root.
    On (-inf, -1] the map w -> log(-w) + w + 1 + u increases and is zero
    at the root, so its sign at the midpoint picks the half; it is summed
    as log1p(-1 - w) + (w + 1) + u, which keeps its small terms exact near
    the branch point.  sqrt(2u) is formed as sqrt(2) * sqrt(u) and the
    midpoint as lo/2 + hi/2, so no term leaves the float range for any
    finite u.  The loop stops when the float midpoint equals an end, i.e.
    at float resolution.  Near the branch point (u -> 0) the root is
    ill-conditioned in t, so there the residual w*e^w - t is what stays small.
    """
    if not u >= 0.0:
        raise ValueError(f"W_-1 requires u >= 0 (t = -e^(-u-1) >= -1/e), got u = {u}")
    lo = -1.0 - math.sqrt(2.0) * math.sqrt(u) - u
    hi = -1.0 - math.sqrt(2.0) * math.sqrt(u) - (2.0 / 3.0) * u
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            return mid
        if math.log1p(-1.0 - mid) + (mid + 1.0) + u < 0.0:
            lo = mid
        else:
            hi = mid


def _beta(A: float, u: float, inputs: str) -> float:
    """Minimal beta >= 0 with x > A*log(x) + B for all x > beta, for A > 0
    and u = B/A + log(A) - 1: 0 if u < 0 (x - A*log(x) is least at x = A),
    else -A*W_-1(-e^{-u-1}); a ValueError naming `inputs` if that is not finite."""
    if u < 0.0:
        return 0.0
    if u < math.inf and (beta := -A * _w_minus1_of_u(u)) < math.inf:
        return beta
    raise ValueError(f"the threshold of x > A*log(x) + B overflows a float for {inputs}")


def _finite(compute, inputs: str, name: str = "the girth") -> float:
    """float(compute()), for compute() such as a girth value * (p-1); a
    ValueError naming `inputs` if that passes the float range."""
    try:
        value = float(compute())
    except OverflowError:       # an int past the float range
        value = math.inf
    if value < math.inf:
        return value
    raise ValueError(f"{name} overflows a float for {inputs}")


def threshold_beta(A: float, B: float) -> float:
    """Minimal beta >= 0 with x > A*log(x) + B for all x > beta, for A > 0
    and B/A finite: `_beta` at u = B/A + log(A) - 1, so zero when
    B < A*(1 - log A) and the tangent point x = A at equality."""
    if not A > 0:
        raise ValueError("A must be positive")
    return _beta(A, B / A + math.log(A) - 1.0, f"A = {A}, B = {B}")


def girth_bound_polynomial(params: ExpansionParams, p: int) -> BoundResult:
    """Girth threshold for p-path degeneracy under a polynomial expansion
    envelope: max(7, 2*floor(-2A * W_-1(-1/(A*C*p))) + 4) * (p-1), the W_-1
    term being `_beta` at 2A and u = log(A*C*p) - 1, so 7*(p-1) for A*C*p < e."""
    if p < 2:
        raise ValueError("p must be >= 2")
    inputs = f"a = {params.a}, b = {params.b}, p = {p}"
    gamma = 2 * math.floor(_beta(2.0 * params.log_slope, params.log_acp(p) - 1.0, inputs)) + 4
    return BoundResult.of(_finite(lambda: max(7, gamma) * (p - 1), inputs), "polynomial-expansion")


def polynomial_gamma_upper_bound(params: ExpansionParams, p: int) -> float:
    """Explicit upper envelope for the polynomial-expansion threshold
    divided by (p-1): 4b*log2(p) + 4A*sqrt(2*log(A*C*p) - 2)
    + 4b*log2(A*C) + 4 for A*C*p >= e, in logarithms of A and C."""
    if params.log_acp(p) < 1.0:
        raise ValueError(f"the envelope needs A*C*p >= e, not met at a = {params.a}, b = {params.b}, p = {p}")
    A = params.log_slope
    log_ac = math.log(A) + params.log_scale
    return (4.0 * params.b * math.log2(p)
            + 4.0 * A * math.sqrt(2.0) * math.sqrt(params.log_acp(p) - 1.0)
            + 4.0 * params.b * log_ac / LOG2
            + 4.0)


def girth_bound_minor_closed(d: float, p: int) -> BoundResult:
    """Girth threshold for classes of maximum average degree d:
    (4*log2(d) + 2*log2(min(d, 576)) + 3) * (p-1)."""
    if not 2 <= d < math.inf:
        raise ValueError("d must be >= 2 and finite")
    if p < 2:
        raise ValueError("p must be >= 2")
    value = 4.0 * math.log2(d) + 2.0 * math.log2(min(d, 576.0)) + 3.0
    return BoundResult.of(_finite(lambda: value * (p - 1), f"d = {d}, p = {p}"), "minor-closed")


def girth_bound_subexponential(expansion, p: int, r_max: int = 10_000) -> BoundResult:
    """(6pr+3)(p-1) for the smallest r >= p with expansion(3*p*r) < 2^r.

    `expansion` maps a depth to a density bound and must be monotone
    nondecreasing; raises ValueError when no r <= r_max works (the class
    is not sub-exponential as sampled).
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    for r in range(p, r_max + 1):
        if expansion(3 * p * r) < 2 ** r:
            value = (6 * p * r + 3) * (p - 1)
            return BoundResult.of(float(value), f"sub-exponential (r={r})")
    raise ValueError(f"no r <= {r_max} with expansion(3pr) < 2^r; "
                     "expansion is not sub-exponential as sampled")


def girth_bound_clique(k: int, p: int, gamma: float = 0.638) -> BoundResult:
    """Clique-minor-free threshold via the average-degree bound
    d = gamma * k * sqrt(log2 k); lower-order correction terms are
    dropped, so this is the leading-order evaluation."""
    if k < 5:
        raise ValueError("k must be >= 5")
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    d = _finite(lambda: gamma * k * math.sqrt(math.log2(k)), f"k = {k}, gamma = {gamma}", "d")
    return BoundResult.of(girth_bound_minor_closed(d, p).threshold, f"clique-minor-free (k={k}, d={d:.6g})")


def lower_bound_poly(b: float, p: int, alpha: float) -> float:
    """Girth achieved by non-degenerate witnesses in a class of expansion
    O(r^b): -(2b/(alpha*log 2)) * W_-1(-log2/((p-1)*b)) * (p-1).
    alpha = 3/4 reproduces the 8/3 leading constant."""
    if not b > 0:
        raise ValueError("b must be positive")
    if not (0 < alpha <= 1):
        raise ValueError("alpha must be in (0, 1]")
    if p < 3:
        raise ValueError("p must be >= 3")
    t = -LOG2 / _finite(lambda: b * (p - 1), f"b = {b}, p = {p}", "(p-1)*b")
    u = -1.0 - math.log(-t)
    if u < 0.0:
        raise ValueError(f"W_-1 argument {t:.6g} below -1/e; p too small relative to b")
    return _finite(lambda: -(2.0 * b / (alpha * LOG2)) * _w_minus1_of_u(u) * (p - 1),
                   f"b = {b}, p = {p}, alpha = {alpha}")


def wcol_girth_rule(r: int, q: int) -> float:
    """Weak r-coloring bound for graphs certified through half ear length
    q: r+2+floor(log2((q-1)/(q-r))), which is r+2 when q >= 2r.  Computed
    in integers, since floor(log2 y) = floor(log2 floor(y)) for y >= 1.
    This is the one place the bound is written; `wcol.wreach_bound_ok`
    applies it up to radius n-1, where WReach stops growing but the bound
    does not; a ValueError naming r and q if the bound passes the float range."""
    if q <= r:
        raise ValueError("q must exceed r")
    if q >= 2 * r:          # also covers r <= 0, where (q-1)/(q-r) < 1
        bound = r + 2
    else:
        bound = r + 1 + ((q - 1) // (q - r)).bit_length()
    return _finite(lambda: bound, f"r = {r}, q = {q}", "the bound")
