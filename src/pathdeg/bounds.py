"""Closed-form girth thresholds and the Lambert W_{-1} numerics behind
them.

Every evaluator returns a BoundResult carrying the real threshold and the
smallest integer girth strictly exceeding it; the theorems guarantee the
relevant degeneracy for graphs whose girth exceeds the threshold.
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
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")

    @property
    def log_slope(self) -> float:
        """A = b / log 2."""
        return self.b / LOG2

    @property
    def scale(self) -> float:
        """C = (24 * sqrt(2) * a) ** (1/b)."""
        return (24.0 * math.sqrt(2.0) * self.a) ** (1.0 / self.b)


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
    """Lower real branch of the inverse of w -> w*e^w, defined on
    [-1/e, 0); returns w <= -1 with |w*e^w - t| <= 1e-12.

    Bracketing bisection seeded from the sandwich
    -1 - sqrt(2u) - u < W(-e^{-u-1}) < -1 - sqrt(2u) - 2u/3 (u > 0),
    polished by Halley iteration away from the branch point.
    """
    if not (-1.0 / math.e <= t < 0.0):
        raise ValueError(f"W_-1 requires -1/e <= t < 0, got {t}")
    u = -1.0 - math.log(-t)
    if u <= 0.0:
        return -1.0
    lo = -1.0 - math.sqrt(2.0 * u) - u
    hi = -1.0 - math.sqrt(2.0 * u) - (2.0 / 3.0) * u

    def f(w: float) -> float:
        return w * math.exp(w) - t

    flo, fhi = f(lo), f(hi)
    # w*e^w decreases toward -1/e as w grows on (-inf, -1]
    if flo < 0 or fhi > 0:  # sandwich failed numerically; widen
        lo, hi = -1.0 - math.sqrt(2.0 * u) - 2.0 * u - 1.0, -1.0
        flo, fhi = f(lo), f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(lo)):
            break
    w = 0.5 * (lo + hi)
    if u > 1e-6:  # Halley polish; unstable at the branch point, skip there
        for _ in range(4):
            ew = math.exp(w)
            fw = w * ew - t
            d1 = ew * (w + 1.0)
            if d1 == 0.0:
                break
            step = fw / (d1 - fw * (w + 2.0) / (2.0 * (w + 1.0)))
            w -= step
            if abs(step) < 1e-15 * max(1.0, abs(w)):
                break
        if not (lo - 1e-9 <= w <= hi + 1e-9) or abs(w * math.exp(w) - t) > abs(0.5 * (lo + hi) * math.exp(0.5 * (lo + hi)) - t):
            w = 0.5 * (lo + hi)
    return min(w, -1.0)


def threshold_beta(A: float, B: float) -> float:
    """Minimal beta >= 0 with x > A*log(x) + B for all x > beta.

    Zero when B < A*(1 - log A); at equality the inequality is tangent at
    x = A and that point is returned; otherwise -A * W_-1(-e^{-B/A} / A).
    """
    if A <= 0:
        raise ValueError("A must be positive")
    if B < A * (1.0 - math.log(A)):
        return 0.0
    arg = -math.exp(-B / A) / A
    arg = max(arg, -1.0 / math.e)  # clamp roundoff at the tangency
    return -A * lambert_w_minus1(arg)


def girth_bound_polynomial(params: ExpansionParams, p: int) -> BoundResult:
    """Girth threshold for p-path degeneracy under a polynomial expansion
    envelope: max(7, 2*floor(-2A * W_-1(-1/(A*C*p))) + 4) * (p-1)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    A = params.log_slope
    C = params.scale
    w = lambert_w_minus1(-1.0 / (A * C * p))
    gamma = 2 * math.floor(-2.0 * A * w) + 4
    g_p = max(7, gamma) * (p - 1)
    return BoundResult.of(float(g_p), "polynomial-expansion")


def polynomial_gamma_upper_bound(params: ExpansionParams, p: int) -> float:
    """Explicit upper envelope for the polynomial-expansion threshold
    divided by (p-1): 4b*log2(p) + 4A*sqrt(2*log(A*C*p) - 2)
    + 4b*log2(A*C) + 4."""
    A = params.log_slope
    C = params.scale
    return (4.0 * params.b * math.log2(p)
            + 4.0 * A * math.sqrt(2.0 * math.log(A * C * p) - 2.0)
            + 4.0 * params.b * math.log2(A * C)
            + 4.0)


def girth_bound_minor_closed(d: float, p: int) -> BoundResult:
    """Girth threshold for classes of maximum average degree d:
    (4*log2(d) + 2*log2(min(d, 576)) + 3) * (p-1)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if p < 2:
        raise ValueError("p must be >= 2")
    value = (4.0 * math.log2(d) + 2.0 * math.log2(min(d, 576.0)) + 3.0) * (p - 1)
    return BoundResult.of(value, "minor-closed")


def girth_bound_subexponential(expansion, p: int, r_max: int = 10_000) -> BoundResult:
    """(6pr+3)(p-1) for the smallest r >= p with expansion(3*p*r) < 2^r.

    `expansion` maps a depth to a density bound and must be monotone
    nondecreasing; raises ValueError when no r <= r_max works (the class
    is not sub-exponential as sampled).
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    for r in range(p, r_max + 1):
        if expansion(3 * p * r) < 2.0 ** r:
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
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d = gamma * k * math.sqrt(math.log2(k))
    inner = girth_bound_minor_closed(d, p)
    return BoundResult.of(inner.threshold, f"clique-minor-free (k={k}, d={d:.6g})")


def lower_bound_poly(b: float, p: int, alpha: float) -> float:
    """Girth achieved by non-degenerate witnesses in a class of expansion
    O(r^b): -(2b/(alpha*log 2)) * W_-1(-log2/((p-1)*b)) * (p-1).
    alpha = 3/4 reproduces the 8/3 leading constant."""
    if b <= 0:
        raise ValueError("b must be positive")
    if not (0 < alpha <= 1):
        raise ValueError("alpha must be in (0, 1]")
    if p < 3:
        raise ValueError("p must be >= 3")
    arg = -LOG2 / ((p - 1) * b)
    if arg < -1.0 / math.e:
        raise ValueError(f"W_-1 argument {arg:.6g} below -1/e; p too small relative to b")
    w = lambert_w_minus1(arg)
    return -(2.0 * b / (alpha * LOG2)) * w * (p - 1)


def wcol_girth_rule(r: int, q: int) -> float:
    """Weak r-coloring bound for graphs certified through half ear length
    q: r+2+floor(log2((q-1)/(q-r))), which is r+2 when q >= 2r.  Computed
    in integers, since floor(log2 y) = floor(log2 floor(y)) for y >= 1.
    This is the one place the bound is written; `wcol.wreach_bound_ok`
    applies it at every radius."""
    if q <= r:
        raise ValueError("q must exceed r")
    if q >= 2 * r:          # also covers r <= 0, where (q-1)/(q-r) < 1
        return float(r + 2)
    return float(r + 1 + ((q - 1) // (q - r)).bit_length())
