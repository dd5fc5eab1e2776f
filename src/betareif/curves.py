"""Worked-example generators: l^p plane curves, Rademacher snowflakes, the
5-Dirac measure, and the (R^3, l^4) no-power-gain certificate."""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .measures import PointMeasure
from .spaces import NormedSpace

__all__ = [
    "SnowflakeSpec", "RademacherVector", "rademacher_norm", "snowflake",
    "polyline_length", "dirac_example", "no_power_gain_matrix",
    "no_power_gain_witness", "NPG_SPACE", "NPG_PLANE_SPAN", "npg_reference_points",
]

_ENUM_CAP = 20


@dataclass(frozen=True)
class RademacherVector:
    """Coefficients a_1..a_m of sum a_j e_j over the Rademacher functions
    (e_1 is the constant 1; e_2, e_3, ... are independent signs).
    m is capped at 20, the sign-pattern enumeration budget."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float).reshape(-1)
        if len(c) > _ENUM_CAP:
            raise ValueError(f"at most {_ENUM_CAP} coefficients")
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True)
class SnowflakeSpec:
    mode: str               # "plane_bump" | "rademacher"
    p: float
    etas: tuple
    depth: int

    def __post_init__(self):
        if self.mode not in ("plane_bump", "rademacher"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.depth > _ENUM_CAP:
            raise ValueError(f"depth capped at {_ENUM_CAP}")
        etas = tuple(float(e) for e in self.etas)
        if len(etas) < self.depth - 1:
            raise ValueError("need depth-1 eta values")
        if not all(abs(e) <= 0.1 for e in etas[: self.depth - 1]):     # NaN fails too
            raise ValueError("|eta_i| <= 1/10 required")
        object.__setattr__(self, "etas", etas)


def rademacher_norm(v: RademacherVector | np.ndarray, p: float) -> float:
    """L^p[0,1] norm of sum a_j e_j.

    p = inf gives sum |a_j| (the sup over sign patterns), p = 2 gives the
    Euclidean norm (the e_j are orthonormal), and finite p is the exact
    average over sign patterns (e_1 is fixed at +1; the global flip is
    norm-invariant so this equals the full 2^m average)."""
    a = v.coefficients if isinstance(v, RademacherVector) else np.asarray(v, dtype=float)
    m = len(a)
    if p == math.inf:
        return float(np.abs(a).sum())
    if p == 2.0:
        return float(math.sqrt((a * a).sum()))
    if m > _ENUM_CAP:
        raise ValueError(f"enumeration cap is m <= {_ENUM_CAP} at finite p")
    if m == 1:
        return float(abs(a[0]))
    signs = _sign_patterns(m - 1)
    sums = a[0] + signs @ a[1:]
    return float((np.abs(sums) ** p).mean() ** (1.0 / p))


def _sign_patterns(bits: int) -> np.ndarray:
    n = 1 << bits
    idx = np.arange(n)[:, None] >> np.arange(bits)[None, :]
    return np.where(idx & 1, -1.0, 1.0)


def snowflake(spec: SnowflakeSpec):
    """Generate the snowflake polyline.

    rademacher mode: level j bumps the middle third of each parameter
    third of level j-1 in the new direction e_j with parameter slope
    eta_{j-1}; vertices are RademacherVectors with depth coefficients.
    plane_bump mode: the R^2 construction, recursing per straight segment
    with Euclidean-perpendicular bumps of slope eta."""
    if spec.mode == "rademacher":
        return _snowflake_rademacher(spec)
    return _snowflake_plane(spec)


class RademacherPolyline:
    """Sequence of RademacherVector vertices backed by one coefficient
    matrix; vertices materialize on access, vectorized consumers read
    `matrix` directly."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def __len__(self):
        return len(self.matrix)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [RademacherVector(row) for row in self.matrix[i]]
        return RademacherVector(self.matrix[i])

    def __iter__(self):
        return (RademacherVector(row) for row in self.matrix)


def _snowflake_rademacher(spec: SnowflakeSpec):
    d = spec.depth
    denom = 2 * 3 ** max(d - 1, 0)
    ticks = {0, denom}
    for j in range(2, d + 1):
        # level-j bump intervals have length 3^(1-j), i.e. 2*3^(d-j) ticks
        step = 2 * 3 ** (d - j)
        m = np.arange(3 ** (j - 2), dtype=np.int64)
        left = (3 * m + 1) * step
        ticks.update(left.tolist())
        ticks.update((left + step // 2).tolist())
        ticks.update((left + step).tolist())
    ts = np.array(sorted(ticks), dtype=float) / denom
    coeffs = np.zeros((len(ts), d))
    coeffs[:, 0] = ts
    for j in range(2, d + 1):
        L = 3.0 ** (1 - j)
        u = (ts / L) % 3.0
        tent = np.where((u >= 1.0) & (u <= 2.0), L * np.minimum(u - 1.0, 2.0 - u), 0.0)
        coeffs[:, j - 1] = spec.etas[j - 2] * tent
    return RademacherPolyline(coeffs)


def _snowflake_plane(spec: SnowflakeSpec):
    verts = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
    for level in range(2, spec.depth + 1):
        eta = spec.etas[level - 2]
        out = [verts[0]]
        for a, b in zip(verts[:-1], verts[1:]):
            tang = b - a
            ell = float(np.linalg.norm(tang))
            normal = np.array([-tang[1], tang[0]]) / ell
            p1 = a + tang / 3.0
            apex = a + tang / 2.0 + normal * (eta * ell / 6.0)
            p2 = a + 2.0 * tang / 3.0
            out.extend([p1, apex, p2, b])
        verts = out
    return verts


def polyline_length(polyline, p: float) -> float:
    """Sum of consecutive-difference norms; Rademacher vertices use the
    exact L^p Rademacher norm, R^2 vertices the plane l^p norm."""
    if len(polyline) < 2:
        raise ValueError("need at least 2 vertices")
    if isinstance(polyline, RademacherPolyline):
        A = polyline.matrix
    elif isinstance(polyline[0], RademacherVector):
        A = np.stack([v.coefficients for v in polyline])
    else:
        space = NormedSpace(2, p)
        A = np.stack([np.asarray(v, dtype=float) for v in polyline])
        return float(space.norms(np.diff(A, axis=0)).sum())
    D = np.diff(A, axis=0)
    if p == math.inf:
        return float(np.abs(D).sum(axis=1).sum())
    if p == 2.0:
        return float(np.sqrt((D * D).sum(axis=1)).sum())
    return float(sum(rademacher_norm(d, p) for d in D))


def dirac_example(t: float) -> PointMeasure:
    """Unit atoms at 0, (+-1, 0), (0, +-t); the tilting counterexample."""
    if not (0 < t <= 0.1):
        raise ValueError("need 0 < t <= 1/10")
    return PointMeasure([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, t], [0.0, -t]],
                        np.ones(5))


# ---------------------------------------------------------------------------
# no-power-gain certificate in (R^3, l^4)
# ---------------------------------------------------------------------------

NPG_SPACE = NormedSpace(3, 4)
NPG_PLANE_SPAN = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])


def npg_reference_points() -> np.ndarray:
    """The six reference points 0, v1+v2, 2v1+3v2, 3v1+4v2, 2v1-v2, -v1+3v2
    over v1 = (1,1,0), v2 = (0,1,1)."""
    v1, v2 = NPG_PLANE_SPAN
    combos = [(0, 0), (1, 1), (2, 3), (3, 4), (2, -1), (-1, 3)]
    return np.array([a * v1 + b * v2 for a, b in combos])


def no_power_gain_matrix(points) -> tuple[float, np.ndarray]:
    """Assemble the 15 x 15 matrix with Y = M X for X = (f(x_1)..f(x_5)),
    f(x_0) = 0, and Y the pair values <J(x_i - x_j)/||x_i - x_j||,
    f(x_i) - f(x_j)>; returns (det M, M).

    Rows are indexed by pairs (i, j), i < j, in lexicographic order; the
    unit functionals J(d)/||d|| are 0-homogeneous in the points."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.shape != (6, 3):
        raise ValueError("expected six points in R^3")
    i, j = np.triu_indices(6, 1)
    same = np.isclose(P[i], P[j], atol=1e-14).all(axis=1)
    if same.any():
        raise ValueError(f"points {i[same][0]} and {j[same][0]} coincide")
    D = P[i] - P[j]
    U = NPG_SPACE.duality_map(D) / NPG_SPACE.norms(D)[:, None]
    M = np.zeros((15, 6, 3))     # row (i, j): +u in block i, -u in block j
    M[range(15), i] += U
    M[range(15), j] -= U
    M = M[:, 1:].reshape(15, 15)  # f(x_0) = 0 drops block 0
    return float(np.linalg.det(M)), M


def row_normalized_det(M: np.ndarray) -> float:
    norms = np.linalg.norm(M, axis=1)
    return float(np.linalg.det(M / norms[:, None]))


def no_power_gain_witness(direction, target, eps: float) -> tuple[tuple, float]:
    """The exact supremum over x != y in L of |<J(x-y), f(x)-f(y)>| / ||x-y||^2
    for the linear family f(x) = eps * <a, x>_E * w; returns ((0, d*), bound).

    a is scaled to dual norm 1 and w to norm 1, so Lip(f) <= eps.  The
    ratio depends only on the direction d = x - y: at p = 4 it is
    eps |<a, d>| |sum w_i d_i^3| / sum d_i^4, at most eps by Hoelder.  On
    d = u v1 + v2 the numerator N and the denominator Q are quartics in u,
    so the maximum lies at a real root of N'Q - NQ' or at d = v1 (u -> inf).
    Each candidate is scaled to ||d||_4 = 1, and d* is the first maximizer
    by ascending u, with v1 last; 0 and d* lie in L cap B_1."""
    a = np.asarray(direction, dtype=float)
    w = np.asarray(target, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(w).all() and a.any() and w.any()):
        raise ValueError("direction and target must be finite and nonzero")
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"need a finite eps >= 0, got {eps}")
    a = a / np.abs(a).max()             # so that the dual norm cannot overflow
    a, w = a / NPG_SPACE.dual_norm(a), w / NPG_SPACE.norm(w)
    # d_i = v1_i u + v2_i as coefficient rows; np.convolve keeps leading
    # zeros (np.polymul trims them), so the sums over i stay aligned.  The
    # pairings are sums of products, not matmuls: a fused multiply-add would
    # leave a rounding residue where <a, d> vanishes
    v1, v2 = NPG_PLANE_SPAN
    lin = NPG_PLANE_SPAN.T
    cubes = np.array([np.convolve(np.convolve(c, c), c) for c in lin])
    N = np.convolve((a[:, None] * lin).sum(axis=0), (w[:, None] * cubes).sum(axis=0))
    Q = np.array([np.convolve(q, c) for q, c in zip(cubes, lin)]).sum(axis=0)
    crit = np.convolve(np.polyder(N), Q) - np.convolve(N, np.polyder(Q))
    u = np.sort(np.roots(crit).real)
    D = np.vstack([u[:, None] * v1 + v2, v1])
    D /= NPG_SPACE.norms(D)[:, None]
    ratios = (np.abs((D * a).sum(axis=1)) * np.abs((D ** 3 * w).sum(axis=1))
              / (D ** 4).sum(axis=1))
    j = int(np.argmax(ratios))
    # ratios <= 1 but for rounding, so the bound cannot overflow
    return ((0.0, 0.0, 0.0), tuple(D[j])), eps * min(float(ratios[j]), 1.0)


def euclidean_normal(plane_span=NPG_PLANE_SPAN) -> np.ndarray:
    span = np.asarray(plane_span, dtype=float)
    _, _, vt = np.linalg.svd(span)
    n = vt[-1]
    return n / np.linalg.norm(n)
