"""Worked-example generators: l^p plane curves, Rademacher snowflakes, the
5-Dirac measure, and the (R^3, l^4) no-power-gain certificate."""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .measures import PointMeasure, _distance_blocks
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
    for i in range(6):
        for j in range(i + 1, 6):
            if np.allclose(P[i], P[j], atol=1e-14):
                raise ValueError(f"points {i} and {j} coincide")
    M = np.zeros((15, 15))
    row = 0
    for i in range(6):
        for j in range(i + 1, 6):
            d = P[i] - P[j]
            u = NPG_SPACE.duality_map(d).coefficients / NPG_SPACE.norm(d)
            if i > 0:
                M[row, 3 * (i - 1): 3 * i] += u
            M[row, 3 * (j - 1): 3 * j] -= u
            row += 1
    return float(np.linalg.det(M)), M


def row_normalized_det(M: np.ndarray) -> float:
    norms = np.linalg.norm(M, axis=1)
    return float(np.linalg.det(M / norms[:, None]))


def no_power_gain_witness(f_samples) -> tuple[tuple, float]:
    """Scan sampled pairs for the maximizer of
    |<J(x-y), f(x)-f(y)>| / ||x-y||^2 and return ((x, y), bound).

    f_samples maps grid points of L cap B_1 (tuples) to R^3 values.  The
    pairs are scanned in row blocks (`measures._distance_blocks`), so the
    tables stay within the block budget for any sample count; the pair
    is the first maximizer in row-major order, as one argmax over the whole
    pair table gives it."""
    items = list(f_samples.items())
    if len(items) < 2:
        raise ValueError("need at least two samples")
    X = np.array([np.asarray(k, dtype=float) for k, _ in items])
    F = np.array([np.asarray(v, dtype=float) for _, v in items])
    m = len(X)
    p = 4.0
    seps, flats, tops = [], [], []      # per block
    for rows, sep in _distance_blocks(NPG_SPACE, X, X):
        seps.append(sep.max())      # the table is symmetric with a zero diagonal
        D = X[rows, None, :] - X[None, :, :]
        DF = F[rows, None, :] - F[None, :, :]
        # <J(d), df> / ||d||^2 = sum sign(d)|d|^(p-1) df / ||d||^p
        num = np.abs((np.sign(D) * np.abs(D) ** (p - 1.0) * DF).sum(axis=-1))
        vals = num / np.maximum(sep, 1e-75) ** p
        vals[sep <= 1e-12] = -1.0
        j = int(np.argmax(vals))
        flats.append(rows.start * m + j)
        tops.append(vals.flat[j])
    if np.max(seps) < 1e-6:
        raise ValueError("sample set too sparse: all separations below 1e-6")
    b = int(np.argmax(tops))
    i, j = divmod(flats[b], m)
    return (tuple(X[i]), tuple(X[j])), float(tops[b])


def linear_graph_samples(direction, target, eps: float, step: float = 0.05) -> dict:
    """Adversarial family: f(x) = eps * <a, x>_E * w on a grid of L cap B_1,
    with a a dual-unit functional on the plane and w a unit target vector;
    Lip(f) is eps up to the duality normalization."""
    a = np.asarray(direction, dtype=float)
    a = a / NPG_SPACE.dual_norm(a)
    w = np.asarray(target, dtype=float)
    w = w / NPG_SPACE.norm(w)
    v1, v2 = NPG_PLANE_SPAN
    out = {}
    grid = np.arange(-1.0, 1.0 + step / 2, step)
    for s in grid:
        for t in grid:
            x = s * v1 + t * v2
            if NPG_SPACE.norm(x) <= 1.0:
                out[tuple(x)] = eps * float(a @ x) * w
    return out


def euclidean_normal(plane_span=NPG_PLANE_SPAN) -> np.ndarray:
    span = np.asarray(plane_span, dtype=float)
    _, _, vt = np.linalg.svd(span)
    n = vt[-1]
    return n / np.linalg.norm(n)
