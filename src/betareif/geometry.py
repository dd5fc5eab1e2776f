"""Affine planes in general position, distances, almost-projections, graphs.

Conventions: a k-plane is stored as a base point plus k basis row vectors;
k = 0 planes are single points.  All solvers are deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from .constants import DEFAULT_TAU, c3, norm_equivalence
from .spaces import Functional, NormedSpace

__all__ = [
    "AffinePlane", "AlmostProjection", "affine_plane",
    "general_position_margin", "riesz_basis", "distance_to_affine",
    "distances_to_affine", "grassmann_distance", "hausdorff_distance",
    "make_projection", "pythagorean_report", "graph_check", "sphere_net",
]

_NEWTON_CAP = 200
_GRAD_TOL = 1e-9


# ---------------------------------------------------------------------------
# planes and general position
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffinePlane:
    """Affine k-plane base + span(basis); basis rows in tau-general position."""

    base: np.ndarray
    basis: np.ndarray          # (k, n) rows; (0, n) for a point
    tau_margin: float

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def dim_ambient(self) -> int:
        return self.base.shape[0]

    def points(self, coeffs) -> np.ndarray:
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if self.k == 0:
            return np.repeat(self.base[None, :], len(coeffs), axis=0)
        return self.base[None, :] + coeffs @ self.basis

    def to_fragment(self) -> dict:
        return {"base": self.base.tolist(), "basis": self.basis.tolist()}

    @classmethod
    def from_fragment(cls, space: NormedSpace, d: dict) -> "AffinePlane":
        return affine_plane(space, d["base"], d["basis"])


def affine_plane(space: NormedSpace, base, basis) -> AffinePlane:
    base = np.asarray(base, dtype=float)
    basis = np.asarray(basis, dtype=float).reshape(-1, space.dim)
    if basis.shape[0] == 0:
        return AffinePlane(base, basis, 1.0)
    margin = general_position_margin(list(basis), space)
    if margin <= 0.0:
        raise ValueError("basis vectors are linearly dependent")
    return AffinePlane(base, basis, margin)


def _euclid_orthonormal(rows: np.ndarray) -> np.ndarray:
    """Euclidean-orthonormal row basis of span(rows), deterministic signs."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int((s > s[0] * 1e-12).sum()) if len(s) else 0
    q = vt[:rank]
    for i in range(rank):           # sign fix: largest-magnitude entry positive
        j = int(np.argmax(np.abs(q[i])))
        if q[i, j] < 0:
            q[i] = -q[i]
    return q


def general_position_margin(vectors, space: NormedSpace) -> float:
    """Largest tau with all ||v_i|| in [tau, 1/tau] and each successive
    distance-to-span >= tau; 0 for a dependent family."""
    if len(vectors) == 0:
        raise ValueError("empty vector list")
    V = np.asarray(vectors, dtype=float).reshape(len(vectors), space.dim)
    margin = math.inf
    for v in V:
        nv = space.norm(v)
        if nv == 0.0:
            return 0.0
        margin = min(margin, nv, 1.0 / nv)
    for i in range(1, len(V)):
        prev = V[:i]
        if np.linalg.matrix_rank(np.vstack([prev, V[i]]), tol=1e-12) <= np.linalg.matrix_rank(prev, tol=1e-12):
            return 0.0
        d, _ = _dist_to_flat(space, np.zeros(space.dim), prev, V[i])
        margin = min(margin, d)
    return float(margin)


def riesz_basis(space: NormedSpace, spanning_set, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Unit vectors in tau-general position spanning span(spanning_set),
    chosen greedily: each new vector maximizes its distance to the span of
    the previous ones (the Riesz-lemma step).  Returns (k, n) rows."""
    if tau >= 1.0:
        raise ValueError("tau must be < 1")
    S = np.asarray(spanning_set, dtype=float).reshape(-1, space.dim)
    Q = _euclid_orthonormal(S)
    k = Q.shape[0]
    if k == 0:
        raise ValueError("spanning set is degenerate")
    if space.is_hilbert:
        out = Q / space.norms(Q)[:, None]
        return out
    first = Q[0] / space.norm(Q[0])
    chosen = [first]
    while len(chosen) < k:
        prev = np.asarray(chosen)
        U = _coefficient_directions(k, 4096)
        W = U @ Q
        nw = space.norms(W)
        W = W[nw > 1e-12] / nw[nw > 1e-12, None]
        d, _ = _dists_to_flat_batch(space, np.zeros(space.dim), prev, W)
        i = int(np.argmax(d))
        if d[i] < tau:
            raise ValueError(f"requested tau={tau} unattainable (best {d[i]:.3f})")
        chosen.append(W[i])
    return np.asarray(chosen)


def _coefficient_directions(k: int, count: int) -> np.ndarray:
    """Deterministic unit directions in R^k: axes, diagonals, and a seeded
    low-discrepancy fill."""
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        ang = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(12345)
    U = rng.standard_normal((count, k))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    axes = np.vstack([np.eye(k), -np.eye(k)])
    return np.vstack([axes, U])


# ---------------------------------------------------------------------------
# distance to affine flats
# ---------------------------------------------------------------------------

def _dist_to_flat(space, base, rows, z):
    """min over lambda of ||z - base - lambda @ rows||, plus the foot.

    Scalar path: for p in {1, inf} below codimension 1 this takes the LP
    route with the least-l2 tie-break."""
    z = np.asarray(z, dtype=float)
    base = np.asarray(base, dtype=float)
    rows = np.asarray(rows, dtype=float).reshape(-1, space.dim)
    k, n = rows.shape
    if (space.p == 1.0 or space.p == math.inf) and 0 < k < n - 1:
        lam = _dist_lp_linprog(space, rows.T, z - base)
        foot = base + lam @ rows
        return space.norm(z - foot), foot
    d, feet = _dists_to_flat_batch(space, base, rows, z[None, :])
    return float(d[0]), feet[0]


def _dists_to_flat_batch(space, base, rows, Z):
    """Batched distance from the rows of Z to the flat base + span(rows)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    base = np.asarray(base, dtype=float)
    rows = np.asarray(rows, dtype=float).reshape(-1, space.dim)
    k, n = rows.shape
    W = Z - base[None, :]
    if k == 0:
        return space.norms(W), np.repeat(base[None, :], len(Z), axis=0)
    p = space.p
    if k == n - 1 and p != 2.0:
        d, feet = _dists_hyperplane(space, base[None, :], rows[None, :, :], Z)
        return d[0], feet[0]
    M = rows.T                                   # (n, k)
    # Euclidean solution is exact for p = 2 and the Newton start otherwise.
    G = rows @ rows.T
    lam = np.linalg.solve(G, rows @ W.T).T       # (m, k)
    if p == 2.0:
        feet = base[None, :] + lam @ rows
        return space.norms(Z - feet), feet
    if p == 1.0 or p == math.inf:
        if k == 1:
            return _dists_line_golden(space, base, rows, Z)
        out_d = np.empty(len(Z))
        out_f = np.empty_like(Z)
        for i, w in enumerate(W):
            lam_i = _dist_lp_linprog(space, M, w)
            foot = base + M @ lam_i
            out_d[i] = space.norm(Z[i] - foot)
            out_f[i] = foot
        return out_d, out_f
    lam = _dist_newton_batch(space, M, W, lam)
    feet = base[None, :] + lam @ rows
    return space.norms(Z - feet), feet


def _dists_line_golden(space, base, rows, Z):
    """Batched golden-section for distance to a line when the norm is not
    smooth (p in {1, inf}); the objective is convex in the parameter."""
    v = rows[0]
    W = Z - base[None, :]
    nv2 = float(v @ v)
    lam0 = W @ v / nv2
    span = space.norms(W) / max(space.norm(v), 1e-300) + 1.0
    a = lam0 - span
    b = lam0 + span
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = space.norms(W - c[:, None] * v[None, :])
    fd = space.norms(W - d[:, None] * v[None, :])
    for _ in range(90):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc = space.norms(W - c[:, None] * v[None, :])
        fd = space.norms(W - d[:, None] * v[None, :])
    lam = (a + b) / 2.0
    feet = base[None, :] + lam[:, None] * v[None, :]
    return space.norms(Z - feet), feet


def _dists_to_flats(space, bases, rows, Z):
    """`_dists_to_flat_batch` for a stack of flats bases[i] + span(rows[i]),
    bases (D, n) and rows (D, k, n): distances (D, m) and feet (D, m, n),
    each flat's the same to the bit as its own call."""
    k, n = rows.shape[1:]
    if k == n - 1 and space.p != 2.0:
        return _dists_hyperplane(space, bases, rows, Z)
    d, feet = zip(*(_dists_to_flat_batch(space, b, B, Z) for b, B in zip(bases, rows)))
    return np.array(d), np.array(feet)


def _dists_hyperplane(space, bases, rows, Z):
    """Codimension-1 fast path for a stack of hyperplanes bases[i] +
    span(rows[i]), bases (D, n) and rows (D, n - 1, n): d(z, H) =
    |<a, z-base>| / ||a||_q for the Euclidean normal a, with the
    dual-extremal foot (least-l2 tie-break for p in {1, inf}).  Returns
    distances (D, m) and feet (D, m, n).  Every operation acts on one plane
    at a time, so each plane's values are those of a stack of one."""
    # normal = null space of the row span
    u, s, vt = np.linalg.svd(rows)
    a = vt[:, -1]                                       # (D, n)
    s_val = ((Z[None, :, :] - bases[:, None, :]) @ a[:, :, None])[:, :, 0]
    A = np.abs(a)
    q = space.q
    if q == math.inf:           # p = 1: move along max-|a| coordinates, split ties
        dq = A.max(axis=1)
        ties = A >= dq[:, None] * (1 - 1e-12)
        w = np.where(ties, np.sign(a) / (ties.sum(axis=1) * dq)[:, None], 0.0)
    elif q == 1.0:              # p = inf: move every supported coordinate
        dq = A.sum(axis=1)
        w = np.sign(a) / dq[:, None]
    else:
        # the root per element, as `space.dual_norm` takes it (an array
        # power can differ from it by an ulp)
        dq = np.array([t ** (1.0 / q) for t in (A ** q).sum(axis=1)])
        w = np.sign(a) * A ** (q - 1.0)
        w = w / np.maximum(space.norms(w), 1e-300)[:, None]  # Hoelder-extremal unit direction
    aw = (a[:, None, :] @ w[:, :, None])[:, 0, 0]  # rescale so the foot lands exactly on the plane
    feet = Z[None, :, :] - (s_val / aw[:, None])[:, :, None] * w[:, None, :]
    return np.abs(s_val) / dq[:, None], feet


def _dist_lp_linprog(space, M, w):
    """Epigraph LP for min ||w - M lam||_p, p in {1, inf}, least-l2 tie-break."""
    n, k = M.shape
    p = space.p
    if p == 1.0:
        # variables (lam, s_1..s_n): min sum s, -s <= w - M lam <= s
        c = np.concatenate([np.zeros(k), np.ones(n)])
        A = np.block([[-M, -np.eye(n)], [M, -np.eye(n)]])
        b = np.concatenate([-w, w])
        res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * (k + n), method="highs")
        dstar = res.fun
    else:
        # variables (lam, s): min s, -s1 <= w - M lam <= s1
        c = np.concatenate([np.zeros(k), [1.0]])
        ones = np.ones((n, 1))
        A = np.block([[-M, -ones], [M, -ones]])
        b = np.concatenate([-w, w])
        res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * (k + 1), method="highs")
        dstar = res.fun
    lam0 = res.x[:k]
    # least-l2 foot among minimizers: min ||w - M lam||_2^2 s.t. |r_i| <= d*
    tol = dstar + 1e-10 + 1e-9 * abs(dstar)
    cons = [
        {"type": "ineq", "fun": lambda lam, i=i: tol - (w[i] - M[i] @ lam)} for i in range(n)
    ] + [
        {"type": "ineq", "fun": lambda lam, i=i: tol + (w[i] - M[i] @ lam)} for i in range(n)
    ]
    r2 = minimize(lambda lam: np.sum((w - M @ lam) ** 2), lam0, method="SLSQP",
                  constraints=cons, options={"maxiter": 200, "ftol": 1e-14})
    return r2.x if r2.success else lam0


def _dist_newton_batch(space, M, W, lam, tol: float = _GRAD_TOL):
    """Damped Newton on f(lam) = sum |w - M lam|^p, batched over rows of W.

    Convex for p > 1; terminates when the gradient of the distance falls
    below tol*(1 + ||w||) per sample or at the iteration cap."""
    p = space.p
    m = len(W)
    R = W - lam @ M.T
    scale = 1.0 + space.norms(W)
    active = np.ones(m, dtype=bool)
    for _ in range(_NEWTON_CAP):
        if not active.any():
            break
        Ra = R[active]
        S = np.sign(Ra) * np.abs(Ra) ** (p - 1.0)
        G = -S @ M                                     # (ma, k)
        nr = space.norms(Ra)
        on_flat = nr <= 1e-12 * scale[active]
        grad_d = G / np.maximum(nr, 1e-30)[:, None] ** (p - 1.0)
        done = on_flat | (np.linalg.norm(grad_d, axis=1) <= tol * scale[active])
        idx = np.where(active)[0]
        active[idx[done]] = False
        still = idx[~done]
        if len(still) == 0:
            break
        Rs = R[still]
        h = (p - 1.0) * np.abs(np.clip(np.abs(Rs), 1e-14, None)) ** (p - 2.0)
        H = np.einsum("mi,ij,ik->mjk", h, M, M)
        H += 1e-14 * np.eye(M.shape[1])[None, :, :]
        g = -(np.sign(Rs) * np.abs(Rs) ** (p - 1.0)) @ M
        try:
            step = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = -g
        f0 = (np.abs(Rs) ** p).sum(axis=1)
        t = np.ones(len(still))
        lam_new = lam[still] + step
        for _bt in range(40):
            Rn = W[still] - lam_new @ M.T
            fn = (np.abs(Rn) ** p).sum(axis=1)
            bad = fn > f0 - 1e-18
            if not bad.any():
                break
            t[bad] *= 0.5
            lam_new[bad] = lam[still][bad] + t[bad, None] * step[bad]
            if t.min() < 1e-12:
                break
        Rn = W[still] - lam_new @ M.T
        fn = (np.abs(Rn) ** p).sum(axis=1)
        stalled = (f0 - fn) <= 1e-14 * f0   # descent below float resolution
        take = fn <= f0
        lam[still[take]] = lam_new[take]
        R[still[take]] = Rn[take]
        active[still[stalled]] = False
    if active.any():
        warnings.warn("distance solver hit the iteration cap; returning best iterate",
                      RuntimeWarning, stacklevel=2)
    return lam


def distance_to_affine(space: NormedSpace, plane: AffinePlane, z) -> tuple[float, np.ndarray]:
    """Distance from z to the affine plane and a minimizing foot point.

    Closed form for p = 2 and for hyperplanes; damped Newton from the l^2
    foot for 1 < p < inf; an epigraph LP for p in {1, inf} with the
    least-l2 tie-break among minimizers."""
    d, foot = _dist_to_flat(space, plane.base, plane.basis, np.asarray(z, dtype=float))
    return d, foot


def distances_to_affine(space: NormedSpace, plane: AffinePlane, Z) -> np.ndarray:
    d, _ = _dists_to_flat_batch(space, plane.base, plane.basis, Z)
    return d


# ---------------------------------------------------------------------------
# Hausdorff and Grassmannian distances
# ---------------------------------------------------------------------------

def hausdorff_distance(space: NormedSpace, A, B) -> float:
    """max(sup_a d(a,B), sup_b d(b,A)) for finite point sets, by the
    definitional double loop (vectorized)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty point set")
    D = space.norms(A[:, None, :] - B[None, :, :])
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def sphere_net(space: NormedSpace, basis: np.ndarray, count: int = 4096) -> np.ndarray:
    """Deterministic net on the unit sphere of span(basis) (space norm)."""
    k = basis.shape[0]
    U = _coefficient_directions(k, count)
    V = U @ basis
    nv = space.norms(V)
    keep = nv > 1e-12
    return V[keep] / nv[keep, None]


def _dist_to_unit_ball_of(space, basis, v):
    """d(v, span(basis) cap closed unit ball), foot clamped radially."""
    d, foot = _dist_to_flat(space, np.zeros(space.dim), basis, v)
    nf = space.norm(foot)
    if nf <= 1.0 + 1e-12:
        return d
    return space.norm(v - foot / nf)


def grassmann_distance(space: NormedSpace, V: AffinePlane, W: AffinePlane,
                       samples: int = 4096) -> float:
    """Hausdorff distance between the unit balls of two linear subspaces.

    Exact principal-angle path in the Hilbert case; exact 1-D search for
    lines; deterministic boundary nets (clamped feet) otherwise."""
    if V.k != W.k:
        return 1.0
    if V.k == 0:
        return 0.0
    if space.is_hilbert:
        Qv = _euclid_orthonormal(V.basis)
        Qw = _euclid_orthonormal(W.basis)
        s = np.linalg.svd(Qv @ Qw.T, compute_uv=False)
        c = float(np.clip(s.min(), -1.0, 1.0))
        return math.sqrt(max(0.0, 1.0 - c * c))
    if V.k == 1:
        v = V.basis[0] / space.norm(V.basis[0])
        w = W.basis[0] / space.norm(W.basis[0])
        d1 = _golden_line_dist(space, v, w)
        d2 = _golden_line_dist(space, w, v)
        return max(d1, d2)
    best = 0.0
    for (P, Q) in ((V, W), (W, V)):
        U = sphere_net(space, P.basis, samples)
        d, feet = _dists_to_flat_batch(space, np.zeros(space.dim), Q.basis, U)
        nf = space.norms(feet)
        out = np.where(nf <= 1.0 + 1e-12, d,
                       space.norms(U - feet / np.maximum(nf, 1e-300)[:, None]))
        best = max(best, float(out.max()))
    return best


def _golden_line_dist(space, v, w):
    """max over +-v of min over s in [-1,1] of ||v - s w|| (convex in s)."""
    V = np.stack([v, -v])
    _a, _b, fc, fd = _golden_section(
        lambda s: space.norms(V - s[:, None] * w[None, :]), [-1.0, -1.0], [1.0, 1.0], 80)
    return float(np.minimum(fc, fd).max())


def _golden_section(f, a, b, iters: int):
    """Golden-section search on the brackets [a_i, b_i], one convex problem
    per row: f maps one point per row to the rows' values.  Each iteration
    evaluates f only at the fresh point of every row, so each row repeats
    the scalar recurrence bit for bit.  Returns the final brackets (a, b)
    and the values (fc, fd) at their two interior points."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc < fd          # the minimum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - gr * (b - a), a + gr * (b - a))
        fx = f(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    return a, b, fc, fd


# ---------------------------------------------------------------------------
# almost-projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlmostProjection:
    """Linear pi: X -> V with pi restricted to V the identity.

    pi(x) = sum_i <phi_i, x> w_i with w_i the rows of `target_basis` and
    phi_i the rows of `row_functionals`; `matrix` is the assembled n x n
    operator."""

    target_basis: np.ndarray       # (k, n)
    row_functionals: np.ndarray    # (k, n)
    kind: str                      # orthogonal | j_projection | hahn_banach | euclidean_fallback
    op_norm_estimate: float
    matrix: np.ndarray             # (n, n)

    def apply(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix.T

    def perp(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x - self.apply(x)

    def functionals(self, space: NormedSpace):
        return [Functional(phi, space.dual_norm(phi)) for phi in self.row_functionals]

    def report(self) -> dict:
        if len(self.target_basis):
            resid = float(np.abs(self.apply(self.target_basis) - self.target_basis).max())
        else:
            resid = 0.0
        return {"kind": self.kind, "op_norm_estimate": self.op_norm_estimate,
                "residuals": resid}


def _min_dual_norm_extension(space: NormedSpace, Wrows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """phi minimizing ||phi||_q subject to <phi, w_j> = target_j.

    This is the Hahn-Banach extension of the coordinate functional: the
    minimum dual norm over extensions equals the norm on the subspace."""
    q = space.q
    k, n = Wrows.shape
    phi0, *_ = np.linalg.lstsq(Wrows, target, rcond=None)
    if q == 2.0:
        return phi0
    if q == math.inf:
        # min max|phi_j| s.t. W phi = target
        c = np.concatenate([np.zeros(n), [1.0]])
        A_ub = np.block([[np.eye(n), -np.ones((n, 1))], [-np.eye(n), -np.ones((n, 1))]])
        b_ub = np.zeros(2 * n)
        A_eq = np.hstack([Wrows, np.zeros((k, 1))])
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=target,
                      bounds=[(None, None)] * n + [(0, None)], method="highs")
        return res.x[:n]
    if q == 1.0:
        # min sum|phi| via phi = u - v, u,v >= 0
        c = np.ones(2 * n)
        A_eq = np.hstack([Wrows, -Wrows])
        res = linprog(c, A_eq=A_eq, b_eq=target, bounds=[(0, None)] * 2 * n, method="highs")
        return res.x[:n] - res.x[n:]
    cons = [{"type": "eq", "fun": lambda phi, j=j: float(Wrows[j] @ phi - target[j]),
             "jac": lambda phi, j=j: Wrows[j]} for j in range(k)]
    obj = lambda phi: float((np.abs(phi) ** q).sum())
    jac = lambda phi: q * np.sign(phi) * np.abs(phi) ** (q - 1.0)
    res = minimize(obj, phi0, jac=jac, method="SLSQP", constraints=cons,
                   options={"maxiter": 500, "ftol": 1e-16})
    return res.x if res.success else phi0


def make_projection(space: NormedSpace, V: AffinePlane, kind: str) -> AlmostProjection:
    """Build an almost-projection onto the linear part of V.

    orthogonal        Hilbert orthogonal projector (p = 2 only).
    j_projection      <J(v), x> v for the unit spanning vector (k = 1,
                      1 < p < inf); operator norm exactly 1.
    hahn_banach       coordinate functionals over a 2/3-general-position
                      unit basis, each extended with minimal dual norm.
    euclidean_fallback  Euclidean projector under any p, with an empirical
                      operator-norm estimate.
    """
    n = space.dim
    basis = V.basis
    k = basis.shape[0]
    if k == 0:
        Z = np.zeros((0, n))
        return AlmostProjection(Z, Z, kind, 0.0, np.zeros((n, n)))
    if kind == "orthogonal":
        if not space.is_hilbert:
            raise ValueError("orthogonal projection requires p = 2")
        Q = _euclid_orthonormal(basis)
        return AlmostProjection(Q, Q, kind, 1.0, Q.T @ Q)
    if kind == "j_projection":
        if k != 1:
            raise ValueError("j_projection requires a 1-dimensional target")
        if not (1.0 < space.p < math.inf):
            raise ValueError("j_projection requires 1 < p < inf")
        v = basis[0] / space.norm(basis[0])
        phi = space.duality_map(v).coefficients
        return AlmostProjection(v[None, :], phi[None, :], kind, 1.0, np.outer(v, phi))
    if kind == "euclidean_fallback":
        Q = _euclid_orthonormal(basis)
        P = Q.T @ Q
        emp = _empirical_op_norm(space, P)
        est = min(norm_equivalence(n, space.p), max(emp, 1.0))
        return AlmostProjection(Q, Q, kind, float(max(est, emp)), P)
    if kind == "hahn_banach":
        Wrows = riesz_basis(space, basis, DEFAULT_TAU)
        Phi = np.empty_like(Wrows)
        for i in range(k):
            Phi[i] = _min_dual_norm_extension(space, Wrows, np.eye(k)[i])
        P = Wrows.T @ Phi
        bound = float(sum(space.dual_norm(Phi[i]) for i in range(k)))
        emp = _empirical_op_norm(space, P)
        return AlmostProjection(Wrows, Phi, kind, float(max(bound, emp)), P)
    raise ValueError(f"unknown projection kind {kind!r}")


def _empirical_op_norm(space, P, count: int = 2048) -> float:
    n = space.dim
    dirs = [np.eye(n), -np.eye(n)]
    rng = np.random.default_rng(0)
    dirs.append(rng.standard_normal((count, n)))
    U = np.vstack(dirs)
    nu = space.norms(U)
    U = U[nu > 1e-12] / nu[nu > 1e-12, None]
    return float((space.norms(U @ P.T)).max())


# ---------------------------------------------------------------------------
# Pythagorean reports and graphs
# ---------------------------------------------------------------------------

@dataclass
class PythagoreanReport:
    samples: int
    max_ratio_general: float      # lhs/rhs of the pairing-form inequality
    max_ratio_improved: float     # lhs/rhs of the orthogonal/J form (nan if n/a)
    max_hilbert_slack: float      # |l2 Pythagoras defect|, orthogonal kind only
    violations: int
    skipped_pairing: bool         # True when p = inf (no duality map)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def pythagorean_report(space: NormedSpace, proj: AlmostProjection,
                       samples: int = 10000, seed: int = 0) -> PythagoreanReport:
    """Check |  ||x||^2 - ||pi x||^2  | <= 2|<J pi x, perp x>| + 8 c3^2 ||x||^2 rho(||perp x||/||x||)
    on seeded samples, with c3 = proj.op_norm_estimate, and the improved
    form without the pairing term for orthogonal/J kinds."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, space.dim)) * np.exp(rng.uniform(-2, 2, size=(samples, 1)))
    nx = space.norms(X)
    X = X[nx > 1e-9]
    c = proj.op_norm_estimate
    PX = proj.apply(X)
    QX = X - PX
    n_x = space.norms(X)
    n_px = space.norms(PX)
    n_qx = space.norms(QX)
    lhs = np.abs(n_x**2 - n_px**2)
    rho = np.array([space.modulus_smoothness_bound(min(t, 1e6)) for t in n_qx / n_x])
    tol = 1.0 + 1e-9
    viol = 0
    skipped = space.p == math.inf
    if skipped:
        max_general = float("nan")
    else:
        Jpx = _duality_rows(space, PX)
        pairing = np.abs((Jpx * QX).sum(axis=1))
        rhs = 2.0 * pairing + 8.0 * c * c * n_x**2 * rho
        general = np.where(rhs > 0, lhs / np.maximum(rhs, 1e-300), np.where(lhs > 0, np.inf, 0.0))
        max_general = float(general.max()) if len(general) else 0.0
        viol += int((general > tol).sum())
    if proj.kind in ("orthogonal", "j_projection"):
        rhs2 = 8.0 * n_x**2 * rho
        improved = np.where(rhs2 > 0, lhs / np.maximum(rhs2, 1e-300), np.where(lhs > 0, np.inf, 0.0))
        max_improved = float(improved.max()) if len(improved) else 0.0
        viol += int((improved > tol).sum())
    else:
        max_improved = float("nan")
    if proj.kind == "orthogonal":
        slack = float(np.abs(n_x**2 - n_px**2 - n_qx**2).max())
    else:
        slack = float("nan")
    return PythagoreanReport(len(X), max_general, max_improved, slack, viol, skipped)


def _duality_rows(space: NormedSpace, X: np.ndarray) -> np.ndarray:
    """Row-wise duality map (vectorized J)."""
    p = space.p
    nx = space.norms(X)
    safe = np.maximum(nx, 1e-300)
    if p == 2.0:
        return X
    if p == 1.0:
        return nx[:, None] * np.sign(X)
    return (safe ** (2.0 - p))[:, None] * np.sign(X) * np.abs(X) ** (p - 1.0)


def graph_check(space: NormedSpace, points, plane: AffinePlane,
                proj: AlmostProjection) -> tuple[bool, float, float]:
    """Decompose each point as foot + height over (plane, proj) and report
    (is_graph, sup ||height||, empirical Lipschitz constant of the height).

    is_graph is False when two points share a foot (within 1e-9) with
    different heights.  pi(height) vanishes by idempotence; the residual is
    checked to 1e-8."""
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    rel = Z - plane.base[None, :]
    feet_off = proj.apply(rel)
    heights = rel - feet_off
    resid = space.norms(proj.apply(heights))
    scale = 1.0 + space.norms(Z).max()
    if resid.size and resid.max() > 1e-8 * scale:
        warnings.warn("projection is not idempotent to tolerance", RuntimeWarning)
    sup_height = float(space.norms(heights).max()) if len(Z) else 0.0
    feet = plane.base[None, :] + feet_off
    is_graph = True
    lip = 0.0
    m = len(Z)
    if m > 1:
        df = space.norms(feet[:, None, :] - feet[None, :, :])
        dh = space.norms(heights[:, None, :] - heights[None, :, :])
        iu = np.triu_indices(m, k=1)
        df, dh = df[iu], dh[iu]
        stacked = (df <= 1e-9 * scale) & (dh > 1e-9 * scale)
        if stacked.any():
            is_graph = False
        ok = df > 1e-12 * scale
        if ok.any():
            lip = float((dh[ok] / df[ok]).max())
    return is_graph, sup_height, lip
