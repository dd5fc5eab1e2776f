"""Affine planes in general position, distances, almost-projections, graphs.

Conventions: a k-plane is stored as a base point plus k basis row vectors;
k = 0 planes are single points.  All solvers are deterministic.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_TAU
from .spaces import NormedSpace

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
    """Affine k-plane base + span(basis) with linearly independent basis
    rows; `affine_plane` checks a basis that comes from outside."""

    base: np.ndarray
    basis: np.ndarray          # (k, n) rows; (0, n) for a point

    @property
    def k(self) -> int:
        return self.basis.shape[0]

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
    """The plane base + span(basis), for a basis from outside the engine:
    raises ValueError when its rows are linearly dependent or zero."""
    base = np.asarray(base, dtype=float)
    basis = np.asarray(basis, dtype=float).reshape(-1, space.dim)
    if basis.shape[0] and general_position_margin(list(basis), space) <= 0.0:
        raise ValueError("basis vectors are linearly dependent")
    return AffinePlane(base, basis)


def _euclid_orthonormal(rows: np.ndarray) -> np.ndarray:
    """Euclidean-orthonormal row basis of span(rows), deterministic signs."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int((s > s[0] * 1e-12).sum()) if len(s) else 0
    return _lead_positive(vt[:rank])


def _lead_positive(rows: np.ndarray) -> np.ndarray:
    """rows with each row's sign flipped, in place, so that its first
    largest-magnitude entry is positive: a deterministic sign per row."""
    for row in rows:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return rows


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
        d, _ = _dists_to_flat_batch(space, np.zeros(space.dim), prev, V[i])
        margin = min(margin, float(d[0]))
    return float(margin)


def riesz_basis(space: NormedSpace, spanning_set, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Unit vectors in tau-general position spanning span(spanning_set),
    chosen greedily: each new vector is the first row of a `sphere_net` of
    the span farthest from the span of the previous ones (the Riesz-lemma
    step, `_farthest_row`).  Returns (k, n) rows."""
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
    W = sphere_net(space, Q)
    while len(chosen) < k:
        i, d = _farthest_row(space, np.asarray(chosen), W)
        if d < tau:
            raise ValueError(f"requested tau={tau} unattainable (best {d:.3f})")
        chosen.append(W[i])
    return np.asarray(chosen)


_PRUNE_HEAD = 32
_PRUNE_MARGIN = 1e-9


def _farthest_row(space, rows, W):
    """First index of the row of W farthest from span(rows), and its
    distance: the argmax of one `_dists_to_flat_batch` call over W.

    On a Newton line (k = 1, n >= 3, 1 < p < inf, p != 2) a row's distance
    is at most its l^2-foot residual, the start of a search that accepts no
    step raising the objective.  Newton runs first on the _PRUNE_HEAD rows
    of largest bound; a row whose bound is below their largest distance
    times (1 - _PRUNE_MARGIN) can neither beat nor tie it, so Newton then
    runs on the head and the rows whose bound reaches it, never on one row
    alone (see `_dist_newton_batch`).  Every other branch takes the full
    call: the closed forms and the vertex minimum of a line cost no more
    than the bound, and for k >= 2 Newton and the vertex minimum form
    products that can differ by an ulp on a subset."""
    origin = np.zeros(space.dim)
    k, n = rows.shape
    if k != 1 or space.p == 2.0 or _stacked_solver(space, k, n) is not None:
        d, _ = _dists_to_flat_batch(space, origin, rows, W)
    else:
        bound = space.norms(W - _l2_coefficients(rows, W) @ rows)
        head = np.argsort(-bound, kind="stable")[:_PRUNE_HEAD]
        d_head, _ = _dists_to_flat_batch(space, origin, rows, W[head])
        keep = bound >= d_head.max() * (1.0 - _PRUNE_MARGIN)
        keep[head] = True
        d = np.full(len(W), -np.inf)
        d[keep], _ = _dists_to_flat_batch(space, origin, rows, W[keep])
    i = int(np.argmax(d))
    return i, float(d[i])


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

def _dists_to_flat_batch(space, base, rows, Z):
    """Batched distance from the rows of Z to the flat base + span(rows),
    and the feet: the one routing table of the solvers, keyed on (p, k, n)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    base = np.asarray(base, dtype=float)
    rows = np.asarray(rows, dtype=float).reshape(-1, space.dim)
    k, n = rows.shape
    W = Z - base[None, :]
    if k == 0:
        return space.norms(W), np.repeat(base[None, :], len(Z), axis=0)
    stacked = _stacked_solver(space, k, n)
    if stacked is not None:
        d, feet = stacked(space, base[None, :], rows[None, :, :], Z)
        return d[0], feet[0]
    # Euclidean solution is exact for p = 2 and the Newton start otherwise.
    lam = _l2_coefficients(rows, W)
    if space.p != 2.0:
        lam = _dist_newton_batch(space, rows.T, W, lam)
    feet = base[None, :] + lam @ rows
    return space.norms(Z - feet), feet


def _l2_coefficients(rows, W):
    """Coefficients (m, k) of the l^2 feet of the rows of W on span(rows)."""
    return np.linalg.solve(rows @ rows.T, rows @ W.T).T


def _stacked_solver(space, k, n):
    """The solver that takes a stack of flats for (p, k, n), or None."""
    if k == n - 1 and space.p != 2.0:
        return _dists_hyperplane
    if k >= 1 and space.p in (1.0, math.inf):
        return _dists_line_golden if k == 1 else _dist_lp_linprog
    return None


def _dists_to_flats(space, bases, rows, Z):
    """`_dists_to_flat_batch` for a stack of flats bases[i] + span(rows[i]),
    bases (D, n) and rows (D, k, n): distances (D, m) and feet (D, m, n),
    each flat's the same to the bit as its own call."""
    stacked = _stacked_solver(space, *rows.shape[1:])
    if stacked is not None:
        return stacked(space, bases, rows, Z)
    d, feet = zip(*(_dists_to_flat_batch(space, b, B, Z) for b, B in zip(bases, rows)))
    return np.array(d), np.array(feet)


def _dists_vertex(space, bases, rows, Z):
    """Exact distances (D, m) and feet (D, m, n) to the flats bases[i] +
    span(rows[i]), rows (D, k, n) with 1 <= k <= n - 2, for p in {1, inf}.

    lam -> ||w - M lam|| is convex and piecewise linear, so it is least at
    a vertex, where C M lam = C w for one of the `_vertex_systems` C:
    C(n, k) of them, plus C(n, k+1) 2^k at p = inf (966 at n = 8, k = 4).
    A line divides (a zero pivot gives 0); a singular plane system's
    pseudo-inverse still gives a point of the flat.  First least wins."""
    k, n = rows.shape[1:]
    W = Z[None, :, :] - bases[:, None, :]
    along = np.multiply if k == 1 else np.matmul    # a line's foot: one product, no sum
    best, lam = np.full(W.shape[:2], np.inf), np.zeros(W.shape[:2] + (k,))
    for C in _vertex_systems(n, k, space.p == math.inf):
        # entries of C are 0 and +-1, so these products round once, as w_i -+ w_j
        num, den = W @ C.T, rows @ C.T
        cand = (np.divide(num, den, out=np.zeros_like(num), where=den != 0.0) if k == 1
                else num @ np.linalg.pinv(den))
        f = space.norms(W - along(cand, rows))
        better = f < best
        best[better], lam[better] = f[better], cand[better]
    feet = bases[:, None, :] + along(lam, rows)
    return space.norms(Z[None, :, :] - feet), feet


def _vertex_systems(n, k, sup):
    """The k x n systems of `_dists_vertex`, one at a time: rows e_i over
    the k-subsets of coordinates, then at p = inf (`sup`) e_i0 - s_j e_ij
    over the (k+1)-subsets, for each s in {+-1}^k."""
    E = np.eye(n)
    for I in itertools.combinations(range(n), k):
        yield E[list(I)]
    for I in itertools.combinations(range(n), k + 1) if sup else ():
        for s in itertools.product([[1.0], [-1.0]], repeat=k):
            yield E[I[0]] - np.array(s) * E[list(I[1:])]


# the names perfbench keys its solver branches on (renaming them is a benchmark change)
_dists_line_golden = _dist_lp_linprog = _dists_vertex


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
    dq = space.dual_norms(a)
    if q == math.inf:           # p = 1: move along max-|a| coordinates, split ties
        ties = A >= dq[:, None] * (1 - 1e-12)
        w = np.where(ties, np.sign(a) / (ties.sum(axis=1) * dq)[:, None], 0.0)
    elif q == 1.0:              # p = inf: move every supported coordinate
        w = np.sign(a) / dq[:, None]
    else:
        w = np.sign(a) * A ** (q - 1.0)
        w = w / np.maximum(space.norms(w), 1e-300)[:, None]  # Hoelder-extremal unit direction
    aw = (a[:, None, :] @ w[:, :, None])[:, 0, 0]  # rescale so the foot lands exactly on the plane
    feet = Z[None, :, :] - (s_val / aw[:, None])[:, :, None] * w[:, None, :]
    return np.abs(s_val) / dq[:, None], feet


def _dist_newton_batch(space, M, W, lam):
    """Damped Newton on f(lam) = sum |w - M lam|^p, batched over rows of W.

    Convex for p > 1; terminates when the gradient of the distance falls
    below _GRAD_TOL*(1 + ||w||) per sample or at the iteration cap.

    The backtracking line search takes the power sum of a row only after
    its step moved, and keeps the value of every accepted row.  The
    residuals W - lam @ M.T are still formed for all the rows of the
    search at once: for k >= 2 a product over a subset of the rows can
    differ from the same rows of the full product by an ulp.  For k = 1
    the rows are solved independently (outer products, 1 x 1 solves with a
    pivot of at least 1e-14, and a backtrack whose one shared exit comes at
    its last halving), except in BLAS: a round with one active row takes
    the dot kernel for -S @ M, which can round differently from the
    matrix-vector kernel.  The pruned search of `_farthest_row` relies on
    this independence."""
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
        done = on_flat | (np.linalg.norm(grad_d, axis=1) <= _GRAD_TOL * scale[active])
        idx = np.where(active)[0]
        active[idx[done]] = False
        still = idx[~done]
        if len(still) == 0:
            break
        Rs = R[still]
        h = (p - 1.0) * np.abs(np.clip(np.abs(Rs), 1e-14, None)) ** (p - 2.0)
        H = np.einsum("mi,ij,ik->mjk", h, M, M)
        H += 1e-14 * np.eye(M.shape[1])[None, :, :]
        g = -S[~done] @ M      # not G[~done]: a product of other shape can round otherwise
        try:
            step = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = -g
        f0 = (np.abs(Rs) ** p).sum(axis=1)
        t = np.ones(len(still))
        Ws, lam_s = W[still], lam[still]
        lam_new = lam_s + step
        fn = np.empty(len(still))
        moved = np.ones(len(still), dtype=bool)     # not evaluated since its last move
        for _bt in range(40):
            Rn = Ws - lam_new @ M.T
            fn[moved] = (np.abs(Rn[moved]) ** p).sum(axis=1)
            # a trial at the row's own lam (f0 + an ulp) ends its backtrack, untaken
            bad = (fn > f0) & (lam_new != lam_s).any(axis=1)
            moved = bad
            if not bad.any():
                break
            t[bad] *= 0.5
            lam_new[bad] = lam_s[bad] + t[bad, None] * step[bad]
            if t.min() < 1e-12:
                break
        if moved.any():
            Rn = Ws - lam_new @ M.T
            fn[moved] = (np.abs(Rn[moved]) ** p).sum(axis=1)
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
    """Distance from z to the affine plane and a minimizing foot point:
    `distances_to_affine` of the one row z, to the bit.

    Closed form for points, for p = 2 and for hyperplanes; damped Newton
    from the l^2 foot for 1 < p < inf; for p in {1, inf} the exact minimum
    over the vertices of the piecewise linear objective (`_dists_vertex`)."""
    d, feet = _dists_to_flat_batch(space, plane.base, plane.basis, z)
    return float(d[0]), feet[0]


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


def grassmann_distance(space: NormedSpace, V: AffinePlane, W: AffinePlane,
                       samples: int = 4096) -> float:
    """Hausdorff distance between the unit balls of two linear subspaces.

    Exact principal-angle path in the Hilbert case; deterministic boundary
    nets (clamped feet) otherwise, exact for lines: the net is +-v, and the
    clamped foot minimizes the convex s -> ||v - s w|| on [-1, 1]."""
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
    best = 0.0
    for (P, Q) in ((V, W), (W, V)):
        U = sphere_net(space, P.basis, samples)
        d, feet = _dists_to_flat_batch(space, np.zeros(space.dim), Q.basis, U)
        nf = space.norms(feet)
        out = np.where(nf <= 1.0 + 1e-12, d,
                       space.norms(U - feet / np.maximum(nf, 1e-300)[:, None]))
        best = max(best, float(out.max()))
    return best


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
    kind: str                      # orthogonal | j_projection | hahn_banach
    op_norm_estimate: float
    matrix: np.ndarray             # (n, n)

    def apply(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix.T

    def perp(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x - self.apply(x)

    def report(self) -> dict:
        if len(self.target_basis):
            resid = float(np.abs(self.apply(self.target_basis) - self.target_basis).max())
        else:
            resid = 0.0
        return {"kind": self.kind, "op_norm_estimate": self.op_norm_estimate,
                "residuals": resid}


@functools.cache
def _slsqp_kernel():
    """scipy's SLSQP kernel module, `scipy.optimize._slsqplib`, loaded
    from its extension file without running `scipy.optimize`'s package
    init (about 0.4 s of imports, against 2 ms for the file alone).

    The file is looked up next to scipy's `__init__.py`, one extension
    suffix at a time; a missing file raises ImportError.  The module is
    taken out of `sys.modules` again (a single-phase extension enters
    itself there), so a later `import scipy.optimize` loads it as usual."""
    name = "scipy.optimize._slsqplib"
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError(f"cannot find {name}: scipy is not installed")
    stem = os.path.join(os.path.dirname(scipy_spec.origin), "optimize", "_slsqplib")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            break
    else:
        raise ImportError(f"cannot find {name}: no extension file {stem}.*")
    loaded = name in sys.modules
    spec = importlib.util.spec_from_file_location(name, stem + suffix)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not loaded:
        sys.modules.pop(name, None)
    return module


def _min_dual_norm_extension(space: NormedSpace, Wrows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """phi minimizing ||phi||_q subject to <phi, w_j> = target_j.

    This is the Hahn-Banach extension of the coordinate functional: the
    minimum dual norm over extensions equals the norm on the subspace.
    q = 2 is the least-squares solution phi0.  For q in {1, inf} it is, at
    k = 1, the least-l2 minimizer: a multiple of sign(w) on the
    coordinates within 1e-12 relative of max |w_i| at q = 1 (the tie rule
    of `_dists_hyperplane` at p = 1), and on the coordinates above
    1e-12 * max |w_i| at q = inf (`_dists_hyperplane` at p = inf keeps
    every nonzero one).  At k >= 2 it is phi0 less its l^q-nearest point
    of null(W).  Otherwise
    SLSQP runs from the least-squares phi0, driven here through its kernel
    (`scipy.optimize._slsqplib.slsqp`, loaded by `_slsqp_kernel`) by the
    loop of scipy's own `_minimize_slsqp` for this one problem: no bounds,
    the k equations and an analytic gradient, with maxiter 500 and ftol
    1e-16.  It skips the wrapper's per-evaluation checks and copies, so
    the iterates are the same bits as `minimize(..., method="SLSQP")`.  The constraint rows stay
    one `float(Wrows[j] @ phi - target[j])` each: `Wrows @ phi - target`
    rounds differently, and that changes the SLSQP path.  When SLSQP does
    not exit with mode 0, phi0 is returned."""
    q = space.q
    k, n = Wrows.shape
    phi0, *_ = np.linalg.lstsq(Wrows, target, rcond=None)
    if q == 2.0:
        return phi0
    if q in (1.0, math.inf):
        if k == 1:  # sign(w) on the max-|w| ties (q = 1) or the support (q = inf)
            w, A = Wrows[0], np.abs(Wrows[0])
            on = A >= A.max() * (1 - 1e-12) if q == 1.0 else A > A.max() * 1e-12
            u = np.where(on, np.sign(w), 0.0)
            return u * (target[0] / (u @ w))
        N = np.linalg.svd(Wrows)[2][k:]                  # null(W)
        _, foot = _dists_to_flat_batch(NormedSpace(n, q), np.zeros(n), N, phi0)
        return phi0 - foot[0]
    obj = lambda phi: float((np.abs(phi) ** q).sum())
    jac = lambda phi: q * np.sign(phi) * np.abs(phi) ** (q - 1.0)
    cons = lambda phi: [float(Wrows[j] @ phi - target[j]) for j in range(k)]
    state = {"acc": 1e-16, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
             "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 1e-15,
             "exact": 0, "inconsistent": 0, "reset": 0, "iter": 0, "itermax": 500,
             "line": 0, "m": k, "meq": k, "mode": 0, "n": n}
    # scipy's workspace for m = meq = k, with its top-up for no inequalities
    size = (n * (n + 1) // 2 + 3 * k * n - (k + 5 * n + 7) * k + 9 * k + 8 * n * n
            + 35 * n + k * k + 28 + 2 * n * (n + 1))
    buffer, mult = np.zeros(size), np.zeros(k + 2 * n + 2)
    indices = np.zeros(k + 2 * n + 2, dtype=np.int32)
    xl, xu = np.full(n, np.nan), np.full(n, np.nan)
    x = phi0.copy()
    fx, g, d = obj(x), jac(x), np.array(cons(x))
    C = np.array(Wrows, dtype=np.float64, order="F")
    slsqp = _slsqp_kernel().slsqp
    while True:
        slsqp(state, fx, g, C, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:
            fx = obj(x)
            d[:] = cons(x)
        elif mode == -1:
            g = jac(x)
            C[:] = Wrows
        else:
            break
    return x if mode == 0 else phi0


def make_projection(space: NormedSpace, V: AffinePlane, kind: str) -> AlmostProjection:
    """Build an almost-projection onto the linear part of V.

    orthogonal        Hilbert orthogonal projector (p = 2 only).
    j_projection      <J(v), x> v for the unit spanning vector (k = 1,
                      1 < p < inf); operator norm exactly 1.
    hahn_banach       coordinate functionals over a 2/3-general-position
                      unit basis, each extended with minimal dual norm.
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
        phi = space.duality_map(v)
        return AlmostProjection(v[None, :], phi[None, :], kind, 1.0, np.outer(v, phi))
    if kind == "hahn_banach":
        Wrows = riesz_basis(space, basis, DEFAULT_TAU)
        Phi = np.array([_min_dual_norm_extension(space, Wrows, e) for e in np.eye(k)])
        P = Wrows.T @ Phi
        # unit rows w_i: ||Px|| <= sum |<phi_i, x>| ||w_i|| <= sum ||phi_i||_q ||x||
        bound = float(space.dual_norms(Phi).sum())
        return AlmostProjection(Wrows, Phi, kind, bound, P)
    raise ValueError(f"unknown projection kind {kind!r}")


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


def pythagorean_report(space: NormedSpace, proj: AlmostProjection,
                       samples: int = 10000, seed: int = 0) -> PythagoreanReport:
    """Check |  ||x||^2 - ||pi x||^2  | <= 2|<J pi x, perp x>| + 8 c3^2 ||x||^2 rho(||perp x||/||x||)
    on seeded samples, with c3 = proj.op_norm_estimate, and the improved
    form without the pairing term for orthogonal/J kinds."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, space.dim)) * np.exp(rng.uniform(-2, 2, size=(samples, 1)))
    nx = space.norms(X)
    X, n_x = X[nx > 1e-9], nx[nx > 1e-9]
    c = proj.op_norm_estimate
    PX = proj.apply(X)
    QX = X - PX
    n_px = space.norms(PX)
    n_qx = space.norms(QX)
    lhs = np.abs(n_x**2 - n_px**2)
    rho = np.array([space.modulus_smoothness_bound(min(t, 1e6)) for t in n_qx / n_x])

    def worst(rhs):
        """(max of lhs / rhs, inf where rhs = 0 < lhs; count above 1 + 1e-9)"""
        ratio = np.where(rhs > 0, lhs / np.maximum(rhs, 1e-300), np.where(lhs > 0, np.inf, 0.0))
        return float(ratio.max()) if len(ratio) else 0.0, int((ratio > 1.0 + 1e-9).sum())

    skipped = space.p == math.inf
    none = (float("nan"), 0)
    general = none if skipped else worst(
        2.0 * np.abs((space.duality_map(PX) * QX).sum(axis=1)) + 8.0 * c * c * n_x**2 * rho)
    improved = worst(8.0 * n_x**2 * rho) if proj.kind in ("orthogonal", "j_projection") else none
    slack = float(np.abs(n_x**2 - n_px**2 - n_qx**2).max()) if proj.kind == "orthogonal" else float("nan")
    return PythagoreanReport(len(X), general[0], improved[0], slack, general[1] + improved[1], skipped)


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
