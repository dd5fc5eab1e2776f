"""Atomic measures, beta numbers, approximate best planes, Dini profiles.

Ball membership in the beta machinery is closed (||z - x|| <= r) so that
boundary atoms count; `restrict` alone keeps the open-ball contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import norm_equivalence
from .geometry import (AffinePlane, _dists_to_flat_batch, _dists_to_flats,
                       _golden_section, affine_plane, distances_to_affine)
from .spaces import NormedSpace

__all__ = [
    "PointMeasure", "BetaResult", "BetaInfResult", "DiniProfile",
    "restrict", "best_plane", "beta", "beta_inf", "dini_profile",
    "density_report",
]


@dataclass(frozen=True)
class PointMeasure:
    """Atomic measure: points with positive weights."""

    points: np.ndarray    # (m, n)
    weights: np.ndarray   # (m,)
    total_mass: float = field(init=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points/weights length mismatch")
        if len(w) and w.min() <= 0:
            raise ValueError("weights must be positive")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise ValueError("coordinates and weights must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total_mass", float(w.sum()))

    def __len__(self) -> int:
        return len(self.weights)

    def subset(self, mask) -> "PointMeasure":
        return PointMeasure(self.points[mask].reshape(-1, self.points.shape[1]),
                            self.weights[mask])

    def mass_in_ball(self, space: NormedSpace, center, r: float) -> float:
        """mu of the closed ball B_r(center)."""
        d = space.norms(self.points - np.asarray(center, dtype=float)[None, :])
        return float(self.weights[d <= r].sum())

    def to_json(self, space: NormedSpace) -> dict:
        return {"space": space.to_descriptor(),
                "atoms": [{"x": list(map(float, x)), "w": float(w)}
                          for x, w in zip(self.points, self.weights)]}

    @staticmethod
    def from_json(doc: dict) -> tuple[NormedSpace, "PointMeasure", np.ndarray]:
        """Returns (space, measure, r_s array); atoms may carry optional
        per-atom radii "r_s" (default 0)."""
        space = NormedSpace.from_descriptor(doc["space"])
        atoms = doc["atoms"]
        pts = np.array([a["x"] for a in atoms], dtype=float).reshape(-1, space.dim)
        w = np.array([a["w"] for a in atoms], dtype=float)
        rs = np.array([a.get("r_s", 0.0) for a in atoms], dtype=float)
        return space, PointMeasure(pts, w), rs


@dataclass
class BetaResult:
    beta: float
    plane: AffinePlane
    certified_factor: float
    objective: float          # achieved sum w * d^2 over the ball
    empty: bool = False

    @property
    def valid(self) -> bool:
        return self.certified_factor <= 2.0


@dataclass
class BetaInfResult:
    value: float
    plane: AffinePlane
    empty: bool = False


@dataclass
class DiniProfile:
    center: np.ndarray
    scales: np.ndarray
    betas: np.ndarray
    alpha: float
    chi: float
    dini_sum: float

    def rows(self):
        """(scale, beta, beta^alpha, cumulative) rows, coarse to fine."""
        out = []
        cum = 0.0
        log = math.log(1.0 / self.chi)
        for r, b in zip(self.scales, self.betas):
            cum += b**self.alpha * log
            out.append((float(r), float(b), float(b**self.alpha), cum))
        return out


def restrict(mu: PointMeasure, center, r: float, space: NormedSpace) -> PointMeasure:
    """mu restricted to the open ball B_r(center): atoms with ||z-c|| < r."""
    if r <= 0:
        raise ValueError("r must be positive")
    c = np.asarray(center, dtype=float)
    d = space.norms(mu.points - c[None, :])
    return mu.subset(d < r)


def _ball_atoms(space, mu, x, r):
    x = np.asarray(x, dtype=float)
    d = space.norms(mu.points - x[None, :])
    mask = d <= r
    return mu.points[mask], mu.weights[mask]


def _degenerate_plane(space: NormedSpace, x, k: int) -> AffinePlane:
    basis = np.eye(space.dim)[:k]
    return AffinePlane(np.asarray(x, dtype=float), basis, 1.0)


def _weighted_l2_plane(pts, w, k):
    """Exact weighted best plane under l^2: centroid + top-k eigenvectors of
    the weighted second-moment form.  Returns (base, basis, residual F)."""
    wn = w / w.sum()
    c = wn @ pts
    Z = pts - c[None, :]
    Mom = (Z * wn[:, None]).T @ Z * w.sum()
    vals, vecs = np.linalg.eigh(Mom)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    basis = vecs[:, :k].T.copy()
    for i in range(len(basis)):   # deterministic sign
        j = int(np.argmax(np.abs(basis[i])))
        if basis[i, j] < 0:
            basis[i] = -basis[i]
    resid = float(max(vals[k:].sum(), 0.0))
    return c, basis, resid


def _objective(space, base, basis, pts, w):
    d, _ = _dists_to_flat_batch(space, base, basis, pts)
    return float((w * d * d).sum())


def best_plane(space: NormedSpace, mu: PointMeasure, x, r: float, k: int,
               seed: int = 0, starts: int = 4, iters: int = 60) -> BetaResult:
    """2-approximate minimizer of F(p,V) = sum_{B_r(x)} w d(z, p+V)^2.

    Exact (weighted PCA) in the Hilbert case.  Otherwise: l^2 start, then
    envelope-gradient descent on (base, basis) with backtracking and
    seeded multi-start, the starts descending in lockstep; certified
    against the l^2 lower bound through the norm-equivalence constant."""
    if k >= space.dim:
        raise ValueError("k must be < dim")
    if r <= 0:
        raise ValueError("r must be positive")
    x = np.asarray(x, dtype=float)
    pts, w = _ball_atoms(space, mu, x, r)
    return _fit_seeds(space, pts, w, x, r, k, [seed], starts, iters)[0]


def _fit_seeds(space, pts, w, x, r, k, seeds, starts=4, iters=60):
    """best_plane's fit of the atoms (pts, w) of the ball B_r(x), one
    BetaResult per seed.  The l^2 start does not depend on the seed, so it
    descends once; the seeded starts of every seed descend with it in one
    lockstep `_descend`, and each seed keeps its best in best_plane's order."""
    if len(w) == 0:
        return [BetaResult(0.0, _degenerate_plane(space, x, k), 1.0, 0.0, empty=True)
                for _ in seeds]
    c2, basis2, resid2 = _weighted_l2_plane(pts, w, k)
    if space.is_hilbert:
        plane = AffinePlane(c2, basis2, 1.0)
        betaval = math.sqrt(max(resid2, 0.0) / r ** (k + 2))
        return [BetaResult(betaval, plane, 1.0, resid2) for _ in seeds]
    if resid2 <= 1e-24 * (1.0 + w.sum() * r * r):
        # the atoms fit a k-plane exactly; it is optimal under every norm
        F0 = _objective(space, c2, basis2, pts, w)
        plane = affine_plane(space, c2, basis2 / space.norms(basis2)[:, None])
        return [BetaResult(math.sqrt(max(F0, 0.0) / r ** (k + 2)), plane, 1.0, F0)
                for _ in seeds]

    F0 = _objective(space, c2, basis2, pts, w)
    # per seed, the candidates in best_plane's order: the l^2 plane, then
    # its starts' descents (start 0, the unrotated one, shared by all seeds)
    cands = [[(F0, c2, basis2)] for _ in seeds]
    if F0 > 1e-28 * (1 + w.sum()) and starts > 0:
        rows = [basis2]
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rows += [basis2 @ _rand_rotation(rng, space.dim).T for _s in range(1, starts)]
        B, V, F = _descend(space, np.repeat(c2[None, :], len(rows), axis=0), np.array(rows),
                           pts, w, iters)
        per = starts - 1
        for i, cand in enumerate(cands):
            cand += [(float(F[j]), B[j], V[j]) for j in [0, *range(1 + i * per, 1 + (i + 1) * per)]]
    lower = resid2 / norm_equivalence(space.dim, space.p) ** 2 if space.p > 2 else resid2
    lower = max(lower, 0.0)
    if space.p < 2.0:
        lower = resid2    # ||v||_p >= ||v||_2 termwise
    out = []
    for cand in cands:
        best_F, best_base, best_basis = cand[0]
        for F_j, base_j, basis_j in cand[1:]:
            if F_j < best_F:
                best_F, best_base, best_basis = F_j, base_j, basis_j
        factor = best_F / lower if lower > 1e-300 else 1.0
        basis_n = best_basis / space.norms(best_basis)[:, None]
        plane = affine_plane(space, best_base, basis_n)
        betaval = math.sqrt(max(best_F, 0.0) / r ** (k + 2))
        out.append(BetaResult(betaval, plane, float(max(factor, 1.0)), best_F))
    return out


def _rand_rotation(rng, n):
    A = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    return Q


def _descend(space, base, basis, pts, w, iters):
    """Envelope-gradient descent with backtracking from each start (base[i],
    basis[i]) of a stack, base (D, n) and basis (D, k, n), in lockstep.
    Every round, each live descent computes its gradient if it has none
    and then tests one backtracking trial; the trials' rank tests, distance
    tables and objectives are stacked.  Each descent takes the steps it
    would take alone.  Returns the final (base, basis, F) stacks."""
    base, basis = base.copy(), basis.copy()
    D, k, _n = basis.shape
    # (d, feet) always belong to the current (base, basis)
    d, feet = _dists_to_flats(space, base, basis, pts)
    F = (w * d * d).sum(axis=1)
    step = np.full(D, 0.5)
    t = np.zeros(D)
    gb, gB = np.zeros_like(base), np.zeros_like(basis)
    grads = np.zeros(D, dtype=int)     # gradients taken
    tries = np.zeros(D, dtype=int)     # backtracking trials since the last one
    live = np.ones(D, dtype=bool)
    fresh = np.ones(D, dtype=bool)     # needs a gradient
    p = space.p
    while True:
        for i in np.flatnonzero(live & fresh):
            if grads[i] == iters:
                live[i] = False
                continue
            grads[i] += 1
            R = pts - feet[i]
            nr = np.maximum(space.norms(R), 1e-30)
            if p == math.inf or p == 1.0:
                U = np.sign(R)      # subgradient direction of the norm
                if p == math.inf:
                    U = np.zeros_like(R)
                    idx = np.argmax(np.abs(R), axis=1)
                    U[np.arange(len(R)), idx] = np.sign(R[np.arange(len(R)), idx])
            else:
                U = np.sign(R) * np.abs(R) ** (p - 1.0) / nr[:, None] ** (p - 1.0)
            # envelope gradient of sum w d^2 wrt base and basis rows
            gb[i] = -2.0 * (w * d[i]) @ U
            lam = np.linalg.lstsq(basis[i].T, (feet[i] - base[i][None, :]).T, rcond=None)[0].T
            gB[i] = -2.0 * np.einsum("m,m,mk,mn->kn", w, d[i], lam, U)
            gnorm = math.sqrt((gb[i] * gb[i]).sum() + (gB[i] * gB[i]).sum())
            if gnorm < 1e-12 * (1 + F[i]):
                live[i] = False
                continue
            t[i], tries[i], fresh[i] = step[i], 0, False
        trial = np.flatnonzero(live)
        if len(trial) == 0:
            return base, basis, F
        nb = base[trial] - t[trial, None] * gb[trial]
        nB = basis[trial] - t[trial, None, None] * gB[trial]
        full = np.linalg.matrix_rank(nB, tol=1e-10) == k
        better = np.zeros(len(trial), dtype=bool)
        if full.any():
            nd, nfeet = _dists_to_flats(space, nb[full], nB[full], pts)
            nF = (w * nd * nd).sum(axis=1)
            take = nF < F[trial[full]] - 1e-15
            better[full] = take
            acc = trial[full][take]
            base[acc], basis[acc], F[acc] = nb[full][take], nB[full][take], nF[take]
            d[acc], feet[acc] = nd[take], nfeet[take]
            step[acc] = np.minimum(t[acc] * 2.0, 1e3)
            fresh[acc] = True
        rej = trial[~better]
        t[rej] *= 0.5
        tries[rej] += 1
        live[rej[tries[rej] == 25]] = False


def beta(space: NormedSpace, mu: PointMeasure, x, r: float, k: int,
         seed: int = 0) -> float:
    return best_plane(space, mu, x, r, k, seed=seed).beta


def beta_inf(space: NormedSpace, S, x, r: float, k: int):
    """sup-norm beta: minimal delta with S cap B_r(x) inside the delta*r
    neighborhood of an affine k-plane; the returned plane is re-anchored
    at x (the factor-2 convention of the V_inf planes absorbs this when
    x lies in S).

    x is one center, giving a BetaInfResult, or an (m, n) stack of centers,
    giving a list of m results."""
    if k >= space.dim:
        raise ValueError("k must be < dim")
    if r <= 0:
        raise ValueError("r must be positive")
    X = np.asarray(x, dtype=float)
    centers = np.atleast_2d(X)
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if space.dim == 2 and k == 1:
        results = _beta_inf_lines_2d(space, S, centers, r)
    else:
        results = [_beta_inf_one(space, S, c, r, k) for c in centers]
    return results[0] if X.ndim == 1 else results


def _beta_inf_one(space, S, x, r, k):
    """beta_inf at one center x, for every (dim, k) but (2, 1): a best-plane
    start refined by Nelder-Mead on the largest distance."""
    d = space.norms(S - x[None, :])
    pts = S[d <= r]
    if len(pts) == 0:
        return BetaInfResult(0.0, _degenerate_plane(space, x, k), empty=True)
    counting = PointMeasure(pts, np.ones(len(pts)))
    init = best_plane(space, counting, x, r, k, seed=1)
    base, basis = init.plane.base, init.plane.basis
    base, basis = _minimax_refine(space, base, basis, pts)
    val = float(distances_to_affine(space, AffinePlane(base, basis, 1.0), pts).max())
    basis_n = basis / space.norms(basis)[:, None]
    return BetaInfResult(val / r, affine_plane(space, x, basis_n))


_GRID_ANGLES = 2000
_BLOCK_ENTRIES = 1 << 18    # 2 MB of float64 per block


def _row_blocks(rows: int, row_entries: int):
    """Slices of range(rows), each of at most _BLOCK_ENTRIES entries when a
    row holds row_entries of them (and of at least one row)."""
    step = max(1, _BLOCK_ENTRIES // max(row_entries, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _distance_blocks(space, X, P):
    """(rows, table) pairs: the distances ||P_j - x_i|| for the rows i of X
    in one block, as the (block x |P|) table.  Each block's differences
    hold at most _BLOCK_ENTRIES entries, whatever the sizes of X and P."""
    for rows in _row_blocks(len(X), P.size):
        yield rows, space.norms(P[None, :, :] - X[rows, None, :])


def _beta_inf_lines_2d(space, S, X, r):
    """Exact angle+offset search for lines in the plane, at every center of
    X: for a normal a(phi), the optimal offset centers the interval of
    <a, z-x>, so beta_inf * r is the least half-width of that interval over
    phi.  A 2000-angle grid brackets each center's minimizer, and one
    golden-section run refines all the brackets."""
    inside = np.empty((len(X), len(S)), dtype=bool)
    for rows, D in _distance_blocks(space, X, S):
        inside[rows] = D <= r
    counts = inside.sum(axis=1)
    out = [BetaInfResult(0.0, _degenerate_plane(space, x, 1), empty=True)
           if c == 0 else None for x, c in zip(X, counts)]
    full = np.flatnonzero(counts)
    if len(full) == 0:
        return out
    # each ball's atoms relative to its center, padded to a common count
    # with copies of its last atom, which move no max or min
    REL = np.empty((len(full), counts.max(), 2))
    for row, i in enumerate(full):
        rel = S[inside[i]] - X[i][None, :]
        REL[row] = rel[np.minimum(np.arange(REL.shape[1]), len(rel) - 1)]
    grid = np.linspace(0.0, math.pi, _GRID_ANGLES, endpoint=False)
    best = np.empty(len(REL))
    for rows, H in _grid_halfwidth_blocks(space, REL, grid):
        best[rows] = grid[np.argmin(H, axis=1)]
    a, b, _fc, _fd = _golden_section(lambda phi: _halfwidths(space, REL, phi),
                                     best - math.pi / _GRID_ANGLES,
                                     best + math.pi / _GRID_ANGLES, 60)
    phi = (a + b) / 2
    vals = _halfwidths(space, REL, phi)
    for row, i in enumerate(full):
        direction = np.array([-math.sin(phi[row]), math.cos(phi[row])])
        out[i] = BetaInfResult(vals[row] / r, affine_plane(space, X[i], direction[None, :]))
    return out


def _grid_halfwidth_blocks(space, REL, phis):
    """(rows, table) pairs: the half-widths of `_halfwidths` for the rows
    of REL in one block at every angle of phis, as array operations.  Each
    (rows x atoms x angles) projection holds at most _BLOCK_ENTRIES
    entries, and so does each table, whatever the sizes."""
    U = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    dn = space.dual_norms(U)
    for rows in _row_blocks(len(REL), REL.shape[1] * len(phis)):
        R = REL[rows]
        width = np.empty((len(R), len(phis)))
        for cols in _row_blocks(len(phis), R.shape[0] * R.shape[1]):
            width[:, cols] = np.ptp(R @ U[cols].T, axis=1)
        width *= 0.5
        width /= dn
        yield rows, width


def _halfwidths(space, REL, phis):
    """Half the width of the interval of <a_i, z> over the atoms z of row i
    of REL, per dual norm of a_i = (cos phi_i, sin phi_i).  The operations
    are those of one row at a time, so each row's value is the same to the
    bit whatever the stack: math.cos and math.sin, a stacked matrix-vector
    product, and the root of the dual norm taken per element (an array
    power can differ from it by an ulp)."""
    A = np.stack([[math.cos(t) for t in phis], [math.sin(t) for t in phis]], axis=1)
    s = (REL @ A[:, :, None])[:, :, 0]
    q = space.q
    if q == 1.0 or q == math.inf:
        dn = space.dual_norms(A)
    else:
        dn = np.array([t ** (1.0 / q) for t in (np.abs(A) ** q).sum(axis=1)])
    return 0.5 * np.ptp(s, axis=1) / dn


def _minimax_refine(space, base, basis, pts, iters: int = 200):
    """Nelder-Mead on the raw (base, basis) parameters of the max-distance
    objective; adequate for desk dimensions."""
    from scipy.optimize import minimize as _min
    k, n = basis.shape
    x0 = np.concatenate([base, basis.ravel()])

    def obj(v):
        b = v[:n]
        B = v[n:].reshape(k, n)
        if np.linalg.matrix_rank(B, tol=1e-10) < k:
            return 1e9
        return float(distances_to_affine(space, AffinePlane(b, B, 1.0), pts).max())

    res = _min(obj, x0, method="Nelder-Mead",
               options={"maxiter": iters * (n * (k + 1)), "fatol": 1e-12, "xatol": 1e-10})
    v = res.x if res.fun <= obj(x0) else x0
    return v[:n], v[n:].reshape(k, n)


def dini_profile(space: NormedSpace, mu: PointMeasure, x, r_lo, r_hi: float,
                 k: int, alpha: float, chi: float, seed=0):
    """Left-endpoint geometric-grid quadrature of int beta^alpha dr/r on
    scales r_j = r_hi * chi^j down to r_lo.

    x is one center, giving a DiniProfile, or an (m, n) stack of centers,
    giving a list of m profiles; r_lo and seed are then a scalar or one
    value per center.  A ball holding at most one atom has beta 0 (the atom
    lies on every k-plane through it), so only balls with two or more atoms
    fit a plane, with seed + 1000 j at scale j.  Balls of one scale that
    hold the same atoms are fitted once, all their seeds together (see
    `_fit_seeds`), so each distinct ball's starts descend in lockstep."""
    X = np.asarray(x, dtype=float)
    centers = np.atleast_2d(X)
    m = len(centers)
    lo = np.broadcast_to(np.asarray(r_lo, dtype=float), (m,))
    seeds = np.broadcast_to(np.asarray(seed), (m,))
    if not ((0 < lo) & (lo < r_hi)).all():
        raise ValueError("need 0 < r_lo < r_hi")
    if not (0 < chi < 1):
        raise ValueError("need 0 < chi < 1")
    if m == 0:
        return []
    floors = lo * (1 - 1e-12)
    floor = floors.min()
    grid = []
    r = float(r_hi)
    while r >= floor:
        grid.append(r)
        r *= chi
    grid = np.asarray(grid)
    n_scales = (grid[None, :] >= floors[:, None]).sum(axis=1)
    atoms = np.empty((m, len(grid)), dtype=np.int64)
    for rows, D in _distance_blocks(space, centers, mu.points):
        atoms[rows] = (D[:, :, None] <= grid[None, None, :]).sum(axis=1)
    to_fit = (atoms > 1) & (np.arange(len(grid))[None, :] < n_scales[:, None])
    # (scale, ball atoms) -> (atom mask, the centers whose ball that is)
    groups: dict = {}
    for i in np.flatnonzero(to_fit.any(axis=1)):
        d = space.norms(mu.points - centers[i][None, :])   # as _ball_atoms has it
        for j in np.flatnonzero(to_fit[i]):
            mask = d <= grid[j]
            groups.setdefault((j, mask.tobytes()), (mask, []))[1].append(i)
    betas = np.zeros((m, len(grid)))
    for (j, _key), (mask, members) in groups.items():
        fits = _fit_seeds(space, mu.points[mask], mu.weights[mask], centers[members[0]],
                          grid[j], k, [int(seeds[i]) + 1000 * int(j) for i in members])
        betas[members, j] = [fit.beta for fit in fits]
    log = math.log(1.0 / chi)
    profiles = []
    for i, c in enumerate(centers):
        b = betas[i, :n_scales[i]]
        dini = float((b**alpha).sum() * log)
        profiles.append(DiniProfile(c, grid[:n_scales[i]], b, alpha, chi, dini))
    return profiles[0] if X.ndim == 1 else profiles


def density_report(space: NormedSpace, mu: PointMeasure, x, scales,
                   k: int) -> tuple[float, float]:
    """(min, max) over the scale list of mu(B_r(x))/r^k, finite-sample
    stand-ins for the lower/upper k-densities."""
    if len(scales) == 0:
        raise ValueError("scales must be nonempty")
    vals = [mu.mass_in_ball(space, x, r) / r**k for r in scales]
    return float(min(vals)), float(max(vals))
