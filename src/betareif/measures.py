"""Atomic measures, beta numbers, approximate best planes, Dini profiles.

Ball membership in the beta machinery is closed (||z - x|| <= r) so that
boundary atoms count; `restrict` alone keeps the open-ball contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .constants import norm_equivalence
from .geometry import (AffinePlane, _dists_to_flat_batch, _dists_to_flats,
                       _lead_positive, distances_to_affine)
from .spaces import NormedSpace, real_number

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
        per-atom radii "r_s" (default 0).  A document of any other shape
        than {"space": ..., "atoms": [{"x": [dim numbers], "w": number,
        "r_s": number}, ...]} raises ValueError (KeyError for a missing
        key)."""
        if not isinstance(doc, dict):
            raise ValueError("a measure must be a JSON object")
        space = NormedSpace.from_descriptor(doc["space"])
        atoms = doc["atoms"]
        if not isinstance(atoms, list) or not all(isinstance(a, dict) for a in atoms):
            raise ValueError("atoms must be a list of objects")
        pts = np.empty((len(atoms), space.dim))
        w = np.empty(len(atoms))
        rs = np.empty(len(atoms))
        for i, a in enumerate(atoms):
            x = a["x"]
            if not isinstance(x, list) or len(x) != space.dim:
                raise ValueError(f"atom {i}: x must be a list of {space.dim} numbers")
            pts[i] = [real_number(v, f"atom {i}: x") for v in x]
            w[i] = real_number(a["w"], f"atom {i}: w")
            rs[i] = real_number(a.get("r_s", 0.0), f"atom {i}: r_s")
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
    return AffinePlane(np.asarray(x, dtype=float), basis)


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
    basis = _lead_positive(vecs[:, :k].T.copy())
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
        plane = AffinePlane(c2, basis2)
        betaval = math.sqrt(max(resid2, 0.0) / r ** (k + 2))
        return [BetaResult(betaval, plane, 1.0, resid2) for _ in seeds]
    F0 = _objective(space, c2, basis2, pts, w)
    if resid2 <= 1e-24 * (1.0 + w.sum() * r * r):
        # the atoms fit a k-plane exactly; it is optimal under every norm
        plane = AffinePlane(c2, basis2 / space.norms(basis2)[:, None])
        return [BetaResult(math.sqrt(max(F0, 0.0) / r ** (k + 2)), plane, 1.0, F0)
                for _ in seeds]
    # per seed, the candidates in best_plane's order: the l^2 plane (key
    # -1), then its starts' descents, keyed by their row j of the lockstep
    # stack (row 0, the unrotated start, is shared by all seeds)
    cands = [[(-1, F0, c2, basis2)] for _ in seeds]
    if F0 > 1e-28 * (1 + w.sum()) and starts > 0:
        rows = [basis2]
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rows += [basis2 @ _rand_rotation(rng, space.dim).T for _s in range(1, starts)]
        B, V, F = _descend(space, np.repeat(c2[None, :], len(rows), axis=0), np.array(rows),
                           pts, w, iters)
        per = starts - 1
        for i, cand in enumerate(cands):
            cand += [(j, float(F[j]), B[j], V[j])
                     for j in [0, *range(1 + i * per, 1 + (i + 1) * per)]]
    lower = resid2 / norm_equivalence(space.dim, space.p) ** 2 if space.p > 2 else resid2
    planes = {}     # one plane per winning candidate
    out = []
    for cand in cands:
        best_key, best_F, best_base, best_basis = cand[0]
        for key_j, F_j, base_j, basis_j in cand[1:]:
            if F_j < best_F:
                best_key, best_F, best_base, best_basis = key_j, F_j, base_j, basis_j
        factor = best_F / lower if lower > 1e-300 else 1.0
        if best_key not in planes:
            basis_n = best_basis / space.norms(best_basis)[:, None]
            planes[best_key] = AffinePlane(best_base, basis_n)
        betaval = math.sqrt(max(best_F, 0.0) / r ** (k + 2))
        out.append(BetaResult(betaval, planes[best_key], float(max(factor, 1.0)), best_F))
    return out


def _rand_rotation(rng, n):
    A = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    return Q


def _descend(space, base, basis, pts, w, iters):
    """Envelope-gradient descent with backtracking from each start (base[i],
    basis[i]) of a stack, base (D, n) and basis (D, k, n), in lockstep.
    Every round, each live descent computes its gradient if it has none
    and then tests one backtracking trial; the gradients, the trials' rank
    tests, distance tables and objectives are stacked.  Each descent takes
    the steps it would take alone: every stacked operation acts on one
    descent at a time; the foot coordinates take one `_lstsq_stack` per
    round.  Returns the final (base, basis, F) stacks."""
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
        need = np.flatnonzero(live & fresh)
        capped = grads[need] == iters
        live[need[capped]] = False
        need = need[~capped]
        if len(need):
            grads[need] += 1
            R = pts[None, :, :] - feet[need]
            if p == math.inf:       # subgradient direction of the norm
                idx = np.argmax(np.abs(R), axis=2)[:, :, None]
                U = np.zeros_like(R)
                np.put_along_axis(U, idx, np.sign(np.take_along_axis(R, idx, axis=2)), axis=2)
            elif p == 1.0:
                U = np.sign(R)
            else:
                nr = np.maximum(space.norms(R), 1e-30)
                U = np.sign(R) * np.abs(R) ** (p - 1.0) / nr[:, :, None] ** (p - 1.0)
            # envelope gradient of sum w d^2 wrt base and basis rows
            g = np.matmul((-2.0 * (w * d[need]))[:, None, :], U)[:, 0, :]
            lam = _lstsq_stack(basis[need].transpose(0, 2, 1),
                               (feet[need] - base[need][:, None, :]).transpose(0, 2, 1)
                               ).transpose(0, 2, 1)
            G = -2.0 * np.einsum("m,dm,dmk,dmn->dkn", w, d[need], lam, U)
            gb[need], gB[need] = g, G
            gnorm = np.sqrt((g * g).sum(axis=1) + (G * G).reshape(len(need), -1).sum(axis=1))
            flat = gnorm < 1e-12 * (1 + F[need])
            live[need[flat]] = False
            go = need[~flat]
            t[go], tries[go], fresh[go] = step[go], 0, False
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


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(A, B):
    """np.linalg.lstsq(A[i], B[i], rcond=None)[0] for every slice of the
    stacks A (D, m, n) and B (D, m, nrhs), nrhs >= 1, to the bit.  The
    public function wraps the gufunc called here, which takes a stack and
    makes the same LAPACK dgelsd call on each slice; this is its rcond
    default and its error state."""
    rcond = np.finfo(float).eps * max(A.shape[-2:])
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _umath_linalg.lstsq(A, B, rcond, signature="ddd->ddid")[0]


def beta(space: NormedSpace, mu: PointMeasure, x, r: float, k: int,
         seed: int = 0) -> float:
    return best_plane(space, mu, x, r, k, seed=seed).beta


def beta_inf(space: NormedSpace, S, x, r: float, k: int):
    """sup-norm beta: the least delta with S cap B_r(x) inside the delta*r
    neighborhood of an affine k-plane, for a finite r > 0.  The returned
    plane is re-anchored at x (the factor-2 convention of the V_inf planes
    absorbs this when x lies in S).  An empty ball has beta 0.

    Lines in the plane (dim 2, k = 1) get the exact value: the least
    half-width of the ball over the normals of its convex hull's edges
    (see `_beta_inf_lines_2d`).  Every other (dim, k) refines a best-plane
    start by Nelder-Mead, an upper bound.

    x is one center, giving a BetaInfResult, or an (m, n) stack of centers,
    giving a list of m results; a stacked center gets the same result, to
    the bit, as a call with that center alone."""
    if k >= space.dim:
        raise ValueError("k must be < dim")
    if not (0 < r < math.inf):
        raise ValueError(f"r must be finite and positive, got {r}")
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
    val = float(distances_to_affine(space, AffinePlane(base, basis), pts).max())
    return BetaInfResult(val / r, AffinePlane(x, basis / space.norms(basis)[:, None]))


_BLOCK_ENTRIES = 1 << 18    # 2 MB of float64 per block


def _distance_blocks(space, X, P):
    """(rows, table) pairs: the distances ||P_j - x_i|| for the rows i of X
    in one block, as the (block x |P|) table.  Each block's differences
    hold at most _BLOCK_ENTRIES entries (and at least one row), whatever
    the sizes of X and P."""
    step = max(1, _BLOCK_ENTRIES // max(P.size, 1))
    for lo in range(0, len(X), step):
        rows = slice(lo, lo + step)
        yield rows, space.norms(P[None, :, :] - X[rows, None, :])


def _beta_inf_lines_2d(space, S, X, r):
    """Exact beta_inf for lines in the plane, at every center of X.

    For a normal a, the best line with normal a runs through the middle of
    the interval of <a, z - x> over the atoms z of the ball, so beta_inf * r
    is the least over a of half that interval's width over ||a||_q.  The
    least sits at the normal of an edge of the atoms' convex hull K.  The
    width is the support function of the polygon K - K, whose edge normals
    are those of K up to sign, so between two neighbouring edge normals it
    is linear in a.  On the segment of that cone where it equals 1, the
    ratio is 1 / ||a||_q, and a convex norm is largest at an end of a
    segment.

    `_hull_edges` walks every hull in lockstep and picks the edge e.  The
    value is the half-width at its normal (-e_y, e_x), which is exactly 0
    when the atoms' cross products vanish.  The line runs along
    (-sin phi, cos phi), with phi in [0, pi] the angle of that normal; a
    ball whose atoms all coincide has phi = 0."""
    inside = np.empty((len(X), len(S)), dtype=bool)
    for rows, D in _distance_blocks(space, X, S):
        inside[rows] = D <= r
    counts = inside.sum(axis=1)
    out = [BetaInfResult(0.0, _degenerate_plane(space, x, 1), empty=True)
           if c == 0 else None for x, c in zip(X, counts)]
    full = np.flatnonzero(counts)
    if len(full) == 0:
        return out
    # the atoms of every nonempty ball relative to its center, ball after
    # ball; ball j holds the rows from starts[j] on
    ball, atom = np.nonzero(inside[full])
    REL = S[atom] - X[full][ball]
    starts = np.searchsorted(ball, np.arange(len(full)))
    # the walk's products over- or underflow beyond about 2^+-330: such a
    # ball's atoms are scaled by a power of two (exact), its half-width back
    e = np.frexp(np.maximum.reduceat(np.abs(REL), starts).max(axis=1))[1]
    e[np.abs(e) <= 330] = 0
    edges, halfwidths = _hull_edges(space, np.ldexp(REL, -e[ball, None]), starts)
    halfwidths = np.ldexp(halfwidths, e)
    for row, i in enumerate(full):
        ex, ey = edges[row]
        phi = math.atan2(-ex, ey) % math.pi if ex or ey else 0.0
        direction = np.array([-math.sin(phi), math.cos(phi)])
        out[i] = BetaInfResult(halfwidths[row] / r, AffinePlane(X[i], direction[None, :]))
    return out


def _hull_edges(space, REL, starts):
    """Per segment of REL (segment j is the rows from starts[j] on): the
    edge e of its convex hull whose normal (-e_y, e_x) gives the least
    half-width over ||.||_q, the first such edge of the walk, and that
    half-width.  A segment whose points all coincide gets e = 0 and 0.

    One gift-wrapping walk runs on every segment at once.  It starts at the
    segment's lowest point, the leftmost of those, heading along +x.  Each
    round every open segment takes the smallest counter-clockwise turn
    from its last edge, the farthest point on a tie, and scores the new
    edge; a segment closes when it is back at its start, or after as many
    rounds as it has points.  Rounds touch only the points of open
    segments.  Every step acts on one segment at a time with correctly
    rounded operations, so a segment's result does not depend on the
    others."""
    n = len(starts)
    owner = np.repeat(np.arange(n), np.diff(starts, append=len(REL)))
    first = REL[np.lexsort((REL[:, 0], REL[:, 1], owner))[starts]]
    edges = np.zeros((n, 2))
    # the open segments: their numbers, points, start, vertex, last edge
    # and rounds left
    rows, P, own, seg = np.arange(n), REL, owner, starts
    home = V = first
    D = np.repeat([[1.0, 0.0]], n, axis=0)
    left = np.diff(starts, append=len(REL))
    go = np.logical_or.reduceat((REL != first[owner]).any(axis=1), starts)
    best = np.where(go, np.inf, 0.0)
    while True:
        if not go.all():
            keep = go[own]
            P, own = P[keep], np.cumsum(go)[own[keep]] - 1
            rows, home, V, D, left = rows[go], home[go], V[go], D[go], left[go]
            seg = np.searchsorted(own, np.arange(len(rows)))
        if len(rows) == 0:
            return edges, best
        E = P - V[own]
        Dx, Dy = D[own, 0], D[own, 1]
        cross = Dx * E[:, 1] - Dy * E[:, 0]
        dot = Dx * E[:, 0] + Dy * E[:, 1]
        size = np.abs(cross) + np.abs(dot)
        with np.errstate(invalid="ignore"):
            t = cross / size
        # the turn, monotone in the angle: 0 straight ahead, 1 a quarter
        # turn, 2 straight back; a point a rounding error right of the last
        # edge counts as straight ahead
        turn = np.where(dot < 0, 2.0 - t, np.maximum(t, 0.0))
        turn[size == 0] = np.inf            # the vertex itself
        tie = turn == np.minimum.reduceat(turn, seg)[own]
        far = np.where(tie, E[:, 0] * E[:, 0] + E[:, 1] * E[:, 1], -1.0)
        tie &= far == np.maximum.reduceat(far, seg)[own]
        W = P[np.minimum.reduceat(np.where(tie, np.arange(len(P)), len(P)), seg)]
        e = W - V
        normal = np.stack([-e[:, 1], e[:, 0]], axis=1)
        s = E[:, 0] * normal[own, 0] + E[:, 1] * normal[own, 1]
        width = np.maximum.reduceat(s, seg) - np.minimum.reduceat(s, seg)
        score = 0.5 * width / space.dual_norms(normal)
        gain = score < best[rows]
        best[rows[gain]], edges[rows[gain]] = score[gain], e[gain]
        V, D, left = W, e, left - 1
        go = ~(W == home).all(axis=1) & (left > 0)


def _minimax_refine(space, base, basis, pts):
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
        return float(distances_to_affine(space, AffinePlane(b, B), pts).max())

    res = _min(obj, x0, method="Nelder-Mead",
               options={"maxiter": 200 * (n * (k + 1)), "fatol": 1e-12, "xatol": 1e-10})
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
    if not (math.isfinite(r_hi) and ((0 < lo) & (lo < r_hi)).all()):
        raise ValueError("need 0 < r_lo < r_hi < inf")
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
    # a ball holds two or more atoms when its second-nearest atom lies in it
    second = np.full(m, np.inf)
    if len(mu) >= 2:
        for rows, D in _distance_blocks(space, centers, mu.points):
            second[rows] = np.partition(D, 1, axis=1)[:, 1]
    to_fit = (second[:, None] <= grid[None, :]) & (np.arange(len(grid))[None, :] < n_scales[:, None])
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
    # each center's sum over its own scales, in groups of equal length:
    # padding with zeros would change numpy's pairwise sums from 8 terms
    dini = np.empty(m)
    for n in sorted(set(n_scales.tolist())):     # np.unique would import numpy.ma
        rows = n_scales == n
        dini[rows] = (betas[rows, :n] ** alpha).sum(axis=1) * log
    profiles = [DiniProfile(c, grid[:n], betas[i, :n], alpha, chi, float(dini[i]))
                for i, (c, n) in enumerate(zip(centers, n_scales))]
    return profiles[0] if X.ndim == 1 else profiles


def density_report(space: NormedSpace, mu: PointMeasure, x, scales,
                   k: int) -> tuple[float, float]:
    """(min, max) over the scale list of mu(B_r(x))/r^k, finite-sample
    stand-ins for the lower/upper k-densities."""
    if len(scales) == 0:
        raise ValueError("scales must be nonempty")
    vals = [mu.mass_in_ball(space, x, r) / r**k for r in scales]
    return float(min(vals)), float(max(vals))
