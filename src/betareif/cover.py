"""Good/bad-ball classification, sigma-maps, the multiscale covering engine,
the packing driver, and the Reifenberg-flat parametrization.

Scale ladder: r_i = chi^i.  Stage i+1 refines only inside the stage-i good
balls; original and bad balls are retired where they are created.  All
randomness is seeded per (stage, ball index); runs are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import constants as C
from .geometry import (AffinePlane, AlmostProjection, _euclid_orthonormal,
                       distances_to_affine,
                       grassmann_distance, graph_check, make_projection)
from .measures import (PointMeasure, _distance_blocks, best_plane, beta,
                       beta_inf, dini_profile)
from .spaces import NormedSpace

__all__ = [
    "PartitionOfUnity", "BallLabel", "SigmaMap", "CoverConfig", "CoverResult",
    "PackingResult", "partition_of_unity", "classify_ball", "tilting_report",
    "squash_report", "covering_lemma", "main_packing",
    "reifenberg_flat_map", "default_theta", "projection_kind",
]


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------

@dataclass
class PartitionOfUnity:
    """The truncated partition of unity subordinate to {B_3r(x_i)}:
    b(t) = (3-t)_+, psi_i = b(||x-x_i||/r), s = sum psi_i, h piecewise
    linear (0 below 1/4, 1 above 1/2), phi_i = h(s) psi_i / s."""

    centers: np.ndarray
    r: float
    space: NormedSpace

    def values(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        D = self.space.norms(X[:, None, :] - self.centers[None, :, :]) / self.r
        psi = np.clip(3.0 - D, 0.0, None)
        s = psi.sum(axis=1)
        h = np.clip(4.0 * s - 1.0, 0.0, 1.0)
        out = np.zeros_like(psi)
        pos = s > 0
        out[pos] = h[pos, None] * psi[pos] / s[pos, None]
        return out

    def sum_values(self, X) -> np.ndarray:
        return self.values(X).sum(axis=1)

    def overlap_count(self, X) -> int:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        D = self.space.norms(X[:, None, :] - self.centers[None, :, :])
        return int((D < 3.0 * self.r).sum(axis=1).max())


def partition_of_unity(centers, r: float, space: NormedSpace) -> PartitionOfUnity:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return PartitionOfUnity(centers, float(r), space)


# ---------------------------------------------------------------------------
# good/bad balls
# ---------------------------------------------------------------------------

def default_theta(k: int) -> float:
    """Good-ball mass threshold; desk stand-in for c_2(k)^-1/10."""
    return 0.1 * 5.0 ** (-k)


@dataclass
class BallLabel:
    center: np.ndarray
    radius: float
    kind: str                       # "good" | "bad" | "original"
    witnesses: np.ndarray | None = None       # (k+1, n) for good balls
    witness_plane: AffinePlane | None = None  # (k-1)-plane for bad balls

    def to_dict(self) -> dict:
        d = {"center": self.center.tolist(), "radius": self.radius, "kind": self.kind}
        if self.witnesses is not None:
            d["witnesses"] = self.witnesses.tolist()
        if self.witness_plane is not None:
            d["witness_plane"] = self.witness_plane.to_fragment()
        return d


def _pad_to_dim(space, rows, target_dim):
    """Extend rows to target_dim directions, appending standard basis
    vectors (Euclid-orthogonalized) deterministically."""
    rows = list(np.asarray(rows, dtype=float).reshape(-1, space.dim))
    for e in np.eye(space.dim):
        if len(rows) >= target_dim:
            break
        cand = e.copy()
        if rows:
            Q = _euclid_orthonormal(np.asarray(rows))
            cand = cand - (Q.T @ (Q @ cand))
        if np.linalg.norm(cand) > 1e-9:
            rows.append(cand / np.linalg.norm(cand))
    return np.asarray(rows[:target_dim]).reshape(target_dim, space.dim)


def classify_ball(space: NormedSpace, mu: PointMeasure, x, r: float, k: int,
                  chi: float, theta: float | None = None) -> BallLabel:
    """Greedy witness search for the good-ball conditions.

    Scans atoms z in B_r(x) with mu(B_chi_r(z) cap B_r(x)) >= theta (chi r)^k,
    picking at each step the candidate farthest from the affine hull of the
    previous witnesses.  Success through k+1 witnesses => good; a step with
    no candidate escaping the 7 chi r neighborhood => bad, with the hull
    (padded to dimension k-1) as the witness plane."""
    if not (0 < chi <= 0.1):
        raise ValueError("need 0 < chi <= 1/10")
    if theta is None:
        theta = default_theta(k)
    x = np.asarray(x, dtype=float)
    d_atoms = space.norms(mu.points - x[None, :])
    in_ball = d_atoms <= r
    pts = mu.points[in_ball]
    if len(pts) == 0:
        return BallLabel(x, r, "bad",
                         witness_plane=_witness_plane(space, x, [], k))
    # local mass of every candidate: mu(B_chi_r(z) cap B_r(x))
    D = space.norms(pts[:, None, :] - mu.points[None, :, :])
    local = ((D <= chi * r) & in_ball[None, :]) @ mu.weights
    passing = local >= theta * (chi * r) ** k
    cand = pts[passing]
    if len(cand) == 0:
        return BallLabel(x, r, "bad",
                         witness_plane=_witness_plane(space, x, [], k))
    if k == 0:
        return BallLabel(x, r, "good", witnesses=cand[:1])
    # start from the candidate with most local mass, ties by index
    witnesses = [cand[int(np.argmax(local[passing]))]]
    for _j in range(1, k + 1):
        hull_base = witnesses[0]
        hull_dirs = np.asarray(witnesses[1:]) - hull_base[None, :] if len(witnesses) > 1 else np.zeros((0, space.dim))
        dists = distances_to_affine(space, AffinePlane(hull_base, hull_dirs), cand)
        i = int(np.argmax(dists))
        if dists[i] < 7.0 * chi * r:
            return BallLabel(x, r, "bad",
                             witness_plane=_witness_plane(space, hull_base, hull_dirs, k))
        witnesses.append(cand[i])
    return BallLabel(x, r, "good", witnesses=np.asarray(witnesses))


def _witness_plane(space, base, dirs, k):
    """Bad-ball certificate padded to a (k-1)-plane; a plane containing the
    hull certifies badness as well (its neighborhood is larger)."""
    return AffinePlane(np.asarray(base, dtype=float), _pad_to_dim(space, dirs, max(k - 1, 0)))


# ---------------------------------------------------------------------------
# tilting report
# ---------------------------------------------------------------------------

@dataclass
class TiltingReport:
    pairs: list
    max_ratio: float


def tilting_report(space: NormedSpace, mu: PointMeasure, ball_pairs, k: int,
                   chi: float, theta: float | None = None,
                   seed: int = 0) -> TiltingReport:
    """For each pair of good balls, d_G between their best planes against
    beta of the enclosing ball; reports the per-pair values and the max
    ratio (the empirical tilting constant)."""
    rows = []
    max_ratio = 0.0
    for (x, r), (x2, r2) in ball_pairs:
        x, x2 = np.asarray(x, dtype=float), np.asarray(x2, dtype=float)
        for c, rr in ((x, r), (x2, r2)):
            lab = classify_ball(space, mu, c, rr, k, chi, theta)
            if lab.kind != "good":
                raise ValueError(f"ball at {c.tolist()} radius {rr} is not good")
        y = (x + x2) / 2.0
        R = space.norm(x - x2) + 2.0 * max(r, r2)
        b1 = best_plane(space, mu, x, r, k, seed=seed)
        b2 = best_plane(space, mu, x2, r2, k, seed=seed)
        dg = grassmann_distance(space, b1.plane, b2.plane)
        by = beta(space, mu, y, R, k, seed=seed)
        ratio = dg / by if by > 1e-15 else (0.0 if dg <= 1e-12 else math.inf)
        rows.append({"d_G": dg, "beta_enclosing": by, "ratio": ratio,
                     "R": R, "y": y.tolist()})
        max_ratio = max(max_ratio, ratio)
    return TiltingReport(rows, max_ratio)


# ---------------------------------------------------------------------------
# sigma maps
# ---------------------------------------------------------------------------

@dataclass
class SigmaMap:
    """One interpolation stage sigma(x) = x - sum_i phi_i(x) perp_i(x - p_i)."""

    r: float
    centers: np.ndarray
    planes: list                   # AffinePlane per center
    projections: list              # AlmostProjection per center
    pou: PartitionOfUnity

    def apply_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        phi = self.pou.values(X)
        out = X.copy()
        for i, (pl, pj) in enumerate(zip(self.planes, self.projections)):
            col = phi[:, i]
            if not (col > 0).any():
                continue
            rel = X - pl.base[None, :]
            perp = rel - pj.apply(rel)
            out -= col[:, None] * perp
        return out

    def apply(self, x) -> np.ndarray:
        return self.apply_many(np.asarray(x, dtype=float)[None, :])[0]

    def to_dict(self) -> dict:
        return {"r": self.r,
                "centers": self.centers.tolist(),
                "planes": [pl.to_fragment() for pl in self.planes],
                "projections": [pj.report() for pj in self.projections]}


def projection_kind(space: NormedSpace, k: int) -> str:
    if space.is_hilbert:
        return "orthogonal"
    if k == 1 and 1.0 < space.p < math.inf:
        return "j_projection"
    return "hahn_banach"


def build_sigma(space: NormedSpace, centers, r: float, planes, k: int) -> SigmaMap:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    kind = projection_kind(space, k)
    # make_projection reads only the plane's basis: equal bases share one
    # projection (ball centres of one atom cluster get the same fitted plane)
    by_basis = {}
    projections = []
    for pl in planes:
        key = pl.basis.tobytes()
        if key not in by_basis:
            by_basis[key] = make_projection(space, pl, kind)
        projections.append(by_basis[key])
    return SigmaMap(float(r), centers, list(planes), projections,
                    partition_of_unity(centers, r, space))


# ---------------------------------------------------------------------------
# squash report
# ---------------------------------------------------------------------------

@dataclass
class SquashReport:
    hypothesis_ok: bool
    hypothesis_notes: list
    sup_displacement: float        # sup ||sigma(x) - x|| / r
    lip_deviation: float           # sup ||(sigma x - x) - (sigma y - y)|| / ||x - y||
    new_height: float              # re-graphed sup height / r
    new_lipschitz: float
    interior_height: float         # same, restricted to the sum phi = 1 region
    interior_lipschitz: float
    tangential_sup: float | None   # part D, orthogonal/J kinds only
    sq_distortion: float | None    # max relative squared-distance distortion
    delta: float
    eps: float


def squash_report(sigma: SigmaMap, graph_sample, plane: AffinePlane,
                  proj: AlmostProjection, delta: float, eps: float) -> SquashReport:
    """Measure how one interpolation stage squashes a graph sample over
    (plane, proj): displacement and Lipschitz deviation (A), re-graphed
    height/Lipschitz bounds (B), the same over the interior region where
    the partition sums to 1 (C), and for orthogonal/J projections the
    tangential movement and squared-distance distortion (D)."""
    space = sigma.pou.space
    X = np.atleast_2d(np.asarray(graph_sample, dtype=float))
    r = sigma.r
    notes = []
    ok, h0, lip0 = graph_check(space, X, plane, proj)
    if not ok:
        notes.append("sample is not a graph over the plane")
    if lip0 > eps * (1 + 1e-9) + 1e-12:
        notes.append(f"sample Lipschitz {lip0:.3g} exceeds eps {eps:.3g}")
    for i, pl in enumerate(sigma.planes):
        dist_p = distances_to_affine(space, plane, pl.base[None, :])[0]
        dg = grassmann_distance(space, pl, plane)
        if dist_p > delta * r * (1 + 1e-9) + 1e-12:
            notes.append(f"plane {i}: base {dist_p / r:.3g} r from reference (> delta)")
        if dg > delta * (1 + 1e-9) + 1e-12:
            notes.append(f"plane {i}: d_G {dg:.3g} > delta")
    Y = sigma.apply_many(X)
    disp = space.norms(Y - X)
    sup_disp = float(disp.max() / r) if len(X) else 0.0
    m = len(X)
    lipdev = 0.0
    sqdist = 0.0
    if m > 1:
        iu = np.triu_indices(m, k=1)
        dX = space.norms(X[:, None, :] - X[None, :, :])[iu]
        dY = space.norms(Y[:, None, :] - Y[None, :, :])[iu]
        dd = space.norms((Y - X)[:, None, :] - (Y - X)[None, :, :])[iu]
        sep = dX > 1e-12 * (1 + space.norms(X).max())
        if sep.any():
            lipdev = float((dd[sep] / dX[sep]).max())
            sqdist = float((np.abs(dY[sep] ** 2 - dX[sep] ** 2) / dX[sep] ** 2).max())
    _, h1, lip1 = graph_check(space, Y, plane, proj)
    inside = sigma.pou.sum_values(X) >= 1.0 - 1e-9
    if inside.any():
        _, h2, lip2 = graph_check(space, Y[inside], plane, proj)
    else:
        h2, lip2 = 0.0, 0.0
    if proj.kind in ("orthogonal", "j_projection"):
        tang = float(space.norms(proj.apply(Y - X)).max() / r) if len(X) else 0.0
        sq = sqdist
    else:
        tang, sq = None, None
    return SquashReport(len(notes) == 0, notes, sup_disp, lipdev,
                        float(h1 / r), lip1, float(h2 / r), lip2, tang, sq,
                        delta, eps)


# ---------------------------------------------------------------------------
# covering engine
# ---------------------------------------------------------------------------

@dataclass
class CoverConfig:
    chi: float = 0.1
    delta: float | None = None      # None: use the measured Dini delta
    alpha: float | str = "auto"
    theta: float | None = None
    max_depth: int = 6
    seed: int = 0

    def resolve_alpha(self, space: NormedSpace) -> float:
        """alpha, or the space's smoothness power for "auto"; anything but
        "auto" or a finite number > 0 raises ValueError."""
        if self.alpha == "auto":
            return space.smoothness_power()
        alpha = float(self.alpha)
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be 'auto' or a finite number > 0, got {self.alpha!r}")
        return alpha

    def ledger(self, space: NormedSpace, k: int) -> dict:
        return {
            "chi": self.chi, "theta": self.theta if self.theta is not None else default_theta(k),
            "alpha": self.resolve_alpha(space), "max_depth": self.max_depth,
            "seed": self.seed, "c1": C.c1(k), "c2": C.c2(k), "c3": C.c3(k),
            "c5": C.c5(k), "c_B": C.c_packing_count(k),
            "Gamma": C.overlap_bound(k), "c4": 100.0, "leftover_c": C.c2(k),
        }


@dataclass
class StageReport:
    index: int
    scale: float
    n_good: int
    n_bad: int
    n_original: int
    beta_max: float                 # max beta over the stage's good balls
    graph_height: float             # measured graphicality constants on the
    graph_lip: float                # pushed sample near good balls
    pou_overlap: int
    disjoint_ok: bool
    radius_ok: bool
    packing_sum: float
    beta_shift_ok: bool
    new_balls: list = field(default_factory=list)   # labelled per-stage balls


@dataclass
class CoverResult:
    kept_originals: list            # (center, radius) pairs
    bad_balls: list                 # BallLabel
    tau_stages: list                # SigmaMap
    leftover_mass: float
    packing_sum: float
    distortion: float
    excess_mass: float
    stages: list
    ledger: dict
    item_checks: dict
    estimate_violated: bool
    flags: list
    measured_delta: float
    valid: bool = field(default=True, init=False)


_DISTORTION_PAIRS = 1000     # point pairs on T0 behind item 3's distortion
_DELTA0 = 0.1                # main_packing's delta: mass scale delta0^2/M


def _vitali_keep(space, centers, radii):
    """Greedy Vitali: keep balls by descending radius (ties by index) whose
    1/5-balls stay disjoint from all kept 1/5-balls."""
    kept = []
    for i in sorted(range(len(radii)), key=lambda i: (-radii[i], i)):
        gaps = space.norms(centers[kept] - centers[i][None, :])
        if not (gaps < (radii[i] + radii[kept]) / 5.0 - 1e-12).any():
            kept.append(i)
    return kept


def _farthest_net(space, pts, sep):
    """Maximal sep-separated subset by greedy farthest-point insertion with
    lexicographic (index) tie-break; returns indices into pts."""
    m = len(pts)
    if m == 0:
        return []
    chosen = [0]
    dmin = space.norms(pts - pts[0][None, :])
    while True:
        i = int(np.argmax(dmin))
        if dmin[i] < sep:
            break
        chosen.append(i)
        dmin = np.minimum(dmin, space.norms(pts - pts[i][None, :]))
    return chosen


def _ball_arrays(balls, dim):
    """The centers (B, dim) and radii (B,) of a list of (center, r) balls."""
    C = np.array([c for c, _ in balls], dtype=float).reshape(len(balls), dim)
    return C, np.array([r for _, r in balls], dtype=float)


def _ball_table(space, pts, C, R):
    """(balls x points) membership table of the balls (C[b], R[b]), filled
    row block by row block.  Open-vs-closed is immaterial for retired
    regions; the tolerance keeps boundary atoms from resurfacing through
    float noise."""
    table = np.empty((len(C), len(pts)), dtype=bool)
    for rows, D in _distance_blocks(space, C, pts):
        table[rows] = D < R[rows, None] * (1 + 1e-12)
    return table


def _in_any_ball(space, pts, balls):
    """Membership of each point in the union of closed balls (center, r)."""
    return _ball_table(space, pts, *_ball_arrays(balls, space.dim)).any(axis=0)


def _disjoint(space, balls):
    """Whether the 1/5-balls of the (center, r) balls are pairwise disjoint
    (up to 1e-12), from one center-distance table."""
    C, R = _ball_arrays(balls, space.dim)
    for rows, D in _distance_blocks(space, C, C):
        close = D < (R[rows, None] + R[None, :]) / 5.0 - 1e-12
        if np.triu(close, rows.start + 1).any():
            return False
    return True


def _radius_ok(space, mu, rs, excess, pool, checked):
    """Radius control: inside each checked ball (center, r), the atoms with
    r_s >= r are excess or lie in a ball of the pool other than the checked
    ball itself (same center and radius)."""
    PC, PR = _ball_arrays(pool, space.dim)
    member = _ball_table(space, mu.points, PC, PR)
    for c, r in checked:
        c = np.asarray(c, dtype=float)
        own = (PC == c[None, :]).all(axis=1) & (PR == r)
        inside = space.norms(mu.points - c[None, :]) <= r
        if (inside & (rs >= r) & ~excess & ~member[~own].any(axis=0)).any():
            return False
    return True


def _near_planes(space, pts, goods, radius, thr):
    """(near, off) masks over pts from one distance pass: a point is near
    when it lies in some good ball B_radius(g) within thr of that ball's
    plane, and off when it lies in one at distance >= thr from its plane."""
    near = np.zeros(len(pts), dtype=bool)
    off = np.zeros(len(pts), dtype=bool)
    for (g, _rg, fit) in goods:
        ball = np.flatnonzero(space.norms(pts - g[None, :]) <= radius)
        if len(ball):
            d = distances_to_affine(space, fit.plane, pts[ball])
            near[ball[d < thr]] = True
            off[ball[d >= thr]] = True
    return near, off


def _plane_grid(plane: AffinePlane, radius: float, per_side: int = 9):
    k = plane.k
    if k == 0:
        return plane.base[None, :]
    ticks = np.linspace(-radius, radius, per_side)
    mesh = np.meshgrid(*([ticks] * k), indexing="ij")
    coeffs = np.stack([m.ravel() for m in mesh], axis=1)
    return plane.points(coeffs)


def _radii(mu, r_s):
    """r_s as a float array, checked: one radius per atom of mu, each in
    [0, 1), the radius of the unit ball that the covering runs on."""
    rs = np.asarray(r_s, dtype=float).reshape(-1)
    if len(rs) != len(mu):
        raise ValueError("r_s must align with mu")
    if not np.isfinite(rs).all():
        raise ValueError("r_s must be finite")
    if (rs < 0).any():
        raise ValueError("r_s must be >= 0")
    if (rs >= 1.0).any():
        raise ValueError("r_s < ball radius required")
    return rs


def covering_lemma(space: NormedSpace, mu: PointMeasure, r_s, k: int,
                   cfg: CoverConfig | None = None) -> CoverResult:
    """Run the multiscale covering construction on B_1(0).

    The atoms of mu form the generalized covering; r_s holds their radii
    (0 for the zero part).  The Dini precheck measures delta as the max
    over x in supp mu cap B_1(0), where the lemma assumes the Dini bound, of
    (int_{r_x}^{2} beta^alpha dr/r)^(1/alpha): it profiles only those
    atoms, each ball over all of mu, and measures 0 when B_1(0) holds no
    atom.  Executes, per stage: excess-set removal, the Vitali selection
    of surviving original balls, the maximal 2r/5 net, good/bad
    classification, and the sigma-map assembly from the good balls' best
    planes; composes tau and evaluates the seven item checks.
    Another ball is reached by rescaling it to B_1(0), as `main_packing`
    does for its sub-coverings.
    """
    cfg = cfg or CoverConfig()
    rs = _radii(mu, r_s)
    chi = cfg.chi
    alpha = cfg.resolve_alpha(space)
    ledger = cfg.ledger(space, k)
    flags = []
    origin = np.zeros(space.dim)

    # Dini precheck per atom of supp mu cap B_1(0): int_{r_s}^{2} beta^alpha
    # dr/r at grid chi, seeded by the atom's index in mu
    inside = np.flatnonzero(space.norms(mu.points) <= 1.0)
    profiles = dini_profile(space, mu, mu.points[inside], np.maximum(rs[inside], chi**cfg.max_depth),
                            2.0, k, alpha, chi, seed=cfg.seed + inside)
    measured = max((prof.dini_sum for prof in profiles), default=0.0)
    measured_delta = measured ** (1.0 / alpha) if measured > 0 else 0.0
    delta = cfg.delta if cfg.delta is not None else max(measured_delta, 1e-12)
    if measured_delta > delta * (1 + 1e-9):
        flags.append(f"dini precheck: measured delta {measured_delta:.3g} exceeds configured {delta:.3g}")

    top = classify_ball(space, mu, origin, 1.0, k, chi, cfg.theta)
    if top.kind == "bad":
        leftover = _leftover(space, mu, rs, [], [(origin, 1.0)], [])
        return CoverResult([], [top], [], leftover, 1.0, 1.0, 0.0, [], ledger,
                           {"early_exit": "top ball is bad"}, False, flags,
                           measured_delta)

    top_fit = best_plane(space, mu, origin, 1.0, k, seed=cfg.seed)
    T0 = top_fit.plane
    kept_orig = []          # (center, radius)
    bad_out = []            # BallLabel
    excess = np.zeros(len(mu), dtype=bool)
    # tracked sample of T0 for the graph diagnostics
    track = _plane_grid(T0, 1.2, per_side=9 if k <= 2 else 5)
    track = track[space.norms(track - origin[None, :]) <= 3.0]

    def stage(i, goods):
        """Stage i + 1 at scale chi^(i+1) inside the stage-i good balls
        (center, radius, fit): returns its report, its good balls and its
        sigma map (None when it has no good ball)."""
        nonlocal track
        r_i, r_next = chi**i, chi ** (i + 1)
        # excess set: atoms of a good ball B_r_i(g) off its plane
        near_good, off = _near_planes(space, mu.points, goods, r_i, r_next / 30.0)
        excess[off] = True
        # Vitali selection of the original balls outside the retired ones
        retired = kept_orig + [(b.center, b.radius) for b in bad_out]
        cand_mask = (rs >= r_next) & (rs < r_i) & ~_in_any_ball(space, mu.points, retired)
        near_wide, _ = _near_planes(space, mu.points, goods, 1.5 * r_i, r_next / 30.0)
        cand = np.where(cand_mask & near_wide)[0]
        new_orig = [(mu.points[cand[j]], rs[cand[j]])
                    for j in _vitali_keep(space, mu.points[cand], rs[cand])]
        kept_orig.extend(new_orig)
        retired += new_orig
        # net for good/bad classification; prior-stage excess may re-enter
        # whenever it sits near a current plane, as in the construction
        net_mask = (space.norms(mu.points) <= 1.0) & ~_in_any_ball(space, mu.points, retired)
        net_cand = np.where(net_mask & near_good)[0]
        new_goods, new_bads = [], []
        for j in _farthest_net(space, mu.points[net_cand], 2.0 * r_next / 5.0):
            c = mu.points[net_cand[j]]
            lab = classify_ball(space, mu, c, r_next, k, chi, cfg.theta)
            if lab.kind == "good":
                fit = best_plane(space, mu, c, r_next, k, seed=cfg.seed + 10007 * (i + 1) + j)
                if not fit.valid:
                    flags.append(f"stage {i + 1}: uncertified best-plane fit at "
                                 f"{np.round(c, 4).tolist()} (factor {fit.certified_factor:.2f})")
                new_goods.append((c, r_next, fit))
            else:
                new_bads.append(lab)
        bad_out.extend(new_bads)

        # sigma map from the new good balls, with the graph diagnostics of
        # the pushed sample near each of them
        sigma, h, lip, overlap = None, 0.0, 0.0, 0
        if new_goods:
            sigma = build_sigma(space, [g for (g, _, _) in new_goods], r_next,
                                [fit.plane for (_, _, fit) in new_goods], k)
            track = sigma.apply_many(track)
            if len(track):
                overlap = sigma.pou.overlap_count(track)
            for (g, _, fit), pj in zip(new_goods, sigma.projections):
                nearby = track[space.norms(track - g[None, :]) <= 2.0 * r_next]
                if len(nearby) >= 2:
                    _, hh, ll = graph_check(space, nearby, fit.plane, pj)
                    h = max(h, hh / r_next)
                    lip = max(lip, ll)

        # 1/5-disjointness of all balls so far; radius control: inside each
        # new bad/good ball, originals with larger radius must already be
        # retired or excess (the ball itself excluded)
        bad_balls = [(b.center, b.radius) for b in new_bads]
        good_balls = [(g, r_next) for (g, _, _) in new_goods]
        retired += bad_balls
        disjoint = _disjoint(space, retired + good_balls)
        radius_ok = _radius_ok(space, mu, rs, excess, retired, bad_balls + good_balls)
        packing = sum(r**k for _, r in kept_orig) + \
            sum(b.radius**k for b in bad_out) + sum(r_next**k for _ in new_goods)
        beta_max = max((fit.beta for (_, _, fit) in new_goods), default=0.0)
        # Eq.-style shifted-beta control at the good centers
        shift_ok = beta_max <= 42.0 ** (k + 2) / math.log(2.0) * max(delta, 1e-12)
        labelled = [{"kind": kind, "center": list(map(float, c)), "radius": float(r)}
                    for kind, balls in (("good", good_balls), ("bad", bad_balls),
                                        ("original", new_orig))
                    for c, r in balls]
        report = StageReport(i + 1, r_next, len(new_goods), len(new_bads),
                             len(new_orig), beta_max, h, lip, overlap, disjoint,
                             radius_ok, packing, shift_ok, labelled)
        return report, new_goods, sigma

    goods = [(origin, 1.0, top_fit)]
    stages, sigmas = [], []
    for i in range(cfg.max_depth):
        report, goods, sigma = stage(i, goods)
        stages.append(report)
        if not goods:
            break
        sigmas.append(sigma)

    # final accounting; the distortion pairs on T0 run through every stage
    leftover = _leftover(space, mu, rs, kept_orig, [(b.center, b.radius) for b in bad_out],
                         goods)
    packing = sum(r**k for _, r in kept_orig) + sum(b.radius**k for b in bad_out)
    packing_all = packing + sum(rg**k for (_, rg, _) in goods)
    excess_mass = float(mu.weights[excess].sum())
    distortion = _distortion(*_pair_distances(
        space, T0, sigmas, np.random.default_rng(cfg.seed + 7), 1.0, _DISTORTION_PAIRS))
    item_checks = {
        "item1_base_plane": T0.to_fragment(),
        "item2_graph_height": max((s.graph_height for s in stages), default=0.0),
        "item2_graph_lip": max((s.graph_lip for s in stages), default=0.0),
        "item3_distortion": distortion,
        "item4_disjoint": all(s.disjoint_ok for s in stages),
        "item5_radius": all(s.radius_ok for s in stages),
        "item6_packing_sum": packing_all,
        "item6_ok": packing_all <= C.c5(k),
        "item7_leftover": leftover,
        "item7_bound": float(C.c2(k) * delta**alpha),
        "excess_mass": excess_mass,
    }
    item_checks["item7_ok"] = item_checks["item7_leftover"] <= item_checks["item7_bound"] * (1 + 1e-9)
    estimate_violated = not (all(s.beta_shift_ok for s in stages)
                             and item_checks["item6_ok"] and item_checks["item7_ok"])
    return CoverResult(kept_orig, bad_out, sigmas, leftover, packing,
                       distortion, excess_mass, stages, ledger, item_checks,
                       estimate_violated, flags, measured_delta)


def _leftover(space, mu, rs, kept_orig, bad_balls, goods):
    """mu(B_1(0) \\ F) with F the good-part (radius-restricted), original
    balls, and radius-restricted bad balls."""
    in_unit = space.norms(mu.points) <= 1.0
    covered = np.zeros(len(mu), dtype=bool)
    for c, r in kept_orig:
        covered |= space.norms(mu.points - np.asarray(c)[None, :]) < r
    for c, r in bad_balls:
        covered |= (space.norms(mu.points - np.asarray(c)[None, :]) <= r) & (rs < r)
    for g, rg, _fit in goods:
        covered |= (space.norms(mu.points - np.asarray(g)[None, :]) <= rg) & (rs < rg)
    return float(mu.weights[in_unit & ~covered].sum())


def _pair_distances(space, T0, sigmas, rng, half, npairs):
    """(d0, d1): the distances of npairs random point pairs of T0, with
    coefficients uniform in [-half, half], before and after the stages."""
    P0 = T0.points(rng.uniform(-half, half, size=(2 * npairs, T0.k)))
    P1 = P0
    for sigma in sigmas:
        P1 = sigma.apply_many(P1)
    return space.norms(P0[:npairs] - P0[npairs:]), space.norms(P1[:npairs] - P1[npairs:])


def _distortion(d0, d1):
    """Bi-Lipschitz distortion max(d1/d0, d0/d1) over the pairs with
    d0 > 1e-9 (1.0 when there is none); inf when tau collapses them all."""
    ok = d0 > 1e-9
    if not ok.any():
        return 1.0
    ratio = d1[ok] / d0[ok]
    ratio = ratio[ratio > 0]
    if len(ratio) == 0:
        return math.inf
    return float(max(ratio.max(), 1.0 / ratio.min()))


# ---------------------------------------------------------------------------
# main packing driver
# ---------------------------------------------------------------------------

@dataclass
class PackingLevel:
    index: int
    n_bad: int
    sum_bad: float
    sum_orig: float
    leftover: float
    claim_A_ok: bool
    claim_B_S_ok: bool
    claim_B_bad_ok: bool


@dataclass
class PackingResult:
    kept_originals: list
    levels: list
    leftover_mass: float
    packing_sum: float
    valid: bool
    flags: list
    ledger: dict


def main_packing(space: NormedSpace, mu: PointMeasure, r_s, k: int,
                 M: float, cfg: CoverConfig | None = None,
                 budget: int = 4) -> PackingResult:
    """Rescale mu by _DELTA0^2/M, run the covering lemma, and refine bad
    balls recursively per the inductive packing/measure claims; each level
    asserts claim A (measure) and claim B (packing) with the explicit
    constants.  r_s is checked as `covering_lemma` checks it, at every M.
    Raises nothing on claim failure: results are flagged."""
    if not 0 <= M < math.inf:
        raise ValueError(f"M must be a finite number >= 0, got {M}")
    scale = _DELTA0**2 / M if M > 0 else 1.0
    if not math.isfinite(scale * mu.total_mass):
        raise ValueError(f"M = {M} is too small: the rescaled mass delta0^2/M * mu(R^n) overflows")
    cfg = cfg or CoverConfig()
    # the per-atom M-hypothesis check is the covering precheck at _DELTA0 on
    # the rescaled measure
    cfg = replace(cfg, delta=cfg.delta if cfg.delta is not None else _DELTA0)
    chi = cfg.chi
    rs = _radii(mu, r_s)
    flags = []
    mu_s = PointMeasure(mu.points, mu.weights * scale)
    pts = mu_s.points
    ledger = cfg.ledger(space, k)
    ledger.update({"delta0": _DELTA0, "M": M, "mass_scale": scale, "budget": budget})
    if M == 0 and len(rs) and (rs > 0).all():
        # trivial path: beta = 0, Vitali cover of the original balls
        keep = _vitali_keep(space, pts, rs)
        kept = [(pts[j], rs[j]) for j in keep]
        lvl = PackingLevel(0, 0, 0.0, sum(r**k for _, r in kept), 0.0, True, True, True)
        return PackingResult(kept, [lvl], 0.0, sum(r**k for _, r in kept),
                             True, flags, ledger)
    chi_constraint = C.c5(k) * C.c_packing_count(k) * chi
    ledger["c5_cB_chi"] = chi_constraint
    if chi_constraint >= 0.5:
        flags.append("configured chi violates c5*c_B*chi < 1/2 (proof-chain constants); "
                     "claims asserted with measured sums")

    # level 0: a bad top ball comes back as the lemma's one bad ball
    res = covering_lemma(space, mu_s, rs, k, cfg)
    kept_all = list(res.kept_originals)
    bads = res.bad_balls
    flags.extend(f"level 0: {f}" for f in res.flags)
    levels = [_packing_level(space, mu_s, rs, 0, kept_all, bads, k)]
    for level in range(1, budget + 1):
        if not bads:
            break
        new_bads, unrefined = [], 0
        for b in bads:
            c, r = b.center, b.radius
            # each sub-covering runs on B_1(0): scale B_rho(x) down to it and
            # its balls and witness planes back up
            rho = chi * r
            small = rs < rho
            with np.errstate(over="ignore", divide="ignore"):
                sub_w = mu_s.weights[small] / rho**k
                # 16 bounds the squared diameter of a Dini ball of radius 2:
                # a mass finite times 16 keeps the PCA moments finite
                if not np.isfinite(16.0 * sub_w.sum()):    # the ball stays bad, unrefined
                    new_bads.append(b)
                    unrefined += 1
                    continue
            V = best_plane(space, mu_s.subset(rs < r), c, r, k, seed=cfg.seed + level).plane
            # original balls with chi r <= r_s < r near V (Vitali)
            d_to_V = distances_to_affine(space, V, pts)
            d_to_c = space.norms(pts - c[None, :])
            cand = np.where((rs >= chi * r) & (rs < r) & (d_to_c <= 2 * r)
                            & (d_to_V < chi * r / 30.0))[0]
            S_b = [(pts[cand[j]], rs[cand[j]]) for j in _vitali_keep(space, pts[cand], rs[cand])]
            kept_all.extend(S_b)
            # net near the witness (k-1)-plane, one sub-covering per net point
            d_to_L = distances_to_affine(space, b.witness_plane, pts)
            nm = ((d_to_c <= r) & (d_to_L <= 10 * chi * r) & (d_to_V <= chi * r / 30.0)
                  & ~_in_any_ball(space, pts, S_b))
            net_pts = pts[nm]
            net = _farthest_net(space, net_pts, 2 * chi * r / 5.0)
            if len(net) > C.c_packing_count(k) * chi ** (1 - k):
                flags.append(f"level {level}: net size {len(net)} exceeds c_B chi^(1-k)")
            for j in net:
                x = net_pts[j]
                sub = covering_lemma(space, PointMeasure((pts[small] - x) / rho, sub_w),
                                     rs[small] / rho, k, cfg)
                kept_all.extend((kc * rho + x, kr * rho) for kc, kr in sub.kept_originals)
                flags.extend(f"level {level}: {f}" for f in sub.flags)
                for sb in sub.bad_balls:
                    sb.center = sb.center * rho + x
                    sb.radius = sb.radius * rho
                    sb.witness_plane = AffinePlane(sb.witness_plane.base * rho + x,
                                                   sb.witness_plane.basis)
                new_bads.extend(sub.bad_balls)
        if unrefined:
            flags.append(f"level {level}: {unrefined} bad balls not refined: the rescaled "
                         "mass of their sub-coverings overflows")
        bads = new_bads
        levels.append(_packing_level(space, mu_s, rs, level, kept_all, bads, k))
    valid = all(l.claim_A_ok and l.claim_B_S_ok and l.claim_B_bad_ok for l in levels)
    if bads:
        flags.append("recursion budget exhausted with bad balls remaining")
        valid = False
    packing = sum(r**k for _, r in kept_all)
    return PackingResult(kept_all, levels, levels[-1].leftover, packing, valid, flags, ledger)


def _packing_level(space, mu, rs, index, kept_all, bads, k):
    leftover = _leftover(space, mu, rs, kept_all, [(b.center, b.radius) for b in bads], [])
    sum_bad = float(sum(b.radius**k for b in bads))
    sum_orig = float(sum(r**k for _, r in kept_all))
    geo = sum(2.0**-j for j in range(index + 1))
    a_ok = leftover <= geo + 1e-12
    b_s = sum_orig <= 3**k * C.c2(k) * geo + 1e-12
    b_b = sum_bad <= 2.0**-index + 1e-12
    return PackingLevel(index, len(bads), sum_bad, sum_orig, leftover,
                        bool(a_ok), bool(b_s), bool(b_b))


# ---------------------------------------------------------------------------
# Reifenberg-flat parametrization
# ---------------------------------------------------------------------------

@dataclass
class ReifenbergReport:
    n_stages: int
    distortion: float
    holder_exponent: float
    q_alpha: float
    lip_constant_fit: float | None
    certified_delta: float


def reifenberg_flat_map(space: NormedSpace, Spts, k: int, chi: float = 0.01,
                        delta: float = 0.05, max_depth: int = 4, pair_count: int = 400):
    """Build the bi-Hoelder/bi-Lipschitz parametrization of a Reifenberg-flat
    sample: per stage, a maximal 2 r_i/5 net on S, sup-beta best planes
    anchored at the net points, and the interpolated projection map.

    Returns (tau stages, ReifenbergReport).  chi must lie in (0, 1) and
    delta be finite and positive; certification failure (some sampled
    beta_inf above delta) raises ValueError too."""
    if not (0 < chi < 1):
        raise ValueError(f"chi must lie in (0, 1), got {chi}")
    if not (0 < delta < math.inf):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    S = np.atleast_2d(np.asarray(Spts, dtype=float))
    alpha = space.smoothness_power()
    in_unit = space.norms(S) <= 1.0
    S1 = S[in_unit] if in_unit.any() else S
    i0 = int(np.argmin(space.norms(S1)))    # the min-norm point of S lies in S1
    # resolution: stop once scales fall below the sample spacing
    nn = _nearest_neighbor_scale(space, S1)
    certified = 0.0
    stage_scales = []
    r = chi
    for i in range(1, max_depth + 1):
        if r < 2.0 * nn:
            break
        stage_scales.append(r)
        r *= chi
    scales = [1.0] + stage_scales
    # one net per scale and one beta_inf per (S1 index, scale), shared by
    # the certification, the stage planes and the Q bound
    nets = {rr: _farthest_net(space, S1, 2.0 * rr / 5.0) for rr in scales}
    cert_cap = 200
    samples = range(0, len(S1), max(len(S1) // 64, 1))    # Q-bound centers
    betas = {}
    for rr in scales:
        # the indices read at this scale, in one batched call
        idx = set(nets[rr] if rr in stage_scales else nets[rr][:cert_cap])
        idx.update(samples)
        if rr == 1.0:
            idx.add(i0)
        idx = sorted(idx)
        betas.update(((j, rr), b) for j, b in zip(idx, beta_inf(space, S, S1[idx], rr, k)))
        # certify flatness on the capped net samples, scale by scale
        for j in nets[rr][:cert_cap]:
            bi = betas[j, rr]
            certified = max(certified, bi.value)
            if bi.value > delta * (1 + 1e-9):
                raise ValueError(
                    f"flatness certification failed: beta_inf {bi.value:.3g} > delta {delta:.3g} "
                    f"at scale {rr}")
    T0 = betas[i0, 1.0].plane
    sigmas = []
    for rr in stage_scales:
        net = nets[rr]
        planes = [betas[j, rr].plane for j in net]
        sigmas.append(build_sigma(space, S1[net], rr, planes, k))
    # beta_inf Dini sums for the Q bound
    q_meas = 0.0
    for j in samples:
        tot = 0.0
        for rr in scales:
            tot += betas[j, rr].value ** alpha * math.log(1 / chi)
        q_meas = max(q_meas, tot)
    d0, d1 = _pair_distances(space, T0, sigmas, np.random.default_rng(0), 0.9, pair_count)
    distortion = _distortion(d0, d1)
    # bi-Hoelder exponent from log-log regression
    ok = (d0 > 1e-9) & (d1 > 0)
    if ok.sum() >= 2:
        lx, ly = np.log(d0[ok]), np.log(d1[ok])
        A = np.vstack([lx, np.ones_like(lx)]).T
        slope = float(np.linalg.lstsq(A, ly, rcond=None)[0][0])
    else:
        slope = 1.0
    lip_fit = math.log(max(distortion, 1.0 + 1e-15)) / q_meas if q_meas > 0 else None
    report = ReifenbergReport(len(sigmas), distortion, slope, q_meas, lip_fit, certified)
    return sigmas, report


def _nearest_neighbor_scale(space, S):
    if len(S) < 2:
        return 0.0
    idx = np.arange(len(S))
    if len(S) > 512:
        idx = np.linspace(0, len(S) - 1, 512).astype(int)
    nearest = np.empty(len(idx))
    for rows, D in _distance_blocks(space, S[idx], S):
        D[D <= 0] = np.inf
        nearest[rows] = D.min(axis=1)
    # the median by sorting: np.median would import numpy.ma on first use
    nearest.sort()
    h = len(nearest) // 2
    return float(nearest[h] if len(nearest) % 2 else (nearest[h - 1] + nearest[h]) / 2)
