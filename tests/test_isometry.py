"""Isometry invariance of the exact solver paths.

The beta-numbers depend only on the norm, so every isometry of (R^n, l^p)
must leave them unchanged: the signed coordinate permutations for every p,
every orthogonal map for p = 2, and translations.  On the exact paths the
change is rounding only, at most 1e-12 * (1 + |value|):

- the PCA `best_plane` at p = 2, also under a random orthogonal map, and
  its beta and the Dini sums under zero-padding R^3 -> R^N for N in
  {4, 8, 50};
- distances to hyperplanes for p in {1, 1.5, 4, inf}, and at p in {1, inf}
  to lines in R^3 and to 2- and 3-flats in R^4 and R^5 (the exact vertex
  minimum), also under zero-padding R^n -> R^(n+1) for lines, planes and
  hyperplanes (a padded hyperplane is a flat of codimension 2);
- the planar hull-walk `beta_inf` (lines in R^2) for p in {1, 1.5, 2, 4, inf};
- the dual side: a signed permutation T is an isometry of l^q too, so it
  keeps the dual norms, and the duality map moves with it, J(Tx) = T J(x),
  for p in {1, 1.5, 2, 4};
- whole reports: `main_packing` on the 68-atom l^2 graph keeps every
  level's bad-ball count and sum, the leftover mass and the packing sum,
  and `covering_lemma` on the 21-atom l^4 saddle keeps its stage counts,
  packing sum, leftover and excess mass and measured delta, under three
  signed permutations (and, for the saddle, the three quarter turns of
  its (u, v) plane).

Left out, because they are not invariant today: the descent `best_plane`
(every non-Hilbert fit that is not exact; up to 6.3% under a signed
permutation at p = inf, n = 3, k = 1) and the Nelder-Mead `beta_inf` (every
(n, k) but (2, 1); up to 6.0% at p = 1, n = 3, k = 1).  The Newton distances
to flats of codimension >= 2 at 1 < p < inf stop at a tolerance, so they
are left out too.  So are two fields of the l^4 saddle's cover report,
which rest on the Hahn-Banach projections and the sigma maps: over all 48
signed permutations of R^3, `distortion` runs from 1.0000000000095 to
1.0000053 and `item2_graph_height` from 3.2e-5 to 2.4e-4.
"""

import itertools
import math

import numpy as np
import pytest

from betareif.cover import CoverConfig, covering_lemma, main_packing
from betareif.geometry import AffinePlane, distances_to_affine
from betareif.measures import PointMeasure, best_plane, beta_inf, dini_profile
from betareif.spaces import NormedSpace

from conftest import l4_saddle_21

P_LIST = [1.0, 1.5, 4.0, math.inf]


def _signed_permutations(n):
    """Every n x n signed permutation matrix."""
    eye = np.eye(n)
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            yield eye[list(perm)] * np.array(signs)[:, None]


def _close(a, b):
    return abs(a - b) <= 1e-12 * (1 + abs(a))


def _ball(rng, n, m):
    """m weighted atoms in the cube [-1, 1]^n and a center near 0."""
    return rng.uniform(-1, 1, (m, n)), rng.uniform(0.5, 2.0, m), rng.uniform(-0.2, 0.2, n)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2)])
def test_pca_best_plane_is_invariant(n, k):
    # signed permutations, a random orthogonal map and a translation
    space = NormedSpace(n, 2.0)
    rng = np.random.default_rng(10 * n + k)
    for _ in range(4):
        pts, w, x = _ball(rng, n, 15)
        b0 = best_plane(space, PointMeasure(pts, w), x, 1.3, k).beta
        assert b0 > 0
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        t = rng.uniform(-1, 1, n)
        for T in [*_signed_permutations(n), Q]:
            b1 = best_plane(space, PointMeasure(pts @ T.T + t, w), T @ x + t, 1.3, k).beta
            assert _close(b0, b1), (T, b0, b1)


@pytest.mark.parametrize("N", [4, 8, 50])
@pytest.mark.parametrize("k", [1, 2])
def test_zero_padding_keeps_hilbert_fits(k, N):
    # (R^3, l^2) as the first coordinates of (R^N, l^2): the PCA best plane's
    # beta and the Dini sums of every atom stay, as the Hilbert results hold
    # with no condition on the dimension
    rng = np.random.default_rng([k, 3])
    pad = lambda X: np.concatenate([X, np.zeros(X.shape[:-1] + (N - 3,))], axis=-1)
    for _ in range(4):
        pts, w, x = _ball(rng, 3, 15)
        mu3, muN = PointMeasure(pts, w), PointMeasure(pad(pts), w)
        b3 = best_plane(NormedSpace(3, 2.0), mu3, x, 1.3, k).beta
        bN = best_plane(NormedSpace(N, 2.0), muN, pad(x), 1.3, k).beta
        assert b3 > 0 and _close(b3, bN), (b3, bN)
        for p3, pN in zip(dini_profile(NormedSpace(3, 2.0), mu3, pts, 0.05, 2.0, k, 2.0, 0.5),
                          dini_profile(NormedSpace(N, 2.0), muN, pad(pts), 0.05, 2.0, k, 2.0, 0.5)):
            assert _close(p3.dini_sum, pN.dini_sum), (p3.dini_sum, pN.dini_sum)


@pytest.mark.parametrize("n,k,p", [*[(n, n - 1, p) for n in (2, 3) for p in P_LIST],
                                   (3, 1, 1.0), (3, 1, math.inf)])
def test_exact_distances_are_invariant(n, k, p):
    # hyperplanes (k = n - 1) for every p, and lines in R^3 at p in {1, inf}
    space = NormedSpace(n, p)
    rng = np.random.default_rng(int(100 * n + 10 * k + (p if p < 9 else 9)))
    for _ in range(4):
        Z = rng.uniform(-1, 1, (20, n))
        base, basis = rng.uniform(-1, 1, n), rng.normal(size=(k, n))
        d0 = distances_to_affine(space, AffinePlane(base, basis), Z)
        t = rng.uniform(-1, 1, n)
        for T in _signed_permutations(n):
            d1 = distances_to_affine(space, AffinePlane(T @ base + t, basis @ T.T), Z @ T.T + t)
            assert all(_close(a, b) for a, b in zip(d0, d1)), (T, d0, d1)


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3)])
def test_vertex_distances_are_invariant(n, k, p):
    # 2- and 3-flats at p in {1, inf}, under 48 random signed permutations
    # with translations (R^5 has 3,840 signed permutations)
    space = NormedSpace(n, p)
    rng = np.random.default_rng([n, k, int(p == 1.0)])
    for _ in range(3):
        Z = rng.uniform(-1, 1, (20, n))
        base, basis = rng.uniform(-1, 1, n), rng.normal(size=(k, n))
        d0 = distances_to_affine(space, AffinePlane(base, basis), Z)
        for _ in range(48):
            T = np.eye(n)[rng.permutation(n)] * rng.choice([1.0, -1.0], n)[:, None]
            t = rng.uniform(-1, 1, n)
            d1 = distances_to_affine(space, AffinePlane(T @ base + t, basis @ T.T), Z @ T.T + t)
            assert all(_close(a, b) for a, b in zip(d0, d1)), (T, d0, d1)


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_zero_padding_keeps_distances(n, k, p):
    # R^n as the hyperplane x_(n+1) = 0 of R^(n+1): lines, planes and
    # hyperplanes; a padded hyperplane leaves `_dists_hyperplane` for the
    # vertex solver
    rng = np.random.default_rng([n, k, int(p == 1.0), 9])
    pad = lambda X: np.concatenate([X, np.zeros(X.shape[:-1] + (1,))], axis=-1)
    for _ in range(4):
        Z = rng.uniform(-1, 1, (20, n))
        base, basis = rng.uniform(-1, 1, n), rng.normal(size=(k, n))
        d0 = distances_to_affine(NormedSpace(n, p), AffinePlane(base, basis), Z)
        d1 = distances_to_affine(NormedSpace(n + 1, p), AffinePlane(pad(base), pad(basis)), pad(Z))
        assert all(_close(a, b) for a, b in zip(d0, d1)), (d0, d1)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
def test_planar_hull_walk_beta_inf_is_invariant(p):
    space = NormedSpace(2, p)
    rng = np.random.default_rng(int(p if p < 9 else 9))
    for _ in range(4):
        S, _w, x = _ball(rng, 2, 25)
        b0 = beta_inf(space, S, x, 0.9, 1).value
        assert b0 > 0
        t = rng.uniform(-1, 1, 2)
        for T in _signed_permutations(2):
            b1 = beta_inf(space, S @ T.T + t, T @ x + t, 0.9, 1).value
            assert _close(b0, b1), (T, b0, b1)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_dual_norms_and_duality_map_are_equivariant(p):
    rng = np.random.default_rng(int(10 * p))
    for n in (2, 3):
        space = NormedSpace(n, p)
        X = rng.normal(size=(20, n)) * rng.uniform(0.1, 10.0, (20, 1))
        d0, J0 = space.dual_norms(X), space.duality_map(X)
        for T in _signed_permutations(n):
            d1, J1 = space.dual_norms(X @ T.T), space.duality_map(X @ T.T)
            assert all(_close(a, b) for a, b in zip(d0, d1)), (T, d0, d1)
            assert all(_close(a, b) for a, b in zip((J0 @ T.T).ravel(), J1.ravel())), (T, J0, J1)


# -- whole reports ----------------------------------------------------------

_E = np.eye(3)
PERMUTATIONS = {
    "swap": _E[[1, 0, 2]],
    "cycle": _E[[2, 0, 1]] * np.array([-1.0, 1.0, -1.0])[:, None],
    "flip": _E[[0, 2, 1]] * np.array([1.0, 1.0, -1.0])[:, None],
}
QUARTER_TURNS = {"turn1": _E[[1, 0, 2]] * np.array([-1.0, 1.0, 1.0])[:, None],
                 "turn2": np.diag([-1.0, -1.0, 1.0]),
                 "turn3": _E[[1, 0, 2]] * np.array([1.0, -1.0, 1.0])[:, None]}


def _graph68():
    """68 equal atoms of total mass 0.85^2 pi on the paraboloid
    0.01(u^2 + v^2)/2: 22 golden-angle triples of side 0.09 and two atoms
    off the lattice (the measure of `betareif pack` in the benchmark)."""
    idx = np.arange(22) + 0.5
    rr, th = 0.85 * np.sqrt(idx / 22), idx * (math.pi * (3 - math.sqrt(5)))
    offs = np.array([[0.0, 0.09 / math.sqrt(3)], [0.045, -0.09 / (2 * math.sqrt(3))],
                     [-0.045, -0.09 / (2 * math.sqrt(3))]])
    U = np.concatenate([(rr * np.cos(th))[:, None] + offs[None, :, 0], [[0.02, -0.05]]], axis=None)
    V = np.concatenate([(rr * np.sin(th))[:, None] + offs[None, :, 1], [[0.03, -0.04]]], axis=None)
    pts = np.stack([U, V, 0.01 * (U * U + V * V) / 2.0], axis=1)
    return PointMeasure(pts, np.full(len(pts), math.pi * 0.85 * 0.85 / len(pts)))


def _pack(T):
    mu = _graph68()
    res = main_packing(NormedSpace(3, 2), PointMeasure(mu.points @ T.T, mu.weights),
                       np.zeros(len(mu)), 2, M=0.01,
                       cfg=CoverConfig(chi=0.1, delta=0.1, max_depth=3), budget=2)
    return ([lv.n_bad for lv in res.levels],
            [lv.sum_bad for lv in res.levels] + [res.leftover_mass, res.packing_sum])


def _cover(T):
    mu = l4_saddle_21()
    res = covering_lemma(NormedSpace(3, 4), PointMeasure(mu.points @ T.T, mu.weights),
                         np.zeros(len(mu)), 2, CoverConfig(chi=0.1, delta=0.15, max_depth=2))
    return ([(s.n_good, s.n_bad, s.n_original) for s in res.stages],
            [res.packing_sum, res.leftover_mass, res.excess_mass, res.measured_delta])


@pytest.fixture(scope="module")
def unmoved():
    return {"pack": _pack(_E), "cover": _cover(_E)}


@pytest.mark.parametrize("name", list(PERMUTATIONS))
def test_pack_report_is_invariant(unmoved, name):
    counts, values = _pack(PERMUTATIONS[name])
    counts0, values0 = unmoved["pack"]
    assert len(counts0) == 3 and counts0[0] > 0
    assert counts == counts0
    assert all(_close(a, b) for a, b in zip(values0, values)), (values0, values)


@pytest.mark.parametrize("name", [*PERMUTATIONS, *QUARTER_TURNS])
def test_cover_report_is_invariant(unmoved, name):
    counts, values = _cover({**PERMUTATIONS, **QUARTER_TURNS}[name])
    counts0, values0 = unmoved["cover"]
    assert counts == counts0
    assert values0[-1] > 0
    assert all(_close(a, b) for a, b in zip(values0, values)), (values0, values)
