"""Isometry invariance of the exact solver paths.

The beta-numbers depend only on the norm, so every isometry of (R^n, l^p)
must leave them unchanged: the signed coordinate permutations for every p,
every orthogonal map for p = 2, and translations.  On the exact paths the
change is rounding only, at most 1e-12 * (1 + |value|):

- the PCA `best_plane` at p = 2, also under a random orthogonal map;
- distances to hyperplanes for p in {1, 1.5, 4, inf}, and to lines in R^3
  at p in {1, inf} (the exact breakpoint minimum);
- the planar hull-walk `beta_inf` (lines in R^2) for p in {1, 1.5, 2, 4, inf};
- the dual side: a signed permutation T is an isometry of l^q too, so it
  keeps the dual norms, and the duality map moves with it, J(Tx) = T J(x),
  for p in {1, 1.5, 2, 4}.

Left out, because they are not invariant today: the descent `best_plane`
(every non-Hilbert fit that is not exact; up to 6.3% under a signed
permutation at p = inf, n = 3, k = 1) and the Nelder-Mead `beta_inf` (every
(n, k) but (2, 1); up to 6.0% at p = 1, n = 3, k = 1).  The Newton distances
to flats of codimension >= 2 at 1 < p < inf and the LP distances at
p in {1, inf} with 2 <= k <= n - 2 stop at a tolerance, so they are left out
too.
"""

import itertools
import math

import numpy as np
import pytest

from betareif.geometry import AffinePlane, distances_to_affine
from betareif.measures import PointMeasure, best_plane, beta_inf
from betareif.spaces import NormedSpace

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
