"""Seeded inputs for the three benchmark workloads.

Seed 0 reproduces the repository's test fixtures bit for bit:
`tests/conftest.graph_measure_200`, the l^4 graph of
`test_covering_l4_graph_hahn_banach_path` and the depth-4 `_snowflake_sample`
of the constant-eta snowflake test.  Any other seed keeps the solver paths and
the amount of work:

- l^2 graph: the golden-angle layout turns rigidly by a seeded phase; the
  l^2 norm, and so every step of the run, is invariant under it.
- l^4 graph: the layout makes an exact quarter turn, clockwise for even
  seeds and counter-clockwise for odd ones.  Quarter turns are symmetries
  of the l^4 ball.  A general phase is not: it changes the SLSQP iteration
  count of the Hahn-Banach projections by up to a factor 2, so the run
  time would depend on the seed.  The two quarter turns cost the same.
- snowflake: the per-level etas are drawn from [0.07, 0.09]; every seed
  makes the same 263 beta_inf calls.
"""

from __future__ import annotations

import math

import numpy as np

from betareif import curves
from betareif.measures import PointMeasure
from betareif.spaces import NormedSpace

GOLDEN = math.pi * (3 - math.sqrt(5))


def _phase(seed: int) -> float:
    if seed == 0:
        return 0.0
    return float(np.random.default_rng([seed, 1]).uniform(0.0, 2.0 * math.pi))


def _rotate(U, V, phase):
    if phase == 0.0:
        return U, V
    c, s = math.cos(phase), math.sin(phase)
    return c * U - s * V, s * U + c * V


def _quarter_turn(U, V, seed):
    if seed == 0:
        return U, V
    return (-V, U) if seed % 2 else (V, -U)


def _triangle_offsets(side):
    return np.array([[0.0, side / math.sqrt(3)],
                     [side / 2, -side / (2 * math.sqrt(3))],
                     [-side / 2, -side / (2 * math.sqrt(3))]])


def _golden_clusters(n_clusters, R, side):
    idx = np.arange(n_clusters) + 0.5
    rr = R * np.sqrt(idx / n_clusters)
    th = idx * GOLDEN
    cu, cv = rr * np.cos(th), rr * np.sin(th)
    offs = _triangle_offsets(side)
    return (cu[:, None] + offs[None, :, 0]).ravel(), (cv[:, None] + offs[None, :, 1]).ravel()


def l2_graph(seed: int = 0, n_clusters: int = 66, kappa=0.01, side=0.09, R=0.85):
    """(space, measure) in (R^3, l^2): the first 198 atoms of `n_clusters`
    golden-angle triples plus two off-lattice atoms, on the paraboloid
    kappa(u^2+v^2)/2, with equal weights of total pi R^2.  With 66 clusters
    this is `tests/conftest.graph_measure_200`."""
    U, V = _golden_clusters(n_clusters, R, side)
    U = np.concatenate([U[:198], [0.02, -0.05]])
    V = np.concatenate([V[:198], [0.03, -0.04]])
    n = len(U)
    U, V = _rotate(U, V, _phase(seed))
    g = kappa * (U * U + V * V) / 2.0
    pts = np.stack([U, V, g], axis=1)
    return NormedSpace(3, 2), PointMeasure(pts, np.ones(n) * (math.pi * R * R / n))


def l4_graph(seed: int = 0, n_clusters: int = 22):
    """(space, measure): golden-angle triples on the saddle 0.001(u^2-v^2)
    in (R^3, l^4), total mass 2.  With 22 clusters (66 atoms) this is the
    measure of `test_covering_l4_graph_hahn_banach_path`."""
    U, V = _golden_clusters(n_clusters, 0.85, 0.095)
    U, V = _quarter_turn(U, V, seed)
    g = 0.001 * (U * U - V * V)
    mu = PointMeasure(np.stack([U, V, g], axis=1), np.full(len(U), 2.0 / len(U)))
    return NormedSpace(3, 4), mu


def snowflake_etas(seed: int = 0, levels: int = 12):
    if seed == 0:
        return [0.08] * levels
    return np.random.default_rng([seed, 2]).uniform(0.07, 0.09, levels).tolist()


def snowflake_sample(seed: int = 0, depth: int = 4, max_pts: int = 2200):
    """(space, vertices) of the plane-bump snowflake, centered and scaled by 2.4."""
    spec = curves.SnowflakeSpec("plane_bump", 2.0, tuple(snowflake_etas(seed)), depth)
    verts = np.array(curves.snowflake(spec))
    S = (verts - [0.5, 0.0]) * 2.4
    if len(S) > max_pts:
        S = S[::int(np.ceil(len(S) / max_pts))]
    return NormedSpace(2, 2), S
