import json
import math

import numpy as np
import pytest

from betareif.curves import SnowflakeSpec, snowflake
from betareif.measures import PointMeasure
from betareif.spaces import NormedSpace


@pytest.fixture
def l2_plane():
    return NormedSpace(2, 2)


@pytest.fixture
def l2_space():
    return NormedSpace(3, 2)


def gamma2_sample(eps, m=121):
    """Dense sample of the one-bump curve: unit segment with the middle
    third bumped at slope eps (apex (1/2, eps/6))."""
    ts = np.linspace(0.0, 1.0, m)
    ys = np.where(ts < 1 / 3, 0.0,
                  np.where(ts < 0.5, (ts - 1 / 3) * eps,
                           np.where(ts < 2 / 3, (2 / 3 - ts) * eps, 0.0)))
    return np.stack([ts, ys], axis=1)


def graph_measure_200(kappa=0.01, n_clusters=66, side=0.09, R=0.85):
    """200 atoms on the paraboloid graph g = kappa(u^2+v^2)/2 over a disk,
    grouped in equilateral triples so balls at scale 1/10 carry spread
    witnesses; Lip(g) = kappa*R <= 0.05."""
    golden = math.pi * (3 - math.sqrt(5))
    idx = np.arange(n_clusters) + 0.5
    rr = R * np.sqrt(idx / n_clusters)
    th = idx * golden
    cu, cv = rr * np.cos(th), rr * np.sin(th)
    offs = np.array([[0.0, side / math.sqrt(3)],
                     [side / 2, -side / (2 * math.sqrt(3))],
                     [-side / 2, -side / (2 * math.sqrt(3))]])
    U = (cu[:, None] + offs[None, :, 0]).ravel()[:198]
    V = (cv[:, None] + offs[None, :, 1]).ravel()[:198]
    U = np.concatenate([U, [0.02, -0.05]])
    V = np.concatenate([V, [0.03, -0.04]])
    g = kappa * (U * U + V * V) / 2.0
    pts = np.stack([U, V, g], axis=1)
    return PointMeasure(pts, np.ones(200) * (math.pi * R * R / 200))


def snowflake_sample(etas, depth, max_pts):
    """Vertices of the plane-bump snowflake, centered and scaled by 2.4,
    thinned by a stride to at most max_pts."""
    sp = SnowflakeSpec("plane_bump", 2.0, tuple(etas), depth)
    verts = np.array(snowflake(sp))
    V = (verts - [0.5, 0.0]) * 2.4
    if len(V) > max_pts:
        stride = int(np.ceil(len(V) / max_pts))
        V = V[::stride]
    return V


def l4_saddle_21():
    """21 atoms in seven golden-angle triples on the saddle 0.001(u^2-v^2)
    in (R^3, l^4), total mass 2."""
    golden = math.pi * (3 - math.sqrt(5))
    idx = np.arange(7) + 0.5
    rr = 0.85 * np.sqrt(idx / 7)
    cu, cv = rr * np.cos(idx * golden), rr * np.sin(idx * golden)
    side = 0.095
    offs = np.array([[0.0, side / math.sqrt(3)],
                     [side / 2, -side / (2 * math.sqrt(3))],
                     [-side / 2, -side / (2 * math.sqrt(3))]])
    U = (cu[:, None] + offs[None, :, 0]).ravel()
    V = (cv[:, None] + offs[None, :, 1]).ravel()
    g = 0.001 * (U * U - V * V)
    return PointMeasure(np.stack([U, V, g], axis=1), np.full(21, 2.0 / 21))


@pytest.fixture
def l4_saddle_json(tmp_path):
    path = tmp_path / "l4_saddle.json"
    path.write_text(json.dumps(l4_saddle_21().to_json(NormedSpace(3, 4))))
    return str(path)
