"""Tests of the benchmark's own pieces: seeded inputs, self-time arithmetic,
branch keying and tracer installation.

    python3 -m pytest perfbench
"""

import inspect
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import conftest as fixtures  # noqa: E402
import test_cover  # noqa: E402
from betareif import cover, geometry, measures  # noqa: E402
from betareif.measures import PointMeasure  # noqa: E402
from betareif.spaces import NormedSpace  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import probe  # noqa: E402
import tracer as tr  # noqa: E402


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _l4_fixture():
    """The measure built at the top of test_covering_l4_graph_hahn_banach_path."""
    src = inspect.getsource(test_cover.test_covering_l4_graph_hahn_banach_path)
    body = inspect.cleandoc("\n".join(src.splitlines()[1:]))
    scope = dict(vars(test_cover))
    exec(body.split("cfg =")[0], scope)
    return scope["s"], scope["mu"]


# -- seeded inputs ------------------------------------------------------------

def test_seed0_graph_measure_200_is_the_fixture():
    space, mu = inputs.l2_graph(0)
    ref = fixtures.graph_measure_200()
    assert (space.dim, space.p) == (3, 2.0)
    assert _same_bits(mu.points, ref.points) and _same_bits(mu.weights, ref.weights)


def test_seed0_l4_graph_is_the_fixture():
    space, mu = inputs.l4_graph(0)
    ref_space, ref = _l4_fixture()
    assert (space.dim, space.p) == (ref_space.dim, ref_space.p)
    assert _same_bits(mu.points, ref.points) and _same_bits(mu.weights, ref.weights)


def test_seed0_snowflake_is_the_fixture():
    space, S = inputs.snowflake_sample(0)
    assert (space.dim, space.p) == (2, 2.0)
    assert len(S) == 65
    assert _same_bits(S, test_cover._snowflake_sample([0.08] * 12, 4, 2200))


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_other_seeds_are_deterministic_rigid_variants(seed):
    _, mu0 = inputs.l2_graph(0)
    _, mu = inputs.l2_graph(seed)
    _, again = inputs.l2_graph(seed)
    assert _same_bits(mu.points, again.points)
    assert not np.array_equal(mu.points, mu0.points)
    # a rotation about the axis keeps every atom's radius and height
    r0 = np.hypot(mu0.points[:, 0], mu0.points[:, 1])
    assert np.allclose(np.hypot(mu.points[:, 0], mu.points[:, 1]), r0, atol=1e-12)
    assert np.allclose(mu.points[:, 2], mu0.points[:, 2], atol=1e-15)
    # a quarter turn of the l^4 layout is an isometry: norms are unchanged
    space4, l40 = inputs.l4_graph(0)
    _, l4 = inputs.l4_graph(seed)
    assert not np.array_equal(l4.points, l40.points)
    assert np.allclose(space4.norms(l4.points), space4.norms(l40.points), rtol=1e-15)
    etas = inputs.snowflake_etas(seed)
    assert etas == inputs.snowflake_etas(seed)
    assert all(0.07 <= e <= 0.09 for e in etas)
    assert len(inputs.snowflake_sample(seed)[1]) == 65


# -- self times ---------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tr.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once_and_clips():
    # children [1, 5] and [3, 6] cover [1, 6]; a child past the parent's end
    # [8, 12] is clipped to [8, 10]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    out = tr.self_times(start, end, parent)
    assert out[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert out[1:].tolist() == [4.0, 3.0, 4.0]


def test_tracer_spans_and_self_times_add_up():
    t = tr.Tracer()
    root = t.open(tr.ROOT)
    a = t.open("x")
    b = t.open("y")
    t.close(b)
    t.close(a)
    t.close(root)
    names, start, end, parent, run = t.arrays()
    assert names.tolist() == [tr.ROOT, "x", "y"]
    assert parent.tolist() == [-1, 0, 1]
    s = tr.self_times(start, end, parent)
    assert s.sum() == pytest.approx(end[0] - start[0])


# -- branch keying ------------------------------------------------------------

SOLVERS = {"_dists_hyperplane": "hyperplane", "_dists_line_golden": "golden_line",
           "_dist_lp_linprog": "lp", "_dist_newton_batch": "newton"}


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (2, 2, 3), (4, 2, 3), (4, 1, 3),
                                   (1, 1, 3), (math.inf, 1, 4), (math.inf, 2, 4),
                                   (3, 1, 2), (1, 2, 4)])
def test_dist_branch_matches_the_solver_geometry_runs(monkeypatch, p, k, n):
    called = []
    for fn, branch in SOLVERS.items():
        orig = getattr(geometry, fn)
        monkeypatch.setattr(geometry, fn,
                            lambda *a, _o=orig, _b=branch, **kw: (called.append(_b), _o(*a, **kw))[1])
    space = NormedSpace(n, p)
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((k, n))
    geometry._dists_to_flat_batch(space, np.zeros(n), rows, rng.standard_normal((3, n)))
    expect = tr.dist_branch(space, k, n)
    assert set(called or ["l2"]) == {expect}


def test_best_plane_branches_are_keyed():
    t = tr.Tracer()
    tr.install(t)
    try:
        l2, l4 = NormedSpace(3, 2), NormedSpace(3, 4)
        rng = np.random.default_rng(1)
        flat = PointMeasure(np.c_[rng.uniform(-0.5, 0.5, (12, 2)), np.zeros(12)], np.ones(12))
        bumpy = PointMeasure(rng.uniform(-0.5, 0.5, (12, 3)), np.ones(12))
        cover.best_plane(l2, bumpy, np.zeros(3), 1.0, 2)
        measures.best_plane(l4, flat, np.zeros(3), 1.0, 2)
        cover.best_plane(l4, bumpy, np.zeros(3), 1.0, 2)
        cover.best_plane(l4, bumpy, np.full(3, 9.0), 1.0, 2)
    finally:
        t.uninstall()
    names = t.arrays()[0].tolist()
    tops = [nm for nm in names if nm.startswith("measures.best_plane")]
    assert tops == ["measures.best_plane:" + b for b in ("pca", "exact_fit", "descent", "empty")]
    assert any(nm == "geometry.dist:hyperplane" for nm in names)


def test_install_wraps_every_importer_and_uninstall_restores():
    originals = (cover.best_plane, measures.best_plane, cover.beta_inf,
                 cover.dini_profile, NormedSpace.norms)
    t = tr.Tracer()
    tr.install(t)
    try:
        assert cover.best_plane.__wrapped__ is originals[0]
        assert measures.best_plane.__wrapped__ is originals[1]
        assert cover.beta_inf.__wrapped__ is originals[2]
        assert cover.dini_profile.__wrapped__ is originals[3]
    finally:
        t.uninstall()
    assert (cover.best_plane, measures.best_plane, cover.beta_inf,
            cover.dini_profile, NormedSpace.norms) == originals


# -- host-speed probe ---------------------------------------------------------

def test_probe_normalization_removes_probe_time_and_rescales():
    # 2.1 s of wall, 0.1 s of it in the kernel, which ran at half the
    # nominal speed: 2 s of work at the nominal speed take 1 s
    assert probe.normalized(2.1, 0.1, 4e-4, 2e-4) == pytest.approx(1.0)


@pytest.mark.parametrize("make", [probe.python_probe, probe.numpy_probe])
def test_probe_samples_a_busy_interval_and_stops_its_timer(make):
    p = make()
    p.start()
    end = time.perf_counter() + 0.4
    while time.perf_counter() < end:
        sum(i * i for i in range(1000))
    spent, mean = p.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(p.times) >= probe.MIN_SAMPLES
    # spent counts only the ticks inside the interval, of which there were some
    assert 0 < spent < sum(p.times) and 0 < mean < 0.01


def test_probe_tops_up_a_short_interval():
    p = probe.python_probe()
    p.start()
    spent, mean = p.stop()
    assert spent < 0.01 and len(p.times) == probe.MIN_SAMPLES and mean > 0


# -- output checks ------------------------------------------------------------

def test_reference_covers_every_workload():
    assert set(checks.REFERENCE) == {"pack-l2-graph68", "cover-l4-graph21",
                                     "flatmap-snowflake-d4"}
    assert all(checks.REFERENCE.values())
