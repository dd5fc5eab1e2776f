import math

import numpy as np
import pytest

from betareif.curves import dirac_example
from betareif.measures import (PointMeasure, best_plane, beta, beta_inf,
                               density_report, dini_profile, restrict)
from betareif.spaces import NormedSpace

from conftest import gamma2_sample


def test_point_measure_validation():
    with pytest.raises(ValueError):
        PointMeasure([[0, 0]], [0.0])
    with pytest.raises(ValueError):
        PointMeasure([[0, 0], [1, 1]], [1.0])
    mu = PointMeasure([[0, 0], [1, 0]], [1.0, 2.0])
    assert mu.total_mass == 3.0


def test_restrict_identity_and_empty(l2_plane):
    mu = dirac_example(0.05)
    assert len(restrict(mu, [0, 0], 100.0, l2_plane)) == 5
    assert len(restrict(mu, [0, 0], 1e-6, l2_plane)) == 1  # only the origin atom
    far = PointMeasure([[1.0, 0.0]], [1.0])
    assert len(restrict(far, [0, 0], 0.5, l2_plane)) == 0


def test_restrict_open_ball(l2_plane):
    mu = dirac_example(0.05)
    sub = restrict(mu, [0, 0], 0.1, l2_plane)
    got = sorted(map(tuple, sub.points.tolist()))
    assert got == [(-0.0, -0.05), (0.0, 0.0), (0.0, 0.05)] or \
        got == sorted([(0.0, 0.0), (0.0, 0.05), (0.0, -0.05)])
    # boundary atoms are excluded by the open ball
    assert len(restrict(mu, [0, 0], 1.0, l2_plane)) == 3


def test_dirac_beta_values(l2_plane):
    for t in (0.01, 0.05, 0.1):
        mu = dirac_example(t)
        res = best_plane(l2_plane, mu, [0, 0], 1.0, 1)
        assert res.beta**2 == pytest.approx(2 * t * t, abs=1e-9)
        # V(0,1) is the x-axis
        assert abs(res.plane.basis[0, 1]) < 1e-9
        assert beta(l2_plane, mu, [0, 0], 0.1, 1) == pytest.approx(0.0, abs=1e-12)


def test_best_plane_recovers_flat_data():
    s = NormedSpace(3, 3)
    rng = np.random.default_rng(2)
    lam = rng.uniform(-1, 1, (20, 1))
    pts = lam @ np.array([[1.0, 1.0, 0.0]]) + np.array([0.1, 0.0, 0.0])
    mu = PointMeasure(pts, np.ones(20))
    res = best_plane(s, mu, [0, 0, 0], 3.0, 1)
    assert res.beta <= 1e-7
    assert not res.empty


def test_best_plane_empty_ball(l2_plane):
    mu = PointMeasure([[5.0, 5.0]], [1.0])
    res = best_plane(l2_plane, mu, [0, 0], 1.0, 1)
    assert res.empty and res.beta == 0.0


def test_best_plane_rejects_bad_k(l2_plane):
    with pytest.raises(ValueError):
        best_plane(l2_plane, dirac_example(0.05), [0, 0], 1.0, 2)


def _l3_line_oracle(space, pts, w):
    """Exhaustive oracle for k = 1 in the plane: 2000-angle grid with the
    exact best offset per angle (hyperplane distance formula), then a local
    golden-section refine around the best angle."""
    def objective(phi):
        a = np.array([math.cos(phi), math.sin(phi)])
        svals = pts @ a
        b = (w * svals).sum() / w.sum()
        return float((w * ((svals - b) / space.dual_norm(a)) ** 2).sum())

    grid = np.linspace(0, math.pi, 2000, endpoint=False)
    vals = [objective(phi) for phi in grid]
    i = int(np.argmin(vals))
    a, b = grid[i] - math.pi / 2000, grid[i] + math.pi / 2000
    gr = (math.sqrt(5) - 1) / 2
    for _ in range(60):
        c, d = b - gr * (b - a), a + gr * (b - a)
        if objective(c) < objective(d):
            b = d
        else:
            a = c
    return objective((a + b) / 2)


def test_best_plane_l3_matches_grid_oracle():
    s = NormedSpace(2, 3)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (30, 2)) * [1.0, 0.25]
    w = np.ones(30)
    mu = PointMeasure(pts, w)
    res = best_plane(s, mu, [0, 0], 2.0, 1, seed=3)
    oracle = _l3_line_oracle(s, pts, w)
    assert res.objective <= 1.05 * oracle
    assert res.certified_factor <= 2.0


def test_beta_monotone_under_submeasure():
    s = NormedSpace(2, 2)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.8, 0.8, (25, 2))
    w = rng.uniform(0.5, 2.0, 25)
    mu = PointMeasure(pts, w)
    sub = PointMeasure(pts[:15], w[:15])
    b_full = beta(s, mu, [0, 0], 1.0, 1)
    b_sub = beta(s, sub, [0, 0], 1.0, 1)
    assert b_sub <= b_full + 1e-6


def test_beta_scale_invariance():
    s = NormedSpace(2, 2)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.2, 0.2, (15, 2)) + [0.5, -0.1]
    mu = PointMeasure(pts, np.ones(15))
    x, r = np.array([0.5, -0.1]), 0.3
    direct = beta(s, mu, x, r, 1)
    pushed = PointMeasure((pts - x) / r, np.ones(15) / r)
    assert beta(s, pushed, [0, 0], 1.0, 1) == pytest.approx(direct, abs=1e-8)


def test_beta_inclusion_bound_randomized():
    # beta(x, r) <= (R/r)^(k+2) beta(y, R) (1 + optimizer slack)
    s = NormedSpace(2, 3)
    rng = np.random.default_rng(9)
    for trial in range(5):
        pts = rng.uniform(-0.5, 0.5, (25, 2))
        mu = PointMeasure(pts, np.ones(25))
        x = pts[0]
        r, R = 0.3, 1.0
        assert s.norm(x) + r <= R  # B_r(x) inside B_R(0)
        bx = beta(s, mu, x, r, 1, seed=trial)
        by = beta(s, mu, [0, 0], R, 1, seed=trial)
        assert bx <= (R / r) ** 3 * by * 1.05 + 1e-9


def test_beta_inf_flat_set(l2_plane):
    S = np.array([[0.1, 0.0], [0.5, 0.0], [-0.3, 0.0]])
    res = beta_inf(l2_plane, S, [0, 0], 1.0, 1)
    assert res.value <= 1e-9


def test_beta_inf_apex_oracle(l2_plane):
    h = 0.3
    S = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, h]])
    res = beta_inf(l2_plane, S, [0, 0], 2.0, 1)
    assert res.value == pytest.approx(h / 4, abs=2e-3)
    assert np.allclose(res.plane.base, [0, 0])


def test_beta_inf_empty(l2_plane):
    res = beta_inf(l2_plane, [[5.0, 5.0]], [0, 0], 1.0, 1)
    assert res.empty and res.value == 0.0


def test_beta_inf_rejects_nonpositive_radius(l2_plane):
    for r in (0.0, -1.0):
        with pytest.raises(ValueError):
            beta_inf(l2_plane, [[0.1, 0.0]], [0, 0], r, 1)


def test_beta_inf_rejects_k_at_least_dim(l2_plane):
    for k in (2, 3):
        with pytest.raises(ValueError):
            beta_inf(l2_plane, [[0.1, 0.0]], [0, 0], 1.0, k)


def _halfwidth(space, rel, phi):
    a = np.array([math.cos(phi), math.sin(phi)])
    s = rel @ a
    return 0.5 * (s.max() - s.min()) / space.dual_norm(a)


def _brute_beta_inf_2d(space, S, x, r, n_angles=20000):
    """Scalar 20,000-angle grid plus golden refinement, for lines in the plane."""
    x = np.asarray(x, dtype=float)
    rel = S[space.norms(S - x) <= r] - x
    grid = np.linspace(0.0, math.pi, n_angles, endpoint=False)
    i = int(np.argmin([_halfwidth(space, rel, phi) for phi in grid]))
    a, b = grid[i] - math.pi / n_angles, grid[i] + math.pi / n_angles
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - gr * (b - a), a + gr * (b - a)
        if _halfwidth(space, rel, c) < _halfwidth(space, rel, d):
            b = d
        else:
            a = c
    return _halfwidth(space, rel, (a + b) / 2) / r


def _flat_sets(seed):
    """Seeded 2-D sets: thin rotated strips of 5 and 300 atoms (300 atoms
    make the vectorized grid run in more than one angle block)."""
    rng = np.random.default_rng(seed)
    for m in (5, 300):
        P = rng.uniform(-1.0, 1.0, (m, 2)) * [1.0, 0.15]
        th = rng.uniform(0.0, math.pi)
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        yield P @ R.T


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 4.0, math.inf])
def test_beta_inf_2d_grid_matches_scalar_oracle(p):
    from betareif.measures import _GRID_ANGLES, _grid_halfwidths
    space = NormedSpace(2, p)
    grid = np.linspace(0.0, math.pi, _GRID_ANGLES, endpoint=False)
    for S in _flat_sets(seed=17):
        x, r = S[0], 1.5
        rel = S[space.norms(S - x) <= r] - x
        vals = _grid_halfwidths(space, rel, grid)
        ref = np.array([_halfwidth(space, rel, phi) for phi in grid])
        np.testing.assert_allclose(vals, ref, rtol=1e-14, atol=0.0)
        res = beta_inf(space, S, x, r, 1)
        assert res.value == pytest.approx(_brute_beta_inf_2d(space, S, x, r), rel=1e-9)


def test_beta_inf_reifenberg_flat_sample(l2_plane):
    # a delta-flat sample keeps beta_inf <= delta at all tested (x, r)
    delta = 0.05
    ts = np.linspace(-1, 1, 41)
    S = np.stack([ts, delta * 0.5 * np.sin(2 * ts)], axis=1)
    for x in (S[0], S[20], S[33]):
        for r in (0.5, 1.0):
            res = beta_inf(l2_plane, S, x, r, 1)
            assert res.value <= delta


def test_beta_inf_anchored_containment(l2_plane):
    # for x in S the re-anchored plane satisfies the 2*beta_inf containment
    rng = np.random.default_rng(3)
    ts = np.linspace(-1, 1, 31)
    S = np.stack([ts, 0.04 * np.cos(3 * ts)], axis=1)
    x = S[10]
    r = 0.8
    res = beta_inf(l2_plane, S, x, r, 1)
    from betareif.geometry import distances_to_affine
    mask = l2_plane.norms(S - x) <= r
    d = distances_to_affine(l2_plane, res.plane, S[mask])
    assert (d <= 2 * res.value * r + 1e-9).all()


def test_dini_profile_planar_zero(l2_plane):
    pts = np.stack([np.linspace(-1, 1, 21), np.zeros(21)], axis=1)
    mu = PointMeasure(pts, np.ones(21))
    prof = dini_profile(l2_plane, mu, [0, 0], 0.1, 1.0, 1, 2.0, 0.5)
    assert prof.dini_sum == pytest.approx(0.0, abs=1e-20)


def test_dini_profile_direct_summation_oracle(l2_plane):
    mu = dirac_example(0.1)
    chi, alpha = 0.5, 2.0
    prof = dini_profile(l2_plane, mu, [0, 0], 1 / 16, 2.0, 1, alpha, chi)
    # direct per-scale oracle
    expected = 0.0
    r = 2.0
    while r >= 1 / 16 * (1 - 1e-12):
        expected += beta(l2_plane, mu, [0, 0], r, 1) ** alpha * math.log(1 / chi)
        r *= chi
    assert prof.dini_sum == pytest.approx(expected, rel=1e-9)
    # positive only at scales at or above the atom separation scale
    assert prof.betas[0] > 0 and prof.betas[-1] == 0.0


def test_dini_profile_additive_windows(l2_plane):
    mu = dirac_example(0.1)
    top = dini_profile(l2_plane, mu, [0, 0], 0.25, 2.0, 1, 2.0, 0.5)
    hi = dini_profile(l2_plane, mu, [0, 0], 1.0, 2.0, 1, 2.0, 0.5)
    lo = dini_profile(l2_plane, mu, [0, 0], 0.25, 0.5, 1, 2.0, 0.5)
    assert hi.dini_sum + lo.dini_sum == pytest.approx(top.dini_sum, rel=1e-12)


def test_dini_profile_validation(l2_plane):
    mu = dirac_example(0.1)
    with pytest.raises(ValueError):
        dini_profile(l2_plane, mu, [0, 0], 1.0, 0.5, 1, 2.0, 0.5)
    with pytest.raises(ValueError):
        dini_profile(l2_plane, mu, [0, 0], 0.1, 1.0, 1, 2.0, 1.5)


def test_density_report_unit_atom(l2_plane):
    mu = PointMeasure([[0.3, 0.3]], [1.0])
    lo, hi = density_report(l2_plane, mu, [0.3, 0.3], [1.0, 0.5, 0.1], 0)
    assert (lo, hi) == (1.0, 1.0)


def test_density_report_segment(l2_plane):
    # unit-speed segment: mass 2r in B_r, so theta ~ 2 at k = 1
    n = 2001
    ts = np.linspace(-1, 1, n)
    mu = PointMeasure(np.stack([ts, np.zeros(n)], axis=1), np.full(n, 2.0 / n))
    lo, hi = density_report(l2_plane, mu, [0, 0], [0.5, 0.25, 0.1], 1)
    assert lo == pytest.approx(2.0, rel=0.1)
    assert hi == pytest.approx(2.0, rel=0.1)


def test_density_report_empty_scale(l2_plane):
    mu = PointMeasure([[1.0, 0.0]], [1.0])
    lo, hi = density_report(l2_plane, mu, [0, 0], [0.5, 2.0], 0)
    assert lo == 0.0 and hi == 1.0


def test_density_report_needs_scales(l2_plane):
    with pytest.raises(ValueError):
        density_report(l2_plane, dirac_example(0.1), [0, 0], [], 1)


def test_best_plane_hilbert_matches_grid_oracle(l2_plane):
    # the exact PCA path against an independent angle-grid oracle
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1, 1, (20, 2)) * [1.0, 0.3]
    w = rng.uniform(0.5, 2.0, 20)
    mu = PointMeasure(pts, w)
    res = best_plane(l2_plane, mu, [0, 0], 2.0, 1)

    def objective(phi):
        a = np.array([math.cos(phi), math.sin(phi)])
        svals = pts @ a
        b = (w * svals).sum() / w.sum()
        return float((w * (svals - b) ** 2).sum())

    grid = np.linspace(0, math.pi, 4000, endpoint=False)
    vals = [objective(phi) for phi in grid]
    i = int(np.argmin(vals))
    a, b = grid[i] - math.pi / 4000, grid[i] + math.pi / 4000
    gr = (math.sqrt(5) - 1) / 2
    for _ in range(70):
        c, d = b - gr * (b - a), a + gr * (b - a)
        if objective(c) < objective(d):
            b = d
        else:
            a = c
    oracle = objective((a + b) / 2)
    assert res.objective == pytest.approx(oracle, abs=1e-6)


def test_dini_snowflake_finite_vs_divergent(l2_plane):
    # alpha = 1 profiles: the summable-eta flake yields the smaller profile
    # at every sampled center
    from betareif.curves import SnowflakeSpec, snowflake

    def flake_measure(etas):
        sp = SnowflakeSpec("plane_bump", 2.0, tuple(etas), 6)
        V = (np.array(snowflake(sp)) - [0.5, 0.0]) * 2.0
        return PointMeasure(V, np.full(len(V), 1.0 / len(V)))

    mu_fin = flake_measure([0.1 * 2.0 ** -(k + 1) for k in range(12)])
    mu_div = flake_measure([0.1] * 12)
    for center in ([0.0, 0.0], [0.5, 0.0], [-0.4, 0.0]):
        pf = dini_profile(l2_plane, mu_fin, center, 1 / 16, 1.0, 1, 1.0, 0.5)
        pd = dini_profile(l2_plane, mu_div, center, 1 / 16, 1.0, 1, 1.0, 0.5)
        assert pf.dini_sum < pd.dini_sum


def test_beta_inf_dim3():
    s = NormedSpace(3, 2)
    ts = np.linspace(-0.8, 0.8, 15)
    S = np.stack([ts, 0.02 * np.sin(3 * ts), np.zeros(15)], axis=1)
    res = beta_inf(s, S, S[7], 1.0, 1)
    assert res.value <= 0.05
    from betareif.geometry import distances_to_affine
    mask = s.norms(S - S[7]) <= 1.0
    d = distances_to_affine(s, res.plane, S[mask])
    assert (d <= 2 * res.value * 1.0 + 1e-9).all()
