import math

import numpy as np
import pytest

from betareif.curves import dirac_example
from betareif.geometry import affine_plane
from betareif.measures import (BetaInfResult, PointMeasure, best_plane, beta,
                               beta_inf, density_report, dini_profile, restrict)
from betareif.spaces import NormedSpace

from conftest import gamma2_sample


def test_point_measure_validation():
    with pytest.raises(ValueError):
        PointMeasure([[0, 0]], [0.0])
    with pytest.raises(ValueError):
        PointMeasure([[0, 0], [1, 1]], [1.0])
    for points, weights in [([[0, math.nan], [1, 0]], [1.0, 1.0]),
                            ([[0, 0], [-math.inf, 0]], [1.0, 1.0]),
                            ([[0, 0], [1, 0]], [1.0, math.inf]),
                            ([[0, 0], [1, 0]], [math.nan, 1.0])]:
        with pytest.raises(ValueError, match="finite"):
            PointMeasure(points, weights)
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
    from betareif.measures import _GRID_ANGLES, _grid_halfwidth_blocks
    space = NormedSpace(2, p)
    grid = np.linspace(0.0, math.pi, _GRID_ANGLES, endpoint=False)
    for S in _flat_sets(seed=17):
        x, r = S[0], 1.5
        rel = S[space.norms(S - x) <= r] - x
        [(_rows, vals)] = _grid_halfwidth_blocks(space, rel[None], grid)
        ref = np.array([_halfwidth(space, rel, phi) for phi in grid])
        np.testing.assert_allclose(vals[0], ref, rtol=1e-14, atol=0.0)
        res = beta_inf(space, S, x, r, 1)
        assert res.value == pytest.approx(_brute_beta_inf_2d(space, S, x, r), rel=1e-9)


def _scalar_beta_inf_2d(space, S, x, r):
    """One center at a time, the sup-beta search for lines in the plane as
    the scalar code ran it: the 2000-angle grid of `rel @ U.T` blocks, the
    bracket around its argmin, then 60 golden-section steps on the scalar
    half-width.  Returns (value, direction); the direction is None for an
    empty ball."""
    from betareif.measures import _BLOCK_ENTRIES, _GRID_ANGLES
    rel = S[space.norms(S - x[None, :]) <= r] - x[None, :]
    if len(rel) == 0:
        return 0.0, None
    grid = np.linspace(0.0, math.pi, _GRID_ANGLES, endpoint=False)
    U = np.stack([np.cos(grid), np.sin(grid)], axis=1)
    width = np.empty(len(grid))
    step = max(1, _BLOCK_ENTRIES // len(rel))
    for lo in range(0, len(grid), step):
        proj = rel @ U[lo:lo + step].T
        width[lo:lo + step] = proj.max(axis=0) - proj.min(axis=0)
    i = int(np.argmin(0.5 * width / space.dual_norms(U)))
    a, b = grid[i] - math.pi / _GRID_ANGLES, grid[i] + math.pi / _GRID_ANGLES
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = _halfwidth(space, rel, c), _halfwidth(space, rel, d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = _halfwidth(space, rel, c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = _halfwidth(space, rel, d)
    phi = (a + b) / 2
    return (_halfwidth(space, rel, phi) / r,
            np.array([-math.sin(phi), math.cos(phi)]))


@pytest.mark.parametrize("block_entries", [None, 1 << 15])
@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 4.0, math.inf])
def test_beta_inf_stack_matches_scalar_search(p, block_entries, monkeypatch):
    # stacks mixing an empty ball, a one-atom ball, repeated centers and
    # balls of the 5- and 300-atom sets; 2^15 entries split the grid over
    # several centers per block (5 atoms) and several blocks per center
    # (300 atoms)
    from betareif import measures
    if block_entries is not None:
        monkeypatch.setattr(measures, "_BLOCK_ENTRIES", block_entries)
    space = NormedSpace(2, p)
    for S in _flat_sets(seed=17):
        S = np.concatenate([S, [[4.0, 4.0]]])      # an isolated atom
        X = np.concatenate([S[[0, len(S) // 2, 1, 0]],
                            [[0.2, -0.1], [-5.0, -5.0], [4.3, 4.0]]])
        for r in (1.5, 0.4):
            res = beta_inf(space, S, X, r, 1)
            assert len(res) == len(X)
            for x, got in zip(X, res):
                want, direction = _scalar_beta_inf_2d(space, S, x, r)
                assert got.value == want
                assert got.empty == (direction is None)
                if direction is not None:
                    plane = affine_plane(space, x, direction[None, :])
                    assert np.array_equal(got.plane.basis, plane.basis)
                    assert np.array_equal(got.plane.base, x)
            assert res[5].empty and not res[6].empty
            one = beta_inf(space, S, X[1], r, 1)
            assert isinstance(one, BetaInfResult)
            assert one.value == res[1].value
            assert np.array_equal(one.plane.basis, res[1].plane.basis)
    assert beta_inf(space, S, X[:0], 1.0, 1) == []


def test_beta_inf_stack_other_dims_match_single_calls():
    s = NormedSpace(3, 2)
    ts = np.linspace(-0.8, 0.8, 15)
    S = np.stack([ts, 0.02 * np.sin(3 * ts), np.zeros(15)], axis=1)
    X = np.stack([S[7], S[3], [5.0, 5.0, 5.0]])
    res = beta_inf(s, S, X, 1.0, 1)
    assert [r.empty for r in res] == [False, False, True]
    for x, got in zip(X, res):
        one = beta_inf(s, S, x, 1.0, 1)
        assert got.value == one.value
        assert np.array_equal(got.plane.basis, one.plane.basis)


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


def _cloud_with_sparse_balls(seed):
    """Seeded atoms in R^3 about 3 apart: a tight quadruple, a tight pair and
    two lone atoms.  The centers (a far point, a lone atom, a pair atom and
    a quadruple atom) have balls with no atom, one atom, two atoms and four
    atoms at the scales 0.5 * 0.3^j.  The quadruple atom's r_lo of 0.4
    keeps it to the top scale, so a profile runs one slow descent fit."""
    rng = np.random.default_rng(seed)
    sites = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0],
                      [0.0, 0.0, 3.0]]) + rng.uniform(-0.5, 0.5, (4, 3))
    pts = np.concatenate([sites[:1] + rng.normal(0.0, 0.03, (4, 3)),
                          sites[1:2] + rng.normal(0.0, 0.03, (2, 3)), sites[2:]])
    mu = PointMeasure(pts, rng.uniform(0.5, 1.5, len(pts)))
    centers = np.stack([[-3.0, -3.0, -3.0], pts[6], pts[4], pts[0]])
    return mu, centers, np.array([0.01, 0.01, 0.05, 0.4])


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("k", [1, 2])
def test_dini_profile_batch_matches_per_scale_beta(p, k):
    space = NormedSpace(3, p)
    mu, centers, r_lo = _cloud_with_sparse_balls(seed=11)
    seeds = 7 + np.arange(len(centers))
    chi, alpha = 0.3, 2.0
    profiles = dini_profile(space, mu, centers, r_lo, 0.5, k, alpha, chi, seed=seeds)
    assert len(profiles) == len(centers)
    sizes = set()
    for i, prof in enumerate(profiles):
        scales, r = [], 0.5
        while r >= r_lo[i] * (1 - 1e-12):
            scales.append(r)
            r *= chi
        assert prof.scales.tolist() == scales
        for j, rj in enumerate(prof.scales):
            atoms = int((space.norms(mu.points - centers[i]) <= rj).sum())
            sizes.add(atoms)
            if atoms <= 1:
                assert prof.betas[j] == 0.0
            else:
                assert prof.betas[j] == beta(space, mu, centers[i], rj, k,
                                             seed=int(seeds[i]) + 1000 * j)
    assert {0, 1, 2, 4} <= sizes
    for i in (1, 2):
        one = dini_profile(space, mu, centers[i], r_lo[i], 0.5, k, alpha, chi,
                           seed=int(seeds[i]))
        assert one.scales.tolist() == profiles[i].scales.tolist()
        assert one.betas.tolist() == profiles[i].betas.tolist()
        assert one.dini_sum == profiles[i].dini_sum


def test_dini_profile_batch_edge_cases(l2_plane):
    mu = dirac_example(0.1)
    assert dini_profile(l2_plane, mu, np.zeros((0, 2)), 0.1, 2.0, 1, 2.0, 0.5) == []
    with pytest.raises(ValueError):
        dini_profile(l2_plane, mu, mu.points, [0.1, 0.1, 0.0, 0.1, 0.1], 2.0, 1, 2.0, 0.5)


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


# a 5-atom ball off every 2-plane, with its descent fit pinned bit for bit
_P5 = [[0.0, 0.0, 0.0], [0.3, 0.1, 0.02], [-0.2, 0.25, -0.03],
       [0.1, -0.3, 0.04], [-0.15, -0.1, -0.05]]
_W5 = [1.0, 0.5, 2.0, 1.5, 0.75]
_BEST_PLANE_5 = {
    3.0: (0.035919298867679215, 0.0012901960311456615, 1.360773705668268,
          [-0.03695651357474637, 0.004347823519593724, -0.004782666015159858],
          [[-0.5688249686453101, 0.933776422497274, -0.12060841845626272],
           [0.9297336328302324, 0.5800352550262571, 0.10586179402619554]]),
    4.0: (0.03507950119891734, 0.001230571404364843, 1.558680977365358,
          [-0.03695653346443499, 0.004347829708561012, -0.004782527385888531],
          [[-0.5897173379619289, 0.9682186637643203, -0.12584917086290093],
           [0.9652909033403728, 0.6023283499280392, 0.11074771759505163]]),
}


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_best_plane_descent_pinned(p):
    res = best_plane(NormedSpace(3, p), PointMeasure(_P5, _W5), np.zeros(3), 1.0, 2,
                     seed=3)
    b, objective, factor, base, basis = _BEST_PLANE_5[p]
    assert res.certified_factor > 1.0    # not the exact-fit shortcut
    assert (res.beta, res.objective, res.certified_factor) == (b, objective, factor)
    assert res.plane.base.tolist() == base
    assert res.plane.basis.tolist() == basis
