import math

import numpy as np
import pytest

from betareif.constants import norm_equivalence
from betareif.curves import dirac_example
from betareif.geometry import _dists_to_flat_batch, _dists_to_flats, affine_plane
from betareif.measures import (BetaInfResult, BetaResult, PointMeasure, _ball_atoms,
                               _degenerate_plane, _descend, _fit_seeds, _lstsq_stack, _objective,
                               _rand_rotation,
                               _weighted_l2_plane, best_plane, beta, beta_inf,
                               density_report, dini_profile, restrict)
from betareif.spaces import NormedSpace

from conftest import gamma2_sample, l4_saddle_21


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


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_beta_inf_rejects_nonfinite_radius(l2_plane, r):
    # a NaN radius used to give an "empty" ball and an infinite one beta 0
    with pytest.raises(ValueError, match="r must be finite"):
        beta_inf(l2_plane, [[0.1, 0.0]], [0, 0], r, 1)


def test_beta_inf_rejects_k_at_least_dim(l2_plane):
    for k in (2, 3):
        with pytest.raises(ValueError):
            beta_inf(l2_plane, [[0.1, 0.0]], [0, 0], 1.0, k)


def _halfwidth(space, rel, a):
    s = rel @ a
    return 0.5 * (s.max() - s.min()) / space.dual_norm(a)


def _brute_beta_inf_2d(space, S, x, r):
    """The least half-width of the ball's atoms over the normals of all its
    atom pairs, over r; 0 for a ball of fewer than two distinct atoms."""
    x = np.asarray(x, dtype=float)
    rel = S[space.norms(S - x) <= r] - x
    best = math.inf
    for i in range(len(rel) - 1):
        e = rel[i + 1:] - rel[i]
        N = np.stack([-e[:, 1], e[:, 0]], axis=1)[(e != 0).any(axis=1)]
        if len(N):
            s = rel @ N.T
            best = min(best, float((0.5 * np.ptp(s, axis=0) / space.dual_norms(N)).min()))
    return 0.0 if best == math.inf else best / r


def _plane_normal(res):
    (u1, u2), = res.plane.basis
    return np.array([u2, -u1])


def _flat_sets(seed):
    """Seeded 2-D sets: thin rotated strips of 5 and 300 atoms."""
    rng = np.random.default_rng(seed)
    for m in (5, 300):
        P = rng.uniform(-1.0, 1.0, (m, 2)) * [1.0, 0.15]
        th = rng.uniform(0.0, math.pi)
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        yield P @ R.T


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 4.0, math.inf])
def test_beta_inf_2d_grid_matches_scalar_oracle(p):
    # the hull walk's value is the pair-normal oracle's to rel 1e-12, never
    # above it by more, and the returned line attains it
    space = NormedSpace(2, p)
    rng = np.random.default_rng(23)
    sets = list(_flat_sets(seed=17)) + [rng.uniform(-1.0, 1.0, (40, 2))]
    for S in sets:
        for x, r in ((S[0], 1.5), (S[1], 0.4), (np.zeros(2), 0.7)):
            res = beta_inf(space, S, x, r, 1)
            want = _brute_beta_inf_2d(space, S, x, r)
            assert want > 0
            assert res.value <= want * (1 + 1e-12)
            assert res.value == pytest.approx(want, rel=1e-12)
            rel = S[space.norms(S - x) <= r] - x
            assert _halfwidth(space, rel, _plane_normal(res)) / r == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 4.0, math.inf])
def test_beta_inf_2d_collinear_and_two_atom_balls_are_zero(p):
    space = NormedSpace(2, p)
    # collinear atoms on a dyadic grid, where every cross product is exact
    t = np.array([-1.0, -0.5, 0.0, 0.25, 0.75, 1.0])[:, None]
    for d in ([1.0, 0.0], [0.0, 1.0], [1.0, 3.0], [-0.5, 0.25]):
        S = t * np.array(d) / 4 + [0.25, -0.5]
        res = beta_inf(space, S, S[:3], 2.0, 1)
        assert [b.value for b in res] == [0.0, 0.0, 0.0]
        assert _brute_beta_inf_2d(space, S, S[0], 2.0) == 0.0
        u = res[0].plane.basis[0]
        assert u[0] * d[1] - u[1] * d[0] == pytest.approx(0.0, abs=1e-15)
    # any two atoms: the second's projection is -e_x e_y + e_y e_x = 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        S = rng.standard_normal((2, 2))
        assert beta_inf(space, S, S.mean(axis=0), 10.0, 1).value == 0.0
    # collinear atoms off the grid: rounding only, and the walk ends
    S = np.linspace(-1.0, 1.0, 301)[:, None] * [1.0, math.pi] / math.hypot(1.0, math.pi)
    assert beta_inf(space, S, [0.1, 0.2], 1.5, 1).value < 1e-15


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, math.inf])
def test_beta_inf_2d_coincident_atoms(p):
    # a ball whose atoms all coincide, or of one atom, has beta 0 and the
    # normal angle 0: the line runs along (-sin 0, cos 0)
    space = NormedSpace(2, p)
    S = np.array([[0.3, 0.1], [0.3, 0.1], [0.3, 0.1], [5.0, 5.0]])
    for x in ([0.3, 0.1], [0.0, 0.0], [5.0, 5.2]):
        res = beta_inf(space, S, x, 0.5, 1)
        assert res.value == 0.0 and not res.empty
        assert res.plane.basis.tolist() == [[-0.0, 1.0]]
        assert np.array_equal(res.plane.base, x)
    # repeated atoms change no value and no line
    T = next(_flat_sets(seed=17))
    once = beta_inf(space, T, T[:3], 1.5, 1)
    twice = beta_inf(space, np.concatenate([T, T[::-1], T[2:3]]), T[:3], 1.5, 1)
    for a, b in zip(once, twice):
        assert a.value == b.value
        assert np.array_equal(a.plane.basis, b.plane.basis)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-120, 1e120, 1e160])
@pytest.mark.parametrize("p", [1.0, 1.5, 4.0, math.inf])
def test_beta_inf_2d_is_dilation_invariant(p, scale):
    # the hull walk divides by the dual norms of its edge normals, whose
    # power sums over- or underflow at 1e+-120 for p = 1.5; its own
    # products of coordinates do so beyond about 1e+-154 at every p (p = 2
    # is left out: its ball membership squares the coordinates unscaled)
    space = NormedSpace(2, p)
    S = np.random.default_rng(0).uniform(-1.0, 1.0, (9, 2)) * [1.0, 0.2]
    b0 = beta_inf(space, S, [0.0, 0.0], 1.0, 1)
    b1 = beta_inf(space, S * scale, [0.0, 0.0], scale, 1)
    assert b0.value > 0.0
    assert abs(b1.value - b0.value) <= 1e-12 * b0.value
    np.testing.assert_allclose(b1.plane.basis, b0.plane.basis, rtol=1e-12)


@pytest.mark.parametrize("block_entries", [None, 1 << 15])
@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 4.0, math.inf])
def test_beta_inf_stack_matches_scalar_search(p, block_entries, monkeypatch):
    # stacks mixing an empty ball, a one-atom ball, repeated centers and
    # balls of the 5- and 300-atom sets; 2^15 entries split the distance
    # table over several blocks.  Each stacked result is the pair-normal
    # oracle's value and, to the bit, the single-center call's result
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
            assert [b.empty for b in res] == [False] * 5 + [True, False]
            for x, got in zip(X, res):
                assert got.value == pytest.approx(_brute_beta_inf_2d(space, S, x, r), rel=1e-12)
                assert np.array_equal(got.plane.base, x)
                one = beta_inf(space, S, x, r, 1)
                assert isinstance(one, BetaInfResult)
                assert one.value == got.value and one.empty == got.empty
                assert np.array_equal(one.plane.basis, got.plane.basis)
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
    # a non-finite r_hi would grow the scale grid r_hi chi^j without end
    for r_lo, r_hi in [(0.1, math.inf), (0.1, math.nan)]:
        with pytest.raises(ValueError, match="r_hi < inf"):
            dini_profile(l2_plane, mu, [0, 0], r_lo, r_hi, 1, 2.0, 0.5)


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


# the scalar multi-start descent that the lockstep batch replaced, kept as
# the oracle of best_plane and _fit_seeds: one start at a time, one
# backtracking trial per distance solve
def _descend_scalar(space, base, basis, pts, w, iters):
    d, feet = _dists_to_flat_batch(space, base, basis, pts)
    F = float((w * d * d).sum())
    step = 0.5
    for _ in range(iters):
        R = pts - feet
        nr = np.maximum(space.norms(R), 1e-30)
        p = space.p
        if p == math.inf or p == 1.0:
            U = np.sign(R)
            if p == math.inf:
                U = np.zeros_like(R)
                idx = np.argmax(np.abs(R), axis=1)
                U[np.arange(len(R)), idx] = np.sign(R[np.arange(len(R)), idx])
        else:
            U = np.sign(R) * np.abs(R) ** (p - 1.0) / nr[:, None] ** (p - 1.0)
        gb = -2.0 * (w * d) @ U
        lam = np.linalg.lstsq(basis.T, (feet - base[None, :]).T, rcond=None)[0].T
        gB = -2.0 * np.einsum("m,m,mk,mn->kn", w, d, lam, U)
        gnorm = math.sqrt((gb * gb).sum() + (gB * gB).sum())
        if gnorm < 1e-12 * (1 + F):
            break
        t = step
        improved = False
        for _bt in range(25):
            nb = base - t * gb
            nB = basis - t * gB
            if np.linalg.matrix_rank(nB, tol=1e-10) < len(nB):
                t *= 0.5
                continue
            nd, nfeet = _dists_to_flat_batch(space, nb, nB, pts)
            nF = float((w * nd * nd).sum())
            if nF < F - 1e-15:
                base, basis, F, d, feet = nb, nB, nF, nd, nfeet
                step = min(t * 2.0, 1e3)
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return base, basis, F


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
@pytest.mark.parametrize("D", [1, 2, 17])
def test_lstsq_stack_matches_per_slice_lstsq(D, n, k):
    # _descend's foot coordinates: a stack of bases (D, k, n) and feet
    # (D, m, n), passed as transposed views.  Each slice is the public
    # lstsq's solution to the bit, also for a basis with a repeated row or
    # a nearly dependent one, a zero coordinate row and scales of 1e-8 and
    # 1e8
    rng = np.random.default_rng(1000 * D + 10 * n + k)
    for m in (1, 2, 40):
        basis = rng.standard_normal((D, k, n))
        feet = rng.standard_normal((D, m, n))
        if k > 1:
            # a least singular value between the rcond default's
            # eps * max(n, k) and eps * k
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            s_k = np.ones(k)
            s_k[-1] = (n + k) / 2 * np.finfo(float).eps
            basis[-1] = (Q[:, :k] * s_k).T
            basis[0, 1] = basis[0, 0]
        basis[0, :, -1] = 0.0
        feet[0, :, -1] = 0.0
        scale = np.array([1.0, 1e-8, 1e8])[np.arange(D) % 3]
        basis *= scale[:, None, None]
        feet *= scale[:, None, None]
        A, B = basis.transpose(0, 2, 1), feet.transpose(0, 2, 1)
        got = _lstsq_stack(A, B)
        assert got.shape == (D, k, m)
        for i in range(D):
            want = np.linalg.lstsq(A[i], B[i], rcond=None)[0]
            assert got[i].tobytes() == want.tobytes()


def test_lstsq_stack_raises_the_public_error_on_a_nan_slice():
    rng = np.random.default_rng(3)
    A, B = rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3, 5))
    A[2, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as public:
        np.linalg.lstsq(A[2], B[2], rcond=None)
    with pytest.raises(np.linalg.LinAlgError) as stacked:
        _lstsq_stack(A, B)
    assert str(stacked.value) == str(public.value) == \
        "SVD did not converge in Linear Least Squares"


def _best_plane_scalar(space, mu, x, r, k, seed, starts, iters):
    x = np.asarray(x, dtype=float)
    pts, w = _ball_atoms(space, mu, x, r)
    if len(w) == 0:
        return BetaResult(0.0, _degenerate_plane(space, x, k), 1.0, 0.0, empty=True)
    c2, basis2, resid2 = _weighted_l2_plane(pts, w, k)
    if resid2 <= 1e-24 * (1.0 + w.sum() * r * r):
        F0 = _objective(space, c2, basis2, pts, w)
        plane = affine_plane(space, c2, basis2 / space.norms(basis2)[:, None])
        return BetaResult(math.sqrt(max(F0, 0.0) / r ** (k + 2)), plane, 1.0, F0)
    best_base, best_basis = c2, basis2
    best_F = _objective(space, c2, basis2, pts, w)
    if best_F > 1e-28 * (1 + w.sum()):
        rng = np.random.default_rng(seed)
        for s in range(starts):
            if s == 0:
                base, basis = c2.copy(), basis2.copy()
            else:
                Q = _rand_rotation(rng, space.dim)
                base, basis = c2.copy(), basis2 @ Q.T
            base, basis, F = _descend_scalar(space, base, basis, pts, w, iters)
            if F < best_F:
                best_F, best_base, best_basis = F, base, basis
    lower = resid2 / norm_equivalence(space.dim, space.p) ** 2 if space.p > 2 else resid2
    lower = max(lower, 0.0)
    if space.p < 2.0:
        lower = resid2
    factor = best_F / lower if lower > 1e-300 else 1.0
    basis_n = best_basis / space.norms(best_basis)[:, None]
    plane = affine_plane(space, best_base, basis_n)
    betaval = math.sqrt(max(best_F, 0.0) / r ** (k + 2))
    return BetaResult(betaval, plane, float(max(factor, 1.0)), best_F)


def _same_fit(a, b):
    return ((a.beta, a.objective, a.certified_factor, a.empty)
            == (b.beta, b.objective, b.certified_factor, b.empty)
            and type(a.objective) is type(b.objective)
            and a.plane.base.tobytes() == b.plane.base.tobytes()
            and a.plane.basis.tobytes() == b.plane.basis.tobytes())


@pytest.mark.parametrize("p", [1.0, 4 / 3, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (3, 1)])
def test_lockstep_descent_matches_scalar_oracle(p, n, k):
    space = NormedSpace(n, p)
    rng = np.random.default_rng(100 * n + k)
    mu = PointMeasure(rng.uniform(-0.3, 0.3, (5, n)), rng.uniform(0.5, 1.5, 5))
    x = np.zeros(n)
    # line fits in R^3 take an iterative distance solve per trial: fewer steps
    iters = 60 if k == n - 1 else 6
    seeds = [0, 1, 2, 3]
    fits = _fit_seeds(space, *_ball_atoms(space, mu, x, 1.0), x, 1.0, k, seeds, 4, iters)
    assert len(fits) == len(seeds)
    for seed, fit in zip(seeds, fits):
        want = _best_plane_scalar(space, mu, x, 1.0, k, seed, 4, iters)
        assert want.certified_factor > 1.0          # the descent path
        assert _same_fit(fit, want)
        assert _same_fit(best_plane(space, mu, x, 1.0, k, seed=seed, iters=iters), want)
    for seed, starts, few in [(0, 1, iters), (1, 4, 3), (2, 1, 2)]:
        want = _best_plane_scalar(space, mu, x, 1.0, k, seed, starts, few)
        got = best_plane(space, mu, x, 1.0, k, seed=seed, starts=starts, iters=few)
        assert _same_fit(got, want)
    # a 2-atom ball fits exactly; a ball away from the atoms is empty
    for centre in (mu.points[0], np.full(n, 5.0)):
        r = float(np.sort(space.norms(mu.points - centre))[1]) if centre[0] < 5 else 1.0
        want = _best_plane_scalar(space, mu, centre, r, k, 0, 4, iters)
        assert _same_fit(best_plane(space, mu, centre, r, k, seed=0, iters=iters), want)
        assert all(_same_fit(f, want) for f in
                   _fit_seeds(space, *_ball_atoms(space, mu, centre, r), centre, r, k,
                              seeds, 4, iters))
    # stacked gradient rounds start by start: on atoms that lie on the
    # first start's plane, that start's gradient vanishes in the first
    # round while the rotated starts go on; with few iterations the starts
    # reach `iters` in different rounds
    rng = np.random.default_rng(7)
    base0, basis0 = np.full(n, 0.05), np.linalg.qr(rng.standard_normal((n, n)))[0][:k]
    on_plane = base0 + rng.uniform(-0.4, 0.4, (6, k)) @ basis0
    starts = [basis0] + [basis0 @ _rand_rotation(rng, n).T for _ in range(8)]
    _assert_descend_matches_scalar(space, base0, starts, on_plane, rng.uniform(0.5, 1.5, 6),
                                   (2, iters))
    if p == math.inf and k == n - 1:
        # atoms (u, -u, v) about a plane with normal along (1, -1, ...): the
        # residuals' largest |coordinates| tie, and the first one wins
        tied = np.zeros((5, n))
        tied[:, 0] = rng.uniform(-0.3, 0.3, 5)
        tied[:, 1] = -tied[:, 0]
        tied[:, 2:] = rng.uniform(-0.3, 0.3, (5, n - 2))
        plane = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]])[:k, :n]
        _d, feet = _dists_to_flats(space, np.zeros((1, n)), plane[None], tied)
        A = np.abs(tied - feet[0])
        assert ((A == A.max(axis=1, keepdims=True)).sum(axis=1) >= 2).all() and A.max() > 0
        starts = [plane] + [plane @ _rand_rotation(rng, n).T for _ in range(3)]
        _assert_descend_matches_scalar(space, np.zeros(n), starts, tied,
                                       rng.uniform(0.5, 1.5, 5), (2, iters))


def _assert_descend_matches_scalar(space, base, starts, pts, w, iters_list):
    for iters in iters_list:
        B, V, F = _descend(space, np.repeat(base[None, :], len(starts), axis=0),
                           np.array(starts), pts, w, iters)
        for i, basis in enumerate(starts):
            b, v, f = _descend_scalar(space, base, basis, pts, w, iters)
            assert (B[i].tobytes(), V[i].tobytes(), F[i]) == (b.tobytes(), v.tobytes(), f)


def _dini_profile_count3d(space, mu, x, r_lo, r_hi, k, alpha, chi, seed=0):
    """dini_profile as it was before the second-nearest test and the
    grouped sums: the 3-D atom count per (center, scale) and one sum per
    center, kept as the oracle."""
    from betareif import measures
    X = np.asarray(x, dtype=float)
    centers = np.atleast_2d(X)
    m = len(centers)
    lo = np.broadcast_to(np.asarray(r_lo, dtype=float), (m,))
    seeds = np.broadcast_to(np.asarray(seed), (m,))
    floors = lo * (1 - 1e-12)
    grid, r = [], float(r_hi)
    while r >= floors.min():
        grid.append(r)
        r *= chi
    grid = np.asarray(grid)
    n_scales = (grid[None, :] >= floors[:, None]).sum(axis=1)
    atoms = np.empty((m, len(grid)), dtype=np.int64)
    for rows, D in measures._distance_blocks(space, centers, mu.points):
        atoms[rows] = (D[:, :, None] <= grid[None, None, :]).sum(axis=1)
    to_fit = (atoms > 1) & (np.arange(len(grid))[None, :] < n_scales[:, None])
    groups = {}
    for i in np.flatnonzero(to_fit.any(axis=1)):
        d = space.norms(mu.points - centers[i][None, :])
        for j in np.flatnonzero(to_fit[i]):
            mask = d <= grid[j]
            groups.setdefault((j, mask.tobytes()), (mask, []))[1].append(i)
    betas = np.zeros((m, len(grid)))
    for (j, _key), (mask, members) in groups.items():
        fits = measures._fit_seeds(space, mu.points[mask], mu.weights[mask],
                                   centers[members[0]], grid[j], k,
                                   [int(seeds[i]) + 1000 * int(j) for i in members])
        betas[members, j] = [fit.beta for fit in fits]
    log = math.log(1.0 / chi)
    profiles = []
    for i, c in enumerate(centers):
        b = betas[i, :n_scales[i]]
        profiles.append(measures.DiniProfile(c, grid[:n_scales[i]], b, alpha, chi,
                                    float((b**alpha).sum() * log)))
    return profiles[0] if X.ndim == 1 else profiles


def _dyadic_cloud():
    """Atoms in R^2 on a parabola at the dyadic abscissae 2^-j (j = 0..11),
    so that balls about the origin hold three or more non-collinear atoms
    down to the finest scale, plus a far pair, a lone atom and an atom at
    distance exactly 1/2 from the origin.  Centers: the origin, a pair
    atom, the lone atom and a point with no atom nearby."""
    t = 2.0 ** -np.arange(12)
    pts = np.concatenate([np.stack([t, t * t], axis=1), [[0.0, 0.0], [-0.5, 0.0]],
                          [[5.0, 5.0], [5.0, 5.0 + 2.0 ** -6]], [[-5.0, 5.0]]])
    mu = PointMeasure(pts, 0.5 + (np.arange(len(pts)) % 3) / 4.0)
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0], [0.0, -9.0], [0.5, 0.25]])
    return mu, centers


def _stand_in_fits(space, pts, w, x, r, k, seeds, starts=4, iters=60):
    """A cheap stand-in for `_fit_seeds`: a beta that depends on the ball's
    atoms, its scale and each seed."""
    return [BetaResult(math.sqrt(w.sum() * r) * (1 + s % 5) / 7, None, 1.0, 0.0) for s in seeds]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("block_entries", [None, 5])
def test_dini_profile_matches_3d_count_oracle(p, block_entries, monkeypatch):
    # both sides fit through measures._fit_seeds; off the Hilbert case a
    # stand-in replaces the descent, which other tests pin
    from betareif import measures
    if block_entries is not None:
        monkeypatch.setattr(measures, "_BLOCK_ENTRIES", block_entries)
    if p != 2.0:
        monkeypatch.setattr(measures, "_fit_seeds", _stand_in_fits)
    space = NormedSpace(2, p)
    mu, centers = _dyadic_cloud()
    # chi = 1/2 and r_hi = 1 make every scale a power of 2: the atom at
    # (-1/2, 0) lies exactly on the ball B_{1/2}(0)
    assert space.norm(mu.points[13] - centers[0]) == 0.5
    alpha = 2.0 if p != 1.0 else 1.0
    # one r_lo: the origin sums 12 scales (numpy's pairwise path); per-row
    # r_lo: its 6 scales, all with nonzero betas, sit in a 12-scale grid,
    # where a zero-padded sum would change their bits
    for r_lo in (2.0 ** -11, np.array([2.0 ** -5, 2.0 ** -11, 0.3, 1e-3, 2.0 ** -4])):
        for measure in (mu, mu.subset(np.arange(len(mu)) == 12),
                        mu.subset(np.zeros(len(mu), dtype=bool))):
            got = dini_profile(space, measure, centers, r_lo, 1.0, 1, alpha, 0.5, seed=3)
            want = _dini_profile_count3d(space, measure, centers, r_lo, 1.0, 1, alpha, 0.5,
                                         seed=3)
            for a, b in zip(got, want, strict=True):
                assert a.scales.tobytes() == b.scales.tobytes()
                assert a.betas.tobytes() == b.betas.tobytes()
                assert a.dini_sum == b.dini_sum
    # the origin's profile sums 12 scales, the first 9 betas nonzero, so
    # its sum takes numpy's pairwise path
    full = dini_profile(space, mu, centers, 2.0 ** -11, 1.0, 1, alpha, 0.5, seed=3)
    assert len(full[0].scales) == 12 and (full[0].betas[:9] > 0).all()
    one = dini_profile(space, mu, centers[0], 2.0 ** -11, 1.0, 1, alpha, 0.5, seed=3)
    assert one.dini_sum == full[0].dini_sum


def test_fit_seeds_builds_one_plane_per_winning_candidate(monkeypatch):
    # the top-scale precheck ball of the 21-atom l^4 saddle: its 21 seeds
    # end on 8 distinct candidates, and each gets one AffinePlane (one per
    # seed would be 21)
    from betareif import measures
    space, mu = NormedSpace(3, 4), l4_saddle_21()
    built = []
    real = measures.AffinePlane
    monkeypatch.setattr(measures, "AffinePlane",
                        lambda *a: built.append(1) or real(*a))
    x = np.zeros(3)
    fits = _fit_seeds(space, mu.points, mu.weights, x, 2.0, 2, list(range(21)))
    assert len(built) == len({id(f.plane) for f in fits}) == 8
    for seed in (0, 7, 20):
        assert _same_fit(fits[seed], _fit_seeds(space, mu.points, mu.weights, x, 2.0, 2,
                                                [seed])[0])
