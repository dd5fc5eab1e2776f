import math

import numpy as np
import pytest

from betareif import cover, measures
from betareif.cli import run
from betareif.cover import (CoverConfig, build_sigma, classify_ball,
                            covering_lemma, default_theta, main_packing,
                            partition_of_unity, reifenberg_flat_map,
                            squash_report, tilting_report)
from betareif.curves import dirac_example
from betareif.geometry import AffinePlane, affine_plane, graph_check, make_projection
from betareif.measures import PointMeasure, beta
from betareif.spaces import NormedSpace

from conftest import gamma2_sample, graph_measure_200, l4_saddle_21
from conftest import snowflake_sample as _snowflake_sample


# -- partition of unity -------------------------------------------------------

def test_pou_single_center_inner_region(l2_plane):
    pou = partition_of_unity([[0, 0]], 1.0, l2_plane)
    assert pou.values([[2.0, 0.0]])[0, 0] == pytest.approx(1.0)
    assert pou.values([[0.0, 0.0]])[0, 0] == pytest.approx(1.0)


def test_pou_outside_supports(l2_plane):
    pou = partition_of_unity([[0, 0], [1, 0]], 1.0, l2_plane)
    assert (pou.values([[5.0, 0.0]]) == 0.0).all()


def test_pou_symmetric_midpoint(l2_plane):
    pou = partition_of_unity([[0, 0], [1, 0]], 1.0, l2_plane)
    vals = pou.values([[0.5, 0.0]])[0]
    assert vals[0] == pytest.approx(0.5) and vals[1] == pytest.approx(0.5)


def test_pou_sums_to_one_on_inner_union(l2_plane):
    rng = np.random.default_rng(0)
    centers = rng.uniform(-1, 1, (5, 2))
    pou = partition_of_unity(centers, 0.5, l2_plane)
    X = centers[:, None, :] + rng.uniform(-0.5, 0.5, (5, 40, 2)) * 0.5
    X = X.reshape(-1, 2)
    inner = (l2_plane.norms(X[:, None, :] - centers[None, :, :]) <= 2.5 * 0.5).any(axis=1)
    s = pou.sum_values(X)
    assert np.allclose(s[inner], 1.0, atol=1e-12)
    assert (s <= 1.0 + 1e-12).all()


def test_pou_lipschitz_bound(l2_plane):
    # empirical Lip(phi_i) <= gamma Gamma / r with a generous gamma
    rng = np.random.default_rng(1)
    centers = rng.uniform(-0.5, 0.5, (4, 2))
    r = 0.4
    pou = partition_of_unity(centers, r, l2_plane)
    X = rng.uniform(-2, 2, (400, 2))
    V = pou.values(X)
    Gamma = pou.overlap_count(X)
    worst = 0.0
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            d = l2_plane.norm(X[i] - X[j])
            if d > 1e-9:
                worst = max(worst, np.abs(V[i] - V[j]).max() / d)
    assert worst <= 16 * Gamma / r


# -- classification -----------------------------------------------------------

def test_classify_uniform_cube_good(l2_plane):
    rng = np.random.default_rng(3)
    xs = np.linspace(-0.45, 0.45, 12)
    pts = np.stack([np.repeat(xs, 12), np.tile(xs, 12)], axis=1)
    mu = PointMeasure(pts, np.full(len(pts), 1.0 / len(pts)))
    lab = classify_ball(NormedSpace(2, 2), mu, [0, 0], 0.9, 1, 0.01)
    assert lab.kind == "good"


def test_classify_lower_dim_mass_bad(l2_plane):
    xs = np.linspace(-0.9, 0.9, 41)
    mu = PointMeasure(np.stack([xs, np.zeros(41)], axis=1), np.ones(41))
    s3 = NormedSpace(3, 2)
    pts3 = np.concatenate([mu.points, np.zeros((41, 1))], axis=1)
    mu3 = PointMeasure(pts3, np.ones(41))
    lab = classify_ball(s3, mu3, [0, 0, 0], 1.0, 2, 0.1)
    assert lab.kind == "bad"
    assert lab.witness_plane is not None and lab.witness_plane.k == 1


def test_classify_dirac_good_with_witnesses(l2_plane):
    mu = dirac_example(0.01)
    lab = classify_ball(l2_plane, mu, [0, 0], 1.0, 1, 0.1, theta=0.001)
    assert lab.kind == "good"
    ws = {tuple(w) for w in np.round(lab.witnesses, 6)}
    assert (0.0, 0.0) in ws or (1.0, 0.0) in ws or (-1.0, 0.0) in ws


def test_classify_witness_general_position(l2_plane):
    # good witnesses: differences in 5*chi*r general position
    from betareif.geometry import general_position_margin
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.9, 0.9, (80, 2))
    mu = PointMeasure(pts, np.full(80, 1 / 80))
    chi, r = 0.1, 1.0
    lab = classify_ball(l2_plane, mu, [0, 0], r, 1, chi)
    assert lab.kind == "good"
    diffs = lab.witnesses[1:] - lab.witnesses[0]
    assert general_position_margin(list(diffs), l2_plane) >= 5 * chi * r


def test_classify_k0_mass_test(l2_plane):
    mu = PointMeasure([[0.0, 0.0]], [1.0])
    assert classify_ball(l2_plane, mu, [0, 0], 1.0, 0, 0.1).kind == "good"
    assert classify_ball(l2_plane, mu, [0, 0], 1.0, 0, 0.1,
                         theta=1e9).kind == "bad"


def test_classify_chi_validation(l2_plane):
    with pytest.raises(ValueError):
        classify_ball(l2_plane, dirac_example(0.05), [0, 0], 1.0, 1, 0.2)


# -- tilting ------------------------------------------------------------------

def test_tilting_planar_pairs_zero(l2_plane):
    xs = np.linspace(-0.9, 0.9, 61)
    mu = PointMeasure(np.stack([xs, np.zeros(61)], axis=1), np.full(61, 1 / 61))
    rep = tilting_report(l2_plane, mu, [(((-0.3, 0.0), 0.5), ((0.3, 0.0), 0.5))],
                         1, 0.05)
    assert rep.pairs[0]["d_G"] <= 1e-7
    assert rep.max_ratio == 0.0 or rep.max_ratio <= 1e-4


def test_tilting_dirac_inner_ball_not_good(l2_plane):
    # the collapsed inner ball of the 5-Dirac family is rejected
    mu = dirac_example(0.001)
    with pytest.raises(ValueError):
        tilting_report(l2_plane, mu, [(((0.0, 0.0), 1.0), ((0.0, 0.0), 0.1))], 1, 0.1)


def test_tilting_graph_measure_stable():
    s3 = NormedSpace(3, 2)
    mu = graph_measure_200(kappa=0.01)
    pairs = [(((0.24, 0.0, 0.0), 0.35), ((-0.24, 0.0, 0.0), 0.35))]
    rep = tilting_report(s3, mu, pairs, 2, 0.05)
    assert math.isfinite(rep.max_ratio)


# -- sigma maps ---------------------------------------------------------------

def test_sigma_identity_far_away(l2_plane):
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    sg = build_sigma(l2_plane, [[0, 0]], 1.0, [pl], 1)
    assert np.allclose(sg.apply([10.0, 5.0]), [10.0, 5.0])


def test_sigma_affine_projection_inside(l2_plane):
    pl = affine_plane(l2_plane, [0.0, 0.2], [[1, 0]])
    sg = build_sigma(l2_plane, [[0, 0.2]], 1.0, [pl], 1)
    assert np.allclose(sg.apply([0.3, 0.5]), [0.3, 0.2])
    assert np.allclose(sg.apply([0.3, 0.2]), [0.3, 0.2])


def test_sigma_serialization(l2_plane):
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    sg = build_sigma(l2_plane, [[0, 0]], 1.0, [pl], 1)
    d = sg.to_dict()
    assert d["r"] == 1.0 and len(d["planes"]) == 1


# -- squash reports -----------------------------------------------------------

def test_squash_plane_equals_graph_plane(l2_plane):
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    sg = build_sigma(l2_plane, [[0.5, 0.0]], 1.0, [pl], 1)
    rep = squash_report(sg, gamma2_sample(0.1), pl, sg.projections[0], 0.0, 0.1)
    assert rep.hypothesis_ok
    assert rep.new_height == pytest.approx(0.0, abs=1e-12)
    assert rep.interior_height == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p,eps", [(1.5, 0.1), (2.0, 0.1), (1.5, 0.05)])
def test_squash_power_gain_theta_eps_p(p, eps):
    s = NormedSpace(2, p)
    pl = affine_plane(s, [0, 0], [[1, 0]])
    sg = build_sigma(s, [[0.5, 0.0]], 1.0, [pl], 1)
    rep = squash_report(sg, gamma2_sample(eps), pl, sg.projections[0], 0.0, eps)
    assert rep.sq_distortion is not None
    # distortion <= c eps^p and >= eps^p / c at the apex pair
    assert rep.sq_distortion <= 4 * eps**p
    assert rep.sq_distortion >= eps**p / 4


def test_squash_p1_distortion_theta_eps():
    s = NormedSpace(2, 1)
    eps = 0.1
    pl = affine_plane(s, [0, 0], [[1, 0]])
    sg = build_sigma(s, [[0.5, 0.0]], 1.0, [pl], 1)
    pts = gamma2_sample(eps)
    img = sg.apply_many(pts)
    iu = np.triu_indices(len(pts), k=1)
    d0 = s.norms(pts[:, None, :] - pts[None, :, :])[iu]
    d1 = s.norms(img[:, None, :] - img[None, :, :])[iu]
    ok = d0 > 1e-12
    rel = np.abs(d1[ok] ** 2 - d0[ok] ** 2) / d0[ok] ** 2
    assert rel.max() >= eps / 4          # only first-order gain at p = 1
    assert rel.max() <= 8 * eps


def test_squash_hypothesis_violations_reported(l2_plane):
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    tilted = affine_plane(l2_plane, [0, 0.5], [[1, 0.4]])
    sg = build_sigma(l2_plane, [[0.5, 0.0]], 1.0, [tilted], 1)
    rep = squash_report(sg, gamma2_sample(0.05), pl, make_projection(l2_plane, pl, "orthogonal"),
                        delta=0.01, eps=0.05)
    assert not rep.hypothesis_ok
    assert rep.hypothesis_notes


# -- covering lemma -----------------------------------------------------------

def test_covering_planar_with_vitali_balls():
    s3 = NormedSpace(3, 2)
    rng = np.random.default_rng(1)
    uv = rng.uniform(-0.7, 0.7, (60, 2))
    pts = np.concatenate([uv, np.zeros((60, 1))], axis=1)
    mu = PointMeasure(pts, np.ones(60) / 60)
    rs = np.full(60, 0.3)
    res = covering_lemma(s3, mu, rs, 2, CoverConfig(max_depth=4))
    assert len(res.bad_balls) == 0
    assert res.leftover_mass == 0.0
    assert res.distortion == pytest.approx(1.0, abs=1e-9)
    assert res.item_checks["item4_disjoint"] and res.item_checks["item5_radius"]
    # Vitali 1/5-balls disjoint
    kept = res.kept_originals
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            ci, ri = kept[i]
            cj, rj = kept[j]
            assert s3.norm(np.asarray(ci) - np.asarray(cj)) >= (ri + rj) / 5 - 1e-12


def test_covering_lower_dim_bad_top_ball(l2_plane):
    mu = PointMeasure([[0.0, 0.0]], [1.0])
    res = covering_lemma(l2_plane, mu, [0.0], 1, CoverConfig(max_depth=3))
    assert len(res.kept_originals) == 0
    assert len(res.bad_balls) == 1
    b = res.bad_balls[0]
    assert np.allclose(b.center, [0, 0]) and b.radius == 1.0
    assert res.leftover_mass == 0.0


def test_covering_rs_validation(l2_plane):
    mu = PointMeasure([[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        covering_lemma(l2_plane, mu, [1.5], 1)


def test_covering_graph_measure_items():
    s3 = NormedSpace(3, 2)
    mu = graph_measure_200(kappa=0.01)
    cfg = CoverConfig(chi=0.1, delta=0.1, max_depth=5)
    res = covering_lemma(s3, mu, np.zeros(200), 2, cfg)
    assert res.item_checks["item4_disjoint"]
    assert res.item_checks["item5_radius"]
    assert res.item_checks["item6_ok"]
    assert res.stages[0].n_good > 0          # the sigma machinery engaged
    assert res.leftover_mass <= res.ledger["leftover_c"] * max(res.measured_delta, 1e-12) ** 2
    assert res.distortion <= 1 + 10 * 0.1**2
    assert not res.estimate_violated


def test_covering_deterministic():
    s3 = NormedSpace(3, 2)
    mu = graph_measure_200(kappa=0.01)
    cfg = CoverConfig(chi=0.1, delta=0.1, max_depth=3, seed=5)
    r1 = covering_lemma(s3, mu, np.zeros(200), 2, cfg)
    r2 = covering_lemma(s3, mu, np.zeros(200), 2, cfg)
    assert r1.distortion == r2.distortion
    assert r1.leftover_mass == r2.leftover_mass
    assert len(r1.bad_balls) == len(r2.bad_balls)


# -- main packing -------------------------------------------------------------

def test_main_packing_point_measure_ledger(l2_plane):
    mu = PointMeasure([[0.0, 0.0]], [1.0])
    res = main_packing(l2_plane, mu, [0.0], 1, M=0.0,
                       cfg=CoverConfig(chi=0.1, max_depth=3), budget=4)
    assert len(res.levels) >= 2
    assert res.levels[0].n_bad == 1 and res.levels[0].sum_bad == 1.0
    for lv in res.levels:
        assert lv.claim_A_ok and lv.claim_B_S_ok and lv.claim_B_bad_ok
    assert res.leftover_mass == 0.0
    assert "recursion budget exhausted with bad balls remaining" in res.flags


@pytest.mark.parametrize("M", [math.inf, math.nan, -1.0])
def test_main_packing_rejects_M(l2_plane, M):
    # M = inf made the mass scale delta0^2/M zero, and the weights with it
    mu = PointMeasure([[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match="M must be a finite number >= 0"):
        main_packing(l2_plane, mu, [0.0], 1, M=M)


def test_main_packing_trivial_planar_path():
    s3 = NormedSpace(3, 2)
    rng = np.random.default_rng(1)
    uv = rng.uniform(-0.7, 0.7, (40, 2))
    pts = np.concatenate([uv, np.zeros((40, 1))], axis=1)
    mu = PointMeasure(pts, np.ones(40) / 40)
    res = main_packing(s3, mu, np.full(40, 0.3), 2, M=0.0)
    assert res.valid
    assert res.leftover_mass == 0.0
    assert res.packing_sum > 0


def test_main_packing_graph_measure():
    s3 = NormedSpace(3, 2)
    mu = graph_measure_200(kappa=0.01)
    res = main_packing(s3, mu, np.zeros(200), 2, M=0.01,
                       cfg=CoverConfig(chi=0.1, delta=0.1, max_depth=3), budget=2)
    for lv in res.levels:
        assert lv.claim_A_ok and lv.claim_B_S_ok and lv.claim_B_bad_ok


def _six_atoms():
    """Unit atoms at +-0.15 e_i in R^3: no plane fits them, so B_1(0) is bad."""
    return PointMeasure(np.concatenate([0.15 * np.eye(3), -0.15 * np.eye(3)]), np.ones(6))


@pytest.mark.parametrize("M,flagged", [(1e-4, True), (0.01, False)])
def test_main_packing_bad_top_ball_keeps_the_dini_precheck(M, flagged):
    # a bad top ball is the lemma's one bad ball at level 0, and its
    # precheck tests the M-hypothesis on the rescaled measure
    res = main_packing(NormedSpace(3, 2), _six_atoms(), np.zeros(6), 2, M=M,
                       cfg=CoverConfig(max_depth=3), budget=1)
    assert res.levels[0].n_bad == 1 and res.levels[0].sum_bad == 1.0
    assert res.kept_originals == [] and not res.valid
    precheck = "level 0: dini precheck: measured delta 0.805 exceeds configured 0.1"
    assert (precheck in res.flags) == flagged


@pytest.mark.parametrize("r_s,message", [
    ([2.0, 2.0, 2.0], "r_s < ball radius required"),
    ([1.0, 0.1, 0.1], "r_s < ball radius required"),
    ([math.nan, 0.1, 0.1], "r_s must be finite"),
    ([-1.0, 0.1, 0.1], "r_s must be >= 0"),
    ([0.1, 0.1], "r_s must align with mu"),
], ids=["two", "one", "nan", "negative", "short"])
@pytest.mark.parametrize("M", [0.0, 0.01])
def test_main_packing_checks_r_s_at_every_M(r_s, message, M):
    # the M = 0 Vitali path took r_s unchecked: a valid report for radii
    # of 2, or built from the first two atoms of three
    mu = PointMeasure([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.4]], np.ones(3))
    with pytest.raises(ValueError, match=message):
        main_packing(NormedSpace(2, 2), mu, r_s, 1, M=M)


# -- reifenberg flat maps -----------------------------------------------------

def test_reifenberg_plane_identity(l2_plane):
    xs = np.linspace(-0.95, 0.95, 60)
    S = np.stack([xs, np.zeros(60)], axis=1)
    stages, rep = reifenberg_flat_map(l2_plane, S, 1, chi=1 / 3, delta=0.05,
                                      max_depth=3)
    assert rep.distortion == pytest.approx(1.0, abs=1e-9)
    assert rep.holder_exponent == pytest.approx(1.0, abs=1e-6)


def test_distortion_rule():
    from betareif.cover import _distortion
    # no pair more than 1e-9 apart
    assert _distortion(np.array([0.0, 1e-9]), np.array([1.0, 2.0])) == 1.0
    # collapsed pairs (and pairs too close to measure) are dropped
    assert _distortion(np.array([1.0, 2.0, 1e-10]), np.array([2.0, 0.0, 5.0])) == 2.0
    # every pair collapsed
    assert _distortion(np.array([1.0, 2.0, 1e-10]), np.array([0.0, 0.0, 5.0])) == math.inf
    # ratios 2 and 1/4
    assert _distortion(np.array([1.0, 4.0]), np.array([2.0, 1.0])) == 4.0


def test_pair_distances_on_a_point_plane(l2_plane):
    from betareif.cover import _distortion, _pair_distances
    from betareif.geometry import AffinePlane
    T0 = AffinePlane(np.array([0.3, -0.2]), np.zeros((0, 2)))
    sigma = build_sigma(l2_plane, [[0.0, 0.0]], 1.0,
                        [affine_plane(l2_plane, [0, 0], [[1, 0]])], 1)
    d0, d1 = _pair_distances(l2_plane, T0, [sigma], np.random.default_rng(0), 1.0, 50)
    assert d0.shape == d1.shape == (50,)
    assert not d0.any() and not d1.any()
    assert _distortion(d0, d1) == 1.0


def test_reifenberg_collapse_reports_inf(l2_plane, monkeypatch):
    # the covering's rule: a tau that collapses every pair has distortion inf
    real = cover._pair_distances
    monkeypatch.setattr(cover, "_pair_distances",
                        lambda *a: (real(*a)[0], np.zeros(a[-1])))
    xs = np.linspace(-0.95, 0.95, 60)
    S = np.stack([xs, np.zeros(60)], axis=1)
    _, rep = reifenberg_flat_map(l2_plane, S, 1, chi=1 / 3, delta=0.05, max_depth=3)
    assert rep.distortion == math.inf
    assert rep.holder_exponent == 1.0


def test_reifenberg_certification_failure(l2_plane):
    ts = np.linspace(-1, 1, 41)
    S = np.stack([ts, 0.8 * np.sin(3 * ts)], axis=1)    # wildly non-flat
    with pytest.raises(ValueError):
        reifenberg_flat_map(l2_plane, S, 1, chi=1 / 3, delta=0.02, max_depth=2)


@pytest.mark.parametrize("name, value", [
    ("chi", math.nan), ("chi", 0.0), ("chi", -0.5), ("chi", 1.0), ("chi", 2.0),
    ("delta", math.nan), ("delta", 0.0), ("delta", -0.1), ("delta", math.inf)])
def test_reifenberg_flat_map_rejects_out_of_range_chi_delta(l2_plane, name, value):
    # each breach raises before any work: chi = nan used to run for minutes,
    # chi = 0 to divide by zero, chi = 2 to report stages with q_alpha 0,
    # and delta = nan to certify every ball
    S = np.stack([np.linspace(-1, 1, 9), np.zeros(9)], axis=1)
    kw = {"chi": 1 / 3, "delta": 0.05, name: value}
    with pytest.raises(ValueError, match=f"^{name} must"):
        reifenberg_flat_map(l2_plane, S, 1, max_depth=2, **kw)


def test_reifenberg_snowflake_bilipschitz_and_trend(l2_plane):
    # summable-eta flake: distortion <= exp(c Q^alpha) with the fitted c;
    # constant-eta flake: the tau-image length (a distortion lower bound)
    # grows with depth, and the bi-Hoelder exponent is reported
    etas_sum = [0.08 * 2.0**-k for k in range(12)]
    etas_const = [0.08] * 12
    lengths = []
    for depth, cap in ((4, 2200), (6, 2200), (8, 4400)):
        S = _snowflake_sample(etas_const, depth, cap)
        stages, rep = reifenberg_flat_map(l2_plane, S, 1, chi=1 / 3, delta=0.2,
                                          max_depth=7, pair_count=120)
        assert 0.9 <= rep.holder_exponent <= 1.01
        # length of the tau image of a marked segment, an independent
        # distortion lower bound against the straight base
        base = np.stack([np.linspace(-0.9, 0.9, 1200), np.zeros(1200)], axis=1)
        pts = base.copy()
        for s in stages:
            pts = s.apply_many(pts)
        seg = np.sqrt(((np.diff(pts, axis=0)) ** 2).sum(axis=1)).sum()
        lengths.append(seg / 1.8)
    assert lengths[0] < lengths[1] < lengths[2]

    S = _snowflake_sample(etas_sum, 6, 2200)
    stages, rep = reifenberg_flat_map(l2_plane, S, 1, chi=1 / 3, delta=0.2,
                                      max_depth=7, pair_count=120)
    assert rep.q_alpha is not None and rep.q_alpha > 0
    assert rep.lip_constant_fit is not None
    assert rep.distortion <= math.exp(rep.lip_constant_fit * rep.q_alpha) + 1e-9


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_nearest_neighbor_scale_blocked_matches_full_table(p):
    # 512 sampled rows against 700 atoms in R^2 span several distance blocks;
    # the repeated atoms exercise the zero-distance exclusion
    from betareif.cover import _nearest_neighbor_scale
    from betareif.measures import _BLOCK_ENTRIES
    space = NormedSpace(2, p)
    S = np.random.default_rng(5).uniform(-1.0, 1.0, (700, 2))
    S[600:] = S[:100]
    idx = np.linspace(0, len(S) - 1, 512).astype(int)
    assert len(idx) * S.size > 2 * _BLOCK_ENTRIES
    D = space.norms(S[idx][:, None, :] - S[None, :, :])
    D[D <= 0] = np.inf
    assert _nearest_neighbor_scale(space, S) == float(np.median(D.min(axis=1)))


def test_reifenberg_flat_map_computes_each_beta_and_net_once(l2_plane, monkeypatch):
    # certification, the stage planes and the Q bound share one net per
    # scale and one batched beta_inf call per scale, with every (center,
    # scale) pair in exactly one call
    from betareif import cover, measures
    call_scales, beta_keys, net_seps = [], [], []
    real_beta_inf, real_net = cover.beta_inf, cover._farthest_net

    def counting_beta_inf(space, S, x, r, k):
        call_scales.append(r)
        beta_keys.extend((row.tobytes(), r) for row in np.asarray(x, dtype=float))
        return real_beta_inf(space, S, x, r, k)

    def counting_net(space, pts, sep):
        net_seps.append(sep)
        return real_net(space, pts, sep)

    monkeypatch.setattr(cover, "beta_inf", counting_beta_inf)
    monkeypatch.setattr(cover, "_farthest_net", counting_net)
    S = _snowflake_sample([0.08] * 12, 4, 2200)
    stages, rep = reifenberg_flat_map(l2_plane, S, 1, chi=1 / 3, delta=0.2,
                                      max_depth=7, pair_count=120)
    assert len(call_scales) == len(set(call_scales)) == len(stages) + 1
    assert len(beta_keys) == len(set(beta_keys)) == 171
    assert len(net_seps) == len(set(net_seps)) == len(stages) + 1
    assert 0.9 <= rep.holder_exponent <= 1.01
    assert rep.certified_delta <= 0.2
    assert rep.distortion == pytest.approx(1.0037366092148736, rel=1e-9)


def test_tau_cauchy_small_movement():
    # successive stage composites move points by at most c * delta * r_j
    s3 = NormedSpace(3, 2)
    mu = graph_measure_200(kappa=0.01)
    cfg = CoverConfig(chi=0.1, delta=0.1, max_depth=4)
    res = covering_lemma(s3, mu, np.zeros(200), 2, cfg)
    pl = AffinePlane.from_fragment(s3, res.item_checks["item1_base_plane"])
    grid = pl.points(np.stack(np.meshgrid(np.linspace(-0.8, 0.8, 7),
                                          np.linspace(-0.8, 0.8, 7)),
                             axis=-1).reshape(-1, 2))
    prev = grid.copy()
    c_move = 50.0
    for j, sg in enumerate(res.tau_stages, start=1):
        cur = sg.apply_many(prev)
        move = s3.norms(cur - prev).max()
        assert move <= c_move * 0.1 * 0.1**j
        prev = cur


def test_pack_cli_exit_three(tmp_path):
    import json as _json
    from betareif.cli import run as cli_run
    doc = PointMeasure([[0.0, 0.0]], [1.0]).to_json(NormedSpace(2, 2))
    path = tmp_path / "point.json"
    path.write_text(_json.dumps(doc))
    # budget exhaustion on the point measure flags the run invalid: exit 3
    code = cli_run(["pack", str(path), "--k", "1", "--M", "0.0",
                    "--budget", "2", "--max-depth", "2"])
    assert code == 3


def test_pack_cli_bad_top_ball_names_the_precheck(tmp_path):
    import json as _json
    path, out = tmp_path / "six.json", tmp_path / "pack.json"
    path.write_text(_json.dumps(_six_atoms().to_json(NormedSpace(3, 2))))
    code = run(["pack", str(path), "--k", "2", "--M", "1e-4", "--max-depth", "3",
                "--budget", "1", "--out", str(out)])
    assert code == 3
    flags = _json.loads(out.read_text())["flags"]
    assert "level 0: dini precheck: measured delta 0.805 exceeds configured 0.1" in flags


@pytest.mark.parametrize("M,code", [(5e-324, 2), (1e-310, 3), (1e-309, 3), (3e-309, 3)])
def test_pack_cli_too_small_M(tmp_path, capsys, M, code):
    # on a 5-atom segment, M = 5e-324 makes the mass scale delta0^2/M inf,
    # at M = 1e-310 the weights w / rho^k of the level-1 sub-covering
    # overflow, and at 1e-309 and 3e-309 their mass times 16 does, which
    # would overflow the moments of a PCA fit: an error line, or a flagged
    # bad ball that stays bad, and neither a traceback nor a warning
    import json as _json
    import warnings
    mu = PointMeasure([[x, 0.0] for x in (0.0, 0.1, -0.1, 0.2, -0.2)], np.full(5, 0.2))
    path, out = tmp_path / "segment.json", tmp_path / "pack.json"
    path.write_text(_json.dumps(mu.to_json(NormedSpace(2, 2))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["pack", str(path), "--k", "1", "--M", str(M), "--out", str(out)]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error: M = 5e-324 is too small")
        assert not out.exists()
    else:
        text = out.read_text()
        assert "nan" not in text and "inf" not in text
        doc = _json.loads(text)
        assert doc["valid"] is False
        assert ("level 1: 1 bad balls not refined: the rescaled mass of their "
                "sub-coverings overflows") in doc["flags"]


def test_covering_l3_curve_j_projection_path():
    # k = 1 in a smooth non-Hilbert space: sigma stages use J-projections
    s = NormedSpace(2, 3)
    ts = np.linspace(-0.85, 0.85, 120)
    pts = np.stack([ts, 0.002 * np.sin(2.5 * ts)], axis=1)
    mu = PointMeasure(pts, np.full(120, 1.7 / 120))
    cfg = CoverConfig(chi=0.1, delta=0.1, max_depth=3)
    res = covering_lemma(s, mu, np.zeros(120), 1, cfg)
    assert res.stages[0].n_good > 0
    assert res.tau_stages and res.tau_stages[0].projections[0].kind == "j_projection"
    assert res.item_checks["item4_disjoint"] and res.item_checks["item5_radius"]
    assert res.leftover_mass == 0.0
    assert res.distortion <= 1 + 10 * 0.1


def test_covering_l4_graph_hahn_banach_path():
    # k = 2 in l^4: sigma stages fall back to Hahn-Banach projections
    s = NormedSpace(3, 4)
    rng = np.random.default_rng(3)
    golden = math.pi * (3 - math.sqrt(5))
    idx = np.arange(22) + 0.5
    rr = 0.85 * np.sqrt(idx / 22)
    th = idx * golden
    cu, cv = rr * np.cos(th), rr * np.sin(th)
    side = 0.095
    offs = np.array([[0.0, side / math.sqrt(3)],
                     [side / 2, -side / (2 * math.sqrt(3))],
                     [-side / 2, -side / (2 * math.sqrt(3))]])
    U = (cu[:, None] + offs[None, :, 0]).ravel()
    V = (cv[:, None] + offs[None, :, 1]).ravel()
    g = 0.001 * (U * U - V * V)
    mu = PointMeasure(np.stack([U, V, g], axis=1), np.full(len(U), 2.0 / len(U)))
    cfg = CoverConfig(chi=0.1, delta=0.15, max_depth=2)
    res = covering_lemma(s, mu, np.zeros(len(U)), 2, cfg)
    assert res.stages[0].n_good > 0
    assert res.tau_stages[0].projections[0].kind == "hahn_banach"
    assert res.item_checks["item4_disjoint"]
    assert res.leftover_mass <= 0.2


# Calls of the cover command on the l^4 saddle through each cover binding
# that perfbench's tracer wraps; a call through a local alias drops out.
SADDLE_COVER_CALLS = {
    "classify_ball": 43, "best_plane": 22, "_farthest_net": 2, "build_sigma": 1,
    "make_projection": 7, "graph_check": 11, "distances_to_affine": 109,
    "dini_profile": 1, "SigmaMap.apply_many": 2,
}


def test_covering_builds_one_projection_per_distinct_plane(l4_saddle_json, tmp_path,
                                                           monkeypatch):
    # the seven atom triples of the saddle give seven exact-fit planes for
    # the 21 stage-1 good balls; each Hahn-Banach projection is built once
    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    for name in SADDLE_COVER_CALLS:
        owner, _, attr = name.rpartition(".")
        owner = cover.SigmaMap if owner else cover
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    built, sigmas, checked = [], [], []
    make_projection, build_sigma, graph_check = (
        cover.make_projection, cover.build_sigma, cover.graph_check)

    def counting_make_projection(space, V, kind):
        built.append(V)
        return make_projection(space, V, kind)

    def recording_build_sigma(*args):
        sigmas.append(build_sigma(*args))
        return sigmas[-1]

    def recording_graph_check(space, points, plane, proj):
        checked.append(proj)
        return graph_check(space, points, plane, proj)

    monkeypatch.setattr(cover, "make_projection", counting_make_projection)
    monkeypatch.setattr(cover, "build_sigma", recording_build_sigma)
    monkeypatch.setattr(cover, "graph_check", recording_graph_check)
    assert run(["cover", l4_saddle_json, "--k", "2", "--chi", "0.1", "--delta", "0.15",
                "--max-depth", "2", "--out", str(tmp_path / "cover.json")]) == 0
    distinct = sum(len({pl.basis.tobytes() for pl in sg.planes}) for sg in sigmas)
    assert sum(len(sg.planes) for sg in sigmas) == 21
    assert len(built) == distinct == 7
    assert {pj.kind for sg in sigmas for pj in sg.projections} == {"hahn_banach"}
    for sg in sigmas:
        for pa, ja in zip(sg.planes, sg.projections):
            for pb, jb in zip(sg.planes, sg.projections):
                assert (ja is jb) == (pa.basis.tobytes() == pb.basis.tobytes())
    assert checked
    shared = [pj for sg in sigmas for pj in sg.projections]
    assert all(any(pj is q for q in shared) for pj in checked)
    assert calls == SADDLE_COVER_CALLS


def test_dini_precheck_descends_once_per_distinct_ball(l4_saddle_json, tmp_path,
                                                       monkeypatch):
    # every atom's top-scale ball holds all 21 atoms, and a fit per (atom,
    # scale) ran four descents; the precheck now runs one lockstep descent
    # per distinct (scale, atom set), stacking the l^2 start and three
    # seeded starts per seed
    stacks, inside = [], []
    descend, dini_profile = measures._descend, cover.dini_profile

    def recording_descend(space, base, basis, pts, w, iters):
        if inside:
            stacks.append(len(base))
        return descend(space, base, basis, pts, w, iters)

    def flagged_dini_profile(*args, **kwargs):
        inside.append(True)
        try:
            return dini_profile(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(measures, "_descend", recording_descend)
    monkeypatch.setattr(cover, "dini_profile", flagged_dini_profile)
    assert run(["cover", l4_saddle_json, "--k", "2", "--chi", "0.1", "--delta", "0.15",
                "--max-depth", "2", "--out", str(tmp_path / "cover.json")]) == 0
    space, pts = NormedSpace(3, 4), l4_saddle_21().points
    scales, r = [], 2.0
    while r >= 0.1**2 * (1 - 1e-12):
        scales.append(r)
        r *= 0.1
    # three atoms lie on a 2-plane; four or more of the saddle do not
    members = {}
    for c in pts:
        d = space.norms(pts - c)
        for j, rj in enumerate(scales):
            if (d <= rj).sum() > 3:
                key = (j, (d <= rj).tobytes())
                members[key] = members.get(key, 0) + 1
    assert sum(members.values()) > len(members) >= 1
    assert sorted(stacks) == sorted(1 + 3 * c for c in members.values())


def test_covering_flags_the_dini_precheck():
    # the l^4 saddle's measured delta is far above a configured 1e-6
    res = covering_lemma(NormedSpace(3, 4), l4_saddle_21(), np.zeros(21), 2,
                         CoverConfig(chi=0.1, delta=1e-6, max_depth=2))
    assert "dini precheck: measured delta 0.000156 exceeds configured 1e-06" in res.flags


def _straddling_arc():
    """Ten atoms on a shallow arc inside B_1(0), a cluster of four
    non-collinear atoms just past the unit sphere and one more atom on the
    other side: the cluster's own small balls have large beta, so its
    atoms carry the largest Dini sums of the measure."""
    t = np.linspace(-0.9, 0.9, 10)
    arc = np.stack([t, 0.05 * np.sin(3 * t)], axis=1)
    outside = np.array([[1.25, 0.1], [1.35, -0.1], [1.3, 0.12], [1.4, 0.0], [-1.3, 0.0]])
    pts = np.concatenate([arc, outside])
    return PointMeasure(pts, np.full(len(pts), 0.1))


_PRECHECK_CFG = CoverConfig(chi=0.1, max_depth=2, delta=0.05)
_FAR_CLUSTER = np.array([[5.0, 0.0], [5.1, 0.0], [5.05, 0.09], [5.02, -0.05]])


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_dini_precheck_scopes_to_support_in_unit_ball(p):
    # oracle: one single-centre profile per atom of norm <= 1, over all of
    # mu, with the atom's own index as seed
    space, mu, cfg = NormedSpace(2, p), _straddling_arc(), _PRECHECK_CFG
    rs = np.zeros(len(mu))
    alpha = cfg.resolve_alpha(space)

    def dini(i):
        return measures.dini_profile(space, mu, mu.points[i], max(rs[i], cfg.chi**cfg.max_depth),
                                     2.0, 1, alpha, cfg.chi, seed=cfg.seed + i).dini_sum

    inside = np.flatnonzero(space.norms(mu.points) <= 1.0)
    assert inside.tolist() == list(range(10))
    oracle = max(dini(i) for i in inside) ** (1 / alpha)
    assert covering_lemma(space, mu, rs, 1, cfg).measured_delta == oracle
    # the atoms past the unit sphere would have set it
    assert max(dini(i) for i in range(len(mu))) ** (1 / alpha) > 5 * oracle


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_dini_precheck_ignores_a_far_cluster(p):
    # four non-collinear atoms at norm >= 5 lie more than 2 from B_1(0), so
    # no profiled ball reaches them.  Profiling every atom raised the arc's
    # measured delta from 0.0105 to 0.381 at p = 2 (0.0103 to 0.334 at
    # p = 4) and flagged it against the configured 0.05
    space, cfg = NormedSpace(2, p), _PRECHECK_CFG
    mu = PointMeasure(_straddling_arc().points[:10], np.full(10, 0.1))
    with_far = PointMeasure(np.concatenate([mu.points, _FAR_CLUSTER]),
                            np.concatenate([mu.weights, np.full(4, 0.1)]))
    base = covering_lemma(space, mu, np.zeros(len(mu)), 1, cfg)
    res = covering_lemma(space, with_far, np.zeros(len(with_far)), 1, cfg)
    assert res.measured_delta == base.measured_delta < cfg.delta
    assert res.flags == base.flags
    assert not any(f.startswith("dini precheck") for f in res.flags)


def test_dini_precheck_with_no_atom_in_unit_ball():
    space = NormedSpace(2, 2)
    far = PointMeasure(_FAR_CLUSTER, np.full(4, 0.1))
    res = covering_lemma(space, far, np.zeros(4), 1, CoverConfig(chi=0.1, max_depth=2, delta=1e-6))
    assert res.measured_delta == 0.0
    assert not any(f.startswith("dini precheck") for f in res.flags)


def test_packing_precheck_profiles_only_the_unit_ball(monkeypatch):
    # each sub-covering gets every atom with r_s < rho, rescaled so that
    # B_rho(x) becomes B_1(0); its precheck profiles the atoms of norm <= 1
    # of that rescaled measure, seeded by their indices in it.  The counts
    # repeat exactly: profiling every atom took 85,400 centres in the same
    # 427 calls
    cfg = CoverConfig(chi=0.1, delta=0.1, max_depth=3)
    calls = []
    dini_profile = cover.dini_profile

    def recording(space, mu, x, *args, seed, **kwargs):
        inside = np.flatnonzero(space.norms(mu.points) <= 1.0)
        assert np.array_equal(x, mu.points[inside])
        assert np.array_equal(seed, cfg.seed + inside)
        calls.append((len(x), len(mu)))
        return dini_profile(space, mu, x, *args, seed=seed, **kwargs)

    monkeypatch.setattr(cover, "dini_profile", recording)
    main_packing(NormedSpace(3, 2), graph_measure_200(kappa=0.01), np.zeros(200), 2,
                 M=0.01, cfg=cfg, budget=2)
    assert len(calls) == 427
    assert sum(n for n, _ in calls) == 626
    assert sum(m for _, m in calls) == 85_400


def test_pad_to_dim_keeps_rows_and_adds_orthogonal_units():
    space = NormedSpace(4, 2)
    out = cover._pad_to_dim(space, [[1.0, 1.0, 0.0, 0.0]], 3)
    assert out.shape == (3, 4)
    assert out[0].tolist() == [1.0, 1.0, 0.0, 0.0]
    for i in range(1, 3):
        assert np.linalg.norm(out[i]) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out[:i] @ out[i]).max() <= 1e-12
    # e_1 minus its part along the first row, then e_3 (e_2 lies in the span)
    assert np.allclose(out[1:], [[2 ** -0.5, -(2 ** -0.5), 0, 0], [0, 0, 1, 0]], atol=1e-12)
    assert cover._pad_to_dim(space, [[1.0, 1.0, 0.0, 0.0]], 3).tobytes() == out.tobytes()


# -- ball tables ----------------------------------------------------------------
# The per-ball loops that _in_any_ball and a covering stage's disjointness
# and radius checks ran before the tables, kept as the oracle.

def _in_any_ball_loop(space, pts, balls):
    out = np.zeros(len(pts), dtype=bool)
    for c, r in balls:
        out |= space.norms(pts - np.asarray(c)[None, :]) < r * (1 + 1e-12)
    return out


def _disjoint_loop(space, balls):
    disjoint = True
    for a in range(len(balls)):
        for b in range(a + 1, len(balls)):
            ca, ra = balls[a]
            cb, rb = balls[b]
            if space.norm(np.asarray(ca) - np.asarray(cb)) < (ra + rb) / 5.0 - 1e-12:
                disjoint = False
    return disjoint


def _radius_ok_loop(space, mu, rs, excess, pool, checked):
    radius_ok = True
    for c, r in checked:
        others = [bl for bl in pool
                  if not (np.array_equal(np.asarray(bl[0]), np.asarray(c)) and bl[1] == r)]
        inside = space.norms(mu.points - np.asarray(c)[None, :]) <= r
        offenders = inside & (rs >= r) & ~excess & ~_in_any_ball_loop(space, mu.points, others)
        if offenders.any():
            radius_ok = False
    return radius_ok


def _ball_case(seed, n):
    """Atoms, r_s, an excess mask and a pool of balls in R^n.  Atom 0 lies
    exactly on the boundary of pool ball 0; pool ball 1 is pool ball 2
    again; balls 3 and 4 sit exactly on the 1/5 boundary of each other,
    and ball 5 just inside that of ball 3.  The coordinates on these
    boundaries are exact, so every distance to them is."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (40, n))
    rs = rng.uniform(0.0, 0.4, 40)
    excess = rng.uniform(size=40) < 0.2
    pool = [(rng.uniform(-1.0, 1.0, n), float(rng.uniform(0.05, 0.6))) for _ in range(12)]
    e = np.eye(n)[0]
    pts[0] = 0.25 * e
    pool[0] = (np.zeros(n), 0.25)
    pool[1] = pool[2]
    t = (0.3 + 0.2) / 5.0 - 1e-12
    pool[3] = (np.zeros(n), 0.3)
    pool[4] = (t * e, 0.2)
    pool[5] = (-np.nextafter(t, 0.0) * e, 0.2)
    return PointMeasure(pts, np.ones(40)), rs, excess, pool


@pytest.mark.parametrize("block_entries", [None, 7])
@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("n", [2, 3])
def test_ball_tables_match_per_ball_loops(p, n, block_entries, monkeypatch):
    if block_entries is not None:
        monkeypatch.setattr(measures, "_BLOCK_ENTRIES", block_entries)
    space = NormedSpace(n, p)
    outcomes = set()
    for seed in range(12):
        mu, rs, excess, pool = _ball_case(seed, n)
        rng = np.random.default_rng(seed + 100)
        assert space.norm(mu.points[0] - pool[0][0]) == pool[0][1]
        for balls in (pool, pool[:1], [], pool[3:5], pool[3:6], pool[4:] + pool[:2]):
            assert (cover._in_any_ball(space, mu.points, balls).tobytes()
                    == _in_any_ball_loop(space, mu.points, balls).tobytes())
            assert cover._disjoint(space, balls) == _disjoint_loop(space, balls)
        assert cover._disjoint(space, pool[3:5]) and not cover._disjoint(space, pool[3:6])
        # checked balls: pool balls (their own rows drop out, the duplicate
        # drops both copies) and fresh balls
        checked = [pool[j] for j in rng.choice(12, 3, replace=False)] + \
            [(rng.uniform(-1.0, 1.0, n), float(rng.uniform(0.05, 0.5))) for _ in range(2)]
        for chk in (checked, checked[:1], checked[3:], [pool[1]], [pool[0]], []):
            for pl in (pool, pool[6:], []):
                got = cover._radius_ok(space, mu, rs, excess, pl, chk)
                assert got == _radius_ok_loop(space, mu, rs, excess, pl, chk)
                outcomes.add(got)
    assert outcomes == {True, False}
