import math

import numpy as np
import pytest

from betareif import cover, measures
from betareif.cli import run
from betareif.cover import (CoverConfig, build_sigma, classify_ball,
                            covering_lemma, default_theta, main_packing,
                            partition_of_unity, reifenberg_flat_map,
                            sigma_apply, squash_report, tilting_report)
from betareif.curves import dirac_example
from betareif.geometry import affine_plane, graph_check, make_projection
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
    assert np.allclose(sigma_apply(sg, [10.0, 5.0]), [10.0, 5.0])


def test_sigma_affine_projection_inside(l2_plane):
    pl = affine_plane(l2_plane, [0.0, 0.2], [[1, 0]])
    sg = build_sigma(l2_plane, [[0, 0.2]], 1.0, [pl], 1)
    assert np.allclose(sigma_apply(sg, [0.3, 0.5]), [0.3, 0.2])
    assert np.allclose(sigma_apply(sg, [0.3, 0.2]), [0.3, 0.2])


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
    res = covering_lemma(s3, mu, np.arange(60), rs, 2, CoverConfig(max_depth=4))
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
    res = covering_lemma(l2_plane, mu, [0], [0.0], 1, CoverConfig(max_depth=3))
    assert len(res.kept_originals) == 0
    assert len(res.bad_balls) == 1
    b = res.bad_balls[0]
    assert np.allclose(b.center, [0, 0]) and b.radius == 1.0
    assert res.leftover_mass == 0.0


def test_covering_rs_validation(l2_plane):
    mu = PointMeasure([[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        covering_lemma(l2_plane, mu, [0], [1.5], 1)


def test_covering_graph_measure_items():
    s3 = NormedSpace(3, 2)
    mu = graph_measure_200(kappa=0.01)
    cfg = CoverConfig(chi=0.1, delta=0.1, max_depth=5)
    res = covering_lemma(s3, mu, np.arange(200), np.zeros(200), 2, cfg)
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
    r1 = covering_lemma(s3, mu, np.arange(200), np.zeros(200), 2, cfg)
    r2 = covering_lemma(s3, mu, np.arange(200), np.zeros(200), 2, cfg)
    assert r1.distortion == r2.distortion
    assert r1.leftover_mass == r2.leftover_mass
    assert len(r1.bad_balls) == len(r2.bad_balls)


# -- main packing -------------------------------------------------------------

def test_main_packing_point_measure_ledger(l2_plane):
    mu = PointMeasure([[0.0, 0.0]], [1.0])
    res = main_packing(l2_plane, mu, [0], [0.0], 1, M=0.0,
                       cfg=CoverConfig(chi=0.1, max_depth=3), budget=4)
    assert len(res.levels) >= 2
    assert res.levels[0].n_bad == 1 and res.levels[0].sum_bad == 1.0
    for lv in res.levels:
        assert lv.claim_A_ok and lv.claim_B_S_ok and lv.claim_B_bad_ok
    assert res.leftover_mass == 0.0
    assert "recursion budget exhausted with bad balls remaining" in res.flags


def test_main_packing_trivial_planar_path():
    s3 = NormedSpace(3, 2)
    rng = np.random.default_rng(1)
    uv = rng.uniform(-0.7, 0.7, (40, 2))
    pts = np.concatenate([uv, np.zeros((40, 1))], axis=1)
    mu = PointMeasure(pts, np.ones(40) / 40)
    res = main_packing(s3, mu, np.arange(40), np.full(40, 0.3), 2, M=0.0)
    assert res.valid
    assert res.leftover_mass == 0.0
    assert res.packing_sum > 0


def test_main_packing_graph_measure():
    s3 = NormedSpace(3, 2)
    mu = graph_measure_200(kappa=0.01)
    res = main_packing(s3, mu, np.arange(200), np.zeros(200), 2, M=0.01,
                       cfg=CoverConfig(chi=0.1, delta=0.1, max_depth=3), budget=2)
    for lv in res.levels:
        assert lv.claim_A_ok and lv.claim_B_S_ok and lv.claim_B_bad_ok


# -- reifenberg flat maps -----------------------------------------------------

def test_reifenberg_plane_identity(l2_plane):
    xs = np.linspace(-0.95, 0.95, 60)
    S = np.stack([xs, np.zeros(60)], axis=1)
    stages, rep = reifenberg_flat_map(l2_plane, S, 1, chi=1 / 3, delta=0.05,
                                      max_depth=3)
    assert rep.distortion == pytest.approx(1.0, abs=1e-9)
    assert rep.holder_exponent == pytest.approx(1.0, abs=1e-6)


def test_reifenberg_certification_failure(l2_plane):
    ts = np.linspace(-1, 1, 41)
    S = np.stack([ts, 0.8 * np.sin(3 * ts)], axis=1)    # wildly non-flat
    with pytest.raises(ValueError):
        reifenberg_flat_map(l2_plane, S, 1, chi=1 / 3, delta=0.02, max_depth=2)


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
    res = covering_lemma(s3, mu, np.arange(200), np.zeros(200), 2, cfg)
    pl = res.base_plane
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


def test_covering_l3_curve_j_projection_path():
    # k = 1 in a smooth non-Hilbert space: sigma stages use J-projections
    s = NormedSpace(2, 3)
    ts = np.linspace(-0.85, 0.85, 120)
    pts = np.stack([ts, 0.002 * np.sin(2.5 * ts)], axis=1)
    mu = PointMeasure(pts, np.full(120, 1.7 / 120))
    cfg = CoverConfig(chi=0.1, delta=0.1, max_depth=3)
    res = covering_lemma(s, mu, np.arange(120), np.zeros(120), 1, cfg)
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
    res = covering_lemma(s, mu, np.arange(len(U)), np.zeros(len(U)), 2, cfg)
    assert res.stages[0].n_good > 0
    assert res.tau_stages[0].projections[0].kind == "hahn_banach"
    assert res.item_checks["item4_disjoint"]
    assert res.leftover_mass <= 0.2


def test_covering_builds_one_projection_per_distinct_plane(l4_saddle_json, tmp_path,
                                                           monkeypatch):
    # the seven atom triples of the saddle give seven exact-fit planes for
    # the 21 stage-1 good balls; each Hahn-Banach projection is built once
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


def test_covering_off_unit_frame_denormalization():
    # a run on B_0.5([2,0,0]) returns balls in original coordinates and a
    # tau that acts through the recorded frame
    s3 = NormedSpace(3, 2)
    rng = np.random.default_rng(4)
    uv = rng.uniform(-0.35, 0.35, (40, 2))
    pts = np.stack([uv[:, 0] + 2.0, uv[:, 1], np.zeros(40)], axis=1)
    mu = PointMeasure(pts, np.ones(40) / 40)
    res = covering_lemma(s3, mu, np.arange(40), np.full(40, 0.15), 2,
                         CoverConfig(max_depth=2), center=[2.0, 0.0, 0.0],
                         radius=0.5)
    assert res.frame is not None
    for c, r in res.kept_originals:
        assert s3.norm(np.asarray(c) - [2.0, 0.0, 0.0]) <= 0.5 + 1e-9
        assert r == 0.15
    out = res.tau_apply(pts[:3])
    assert np.isfinite(out).all()
    assert "item1_base_plane" in res.item_checks or "early_exit" in res.item_checks
