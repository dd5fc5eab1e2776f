"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7's determinant clause is expected to fail: the quoted
nonzero-determinant value is provably wrong (exact integer arithmetic gives
0, with an explicit structural null family; see the decisions ledger).
"""

import math
import time

import numpy as np
import pytest

from betareif.cover import (CoverConfig, build_sigma, covering_lemma,
                            main_packing)
from betareif.curves import (SnowflakeSpec, dirac_example, euclidean_normal,
                             no_power_gain_matrix, no_power_gain_witness,
                             npg_reference_points, polyline_length,
                             row_normalized_det, snowflake)
from betareif.geometry import (affine_plane, grassmann_distance,
                               make_projection)
from betareif.measures import PointMeasure, best_plane, beta
from betareif.spaces import NormedSpace, hilbert_modulus

from conftest import gamma2_sample, graph_measure_200


def _report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} {detail}".rstrip())


def test_criterion_1_dirac_oracle():
    t0 = time.time()
    s = NormedSpace(2, 2)
    ok = True
    for t in (0.01, 0.05, 0.1):
        mu = dirac_example(t)
        b2 = beta(s, mu, [0, 0], 1.0, 1) ** 2
        ok &= abs(b2 - 2 * t * t) <= 1e-9
        ok &= beta(s, mu, [0, 0], 0.1, 1) == 0.0
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 1.0, f"(beta^2 = 2t^2 exact, {elapsed:.2f}s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_power_gain_oracle():
    t0 = time.time()
    ok = True
    details = []
    for p in (1.5, 2.0):
        s = NormedSpace(2, p)
        pl = affine_plane(s, [0, 0], [[1, 0]])
        sg = build_sigma(s, [[0.5, 0.0]], 1.0, [pl], 1)
        for eps in (0.05, 0.1):
            pts = gamma2_sample(eps, 241)
            img = sg.apply_many(pts)
            iu = np.triu_indices(len(pts), k=1)
            d0 = s.norms(img[:, None, :] - img[None, :, :])[iu]
            d1 = s.norms(pts[:, None, :] - pts[None, :, :])[iu]
            keep = d0 > 1e-12
            bilip = (d1[keep] / d0[keep]).max()
            want = (1 + eps**p) ** (1 / p)
            ok &= abs(bilip - want) <= 1e-9
            details.append(f"p={p},eps={eps}: {bilip:.12f}")
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 1.0, f"(bi-Lipschitz (1+eps^p)^(1/p), {elapsed:.2f}s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_3_snowflake_lengths():
    t0 = time.time()
    ok = True
    eta = 0.05
    for depth in range(2, 13):
        sp = SnowflakeSpec("rademacher", math.inf, (eta,) * (depth - 1), depth)
        L = polyline_length(snowflake(sp), math.inf)
        ok &= abs(L - (1 + (depth - 1) * eta / 3)) <= 1e-9
    # L^2 trends (etas capped at the lemma's 1/10 hypothesis)
    summable = tuple(min(0.1, 2.0**-k) for k in range(1, 20))
    divergent = tuple(min(0.1, 1 / math.sqrt(k)) for k in range(1, 20))
    Ls = {}
    Ld = {}
    for d in range(3, 13):
        Ls[d] = polyline_length(snowflake(SnowflakeSpec("rademacher", 2.0, summable, d)), 2.0)
        Ld[d] = polyline_length(snowflake(SnowflakeSpec("rademacher", 2.0, divergent, d)), 2.0)
    ok &= (Ls[12] - Ls[8]) < 0.01
    for d in range(4, 13):
        ok &= (Ld[d] - Ld[d - 1]) >= 1e-3
    elapsed = time.time() - t0
    _report(3, ok and elapsed < 5.0,
            f"(Linf exact; L2 tail {Ls[12]-Ls[8]:.4g} < 0.01; {elapsed:.2f}s)")
    assert ok
    assert elapsed < 5.0


def test_criterion_4_smoothness():
    t0 = time.time()
    ok = True
    for p in (1.0, 1.5, 2.0, 3.0, 4.0, math.inf):
        s = NormedSpace(3, p)
        for t in (0.05, 0.1, 0.3):
            emp = s.modulus_smoothness_empirical(t, 10000, 7)
            ok &= emp <= s.modulus_smoothness_bound(t) * (1 + 1e-6) + 1e-9
            if p == 2.0:
                ok &= abs(emp - hilbert_modulus(t)) <= 1e-6
    elapsed = time.time() - t0
    _report(4, ok and elapsed < 10.0, f"({elapsed:.2f}s)")
    assert ok
    assert elapsed < 10.0


def test_criterion_5_covering_invariants():
    t0 = time.time()
    s3 = NormedSpace(3, 2)
    mu = graph_measure_200(kappa=0.01)     # eps-Lipschitz graph, eps = 0.05
    delta_run = 0.1
    cfg = CoverConfig(chi=0.1, delta=delta_run, max_depth=5)
    res = covering_lemma(s3, mu, np.zeros(200), 2, cfg)
    ok4 = res.item_checks["item4_disjoint"]
    ok5 = res.item_checks["item5_radius"]
    ok6 = res.item_checks["item6_ok"]
    leftover_ok = res.leftover_mass <= res.ledger["leftover_c"] * max(res.measured_delta, 1e-12) ** 2
    dist_ok = res.distortion <= 1 + 10 * delta_run**2
    engaged = res.stages[0].n_good > 0
    elapsed = time.time() - t0
    ok = ok4 and ok5 and ok6 and leftover_ok and dist_ok and engaged
    _report(5, ok and elapsed < 60.0,
            f"(items 4/5/6 {ok4}/{ok5}/{ok6}; leftover {res.leftover_mass:.3g}; "
            f"distortion {res.distortion:.6f} <= {1 + 10 * delta_run**2}; "
            f"measured delta {res.measured_delta:.4f}; {elapsed:.1f}s)")
    assert ok4 and ok5 and ok6
    assert leftover_ok
    assert dist_ok
    assert engaged
    assert elapsed < 60.0


def test_criterion_6_bad_ball_path():
    t0 = time.time()
    s = NormedSpace(2, 2)
    mu = PointMeasure([[0.0, 0.0]], [1.0])   # (k-1)-plane measure for k = 1
    res = covering_lemma(s, mu, [0.0], 1, CoverConfig(chi=0.1, max_depth=3))
    ok_top = (len(res.bad_balls) == 1 and res.bad_balls[0].radius == 1.0
              and np.allclose(res.bad_balls[0].center, [0, 0])
              and len(res.kept_originals) == 0)
    pk = main_packing(s, mu, [0.0], 1, M=0.0,
                      cfg=CoverConfig(chi=0.1, max_depth=3), budget=4)
    ok_levels = all(l.claim_A_ok and l.claim_B_S_ok and l.claim_B_bad_ok
                    for l in pk.levels)
    geo = sum(2.0**-j for j in range(len(pk.levels)))
    ok_final = pk.leftover_mass <= geo and pk.packing_sum <= 3 * 363.0 * geo
    elapsed = time.time() - t0
    ok = ok_top and ok_levels and ok_final
    _report(6, ok and elapsed < 30.0,
            f"(B = {{B_1(0)}}; {len(pk.levels)} levels all assert; {elapsed:.1f}s)")
    assert ok_top
    assert ok_levels
    assert ok_final
    assert elapsed < 30.0


def test_criterion_7_no_power_gain_certificate():
    t0 = time.time()
    det, M = no_power_gain_matrix(npg_reference_points())
    det_norm = row_normalized_det(M)
    # exact witness: measured c stable within +-20% across eps
    n = euclidean_normal()
    cs = []
    for eps in (0.01, 0.02, 0.04):
        _, bound = no_power_gain_witness([1.0, 0.0, 0.0], n, eps)
        cs.append(eps / bound)
    stable = all(abs(c - cs[0]) <= 0.2 * cs[0] for c in cs)
    det_ok = abs(det_norm) > 1e-10
    elapsed = time.time() - t0
    _report(7, det_ok and stable and elapsed < 10.0,
            f"(|det| = {abs(det_norm):.3g} vs > 1e-10 required: {det_ok}; "
            f"witness c = {cs[0]:.3f} stable: {stable}; {elapsed:.1f}s)")
    assert stable
    assert elapsed < 10.0
    # The quoted nonzero-determinant value is wrong: D = 0 in exact integer
    # arithmetic at the reference points, because every coplanar
    # configuration admits a structural null family.  The criterion is
    # asserted as stated and is expected to fail here.
    assert det_ok, ("row-normalized |det(M)| = "
                    f"{abs(det_norm):.3e} is not > 1e-10: the reference "
                    "points admit the null family A v1 = (1,-1,-2), "
                    "A v2 = (2,1,-1); exact integer determinant is 0")


def test_criterion_8_projection_pythagorean_suite():
    t0 = time.time()
    checks = 0
    violations = 0
    rng = np.random.default_rng(2024)

    # Pythagorean pairing inequality over random vectors
    for p in (1.5, 2.0, 3.0):
        s = NormedSpace(3, p)
        X = rng.standard_normal((2000, 3))
        Y = rng.standard_normal((2000, 3)) * np.exp(rng.uniform(-2, 1, (2000, 1)))
        for x, y in zip(X, Y):
            nx, ny = s.norm(x), s.norm(y)
            if nx < 1e-9 or ny < 1e-9:
                continue
            lhs = abs(s.norm(x + y) ** 2 - nx**2)
            J = s.duality_map(x)
            rho = s.modulus_smoothness_bound(min(4 * ny / math.sqrt(nx**2 + ny**2), 1e6))
            rhs = 2 * abs(float(np.dot(J, y))) + 4 * (nx**2 + ny**2) * rho
            checks += 1
            if lhs > rhs * (1 + 1e-9):
                violations += 1

    # operator difference for orthogonal / J projections
    for p, k in ((2.0, 2), (3.0, 1), (1.5, 1)):
        s = NormedSpace(3, p)
        kind = "orthogonal" if p == 2.0 else "j_projection"
        for _ in range(40):
            A = rng.standard_normal((k, 3))
            B = A + 0.05 * rng.standard_normal((k, 3))
            V = affine_plane(s, np.zeros(3), A)
            W = affine_plane(s, np.zeros(3), B)
            dG = grassmann_distance(s, V, W)
            if dG < 1e-6:
                continue
            pV = make_projection(s, V, kind)
            pW = make_projection(s, W, kind)
            Xs = rng.standard_normal((30, 3))
            d_up = dG * (1 + 2e-3) + 2e-3
            rhs = 2 * s.modulus_smoothness_bound(4 * d_up) / d_up + 2e-3
            vals = s.norms(pV.apply(Xs) - pW.apply(Xs)) / s.norms(Xs)
            checks += len(Xs)
            violations += int((vals > rhs).sum())

    # Hilbert: d_G(V, W) = d_G(V^perp, W^perp)
    s2 = NormedSpace(4, 2)
    for _ in range(500):
        A = rng.standard_normal((2, 4))
        B = rng.standard_normal((2, 4))
        V = affine_plane(s2, np.zeros(4), A)
        W = affine_plane(s2, np.zeros(4), B)
        Vp = affine_plane(s2, np.zeros(4), _perp(A))
        Wp = affine_plane(s2, np.zeros(4), _perp(B))
        checks += 1
        if abs(grassmann_distance(s2, V, W) - grassmann_distance(s2, Vp, Wp)) > 2e-3:
            violations += 1

    # Hilbert: ||pi_V x - pi_W x|| <= d_G ||x||
    for _ in range(80):
        A = rng.standard_normal((2, 4))
        B = rng.standard_normal((2, 4))
        V = affine_plane(s2, np.zeros(4), A)
        W = affine_plane(s2, np.zeros(4), B)
        dG = grassmann_distance(s2, V, W)
        pV = make_projection(s2, V, "orthogonal")
        pW = make_projection(s2, W, "orthogonal")
        Xs = rng.standard_normal((50, 4))
        lhs = s2.norms(pV.apply(Xs) - pW.apply(Xs))
        checks += len(Xs)
        violations += int((lhs > dG * s2.norms(Xs) + 2e-3).sum())

    elapsed = time.time() - t0
    ok = checks >= 10000 and violations == 0
    _report(8, ok and elapsed < 30.0,
            f"({checks} checks, {violations} violations, {elapsed:.1f}s)")
    assert checks >= 10000
    assert violations == 0
    assert elapsed < 30.0


def _perp(rows):
    _, _, vt = np.linalg.svd(rows)
    return vt[rows.shape[0]:]


def test_criterion_9_beta_optimizer_oracle():
    t0 = time.time()
    s = NormedSpace(2, 3)
    rng = np.random.default_rng(99)
    worst = 1.0
    for trial in range(25):
        m = int(rng.integers(15, 35))
        pts = rng.uniform(-1, 1, (m, 2)) * [1.0, rng.uniform(0.1, 0.6)]
        ang = rng.uniform(0, math.pi)
        R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        pts = pts @ R.T
        w = rng.uniform(0.5, 2.0, m)
        mu = PointMeasure(pts, w)
        res = best_plane(s, mu, [0, 0], 2.0, 1, seed=trial)
        oracle = _grid_oracle_l3(s, pts, w)
        ratio = res.objective / oracle if oracle > 1e-300 else 1.0
        worst = max(worst, ratio)
    elapsed = time.time() - t0
    ok = worst <= 1.05
    _report(9, ok and elapsed < 120.0,
            f"(worst objective ratio {worst:.4f} <= 1.05, {elapsed:.1f}s)")
    assert ok
    assert elapsed < 120.0


def _grid_oracle_l3(space, pts, w):
    """Exhaustive oracle: 2000-angle grid, exact best offset per angle via
    the hyperplane distance formula, golden-section refinement."""
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
