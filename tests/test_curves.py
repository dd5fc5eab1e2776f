import math

import numpy as np
import pytest

from betareif.curves import (RademacherVector, SnowflakeSpec, dirac_example,
                             euclidean_normal, no_power_gain_matrix,
                             no_power_gain_witness, npg_reference_points, polyline_length,
                             rademacher_norm, row_normalized_det, snowflake,
                             NPG_PLANE_SPAN, NPG_SPACE)


# -- rademacher norms ---------------------------------------------------------

def test_rademacher_single_coefficient():
    for p in (1.0, 1.5, 2.0, math.inf):
        assert rademacher_norm(RademacherVector([0.7]), p) == pytest.approx(0.7)


def test_rademacher_pair_closed_forms():
    eta = 0.05
    v = RademacherVector([1.0, eta])
    assert rademacher_norm(v, math.inf) == pytest.approx(1 + eta, abs=1e-15)
    assert rademacher_norm(v, 2.0) == pytest.approx(math.sqrt(1 + eta**2), abs=1e-15)


def test_rademacher_linf_equals_l1_of_coefficients():
    # enumeration cross-check up to m = 12: sup over sign patterns
    rng = np.random.default_rng(0)
    for m in (3, 7, 12):
        a = rng.standard_normal(m)
        direct = float(np.abs(a).sum())
        # enumerate sign patterns explicitly (e_1 fixed +1)
        best = 0.0
        for bits in range(1 << (m - 1)):
            signs = np.array([1.0] + [1.0 if (bits >> j) & 1 == 0 else -1.0
                                      for j in range(m - 1)])
            best = max(best, abs(float(signs @ a)))
        assert rademacher_norm(RademacherVector(a), math.inf) == pytest.approx(direct)
        assert best == pytest.approx(direct)


def test_rademacher_enumeration_matches_direct_p4():
    a = np.array([1.0, 0.3, -0.2])
    got = rademacher_norm(RademacherVector(a), 4.0)
    vals = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            vals.append(abs(1.0 + 0.3 * s1 - 0.2 * s2) ** 4)
    assert got == pytest.approx((np.mean(vals)) ** 0.25)


def test_rademacher_cap():
    with pytest.raises(ValueError):
        RademacherVector(np.ones(21))
    # raw arrays at finite p hit the enumeration cap too
    with pytest.raises(ValueError):
        rademacher_norm(np.ones(21), 1.5)


# -- snowflakes ---------------------------------------------------------------

def test_snowflake_depth1_is_segment():
    sp = SnowflakeSpec("plane_bump", 2.0, (), 1)
    v = snowflake(sp)
    assert len(v) == 2
    assert np.allclose(v[0], [0, 0]) and np.allclose(v[1], [1, 0])


def test_snowflake_gamma2_apex():
    eps = 0.1
    sp = SnowflakeSpec("plane_bump", 2.0, (eps,), 2)
    v = np.array(snowflake(sp))
    assert len(v) == 5
    assert np.allclose(v[2], [0.5, eps / 6], atol=1e-15)
    assert np.allclose(v[[0, 1, 3, 4]],
                       [[0, 0], [1 / 3, 0], [2 / 3, 0], [1, 0]], atol=1e-15)


def test_snowflake_depth3_speed_table():
    # the displayed 9-interval speed table of the depth-3 curve
    e1, e2 = 0.03, 0.07
    sp = SnowflakeSpec("rademacher", math.inf, (e1, e2), 3)
    verts = snowflake(sp)
    A = np.stack([v.coefficients for v in verts])
    ts = A[:, 0]
    D = np.diff(A, axis=0)
    speeds = np.abs(D).sum(axis=1) / np.diff(ts)
    # merge neighbouring segments with equal speed into interval table
    table = []
    for t0, s in zip(ts[:-1], speeds):
        if not table or abs(table[-1][1] - s) > 1e-12:
            table.append((t0, s))
    expected = [
        (0.0, 1.0), (1 / 9, 1 + e2), (2 / 9, 1.0),
        (1 / 3, 1 + e1), (4 / 9, 1 + e1 + e2), (5 / 9, 1 + e1),
        (2 / 3, 1.0), (7 / 9, 1 + e2), (8 / 9, 1.0),
    ]
    assert len(table) == len(expected)
    for (t_got, s_got), (t_want, s_want) in zip(table, expected):
        assert t_got == pytest.approx(t_want, abs=1e-12)
        assert s_got == pytest.approx(s_want, abs=1e-12)


def test_snowflake_validation():
    with pytest.raises(ValueError):
        SnowflakeSpec("rademacher", 2.0, (0.2,), 2)    # |eta| > 1/10
    with pytest.raises(ValueError):
        SnowflakeSpec("rademacher", 2.0, (0.05,) * 30, 21)
    with pytest.raises(ValueError):
        SnowflakeSpec("other", 2.0, (0.05,), 2)


def test_linf_length_formula_exact():
    eta = 0.05
    for depth in range(2, 13):
        sp = SnowflakeSpec("rademacher", math.inf, (eta,) * (depth - 1), depth)
        L = polyline_length(snowflake(sp), math.inf)
        assert L == pytest.approx(1 + (depth - 1) * eta / 3, abs=1e-9)


def test_plane_mode_l2_per_level_factor_exact():
    eta = 0.08
    factor = 2 / 3 + math.sqrt(1 + eta**2) / 3
    prev = 1.0
    for depth in range(2, 7):
        sp = SnowflakeSpec("plane_bump", 2.0, (eta,) * (depth - 1), depth)
        L = polyline_length(snowflake(sp), 2.0)
        assert L / prev == pytest.approx(factor, abs=1e-12)
        prev = L


def test_l2_bounded_vs_divergent_trend():
    # eta_k = 2^-k: increments shrink; eta_k = 1/sqrt(k): length keeps growing
    def lengths(etas, depths):
        out = []
        for d in depths:
            sp = SnowflakeSpec("rademacher", 2.0, tuple(etas), d)
            out.append(polyline_length(snowflake(sp), 2.0))
        return out

    depths = list(range(3, 13))
    summable = [0.1 * 2.0 ** (-k) for k in range(1, 20)]
    divergent = [min(0.1, 1 / math.sqrt(k)) for k in range(1, 20)]
    Ls = lengths(summable, depths)
    Ld = lengths(divergent, depths)
    assert Ld[-1] - Ls[-1] > 0
    # summable: total growth beyond depth 8 under 0.01
    i8 = depths.index(8)
    assert Ls[-1] - Ls[i8] < 0.01
    # divergent: strictly increasing by at least 1e-3 per level through 12
    for a, b in zip(Ld[:-1], Ld[1:]):
        assert b - a >= 1e-3


def test_snowflake_length_monotone_in_mode_count():
    # plane vs rademacher agree at depth 2 in l2
    eps = 0.06
    spr = SnowflakeSpec("rademacher", 2.0, (eps,), 2)
    spp = SnowflakeSpec("plane_bump", 2.0, (eps,), 2)
    assert polyline_length(snowflake(spr), 2.0) == pytest.approx(
        polyline_length(snowflake(spp), 2.0), abs=1e-12)


def test_polyline_needs_two_vertices():
    with pytest.raises(ValueError):
        polyline_length([RademacherVector([0.0])], 2.0)


# -- dirac example ------------------------------------------------------------

def test_dirac_total_mass_and_atoms():
    mu = dirac_example(0.05)
    assert mu.total_mass == 5.0
    assert len(mu) == 5


def test_dirac_validation():
    with pytest.raises(ValueError):
        dirac_example(0.2)
    with pytest.raises(ValueError):
        dirac_example(0.0)


# -- no-power-gain certificate -------------------------------------------------

# Golden values, pinned on first build.  The determinant at the reference
# points is exactly zero: the quartic <J(d), A d> vanishes identically on
# the plane L for the nontrivial linear family A v1 = (1,-1,-2) s,
# A v2 = (2,1,-1) s, so (A x_1, ..., A x_5) is a null vector of M for any
# six points in L (verified in exact integer arithmetic).
GOLDEN_DET = 0.0
GOLDEN_ROW_NORMALIZED_DET = 0.0


def test_npg_reference_points_match_construction():
    P = npg_reference_points()
    v1, v2 = NPG_PLANE_SPAN
    assert np.allclose(P[0], 0)
    assert np.allclose(P[3], 3 * v1 + 4 * v2)
    assert np.allclose(P[4], 2 * v1 - v2)


def test_npg_matrix_shape_and_unit_rows():
    det, M = no_power_gain_matrix(npg_reference_points())
    assert M.shape == (15, 15)
    # each row holds one or two copies of a dual-unit functional
    for row in M:
        blocks = row.reshape(5, 3)
        norms = [NPG_SPACE.dual_norm(b) for b in blocks if np.abs(b).max() > 0]
        assert all(n == pytest.approx(1.0, rel=1e-12) for n in norms)


def test_npg_det_golden_value():
    det, M = no_power_gain_matrix(npg_reference_points())
    assert det == pytest.approx(GOLDEN_DET, abs=1e-12)
    assert row_normalized_det(M) == pytest.approx(GOLDEN_ROW_NORMALIZED_DET, abs=1e-12)


def test_npg_null_family_vector():
    # the structural null vector (A x_1, ..., A x_5)
    det, M = no_power_gain_matrix(npg_reference_points())
    A = np.array([[1.0, 2.0], [-1.0, 1.0], [-2.0, -1.0]])
    coefs = [(1, 1), (2, 3), (3, 4), (2, -1), (-1, 3)]
    X = np.concatenate([A @ np.array(c, dtype=float) for c in coefs])
    assert np.abs(M @ X).max() <= 1e-12 * np.abs(X).max()


def test_npg_det_zero_homogeneous():
    P = npg_reference_points()
    _, M1 = no_power_gain_matrix(P)
    _, M2 = no_power_gain_matrix(3.7 * P)
    assert np.allclose(M1, M2, atol=1e-12)
    assert row_normalized_det(M1) == pytest.approx(row_normalized_det(M2), abs=1e-9)


def test_npg_collinear_degenerate():
    pts = np.array([[i, 0.0, 0.0] for i in range(6)])
    det, _ = no_power_gain_matrix(pts)
    assert det == pytest.approx(0.0, abs=1e-12)


def test_npg_off_plane_nondegenerate():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, (6, 3))
    det, M = no_power_gain_matrix(pts)
    assert abs(row_normalized_det(M)) > 1e-10


def test_npg_perturbation_continuity():
    # entries move O(perturbation); the det stays within O(perturbation)
    # of the golden zero
    P = npg_reference_points().astype(float)
    _, M0 = no_power_gain_matrix(P)
    _, M1 = no_power_gain_matrix(P + 1e-6 * np.arange(18).reshape(6, 3))
    assert np.abs(M1 - M0).max() < 1e-4
    assert abs(row_normalized_det(M1) - GOLDEN_ROW_NORMALIZED_DET) < 1e-3


def test_npg_matrix_validation():
    with pytest.raises(ValueError):
        no_power_gain_matrix(np.zeros((6, 3)))
    with pytest.raises(ValueError):
        no_power_gain_matrix(np.zeros((5, 3)))


def test_witness_zero_function():
    # eps = 0 is the zero map: no pair distorts
    _, bound = no_power_gain_witness([1.0, 0.0, 0.0], euclidean_normal(), 0.0)
    assert bound == 0.0


def test_witness_functional_vanishing_on_the_plane():
    # a = (1, -1, 1) annihilates v1 = (1, 1, 0) and v2 = (0, 1, 1): f = 0 on L
    _, bound = no_power_gain_witness([1.0, -1.0, 1.0], [1.0, 0.2, 0.1], 0.02)
    assert bound == 0.0


@pytest.mark.parametrize("direction,target,eps", [
    ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.02),
    ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.02),
    ([math.nan, 0.0, 0.0], [1.0, 0.0, 0.0], 0.02),
    ([1.0, 0.0, 0.0], [math.inf, 0.0, 0.0], 0.02),
    ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], -0.01),
    ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], math.nan),
    ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], math.inf),
])
def test_witness_rejects_bad_input(direction, target, eps):
    # a zero or non-finite a or w, or an eps that is not a finite number >= 0
    with pytest.raises(ValueError):
        no_power_gain_witness(direction, target, eps)


def test_witness_scales_out_a_and_w():
    # only the directions of a and w count, at any size
    _, bound = no_power_gain_witness([0.0, 1.0, -1.0], [1.0, 0.2, 0.1], 0.02)
    for k in (1e-300, 1e300):
        _, scaled = no_power_gain_witness([0.0, k, -k], [k, 0.2 * k, 0.1 * k], 0.02)
        assert scaled == pytest.approx(bound, rel=1e-14)


def test_witness_bound_is_at_most_eps():
    # a = J(d) and w = d for one d in L meet Hoelder's bound: the ratio is 1
    # up to rounding, and can round above 1, yet the bound stays <= eps even
    # at the largest float
    v1, v2 = NPG_PLANE_SPAN
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = rng.normal(size=2)
        d = c[0] * v1 + c[1] * v2
        _, bound = no_power_gain_witness(d ** 3, d, 1.0)
        assert bound == pytest.approx(1.0, rel=1e-14) and bound <= 1.0
        _, bound = no_power_gain_witness(d ** 3, d, np.finfo(float).max)
        assert 0 < bound <= np.finfo(float).max


def test_witness_adversarial_families():
    # Euclidean-normal graphs and linear-into-any-direction maps give a
    # witness pair with bound >= eps/c, c <= 100
    n = euclidean_normal()
    for eps in (0.01, 0.02, 0.04):
        _, bound = no_power_gain_witness([1.0, 0.0, 0.0], n, eps)
        assert bound >= eps / 100.0
    _, bound2 = no_power_gain_witness([0.0, 1.0, -1.0], [1.0, 0.2, 0.1], 0.02)
    assert bound2 >= 0.02 / 100.0


def linear_graph_samples(direction, target, eps: float, step: float = 0.05) -> dict:
    """Adversarial family: f(x) = eps * <a, x>_E * w on a grid of L cap B_1,
    with a a dual-unit functional on the plane and w a unit target vector;
    Lip(f) is eps up to the duality normalization."""
    a = np.asarray(direction, dtype=float)
    a = a / NPG_SPACE.dual_norm(a)
    w = np.asarray(target, dtype=float)
    w = w / NPG_SPACE.norm(w)
    v1, v2 = NPG_PLANE_SPAN
    out = {}
    grid = np.arange(-1.0, 1.0 + step / 2, step)
    for s in grid:
        for t in grid:
            x = s * v1 + t * v2
            if NPG_SPACE.norm(x) <= 1.0:
                out[tuple(x)] = eps * float(a @ x) * w
    return out


# the sampled pair scan that the exact witness replaced: the first argmax
# of |<J(x-y), f(x)-f(y)>| / ||x-y||^2 over the whole pair table
def _witness_whole_table(f_samples):
    X = np.array([np.asarray(k, dtype=float) for k in f_samples])
    F = np.array([np.asarray(v, dtype=float) for v in f_samples.values()])
    m = len(X)
    sep = NPG_SPACE.norms(X[:, None, :] - X[None, :, :])
    assert sep[np.triu_indices(m, k=1)].max() >= 1e-6
    D = X[:, None, :] - X[None, :, :]
    DF = F[:, None, :] - F[None, :, :]
    num = np.abs((np.sign(D) * np.abs(D) ** 3.0 * DF).sum(axis=-1))
    vals = num / np.maximum(sep, 1e-75) ** 4.0
    vals[sep <= 1e-12] = -1.0
    i, j = divmod(int(np.argmax(vals)), m)
    return (tuple(X[i]), tuple(X[j])), float(vals[i, j])


def _witness_ratios(direction, target, D):
    """|<a, d>| |sum w_i d_i^3| / ||d||_4^4 over the rows d of D."""
    a = np.asarray(direction, dtype=float)
    a = a / NPG_SPACE.dual_norm(a)
    w = np.asarray(target, dtype=float)
    w = w / NPG_SPACE.norm(w)
    return np.abs((D * a).sum(axis=1)) * np.abs((D ** 3 * w).sum(axis=1)) / (D ** 4).sum(axis=1)


@pytest.mark.parametrize("family", ["cli", "zero-on-v2", "generic"])
def test_witness_is_the_exact_maximum(family):
    # the exact bound is at least the maximum over 2e5 directions of L and
    # over every pair of the step-0.05 and step-0.04 grids (1,027 and
    # 1,615 samples); the CLI family's maximizer d ~ -2 v1 + v2 lies on
    # both grids, which must find it to 1e-12.  The pair is (0, d*) with
    # ||d*||_4 = 1 in L, and d* attains the bound
    direction, target = {"cli": ([1.0, 0.0, 0.0], euclidean_normal()),
                         "zero-on-v2": ([0.0, 1.0, -1.0], [1.0, 0.2, 0.1]),
                         "generic": ([0.3, -0.7, 0.2], [0.5, -0.1, 0.9])}[family]
    eps = 0.02
    (x, d), bound = no_power_gain_witness(direction, target, eps)
    assert 0 < bound <= eps
    assert x == (0.0, 0.0, 0.0)
    d = np.array(d)
    assert NPG_SPACE.norm(d) == pytest.approx(1.0, rel=1e-15)
    coef = np.linalg.lstsq(NPG_PLANE_SPAN.T, d, rcond=None)[0]
    assert np.abs(coef @ NPG_PLANE_SPAN - d).max() < 1e-15
    assert eps * _witness_ratios(direction, target, d[None, :])[0] == pytest.approx(bound, rel=1e-14)
    theta = np.linspace(0.0, math.pi, 200_000, endpoint=False)
    D = np.cos(theta)[:, None] * NPG_PLANE_SPAN[0] + np.sin(theta)[:, None] * NPG_PLANE_SPAN[1]
    assert bound >= (1 - 1e-12) * eps * _witness_ratios(direction, target, D).max()
    for step in (0.05, 0.04):
        _, sampled = _witness_whole_table(linear_graph_samples(direction, target, eps, step))
        assert bound >= (1 - 1e-12) * sampled
        if family == "cli":
            assert bound == pytest.approx(sampled, rel=1e-12)


def test_witness_bound_scales_linearly():
    n = euclidean_normal()
    bounds = []
    for eps in (0.01, 0.02, 0.04):
        _, bound = no_power_gain_witness([1.0, 0.0, 0.0], n, eps)
        bounds.append(bound / eps)
    for b in bounds[1:]:
        assert b == pytest.approx(bounds[0], rel=1e-12)


def test_witness_graph_distortion_lower_bound():
    # the graph of the Euclidean-normal family distorts squared distances
    # by at least eps/c at some pair
    eps = 0.02
    n = euclidean_normal()
    fs = linear_graph_samples([1.0, 0.0, 0.0], n, eps, step=0.05)
    X = np.array(list(fs.keys()))
    F = np.array([fs[tuple(x)] for x in X])
    G = X + F
    best = 0.0
    m = len(X)
    d0 = NPG_SPACE.norms(X[:, None, :] - X[None, :, :])
    d1 = NPG_SPACE.norms(G[:, None, :] - G[None, :, :])
    iu = np.triu_indices(m, k=1)
    ok = d0[iu] > 1e-9
    rel = np.abs(d1[iu][ok] ** 2 - d0[iu][ok] ** 2) / d0[iu][ok] ** 2
    assert rel.max() >= eps / 100.0
