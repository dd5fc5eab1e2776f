import math

import numpy as np
import pytest

from betareif.constants import c1, c2, c3, stability_constant
from betareif.geometry import (_dists_hyperplane, _dists_to_flat_batch,
                               _dists_to_flats, affine_plane, distance_to_affine,
                               distances_to_affine, general_position_margin,
                               grassmann_distance, graph_check,
                               hausdorff_distance, make_projection,
                               pythagorean_report, riesz_basis, sphere_net)
from betareif.spaces import NormedSpace

from conftest import gamma2_sample


# -- general position --------------------------------------------------------

def test_margin_standard_basis(l2_plane):
    s3 = NormedSpace(3, 2)
    basis = list(np.eye(3))
    assert general_position_margin(basis, s3) == pytest.approx(1.0)


def test_margin_dependent_is_zero(l2_plane):
    assert general_position_margin([[1, 0], [1, 0]], l2_plane) == 0.0


def test_margin_tilted_pair(l2_plane):
    # oracle: brute-force lambda grid minimizing ||v2 - lambda v1||
    v1 = np.array([1.0, 0.0])
    v2 = np.array([1.0, 0.1])
    lams = np.linspace(-5, 5, 400001)
    vals = l2_plane.norms(v2[None, :] - lams[:, None] * v1[None, :])
    oracle = vals.min()
    assert oracle == pytest.approx(0.1, abs=1e-9)
    got = general_position_margin([v1, v2], l2_plane)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_margin_empty_raises(l2_plane):
    with pytest.raises(ValueError):
        general_position_margin([], l2_plane)


def test_gp_coefficient_bounds():
    # c1 recursion: sum|lambda_i| within [||v||/c1, c1 ||v||]
    s = NormedSpace(3, 3)
    rng = np.random.default_rng(2)
    basis = riesz_basis(s, np.eye(3), 2 / 3)
    tau = general_position_margin(list(basis), s)
    cc = c1(3, tau)
    for _ in range(100):
        lam = rng.standard_normal(3)
        v = lam @ basis
        nv = s.norm(v)
        assert nv / cc - 1e-12 <= np.abs(lam).sum() <= cc * nv + 1e-12


def test_gp_stability_property():
    # perturbing a tau-GP family by eps < tau/(2c) keeps margin >= tau - c*eps
    s = NormedSpace(3, 2.5)
    rng = np.random.default_rng(4)
    for trial in range(20):
        V = rng.standard_normal((3, 3))
        V /= s.norms(V)[:, None]
        tau = general_position_margin(list(V), s)
        if tau < 0.05:
            continue
        cc = stability_constant(3, tau)
        eps = min(tau / (2 * cc), 0.01) * rng.uniform(0.1, 1.0)
        W = V + eps * 0.99 * _unit_rows(s, rng.standard_normal((3, 3)))
        got = general_position_margin(list(W), s)
        assert got >= tau - cc * eps - 1e-9


def _unit_rows(space, X):
    return X / space.norms(X)[:, None]


# -- riesz basis --------------------------------------------------------------

def test_riesz_basis_line(l2_plane):
    rb = riesz_basis(l2_plane, [[2.0, 0.0]], 2 / 3)
    assert rb.shape == (1, 2)
    assert abs(abs(rb[0, 0]) - 1.0) < 1e-12 and abs(rb[0, 1]) < 1e-12


def test_riesz_basis_linf_margin():
    s = NormedSpace(2, math.inf)
    rb = riesz_basis(s, np.eye(2), 2 / 3)
    assert general_position_margin(list(rb), s) >= 2 / 3


def test_riesz_basis_hilbert_orthonormal():
    s = NormedSpace(3, 2)
    rb = riesz_basis(s, [[1, 0, 0], [1, 1, 0]], 2 / 3)
    assert np.allclose(rb @ rb.T, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_riesz_basis_always_attains_two_thirds(p):
    s = NormedSpace(3, p)
    rb = riesz_basis(s, np.eye(3), 2 / 3)
    assert general_position_margin(list(rb), s) >= 2 / 3 - 1e-9
    assert np.allclose(s.norms(rb), 1.0, atol=1e-12)


# -- distance to affine -------------------------------------------------------

def test_distance_l2_orthogonal_drop(l2_plane):
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    d, foot = distance_to_affine(l2_plane, pl, [0, 1])
    assert d == pytest.approx(1.0)
    assert np.allclose(foot, [0, 0])


def test_distance_linf_tie_break():
    s = NormedSpace(2, math.inf)
    pl = affine_plane(s, [0, 0], [[1, 0]])
    d, foot = distance_to_affine(s, pl, [0, 1])
    assert d == pytest.approx(1.0)
    assert np.allclose(foot, [0, 0], atol=1e-8)  # least-l2 tie-break


def test_distance_l4_matches_grid_oracle():
    s = NormedSpace(3, 4)
    v = np.array([1.0, 1.0, 0.0])
    pl = affine_plane(s, [0, 0, 0], [v])
    rng = np.random.default_rng(9)
    for _ in range(10):
        z = rng.uniform(-2, 2, 3)
        lams = np.linspace(-10, 10, 200001)
        vals = s.norms(z[None, :] - lams[:, None] * v[None, :])
        j = int(np.argmin(vals))
        lo, hi = lams[max(j - 1, 0)], lams[min(j + 1, len(lams) - 1)]
        # golden-section refine
        gr = (math.sqrt(5) - 1) / 2
        a, b = lo, hi
        for _ in range(80):
            c_, d_ = b - gr * (b - a), a + gr * (b - a)
            if s.norm(z - c_ * v) < s.norm(z - d_ * v):
                b = d_
            else:
                a = c_
        oracle = s.norm(z - 0.5 * (a + b) * v)
        d, _ = distance_to_affine(s, pl, z)
        assert d == pytest.approx(oracle, abs=1e-6)


def test_distance_k0_plane(l2_plane):
    pl = affine_plane(l2_plane, [1.0, 2.0], np.zeros((0, 2)))
    d, foot = distance_to_affine(l2_plane, pl, [1.0, 0.0])
    assert d == pytest.approx(2.0)
    assert np.allclose(foot, [1.0, 2.0])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_distance_point_on_plane_is_zero(p):
    s = NormedSpace(3, p)
    pl = affine_plane(s, [0.5, 0, 0], [[1, 1, 0], [0, 1, 1]])
    z = pl.points([[0.3, -0.7]])[0]
    d, _ = distance_to_affine(s, pl, z)
    assert d <= 1e-10


def test_batch_distances_match_scalar():
    s = NormedSpace(3, 2.5)
    pl = affine_plane(s, [0.1, 0, -0.2], [[1, 0.5, 0]])
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((20, 3))
    batch = distances_to_affine(s, pl, Z)
    for i, z in enumerate(Z):
        d, _ = distance_to_affine(s, pl, z)
        assert batch[i] == pytest.approx(d, rel=1e-8, abs=1e-10)


# -- hausdorff / grassmann ----------------------------------------------------

def test_hausdorff_basics(l2_plane):
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert hausdorff_distance(l2_plane, A, A) == 0.0
    assert hausdorff_distance(l2_plane, [[0, 0]], [[3, 4]]) == 5.0


def test_hausdorff_matches_double_loop():
    s = NormedSpace(2, 3)
    rng = np.random.default_rng(8)
    A = rng.standard_normal((100, 2))
    B = rng.standard_normal((100, 2)) + 0.1
    # definitional double loop
    best_ab = max(min(s.norm(a - b) for b in B) for a in A)
    best_ba = max(min(s.norm(a - b) for a in A) for b in B)
    assert hausdorff_distance(s, A, B) == pytest.approx(max(best_ab, best_ba), rel=1e-12)


def test_hausdorff_empty_raises(l2_plane):
    with pytest.raises(ValueError):
        hausdorff_distance(l2_plane, np.zeros((0, 2)), [[0, 0]])


def test_grassmann_same_and_axes(l2_plane):
    V = affine_plane(l2_plane, [0, 0], [[1, 0]])
    W = affine_plane(l2_plane, [0, 0], [[0, 1]])
    assert grassmann_distance(l2_plane, V, V) == 0.0
    assert grassmann_distance(l2_plane, V, W) == pytest.approx(1.0)


def test_grassmann_small_angle(l2_plane):
    th = 0.1
    V = affine_plane(l2_plane, [0, 0], [[1, 0]])
    W = affine_plane(l2_plane, [0, 0], [[math.cos(th), math.sin(th)]])
    assert grassmann_distance(l2_plane, V, W) == pytest.approx(math.sin(th), abs=2e-3)


def test_grassmann_dim_mismatch():
    s = NormedSpace(3, 2)
    V = affine_plane(s, [0, 0, 0], [[1, 0, 0]])
    W = affine_plane(s, [0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    assert grassmann_distance(s, V, W) == 1.0


def _scalar_golden_line_dist(space, v, w):
    """The scalar recurrence of the line case of grassmann_distance: max
    over +-v of 80 golden-section steps on s -> ||v - s w||, s in [-1, 1]."""
    def dist(sgn):
        f = lambda s: space.norm(sgn * v - s * w)
        a, b = -1.0, 1.0
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - gr * (b - a), a + gr * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(80):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = f(d)
        return min(fc, fd)
    return max(dist(1.0), dist(-1.0))


@pytest.mark.parametrize("p", [1.0, 4 / 3, 3.0, 4.0, math.inf])
def test_grassmann_lines_match_scalar_golden_search(p):
    # the batched golden-section search with +-v as two rows repeats the
    # scalar recurrence bit for bit
    from betareif.geometry import _golden_line_dist
    rng = np.random.default_rng(31)
    for n in (2, 3):
        s = NormedSpace(n, p)
        for _ in range(8):
            A = rng.standard_normal((1, n))
            B = A + rng.choice([0.02, 0.5]) * rng.standard_normal((1, n))
            V = affine_plane(s, np.zeros(n), A)
            W = affine_plane(s, np.zeros(n), B)
            v = V.basis[0] / s.norm(V.basis[0])
            w = W.basis[0] / s.norm(W.basis[0])
            assert _golden_line_dist(s, v, w) == _scalar_golden_line_dist(s, v, w)
            assert _golden_line_dist(s, w, v) == _scalar_golden_line_dist(s, w, v)
            assert grassmann_distance(s, V, W) == max(_scalar_golden_line_dist(s, v, w),
                                                      _scalar_golden_line_dist(s, w, v))


def test_grassmann_net_matches_exact_hilbert():
    # the generic net path against the exact principal-angle path
    s = NormedSpace(3, 2)
    rng = np.random.default_rng(12)
    for _ in range(5):
        A = rng.standard_normal((2, 3))
        B = A + 0.05 * rng.standard_normal((2, 3))
        V = affine_plane(s, np.zeros(3), A)
        W = affine_plane(s, np.zeros(3), B)
        exact = grassmann_distance(s, V, W)
        net = max(
            max(_dist_ball(s, W, u) for u in sphere_net(s, V.basis, 2048)),
            max(_dist_ball(s, V, u) for u in sphere_net(s, W.basis, 2048)),
        )
        assert net == pytest.approx(exact, abs=2e-3)


def _dist_ball(space, plane, u):
    d, foot = distance_to_affine(space, plane, u)
    nf = space.norm(foot)
    if nf <= 1.0:
        return d
    return space.norm(u - foot / nf)


def test_grassmann_perp_duality_hilbert():
    # d_G(V, W) = d_G(V_perp, W_perp) in a Hilbert space
    s = NormedSpace(4, 2)
    rng = np.random.default_rng(21)
    for _ in range(20):
        A = rng.standard_normal((2, 4))
        B = rng.standard_normal((2, 4))
        V = affine_plane(s, np.zeros(4), A)
        W = affine_plane(s, np.zeros(4), B)
        Vp = affine_plane(s, np.zeros(4), _perp_basis(A))
        Wp = affine_plane(s, np.zeros(4), _perp_basis(B))
        assert grassmann_distance(s, V, W) == pytest.approx(
            grassmann_distance(s, Vp, Wp), abs=2e-3)


def _perp_basis(rows):
    _, _, vt = np.linalg.svd(rows)
    return vt[rows.shape[0]:]


# -- projections --------------------------------------------------------------

def test_orthogonal_projection_idempotent_norm_one(l2_space):
    V = affine_plane(l2_space, np.zeros(3), [[1, 0, 0], [0, 1, 0]])
    pj = make_projection(l2_space, V, "orthogonal")
    assert np.allclose(pj.matrix @ pj.matrix, pj.matrix, atol=1e-12)
    assert pj.op_norm_estimate == 1.0
    rng = np.random.default_rng(0)
    X = rng.standard_normal((100, 3))
    assert (l2_space.norms(pj.apply(X)) <= l2_space.norms(X) + 1e-12).all()


def test_j_projection_coordinate_line_norm_one():
    s = NormedSpace(2, 3)
    V = affine_plane(s, [0, 0], [[1, 0]])
    pj = make_projection(s, V, "j_projection")
    x = np.array([0.4, -0.9])
    assert np.allclose(pj.apply(x), [0.4, 0.0])
    assert pj.op_norm_estimate == 1.0
    rng = np.random.default_rng(1)
    X = rng.standard_normal((500, 2))
    assert (s.norms(pj.apply(X)) <= s.norms(X) * (1 + 1e-9)).all()


def test_j_projection_requires_line():
    s = NormedSpace(3, 3)
    V = affine_plane(s, np.zeros(3), [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        make_projection(s, V, "j_projection")
    with pytest.raises(ValueError):
        make_projection(NormedSpace(2, 1), affine_plane(NormedSpace(2, 1), [0, 0], [[1, 0]]),
                        "j_projection")


def test_hahn_banach_projection_l4():
    s = NormedSpace(3, 4)
    V = affine_plane(s, np.zeros(3), [[1, 1, 0], [0, 1, 1]])
    pj = make_projection(s, V, "hahn_banach")
    # restriction is the identity on the target
    for v in V.basis:
        assert np.allclose(pj.apply(v), v, atol=1e-9)
    # empirical operator norm on a sphere net stays under 10
    net = sphere_net(s, np.eye(3), 4096)
    emp = s.norms(pj.apply(net)).max()
    assert emp <= 10.0
    assert pj.op_norm_estimate >= emp - 1e-12


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_hahn_banach_lp_extremes(p):
    s = NormedSpace(3, p)
    V = affine_plane(s, np.zeros(3), [[1, 0.5, 0], [0, 1, -0.5]])
    pj = make_projection(s, V, "hahn_banach")
    for v in V.basis:
        assert np.allclose(pj.apply(v), v, atol=1e-8)


def test_euclidean_fallback_any_p():
    s = NormedSpace(3, math.inf)
    V = affine_plane(s, np.zeros(3), [[1, 1, 0]])
    pj = make_projection(s, V, "euclidean_fallback")
    assert np.allclose(pj.apply(V.basis[0]), V.basis[0], atol=1e-12)
    net = sphere_net(s, np.eye(3), 2048)
    assert pj.op_norm_estimate >= s.norms(pj.apply(net)).max() - 1e-12


def test_almost_projection_perp_composition():
    # ||perp_V(pi_W(x))|| <= 2 c3^2 dG ||x||  (slack factor 2 on the
    # inherited constant)
    s = NormedSpace(3, 4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.standard_normal((2, 3))
        B = A + 0.02 * rng.standard_normal((2, 3))
        V = affine_plane(s, np.zeros(3), A)
        W = affine_plane(s, np.zeros(3), B)
        dG = grassmann_distance(s, V, W, samples=1024)
        pV = make_projection(s, V, "hahn_banach")
        pW = make_projection(s, W, "hahn_banach")
        X = rng.standard_normal((50, 3))
        lhs = s.norms(pV.perp(pW.apply(X)))
        bound = 2 * c3(2) ** 2 * max(dG, 2e-3) * s.norms(X)
        assert (lhs <= bound + 1e-9).all()


# -- pythagorean reports ------------------------------------------------------

def test_pythagorean_hilbert_exact(l2_space):
    V = affine_plane(l2_space, np.zeros(3), [[1, 0, 0], [0, 1, 0]])
    pj = make_projection(l2_space, V, "orthogonal")
    rep = pythagorean_report(l2_space, pj, samples=2000, seed=0)
    assert rep.max_hilbert_slack <= 1e-10
    assert rep.violations == 0


def test_pythagorean_j_projection_holds():
    s = NormedSpace(3, 3)
    V = affine_plane(s, np.zeros(3), [[1, 2, 0.5]])
    pj = make_projection(s, V, "j_projection")
    rep = pythagorean_report(s, pj, samples=10000, seed=1)
    assert rep.violations == 0
    assert rep.max_ratio_general <= 1.0
    assert rep.max_ratio_improved <= 1.0


def test_pythagorean_x_in_V_both_sides_zero():
    s = NormedSpace(2, 3)
    V = affine_plane(s, [0, 0], [[1, 0]])
    pj = make_projection(s, V, "j_projection")
    x = np.array([0.7, 0.0])
    px = pj.apply(x)
    assert s.norm(x) ** 2 - s.norm(px) ** 2 == pytest.approx(0.0, abs=1e-14)


# -- operator difference and projection-vs-dG --------------------------------

def test_operator_difference_bound():
    # orthogonal or J projections onto close planes: ||pi_V - pi_W|| <= 2 rho(4 dG)/dG
    rng = np.random.default_rng(31)
    for p, k in ((2.0, 2), (3.0, 1), (1.5, 1)):
        s = NormedSpace(3, p)
        kind = "orthogonal" if p == 2.0 else "j_projection"
        for _ in range(20):
            A = rng.standard_normal((k, 3))
            B = A + 0.05 * rng.standard_normal((k, 3))
            V = affine_plane(s, np.zeros(3), A)
            W = affine_plane(s, np.zeros(3), B)
            dG = grassmann_distance(s, V, W)
            if dG < 1e-6:
                continue
            pV = make_projection(s, V, kind)
            pW = make_projection(s, W, kind)
            X = rng.standard_normal((200, 3))
            emp = (s.norms(pV.apply(X) - pW.apply(X)) / s.norms(X)).max()
            d_up = dG * (1 + 2e-3) + 2e-3   # net slack
            rhs = 2 * s.modulus_smoothness_bound(4 * d_up) / d_up
            assert emp <= rhs + 2e-3


def test_projection_difference_vs_dG_hilbert():
    # Hilbert: ||pi_V x - pi_W x|| <= d_G(V,W) ||x||
    s = NormedSpace(4, 2)
    rng = np.random.default_rng(41)
    for _ in range(20):
        A = rng.standard_normal((2, 4))
        B = rng.standard_normal((2, 4))
        V = affine_plane(s, np.zeros(4), A)
        W = affine_plane(s, np.zeros(4), B)
        dG = grassmann_distance(s, V, W)
        pV = make_projection(s, V, "orthogonal")
        pW = make_projection(s, W, "orthogonal")
        X = rng.standard_normal((200, 4))
        lhs = s.norms(pV.apply(X) - pW.apply(X))
        assert (lhs <= dG * s.norms(X) + 2e-3).all()


# -- graphs -------------------------------------------------------------------

def test_graph_check_points_on_plane(l2_plane):
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    pj = make_projection(l2_plane, pl, "orthogonal")
    ok, h, lip = graph_check(l2_plane, [[0.1, 0], [0.7, 0]], pl, pj)
    assert ok and h == 0.0 and lip == 0.0


def test_graph_check_gamma2(l2_plane):
    eps = 0.1
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    pj = make_projection(l2_plane, pl, "orthogonal")
    ok, h, lip = graph_check(l2_plane, gamma2_sample(eps, 601), pl, pj)
    assert ok
    assert h == pytest.approx(eps / 6, abs=1e-9)
    assert lip == pytest.approx(eps, abs=1e-9)


def test_graph_check_stacked_points(l2_plane):
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    pj = make_projection(l2_plane, pl, "orthogonal")
    ok, _, _ = graph_check(l2_plane, [[0.0, 0.0], [0.0, 1.0]], pl, pj)
    assert not ok


def test_graph_bilipschitz_power_gain():
    # orthogonal/J projections, eps-Lipschitz graphs:
    # | ||D(x+g)||^2 - ||Dx||^2 | <= 8 rho(4 eps) ||Dx||^2 on sampled pairs
    for p in (2.0, 1.5, 3.0):
        s = NormedSpace(2, p)
        eps = 0.1
        pts = gamma2_sample(eps, 241)
        iu = np.triu_indices(len(pts), k=1)
        feet = pts.copy()
        feet[:, 1] = 0.0
        d_graph = s.norms(pts[:, None, :] - pts[None, :, :])[iu]
        d_feet = s.norms(feet[:, None, :] - feet[None, :, :])[iu]
        ok = d_feet > 1e-12
        lhs = np.abs(d_graph[ok] ** 2 - d_feet[ok] ** 2)
        rhs = 8 * s.modulus_smoothness_bound(4 * eps) * d_feet[ok] ** 2
        assert (lhs <= rhs + 1e-12).all()


# -- packing and k-volume constants ------------------------------------------

def test_packing_constant_holds():
    # disjoint balls near a k-plane: sum r^k <= c2(k) R^k
    s = NormedSpace(3, 3)
    rng = np.random.default_rng(6)
    R = 1.0
    centers, radii = [], []
    for _ in range(400):
        c = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.02, 0.02)])
        r = rng.uniform(0.02, 0.1)
        if s.norm(c) > R or abs(c[2]) > r / 2:
            continue
        if all(s.norm(c - c2_) >= r + r2_ for c2_, r2_ in zip(centers, radii)):
            centers.append(c)
            radii.append(r)
    total = sum(r**2 for r in radii)
    assert total <= c2(2) * R**2


def test_plane_ball_kvolume_bounds():
    # Monte-Carlo k-volume of B_r(x) cap V within [r^k/c, c r^k]
    s = NormedSpace(3, 4)
    V = riesz_basis(s, [[1, 0.2, 0], [0, 1, 0.3]], 2 / 3)
    Q = np.linalg.qr(V.T)[0].T      # Euclidean-orthonormal coords on V
    rng = np.random.default_rng(7)
    r = 0.8
    box = 3.0 * r
    U = rng.uniform(-box, box, size=(200000, 2))
    pts = U @ Q
    frac = (s.norms(pts) <= r).mean()
    vol = frac * (2 * box) ** 2
    cbound = (2 * c1(2)) ** (2 * 2)
    assert vol <= cbound * r**2
    assert vol >= r**2 / cbound


def test_regraph_over_tilted_plane(l2_plane):
    # regraphing verification: a small graph over V re-graphs over a
    # slightly tilted/shifted plane with height+Lip <= c(k)(eps + delta)
    eps, delta = 0.05, 0.02
    pts = gamma2_sample(eps, 201)
    tilted = affine_plane(l2_plane, [0.0, delta * 0.5],
                          [[math.cos(delta), math.sin(delta)]])
    pj = make_projection(l2_plane, tilted, "orthogonal")
    ok, h, lip = graph_check(l2_plane, pts, tilted, pj)
    assert ok
    c_k = 8.0
    assert h <= c_k * (eps + delta)
    assert lip <= c_k * (eps + delta)


def test_riesz_basis_rejects_tau_ge_one(l2_plane):
    with pytest.raises(ValueError):
        riesz_basis(l2_plane, np.eye(2), 1.0)


def test_affine_plane_fragment_roundtrip(l2_plane):
    pl = affine_plane(l2_plane, [0.5, -0.1], [[1, 0.2]])
    frag = pl.to_fragment()
    from betareif.geometry import AffinePlane
    back = AffinePlane.from_fragment(l2_plane, frag)
    assert np.allclose(back.base, pl.base)
    assert np.allclose(back.basis, pl.basis)


def test_projection_report_has_residuals(l2_plane):
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    rep = make_projection(l2_plane, pl, "orthogonal").report()
    assert set(rep) == {"kind", "op_norm_estimate", "residuals"}
    assert rep["residuals"] <= 1e-12


@pytest.mark.parametrize("p", [1.0, 4 / 3, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("n", [2, 3])
def test_codimension_one_batch_is_hyperplane_formula(p, n):
    space = NormedSpace(n, p)
    rng = np.random.default_rng(n)
    base = rng.standard_normal(n)
    rows = rng.standard_normal((n - 1, n))
    Z = rng.standard_normal((40, n))
    d, feet = _dists_to_flat_batch(space, base, rows, Z)
    d_h, feet_h = _dists_hyperplane(space, base[None, :], rows[None, :, :], Z)
    assert np.array_equal(d, d_h[0])
    assert np.array_equal(feet, feet_h[0])


def _hyperplane_one(space, base, rows, Z):
    """The single-plane codimension-1 formula before planes were stacked."""
    n = space.dim
    _u, _s, vt = np.linalg.svd(rows)
    a = vt[-1]
    s_val = (Z - base[None, :]) @ a
    q = space.q
    if q == math.inf:
        amax = np.abs(a).max()
        ties = np.abs(a) >= amax * (1 - 1e-12)
        w = np.zeros(n)
        w[ties] = np.sign(a[ties]) / (ties.sum() * amax)
        dq = amax
    elif q == 1.0:
        dq = np.abs(a).sum()
        w = np.sign(a) / dq
    else:
        dq = space.dual_norm(a)
        w = np.sign(a) * np.abs(a) ** (q - 1.0)
        w = w / max(space.norm(w), 1e-300)
    aw = float(a @ w)
    return np.abs(s_val) / dq, Z - np.outer(s_val / aw, w)


@pytest.mark.parametrize("p", [1.0, 4 / 3, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_hyperplanes_match_single_planes(p, n):
    space = NormedSpace(n, p)
    rng = np.random.default_rng(10 * n + 1)
    # the last plane's normal has two tied largest coordinates (p = 1 moves
    # the foot along both)
    tied = np.r_[1.0, 1.0, 0.5 ** np.arange(1, n - 1)]
    rows = np.concatenate([rng.standard_normal((11, n - 1, n)),
                           np.linalg.svd(tied[None, :])[2][None, 1:]])
    bases = rng.standard_normal((len(rows), n))
    Z = rng.standard_normal((30, n))
    d, feet = _dists_hyperplane(space, bases, rows, Z)
    d2, feet2 = _dists_to_flats(space, bases, rows, Z)
    assert d.shape == (len(rows), len(Z)) and feet.shape == (len(rows), len(Z), n)
    assert d.tobytes() == d2.tobytes() and feet.tobytes() == feet2.tobytes()
    for i in range(len(rows)):
        d1, feet1 = _dists_hyperplane(space, bases[i:i + 1], rows[i:i + 1], Z)
        d0, feet0 = _hyperplane_one(space, bases[i], rows[i], Z)
        assert d[i].tobytes() == d1[0].tobytes() == d0.tobytes()
        assert feet[i].tobytes() == feet1[0].tobytes() == feet0.tobytes()
    if p == 1.0:
        moved = np.abs(Z - feet[-1]) > 0
        assert moved[:, :2].all() and not moved[:, 2:].any()


@pytest.mark.parametrize("p,k", [(4.0, 1), (math.inf, 1), (3.0, 0), (2.0, 2)])
def test_stacked_flats_off_codimension_one_match_single_calls(p, k):
    space = NormedSpace(3, p)
    rng = np.random.default_rng(7)
    bases, rows = rng.standard_normal((4, 3)), rng.standard_normal((4, k, 3))
    Z = rng.standard_normal((6, 3))
    d, feet = _dists_to_flats(space, bases, rows, Z)
    for i in range(4):
        d1, feet1 = _dists_to_flat_batch(space, bases[i], rows[i], Z)
        assert d[i].tobytes() == d1.tobytes() and feet[i].tobytes() == feet1.tobytes()
