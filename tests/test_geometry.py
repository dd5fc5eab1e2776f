import math
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from betareif.constants import c1, c2, c3, stability_constant
from betareif.cover import reifenberg_flat_map
from betareif.geometry import (_dist_newton_batch, _dists_hyperplane, _dists_to_flat_batch,
                               _dists_to_flats, _euclid_orthonormal,
                               _farthest_row, affine_plane, distance_to_affine,
                               distances_to_affine, general_position_margin,
                               grassmann_distance, graph_check,
                               hausdorff_distance, make_projection,
                               pythagorean_report, riesz_basis, sphere_net)
from betareif.spaces import NormedSpace

from conftest import gamma2_sample, snowflake_sample


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


def _brute_distance(space, plane, z, rng):
    """min over lambda of ||z - base - lambda @ basis|| without the solvers:
    three nested dense lambda grids for a line (the objective is convex,
    so each level's minimizer lies within a step of the grid's argmin),
    the epigraph LP's optimum for p in {1, inf}, and multi-start BFGS on
    the convex, C^1 power sum ||r||_p^p otherwise."""
    from scipy.optimize import linprog, minimize
    w = z - plane.base
    B = plane.basis
    n, k = space.dim, plane.k
    if k == 0:
        return space.norm(w)
    if k == 1:
        v = B[0]
        lo = -(2.0 * space.norm(w) / space.norm(v) + 1.0)    # |lambda*| <= 2||w||/||v||
        hi = -lo
        for _ in range(3):
            lams = np.linspace(lo, hi, 4001)
            vals = space.norms(w[None, :] - lams[:, None] * v[None, :])
            j = int(np.argmin(vals))
            lo, hi = lams[max(j - 1, 0)], lams[min(j + 1, len(lams) - 1)]
        return float(vals[j])
    if space.p in (1.0, math.inf):
        # min sum s over -S s <= w - B.T lam <= S s: one slack per
        # coordinate for p = 1, one shared slack for p = inf
        S = np.eye(n) if space.p == 1.0 else np.ones((n, 1))
        A = np.block([[-B.T, -S], [B.T, -S]])
        c = np.concatenate([np.zeros(k), np.ones(S.shape[1])])
        return float(linprog(c, A_ub=A, b_ub=np.concatenate([-w, w]),
                             bounds=[(None, None)] * len(c), method="highs").fun)
    p = space.p
    f = lambda lam: np.sum(np.abs(w - lam @ B) ** p)
    grad = lambda lam: -(np.sign(w - lam @ B) * np.abs(w - lam @ B) ** (p - 1.0)) @ B.T * p
    lam0 = np.linalg.lstsq(B.T, w, rcond=None)[0]
    best = min(minimize(f, x0, jac=grad, method="BFGS", options={"gtol": 1e-12}).fun
               for x0 in [lam0] + [lam0 + rng.standard_normal(k) for _ in range(4)])
    return float(best ** (1.0 / p))


@pytest.mark.parametrize("p", [1.0, 4 / 3, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 1),
                                 (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 4)])
def test_distance_dispatch_matches_batch_and_brute_force(p, n, k):
    # distance_to_affine is the one-row case of the batch, to the bit; a
    # row of a larger batch may differ from it by an ulp (by the stopping
    # tolerance after Newton), since numpy's products take other kernels
    # for other row counts.  For p in {1, inf} and 2 <= k <= n - 2 the
    # solver's foot is a vertex of the piecewise linear objective, where the
    # LP's optimum also sits, so the distance is that optimum to rounding.
    s = NormedSpace(n, p)
    rng = np.random.default_rng([n, k, 7])
    pl = affine_plane(s, rng.standard_normal(n), rng.standard_normal((k, n)))
    Z = np.vstack([2.0 * rng.standard_normal((4, n)),
                   pl.points(rng.standard_normal((1, k)))])
    for z in Z:
        d, foot = distance_to_affine(s, pl, z)
        bd, bfeet = _dists_to_flat_batch(s, pl.base, pl.basis, z[None, :])
        assert type(d) is float
        assert np.array_equal(np.float64(d), bd[0])
        assert np.array_equal(foot, bfeet[0])
        brute = _brute_distance(s, pl, z, rng)
        assert d == pytest.approx(brute, abs=1e-6)
        if p in (1.0, math.inf) and 2 <= k <= n - 2:
            assert d <= brute * (1 + 1e-11) + 1e-14     # 1e-14: the row on the plane
        # the foot lies on the plane and realizes the distance
        off = foot - pl.base
        if k == 0:
            assert np.array_equal(foot, pl.base)
        else:
            c = np.linalg.lstsq(pl.basis.T, off, rcond=None)[0]
            assert np.linalg.norm(c @ pl.basis - off) <= 1e-9 * (1.0 + np.linalg.norm(z))
        assert s.norm(z - foot) == pytest.approx(d, rel=1e-9, abs=1e-12)


def _exact_line_distances(space, v, W):
    """min over lam of ||w - lam v|| for p in {1, inf}, row by row: the
    objective is piecewise linear and convex, so its minimum sits at a
    breakpoint, w_i / v_i, or at p = inf also (w_i -+ w_j) / (v_i -+ v_j)."""
    n = len(v)
    cand = [W[:, i] / v[i] for i in range(n)]
    if space.p == math.inf:
        cand += [(W[:, i] - s * W[:, j]) / (v[i] - s * v[j])
                 for i in range(n) for j in range(i + 1, n) for s in (1.0, -1.0)]
    L = np.stack(cand, axis=1)                                  # (m, candidates)
    R = W[:, None, :] - L[:, :, None] * v[None, None, :]
    return space.norms(R.reshape(-1, n)).reshape(L.shape).min(axis=1)


def test_line_golden_bracket_holds_the_minimizer():
    # lam* = -10.64 / 0.54 lies outside lam0 +- (||w|| / ||v|| + 1), the
    # bracket about the l^2 coefficient lam0
    s = NormedSpace(3, math.inf)
    v = np.array([[0.01, 0.29, -0.53]])
    w = np.array([[-8.14, 1.35, 2.5]])
    d, foot = _dists_to_flat_batch(s, np.zeros(3), v, w)
    assert d[0] == pytest.approx((8.14 * 0.54 - 0.1064) / 0.54, rel=1e-12)
    assert s.norm(w[0] - foot[0]) == d[0]


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_line_golden_matches_exact_breakpoint_oracle(p, n):
    s = NormedSpace(n, p)
    rng = np.random.default_rng([11, n])
    for _ in range(20):
        v = rng.standard_normal(n)
        base = rng.standard_normal(n)
        W = 5.0 * rng.standard_normal((120, n))
        d, _ = _dists_to_flat_batch(s, base, v[None, :], base + W)
        exact = _exact_line_distances(s, v, W)
        assert (d <= exact * (1.0 + 1e-12)).all()


def _breakpoint_lines(space, bases, rows, Z):
    """The line solver that `_dists_vertex` replaced, as it stood: all
    breakpoints w_i / v_i (and at p = inf (w_i -+ w_j) / (v_i -+ v_j)) in
    one stacked table, a zero denominator giving 0, the first least one
    taken."""
    v, W = rows[:, 0, :], Z[None, :, :] - bases[:, None, :]
    n = v.shape[1]
    C = np.eye(n)
    if space.p == math.inf:
        i, j = np.triu_indices(n, 1)
        C = np.vstack([C, (C[i, None] - [[1.0], [-1.0]] * C[j, None]).reshape(-1, n)])
    num, den = W @ C.T, (v @ C.T)[:, None, :]
    lam = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    f = space.norms(W[:, :, None, :] - lam[..., None] * v[:, None, None, :])
    lam = np.take_along_axis(lam, np.argmin(f, axis=-1)[..., None], axis=-1)
    feet = bases[:, None, :] + lam * v[:, None, :]
    return space.norms(Z[None, :, :] - feet), feet


def _odd_entries(rng, shape):
    """Gaussian entries with zeros, -0.0, 6.1e-17 and small integers (ties)
    mixed in."""
    X = rng.standard_normal(shape)
    u = rng.random(shape)
    X[u < 0.15] = 0.0
    X[(u >= 0.15) & (u < 0.2)] = -0.0
    X[(u >= 0.2) & (u < 0.25)] = 6.1e-17
    ints = (u >= 0.25) & (u < 0.35)
    X[ints] = rng.integers(-2, 3, ints.sum())
    return X


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_vertex_solver_keeps_the_breakpoint_line_bits(p):
    # lines: distances and feet equal the old breakpoint solver's in bytes,
    # on stacks of 1-3 lines in R^2 .. R^6, with points on the line
    from betareif.geometry import _dists_vertex
    rng = np.random.default_rng(int(p == 1.0))
    for case in range(600):
        n, D, m = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        s = NormedSpace(n, p)
        bases, rows, Z = _odd_entries(rng, (D, n)), _odd_entries(rng, (D, 1, n)), _odd_entries(rng, (m, n))
        if case % 5 == 0:
            Z[0] = bases[0] + rng.standard_normal() * rows[0, 0]
        want, got = _breakpoint_lines(s, bases, rows, Z), _dists_vertex(s, bases, rows, Z)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    # a -0.0 base coordinate under a foot offset of -0.0 stays -0.0 (a
    # BLAS sum lam @ rows would start at +0 and give +0.0)
    s = NormedSpace(3, p)
    bases, rows, Z = np.array([[-0.0, 0.0, 0.0]]), np.array([[[0.0, 1.0, 1.0]]]), np.array([[0.0, -2.0, -2.0]])
    (d, feet), (want_d, want_feet) = _dists_vertex(s, bases, rows, Z), _breakpoint_lines(s, bases, rows, Z)
    assert d.tobytes() == want_d.tobytes() and feet.tobytes() == want_feet.tobytes()
    assert math.copysign(1.0, feet[0, 0, 0]) == -1.0


def _assert_lp_optimum(s, pl, Z, rng):
    """The distances from Z to pl are never above the test-only LP's
    optimum by more than rounding (nor below by more than its tolerance),
    and each is the norm at its foot, in bits."""
    d, feet = _dists_to_flat_batch(s, pl.base, pl.basis, Z)
    assert s.norms(Z - feet).tobytes() == d.tobytes()
    for z, dz in zip(Z, d):
        lp = _brute_distance(s, pl, z, rng)
        assert lp * (1 - 1e-9) <= dz <= lp * (1 + 1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)])
def test_vertex_solver_attains_the_lp_optimum(p, n, k):
    s = NormedSpace(n, p)
    rng = np.random.default_rng([n, k, int(p == 1.0)])
    for _ in range(3):
        pl = affine_plane(s, rng.standard_normal(n), rng.standard_normal((k, n)))
        _assert_lp_optimum(s, pl, 2.0 * rng.standard_normal((6, n)), rng)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_vertex_solver_degenerate_flats(p):
    s = NormedSpace(5, p)
    rng = np.random.default_rng(int(p == 1.0))
    # w on the flat: an integer flat through a coordinate block, whose
    # first system is the identity, gives 0 exactly
    base = np.array([1.0, -2.0, 0.0, 3.0, 1.0])
    rows = np.array([[1.0, 0.0, 0.0, 2.0, -1.0], [0.0, 1.0, 0.0, 1.0, 1.0]])
    Z = base + np.array([[2.0, -1.0], [0.0, 3.0], [-4.0, 0.5]]) @ rows
    d, feet = _dists_to_flat_batch(s, base, rows, Z)
    assert d.tolist() == [0.0, 0.0, 0.0]
    assert np.array_equal(feet, Z)
    # random flats: points on them are at rounding distance
    rows = rng.standard_normal((3, 5))
    Z = base + rng.standard_normal((4, 3)) @ rows
    d, _ = _dists_to_flat_batch(s, base, rows, Z)
    assert (d <= 1e-14 * (1.0 + s.norms(Z))).all()
    # M = rows.T with two equal rows, and with a zero row (a zero column
    # of the basis), make many of the vertex systems singular
    equal = rng.standard_normal((2, 5))
    equal[:, 3] = equal[:, 1]
    zero = rng.standard_normal((3, 5))
    zero[:, 2] = 0.0
    for rows in (equal, zero):
        pl = affine_plane(s, rng.standard_normal(5), rows)
        _assert_lp_optimum(s, pl, 2.0 * rng.standard_normal((6, 5)), rng)


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
def test_vertex_solver_stack_matches_each_flat(p, n, k):
    s = NormedSpace(n, p)
    rng = np.random.default_rng([n, k, 3])
    bases, rows = rng.standard_normal((5, n)), rng.standard_normal((5, k, n))
    Z = 2.0 * rng.standard_normal((7, n))
    d, feet = _dists_to_flats(s, bases, rows, Z)
    for i in range(len(bases)):
        di, fi = _dists_to_flat_batch(s, bases[i], rows[i], Z)
        assert d[i].tobytes() == di.tobytes() and feet[i].tobytes() == fi.tobytes()


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
    """Reference for the line case of grassmann_distance: max over +-v of
    80 scalar golden-section steps on s -> ||v - s w||, s in [-1, 1]."""
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
    # for lines the net is +-v, and a foot clamped to the unit segment of
    # the other line is the constrained minimum of the convex s -> ||v - s w||
    rng = np.random.default_rng(31)
    grid = np.linspace(-1.0, 1.0, 20001)
    for n in (2, 3):
        s = NormedSpace(n, p)
        for _ in range(8):
            A = rng.standard_normal((1, n))
            B = A + rng.choice([0.02, 0.5]) * rng.standard_normal((1, n))
            V = affine_plane(s, np.zeros(n), A)
            W = affine_plane(s, np.zeros(n), B)
            v = V.basis[0] / s.norm(V.basis[0])
            w = W.basis[0] / s.norm(W.basis[0])
            got = grassmann_distance(s, V, W)
            assert got == pytest.approx(max(_scalar_golden_line_dist(s, v, w),
                                            _scalar_golden_line_dist(s, w, v)),
                                        rel=1e-12, abs=1e-14)
            on_grid = max(s.norms(sgn * a[None, :] - grid[:, None] * b[None, :]).min()
                          for a, b in ((v, w), (w, v)) for sgn in (1.0, -1.0))
            assert got <= on_grid + 1e-14


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


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_hahn_banach_projection(k, p):
    s = NormedSpace(3, p)
    V = affine_plane(s, np.zeros(3), np.array([[1, 1, 0], [0, 1, 1]])[:k])
    pj = make_projection(s, V, "hahn_banach")
    # restriction is the identity on the target
    for v in V.basis:
        assert np.allclose(pj.apply(v), v, atol=1e-9)
    # the estimate is the Hoelder bound sum ||phi_i||_q, and the operator
    # norm sampled on a sphere net stays under it
    assert pj.op_norm_estimate == sum(s.dual_norm(phi) for phi in pj.row_functionals)
    net = sphere_net(s, np.eye(3), 4096)
    emp = s.norms(pj.apply(net)).max()
    assert emp <= pj.op_norm_estimate * (1 + 1e-12)
    assert pj.op_norm_estimate <= 10.0
    if k == 0:
        assert not pj.matrix.any()
    if p == 2.0:        # the minimal-norm extension is the orthogonal projector
        Q = np.linalg.qr(V.basis.T)[0]
        assert np.allclose(pj.matrix, Q @ Q.T, rtol=0, atol=1e-15)
        assert pj.op_norm_estimate == pytest.approx(k, rel=1e-15)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_hahn_banach_lp_extremes(p):
    s = NormedSpace(3, p)
    V = affine_plane(s, np.zeros(3), [[1, 0.5, 0], [0, 1, -0.5]])
    pj = make_projection(s, V, "hahn_banach")
    for v in V.basis:
        assert np.allclose(pj.apply(v), v, atol=1e-8)


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


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
def test_pythagorean_hahn_banach_pairs_with_the_duality_map(p):
    # the report pairs with the duality map of the stack, whose rows have
    # the bits of the map of each row alone
    s = NormedSpace(3, p)
    V = affine_plane(s, np.zeros(3), [[1, 0.5, 0], [0, 1, -0.5]])
    pj = make_projection(s, V, "hahn_banach")
    X = pj.apply(np.random.default_rng(0).standard_normal((200, 3)))
    J = np.array([s.duality_map(x) for x in X])
    assert s.duality_map(X).tobytes() == J.tobytes()
    assert pythagorean_report(s, pj, samples=2000, seed=3).violations == 0


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


@pytest.mark.parametrize("basis", [[[1, 0, 0], [2, 0, 0]], [[0, 0, 0]], [[1, 0, 0], [0, 0, 0]]])
@pytest.mark.parametrize("p", [2, 4, math.inf])
def test_affine_plane_rejects_dependent_or_zero_basis(basis, p):
    # the checked constructor for bases from outside the engine, and the
    # fragment reader that goes through it
    from betareif.geometry import AffinePlane
    s = NormedSpace(3, p)
    with pytest.raises(ValueError, match="linearly dependent"):
        affine_plane(s, np.zeros(3), basis)
    with pytest.raises(ValueError, match="linearly dependent"):
        AffinePlane.from_fragment(s, {"base": [0.0, 0.0, 0.0], "basis": basis})


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


@pytest.mark.parametrize("p,k", [(4.0, 1), (math.inf, 1), (1.0, 1), (3.0, 0), (2.0, 2)])
def test_stacked_flats_off_codimension_one_match_single_calls(p, k):
    space = NormedSpace(3, p)
    rng = np.random.default_rng(7)
    bases, rows = rng.standard_normal((4, 3)), rng.standard_normal((4, k, 3))
    Z = rng.standard_normal((6, 3))
    d, feet = _dists_to_flats(space, bases, rows, Z)
    for i in range(4):
        d1, feet1 = _dists_to_flat_batch(space, bases[i], rows[i], Z)
        assert d[i].tobytes() == d1.tobytes() and feet[i].tobytes() == feet1.tobytes()


def _dist_newton_batch_full(space, M, W, lam, tol=1e-9, halvings=None):
    """`_dist_newton_batch` as it was when every backtracking round took the
    power sums of all its rows, kept as the oracle; `halvings` collects
    each round's number of halvings."""
    from betareif import geometry
    p = space.p
    m = len(W)
    R = W - lam @ M.T
    scale = 1.0 + space.norms(W)
    active = np.ones(m, dtype=bool)
    for _ in range(geometry._NEWTON_CAP):
        if not active.any():
            break
        Ra = R[active]
        S = np.sign(Ra) * np.abs(Ra) ** (p - 1.0)
        G = -S @ M
        nr = space.norms(Ra)
        on_flat = nr <= 1e-12 * scale[active]
        grad_d = G / np.maximum(nr, 1e-30)[:, None] ** (p - 1.0)
        done = on_flat | (np.linalg.norm(grad_d, axis=1) <= tol * scale[active])
        idx = np.where(active)[0]
        active[idx[done]] = False
        still = idx[~done]
        if len(still) == 0:
            break
        Rs = R[still]
        h = (p - 1.0) * np.abs(np.clip(np.abs(Rs), 1e-14, None)) ** (p - 2.0)
        H = np.einsum("mi,ij,ik->mjk", h, M, M)
        H += 1e-14 * np.eye(M.shape[1])[None, :, :]
        g = -(np.sign(Rs) * np.abs(Rs) ** (p - 1.0)) @ M
        try:
            step = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = -g
        f0 = (np.abs(Rs) ** p).sum(axis=1)
        t = np.ones(len(still))
        lam_new = lam[still] + step
        for _bt in range(40):
            Rn = W[still] - lam_new @ M.T
            fn = (np.abs(Rn) ** p).sum(axis=1)
            bad = (fn > f0) & (lam_new != lam[still]).any(axis=1)
            if not bad.any():
                break
            t[bad] *= 0.5
            lam_new[bad] = lam[still][bad] + t[bad, None] * step[bad]
            if t.min() < 1e-12:
                break
        if halvings is not None:
            halvings.append(int(round(-math.log2(t.min()))))
        Rn = W[still] - lam_new @ M.T
        fn = (np.abs(Rn) ** p).sum(axis=1)
        stalled = (f0 - fn) <= 1e-14 * f0
        take = fn <= f0
        lam[still[take]] = lam_new[take]
        R[still[take]] = Rn[take]
        active[still[stalled]] = False
    if active.any():
        warnings.warn("distance solver hit the iteration cap; returning best iterate",
                      RuntimeWarning, stacklevel=2)
    return lam


def _newton_rows(rng, M, m):
    """m rows about the flat span(M): a third of them at 1e-11 to 1e-2
    from it, a tenth on it, one (the first, for m >= 3) at distance 1e-7
    along its normal, the rest at random."""
    n, k = M.shape
    W = rng.standard_normal((m, n))
    near = rng.random(m) < 0.3
    W[near] = (rng.standard_normal((near.sum(), k)) @ M.T
               + 10.0 ** rng.uniform(-11, -2, (near.sum(), 1))
               * rng.standard_normal((near.sum(), n)))
    on = rng.random(m) < 0.1
    W[on] = rng.standard_normal((on.sum(), k)) @ M.T
    if m >= 3:
        W[0] = M @ rng.standard_normal(k) + 1e-7 * np.linalg.svd(M.T)[2][-1]
    return W


@pytest.mark.parametrize("p", [4 / 3, 1.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (5, 3)])
def test_newton_batch_matches_full_backtrack_oracle(p, n, k):
    space = NormedSpace(n, p)
    rng = np.random.default_rng(int(10 * p) + 100 * n + k)
    M = rng.standard_normal((n, k))
    halvings = []
    for m in (1, 2, 3, 17, 300):
        W = _newton_rows(rng, M, m)
        lam0 = np.linalg.lstsq(M, W.T, rcond=None)[0].T
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = _dist_newton_batch(space, M, W, lam0.copy())
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = _dist_newton_batch_full(space, M, W, lam0.copy(), halvings=halvings)
        assert got.tobytes() == want.tobytes()
        assert len(got_warned) == len(want_warned)
    # a converged row stops halving once its trial value equals its value,
    # or once its trial lam is its lam (for k >= 2 the round's residual
    # product can round off the stored residual by an ulp): no round halves
    # all 40 times (with the rule fn > f0 - 1e-18, 5 to 200 rounds per case
    # did)
    assert halvings.count(40) == 0


@pytest.mark.parametrize("p,n,k", [(4.0, 3, 1), (3.0, 5, 2), (4 / 3, 4, 2)])
def test_newton_batch_cap_hit_warns_like_the_oracle(p, n, k, monkeypatch):
    from betareif import geometry
    monkeypatch.setattr(geometry, "_NEWTON_CAP", 2)
    space = NormedSpace(n, p)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((n, k))
    W = _newton_rows(rng, M, 40)
    lam0 = np.linalg.lstsq(M, W.T, rcond=None)[0].T
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        got = _dist_newton_batch(space, M, W, lam0.copy())
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        want = _dist_newton_batch_full(space, M, W, lam0.copy())
    assert got.tobytes() == want.tobytes()


# -- the pruned farthest-row search of the Riesz-lemma step -----------------

def _riesz_nets(space, rng):
    """(line, net) pairs of a Riesz-lemma step: the first net row spans the
    line, the net is a `sphere_net` of a random plane through it."""
    for _ in range(3):
        W = sphere_net(space, _euclid_orthonormal(rng.standard_normal((2, space.dim))))
        yield W[:1], W


@pytest.mark.parametrize("p", [4 / 3, 3.0, 4.0])
@pytest.mark.parametrize("n", [3, 4])
def test_newton_line_rows_are_independent_of_their_batch(p, n):
    # on a line (k = 1) each net row's distance and foot are the same bits
    # in any batch of two or more rows as in the full call; a one-row call
    # takes BLAS's vector kernels, so the pruned search never makes one
    space = NormedSpace(n, p)
    rng = np.random.default_rng(int(3 * p) + 10 * n)
    origin = np.zeros(n)
    for v, W in _riesz_nets(space, rng):
        d, feet = _dists_to_flat_batch(space, origin, v, W)
        subsets = [np.sort(rng.choice(len(W), size, replace=False))
                   for size in (2, 3, 5, 17, 33, 200, len(W) // 2)]
        subsets += [np.arange(len(W) - 2, len(W)), np.arange(33)]
        for sub in subsets:
            ds, fs = _dists_to_flat_batch(space, origin, v, W[sub])
            assert ds.tobytes() == d[sub].tobytes()
            assert fs.tobytes() == feet[sub].tobytes()


@pytest.mark.parametrize("p", [4 / 3, 3.0, 4.0])
@pytest.mark.parametrize("n", [3, 4])
def test_farthest_row_is_the_full_argmax(p, n, monkeypatch):
    from betareif import geometry
    space = NormedSpace(n, p)
    rng = np.random.default_rng(int(3 * p) + 10 * n + 1)
    origin = np.zeros(n)
    newton_rows = []

    def counted(space, M, W, lam):
        newton_rows.append(len(W))
        return _dist_newton_batch(space, M, W, lam)

    monkeypatch.setattr(geometry, "_dist_newton_batch", counted)
    for v, W in _riesz_nets(space, rng):
        d, _ = _dists_to_flat_batch(space, origin, v, W)
        i = int(np.argmax(d))
        newton_rows.clear()
        assert _farthest_row(space, v, W) == (i, d[i])
        assert newton_rows[0] == 32 and sum(newton_rows) < len(W) // 2   # the bound prunes
        # exact ties: a copy of the farthest row before it is the answer,
        # a copy after it is not
        for j in (0, i + 1):
            T = np.insert(W, j, W[i], axis=0)
            assert _farthest_row(space, v, T) == (min(i, j), d[i])
    # a net where every row survives: all rows tie, and the first wins
    v, W = next(_riesz_nets(space, rng))
    T = np.repeat(W[len(W) // 3][None, :], 80, axis=0)
    d, _ = _dists_to_flat_batch(space, origin, v, T)
    newton_rows.clear()
    assert _farthest_row(space, v, T) == (0, d[0])
    assert newton_rows == [32, 80]


# -- Hahn-Banach extension: SLSQP's kernel loop against scipy's minimize ----

def _per_row_extension(space, Wrows, target):
    """`_min_dual_norm_extension`'s SLSQP through scipy's `minimize`, with
    the k equations as k scalar constraints, and scipy's result."""
    from scipy.optimize import minimize
    q, k = space.q, len(Wrows)
    phi0, *_ = np.linalg.lstsq(Wrows, target, rcond=None)
    cons = [{"type": "eq", "fun": lambda phi, j=j: float(Wrows[j] @ phi - target[j]),
             "jac": lambda phi, j=j: Wrows[j]} for j in range(k)]
    obj = lambda phi: float((np.abs(phi) ** q).sum())
    jac = lambda phi: q * np.sign(phi) * np.abs(phi) ** (q - 1.0)
    res = minimize(obj, phi0, jac=jac, method="SLSQP", constraints=cons,
                   options={"maxiter": 500, "ftol": 1e-16})
    return (res.x if res.success else phi0), res, phi0


@pytest.mark.parametrize("q", [4 / 3, 1.5, 3.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stacked_constraint_extension_matches_per_row_constraints(q, k):
    # the kernel loop's workspace sizes depend on n and k: every k < n for
    # n in {3, 4, 5}, the n = 3 bases drawn first; k in {1, 2} also at
    # n in {6, 8}, whose np.vecdot rows are longer than 5
    from betareif.geometry import _min_dual_norm_extension
    rng = np.random.default_rng(int(10 * q) + k)
    statuses = []
    # in (R^n, l^1.5) the Newton line searches of riesz_basis hit their
    # iteration cap for k in {3, 4} (ROADMAP item 4)
    cap_hits = q == 3.0 and k >= 3
    with pytest.warns(RuntimeWarning, match="iteration cap") if cap_hits else nullcontext():
        for n in [*range(max(3, k + 1), 6), *([6, 8] if k <= 2 else [])]:
            space = NormedSpace(n, q / (q - 1.0))
            assert space.q == pytest.approx(q)
            bases = [riesz_basis(space, rng.standard_normal((k, n))) for _ in range(4)]
            bases += [rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
                      for _ in range(2)]
            if (k, n) == (2, 3):      # nearly dependent rows: SLSQP hits maxiter, phi0 stays
                bases.append(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.001]]))
            for W in bases:
                for target in np.eye(k):
                    want, res, phi0 = _per_row_extension(space, W, target)
                    statuses.append(res.status)
                    got = _min_dual_norm_extension(space, W, target)
                    assert got.tobytes() == want.tobytes()
                    if res.status == 9:
                        assert got.tobytes() == phi0.tobytes()
    if k == 2:
        assert 9 in statuses


def test_hahn_banach_projection_runs_without_minimize(monkeypatch):
    # the extension drives SLSQP's kernel itself: neither scipy's minimize
    # nor the SLSQP wrapper behind it is called
    import scipy.optimize
    import scipy.optimize._minimize

    def never(*args, **kwargs):
        raise AssertionError("scipy's minimize was called")

    monkeypatch.setattr(scipy.optimize, "minimize", never)
    monkeypatch.setattr(scipy.optimize._minimize, "_minimize_slsqp", never)
    space = NormedSpace(3, 4)
    basis = np.array([[1.0, 0.2, -0.1], [0.3, 1.0, 0.4]])
    proj = make_projection(space, affine_plane(space, np.zeros(3), basis), "hahn_banach")
    assert proj.kind == "hahn_banach" and proj.report()["residuals"] < 1e-9


# -- Hahn-Banach extension at p in {1, inf}: closed form and dual nearest point

def _lp_extension_norm(q, Wrows, target):
    """min ||phi||_q subject to W phi = target, q in {1, inf}, as the HiGHS
    linear program the extension solved before its exact forms."""
    from scipy.optimize import linprog
    k, n = Wrows.shape
    if q == math.inf:       # variables (phi, s): min s, -s <= phi_j <= s
        A_ub = np.block([[np.eye(n), -np.ones((n, 1))], [-np.eye(n), -np.ones((n, 1))]])
        res = linprog(np.r_[np.zeros(n), 1.0], A_ub=A_ub, b_ub=np.zeros(2 * n),
                      A_eq=np.hstack([Wrows, np.zeros((k, 1))]), b_eq=target,
                      bounds=[(None, None)] * n + [(0, None)], method="highs")
    else:                   # phi = u - v with u, v >= 0: min sum (u + v)
        res = linprog(np.ones(2 * n), A_eq=np.hstack([Wrows, -Wrows]), b_eq=target,
                      bounds=[(0, None)] * 2 * n, method="highs")
    assert res.status == 0
    return float(res.fun)


def _extension_rows(rng, k, n):
    """Full-rank k x n rows: Gaussian, with a zero column, with a 1e-17
    entry, and small integers, whose max-|w| entries tie."""
    out = [rng.standard_normal((k, n)) for _ in range(2)]
    W = rng.standard_normal((k, n))
    W[:, rng.integers(n)] = 0.0
    out.append(W)
    W = rng.standard_normal((k, n))
    W[rng.integers(k), rng.integers(n)] = 1e-17
    out.append(W)
    out += [rng.integers(-2, 3, (k, n)).astype(float) for _ in range(4)]
    return [W for W in out if np.linalg.matrix_rank(W) == k]


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extension_at_p_1_inf_attains_the_lp_optimum(p, n):
    # the closed form (k = 1) and the dual nearest point (k >= 2) reach the
    # LP's optimal dual norm, and meet the equations
    from betareif.geometry import _min_dual_norm_extension
    space = NormedSpace(n, p)
    rng = np.random.default_rng(100 * n + int(p == 1.0))
    cases = 0
    for k in range(1, n):
        for W in _extension_rows(rng, k, n):
            for target in np.eye(k):
                phi = _min_dual_norm_extension(space, W, target)
                want = _lp_extension_norm(space.q, W, target)
                assert abs(space.dual_norm(phi) - want) <= 1e-12 * want
                assert np.abs(W @ phi - target).max() <= 1e-12
                cases += 1
    assert cases >= 6 * n * (n - 1) // 2


@pytest.mark.parametrize("p,w,want", [
    (1.0, [1.0, -6.123233995736766e-17], [1.0, 0.0]),   # a rounding residue is no support
    (math.inf, [1.0, -1.0, 0.5], [0.5, -0.5, 0.0]),    # the max-|w| ties split equally
])
def test_extension_at_p_1_inf_is_the_least_l2_minimizer(p, w, want):
    from betareif.geometry import _min_dual_norm_extension
    space = NormedSpace(len(w), p)
    phi = _min_dual_norm_extension(space, np.array([w]), np.ones(1))
    assert phi.tolist() == want


def test_hahn_banach_projection_runs_without_linprog(monkeypatch):
    # at p in {1, inf} neither the extension nor a distance solves a linear
    # program: distances to 2- and 3-flats, the flat maps and the
    # projections of (R^3, l^p) with k in {1, 2} never call linprog
    import scipy.optimize
    from betareif import geometry

    def never(*args, **kwargs):
        raise AssertionError("linprog was called")

    monkeypatch.setattr(scipy.optimize, "linprog", never)
    rng = np.random.default_rng(5)
    for n, k, p in ((4, 2, 1.0), (4, 2, math.inf), (5, 3, 1.0)):   # the vertex solver
        d, _ = geometry._dists_to_flat_batch(NormedSpace(n, p), np.zeros(n),
                                             rng.standard_normal((k, n)), rng.standard_normal((3, n)))
        assert np.isfinite(d).all()
    basis = np.array([[1.0, 0.2, -0.1], [0.3, 1.0, 0.4]])
    S = snowflake_sample([0.08] * 12, 4, 2200)
    for p in (1.0, math.inf):
        space = NormedSpace(3, p)
        for k in (1, 2):
            V = affine_plane(space, np.zeros(3), basis[:k])
            proj = make_projection(space, V, "hahn_banach")
            assert proj.kind == "hahn_banach" and proj.report()["residuals"] < 1e-12
        stages, rep = reifenberg_flat_map(NormedSpace(2, p), S, 1, chi=1 / 3, delta=0.2,
                                          max_depth=7, pair_count=120)
        assert rep.n_stages == len(stages) == 2
