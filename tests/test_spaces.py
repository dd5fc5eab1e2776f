import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betareif.spaces import NormedSpace, hilbert_modulus

P_VALUES = [1.0, 1.5, 2.0, 3.0, 4.0, math.inf]


def vec(draw_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(draw_dim)


def test_norm_closed_forms():
    assert NormedSpace(3, 4).norm([1, 1, 0]) == pytest.approx(2 ** 0.25, abs=1e-14)
    assert NormedSpace(2, math.inf).norm([3, -5]) == 5.0
    assert NormedSpace(3, 1).norm([1, 1, 1]) == 3.0


def test_norm_zero_iff_zero():
    s = NormedSpace(3, 1.7)
    assert s.norm([0, 0, 0]) == 0.0
    assert s.norm([0, 1e-300, 0]) > 0.0


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        NormedSpace(3, 2).norm([1, 2])


def test_space_validation():
    with pytest.raises(ValueError):
        NormedSpace(0, 2)
    with pytest.raises(ValueError):
        NormedSpace(2, 0.5)


@pytest.mark.parametrize("p", P_VALUES)
def test_norm_axioms_random(p):
    s = NormedSpace(4, p)
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        c = rng.standard_normal()
        nx, ny = s.norm(x), s.norm(y)
        assert s.norm(x + y) <= nx + ny + 1e-12
        assert abs(s.norm(x + y) - nx - ny) <= 2 * min(nx, ny) + 1e-12
        assert s.norm(c * x) == pytest.approx(abs(c) * nx, rel=1e-12, abs=1e-15)


def test_duality_map_hilbert_is_identity():
    s = NormedSpace(4, 2)
    x = vec(4, 3)
    assert np.allclose(s.duality_map(x), x)


def test_duality_map_unit_coordinate_fixed():
    for p in (1.5, 2.0, 3.0):
        s = NormedSpace(4, p)
        e = np.zeros(4)
        e[0] = 1.0
        assert np.allclose(s.duality_map(e), e, atol=1e-14)


def test_duality_map_l1_sign_formula():
    f = NormedSpace(2, 1).duality_map([2, -3])
    assert np.allclose(f, [5, -5])
    g = NormedSpace(3, 1).duality_map([2, 0, -3])
    assert g[1] == 0.0   # sign(0) = 0 selection


def test_duality_map_rejects_linf():
    with pytest.raises(ValueError):
        NormedSpace(2, math.inf).duality_map([1, 0])


@pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0, 2.5, 4.0])
def test_duality_identities_random(p):
    s = NormedSpace(5, p)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(5) * np.exp(rng.uniform(-3, 3))
        J = s.duality_map(x)
        nx = s.norm(x)
        assert float(np.dot(J, x)) == pytest.approx(nx * nx, rel=1e-10)
        assert s.dual_norm(J) == pytest.approx(nx, rel=1e-10)


E1 = np.array([1.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p,t", [(4.0, 1e300), (4.0, 1e-300), (1.5, 1e-120)])
def test_dual_norm_of_a_huge_or_tiny_vector(p, t):
    # the power sum over- or underflows; the rescaled row does not
    assert NormedSpace(3, p).dual_norm(t * E1) == t


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e200, 1e-200])
def test_duality_map_of_a_huge_or_tiny_vector(t):
    # ||x||^(2-p) or |x|^(p-1) over- or underflows at p = 4; J(t e1) = t e1
    J = NormedSpace(3, 4.0).duality_map(t * E1)
    assert J.tobytes() == (t * E1).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9])
def test_rows_of_a_stack_have_the_bits_of_the_row_alone(p, n):
    # C-ordered stacks of 1-300 rows, with zero rows and rows of 1e-200 to
    # 1e200, which take the rescaled path
    space = NormedSpace(n, p)
    rng = np.random.default_rng(n)
    for m in (1, 2, 7, 300):
        A = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-200, 201, (m, 1))
        A[rng.random(m) < 0.1] = 0.0
        A[m // 2] = 0.0
        got = space.dual_norms(A)
        assert got.tobytes() == np.array([space.dual_norms(a) for a in A]).tobytes()
        if p != math.inf:
            J = space.duality_map(A)
            assert J.shape == A.shape
            assert J.tobytes() == np.array([space.duality_map(a) for a in A]).tobytes()


@pytest.mark.parametrize("p", [1.3, 1.5, 3.0, 4.0])
def test_duality_map_keeps_the_single_vector_formula(p):
    # J of one vector as it was computed before J took stacks: a Python
    # float power for ||x||^(2-p), which a numpy array power can miss by an ulp
    s = NormedSpace(5, p)
    X = np.random.default_rng(6).standard_normal((300, 5))
    old = [s.norm(x) ** (2.0 - p) * np.sign(x) * np.abs(x) ** (p - 1.0) for x in X]
    assert s.duality_map(X).tobytes() == np.array(old).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
def test_dual_side_is_homogeneous_across_the_float_range(p):
    # exact powers of two keep a row's direction, so scaling by 2^e scales
    # ||a||_q and J(a) by 2^e up to rounding, rescaled or not.  The direct
    # root S^(1/q) carries the rounding of 1/q times |ln S|, up to 709, so
    # an unrescaled row is within 1e-13, not a few ulps.  At 2^-349 and
    # p = 4, |a_i|^3 is subnormal while J(a) is a normal number
    space = NormedSpace(3, p)
    A = np.random.default_rng(4).standard_normal((50, 3))
    d, J = space.dual_norms(A), space.duality_map(A)
    for e in (-1000, -600, -349, -300, 300, 600, 1000):
        np.testing.assert_allclose(space.dual_norms(2.0 ** e * A), 2.0 ** e * d, rtol=1e-13)
        np.testing.assert_allclose(space.duality_map(2.0 ** e * A), 2.0 ** e * J,
                                   rtol=1e-13, atol=0.0)


def test_modulus_bound_branches():
    assert NormedSpace(2, 2).modulus_smoothness_bound(1.0) == pytest.approx(2**0.5 - 1)
    assert NormedSpace(2, 3).modulus_smoothness_bound(0.0) == 0.0
    assert NormedSpace(2, 1.5).modulus_smoothness_bound(0.1) == pytest.approx((2 / 3) * 0.1**1.5)
    assert NormedSpace(2, 1).modulus_smoothness_bound(0.2) == 0.2
    assert NormedSpace(2, math.inf).modulus_smoothness_bound(0.2) == 0.2
    assert NormedSpace(2, 4).modulus_smoothness_bound(0.1) == pytest.approx(3 * 0.01)


def test_empirical_modulus_hilbert_exact():
    s = NormedSpace(2, 2)
    got = s.modulus_smoothness_empirical(0.5, 10000, 7)
    assert got == pytest.approx(math.sqrt(1.25) - 1, abs=1e-6)


def test_empirical_modulus_linf_attains_t():
    s = NormedSpace(2, math.inf)
    got = s.modulus_smoothness_empirical(0.5, 10000, 7)
    assert got == pytest.approx(0.5, abs=1e-3)


def test_empirical_modulus_single_sample_in_range():
    s = NormedSpace(3, 2.5)
    got = s.modulus_smoothness_empirical(0.3, 1, 0)
    assert 0.0 <= got <= 0.3


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("t", [0.05, 0.2, 0.5])
def test_empirical_below_bound_above_hilbert(p, t):
    s = NormedSpace(3, p)
    emp = s.modulus_smoothness_empirical(t, 4000, 3)
    assert emp <= min(t, s.modulus_smoothness_bound(t) * (1 + 1e-6) + 1e-9)
    # every Banach space is at least as rough as Hilbert
    assert emp >= hilbert_modulus(t) - 1e-6


def test_smoothness_power_table():
    assert NormedSpace(2, 2).smoothness_power() == 2.0
    assert NormedSpace(2, 1.5).smoothness_power() == 1.5
    assert NormedSpace(2, math.inf).smoothness_power() == 1.0
    assert NormedSpace(2, 1).smoothness_power() == 1.0
    assert NormedSpace(2, 7).smoothness_power() == 2.0


@pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 3.0, 5.0])
def test_duality_map_effective_continuity(p):
    # ||J(x)-J(y)||_q <= 8 R rho(4||x-y||/R) / (4||x-y||/R)
    s = NormedSpace(3, p)
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = rng.standard_normal(3)
        x /= max(s.norm(x), 1.0)
        y = rng.standard_normal(3)
        y /= max(s.norm(y), 1.0)
        dxy = s.norm(x - y)
        if dxy < 1e-9:
            continue
        R = math.sqrt((s.norm(x) ** 2 + s.norm(y) ** 2) / 2)
        if R < 1e-9:
            continue
        lhs = s.dual_norm(s.duality_map(x) - s.duality_map(y))
        t = 4 * dxy / R
        rhs = 8 * R * s.modulus_smoothness_bound(t) / t
        assert lhs <= rhs * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_triangle_inequality_property(seed, p):
    s = NormedSpace(4, p)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    assert s.norm(x + y) <= s.norm(x) + s.norm(y) + 1e-12


def test_descriptor_roundtrip():
    for p in (2.0, 1.5, math.inf):
        s = NormedSpace(3, p)
        assert NormedSpace.from_descriptor(s.to_descriptor()) == s


# The reductions norms and dual_norms used before they summed column by
# column, kept as the oracle; the l^q root of dual_norms is taken one
# element at a time, as numpy's scalar power.
def _old_norms(p, X):
    X = np.asarray(X, dtype=float)
    if p == math.inf:
        return np.abs(X).max(axis=-1)
    if p == 1.0:
        return np.abs(X).sum(axis=-1)
    if p == 2.0:
        return np.sqrt((X * X).sum(axis=-1))
    A = np.abs(X)
    m = A.max(axis=-1)
    safe = np.where(m > 0, m, 1.0)
    return m * ((A / safe[..., None]) ** p).sum(axis=-1) ** (1.0 / p)


def _old_dual_norms(q, Phi):
    A = np.abs(np.asarray(Phi, dtype=float))
    if q == math.inf:
        return A.max(axis=-1)
    if q == 1.0:
        return A.sum(axis=-1)
    S = (A ** q).sum(axis=-1)
    return np.array([t ** (1.0 / q) for t in np.ravel(S)]).reshape(np.shape(S))[()]


def _norm_inputs(n, seed):
    """1-D, (1, n), (m, n) and 3-D tables, with zero rows, mixed scales,
    a Fortran-ordered copy and negative-stride views."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((37, n)) * 10.0 ** rng.integers(-8, 9, (37, 1))
    M[[3, 17]] = 0.0
    M[5, 0] = -0.0
    T = rng.standard_normal((5, 7, n))
    return [M[0], M[3], M[1:2], M, T, np.asfortranarray(M), M[::-1, ::-1],
            T[:, ::-2], np.asfortranarray(T)[::-1]]


@pytest.mark.parametrize("p", [1.0, 4 / 3, 1.5, 2.0, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("n", range(1, 10))
def test_columnwise_norms_match_axis_reductions(p, n):
    space = NormedSpace(n, p)
    for seed in range(3):
        for X in _norm_inputs(n, seed):
            for new, old in ((space.norms(X), _old_norms(p, X)),
                             (space.dual_norms(X), _old_dual_norms(space.q, X))):
                assert type(new) is type(old)
                assert np.shape(new) == np.shape(old)
                assert np.asarray(new).tobytes() == np.asarray(old).tobytes()
    x = _norm_inputs(n, 0)[0]
    assert isinstance(space.norms(x), np.float64)
    assert space.norm(x) == float(_old_norms(p, x[None, :])[0])
