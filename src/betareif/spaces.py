"""Finite-dimensional l^p spaces: norms, duality maps, moduli of smoothness.

The exponent p lives in [1, inf]; ``math.inf`` is stored exactly so the
norm branches (p == 1, p == 2, p == inf) are exact, never float-fuzzy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; load it here, with the package,
# so that no call of the engine pays for the import
import numpy.random

__all__ = ["NormedSpace", "Functional", "hilbert_modulus"]


def hilbert_modulus(t: float) -> float:
    """Exact modulus of smoothness of a Hilbert space, sqrt(1+t^2) - 1."""
    return math.sqrt(1.0 + t * t) - 1.0


def _reduce_last(ufunc, A):
    """ufunc.reduce(A, axis=-1), one column at a time below 8 columns.

    numpy adds fewer than 8 terms in order, so the column loop gives its
    bits; from 8 terms it sums pairwise, so wider arrays keep the
    reduction.  Maxima are exact in any order.  A 1-D A gives a numpy
    scalar, as the reduction does: a power of a 0-d array can differ by
    an ulp from the same power of a scalar."""
    n = A.shape[-1]
    if not 0 < n < 8:
        return ufunc.reduce(A, axis=-1)
    s = A[..., 0].copy()
    for j in range(1, n):
        ufunc(s, A[..., j], out=s)
    return s[()]


@dataclass(frozen=True)
class Functional:
    """A dual vector acting by the standard pairing <phi, x> = sum phi_i x_i."""

    coefficients: np.ndarray
    dual_norm: float

    def __call__(self, x) -> float:
        return float(np.dot(self.coefficients, np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class NormedSpace:
    """R^dim with the l^p norm.  p = 2 is the Hilbert case."""

    dim: int
    p: float

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not (self.p >= 1.0):
            raise ValueError(f"p must satisfy p >= 1 or p = inf, got {self.p}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "p", float(self.p))

    @property
    def is_hilbert(self) -> bool:
        return self.p == 2.0

    @property
    def q(self) -> float:
        """Dual exponent, 1/p + 1/q = 1."""
        if self.p == math.inf:
            return 1.0
        if self.p == 1.0:
            return math.inf
        return self.p / (self.p - 1.0)

    # -- norms ---------------------------------------------------------

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"vector of length {x.shape[-1]} in a dim-{self.dim} space")
        return x

    def norm(self, x) -> float:
        return float(self.norms(self._check(x)[None, :])[0])

    def norms(self, X) -> np.ndarray:
        """l^p norms along the last axis of X.  General exponents rescale
        by the max entry first, so tiny/huge vectors neither underflow nor
        overflow in the power sum.

        Sums and maxima run column by column (`_reduce_last`): numpy is
        slow at reducing a last axis of a few entries, and below 8 terms
        it adds them in order, so the columns give the same bits."""
        X = np.asarray(X, dtype=float)
        if self.p == math.inf:
            return _reduce_last(np.maximum, np.abs(X))
        if self.p == 1.0:
            return _reduce_last(np.add, np.abs(X))
        if self.p == 2.0:
            return np.sqrt(_reduce_last(np.add, X * X))
        A = np.abs(X)
        m = _reduce_last(np.maximum, A)
        safe = np.where(m > 0, m, 1.0)
        return m * _reduce_last(np.add, (A / safe[..., None]) ** self.p) ** (1.0 / self.p)

    def dual_norm(self, phi) -> float:
        return float(self.dual_norms(phi))

    def dual_norms(self, Phi) -> np.ndarray:
        """l^q norms (q the dual exponent) along the last axis of Phi."""
        q = self.q
        A = np.abs(np.asarray(Phi, dtype=float))
        if q == math.inf:
            return _reduce_last(np.maximum, A)
        if q == 1.0:
            return _reduce_last(np.add, A)
        return _reduce_last(np.add, A ** q) ** (1.0 / q)

    # -- duality map ----------------------------------------------------

    def duality_map(self, x) -> Functional:
        """The normalized duality map J with ||J(x)||_q = ||x|| and <J(x),x> = ||x||^2.

        For 1 < p < inf, J(x) = ||x||^(2-p) * sign(x)|x|^(p-1) and is unique.
        For p = 1 the sign-vector formula is used with sign(0) = 0 (J is not
        unique on l^1; this is the symmetric selection).  p = inf is rejected.
        """
        x = self._check(x)
        if self.p == math.inf:
            raise ValueError("duality map is not available for p = inf")
        nx = self.norm(x)
        if nx == 0.0:
            coeffs = np.zeros(self.dim)
            return Functional(coeffs, 0.0)
        if self.p == 1.0:
            coeffs = nx * np.sign(x)
        elif self.p == 2.0:
            coeffs = x.copy()
        else:
            coeffs = nx ** (2.0 - self.p) * np.sign(x) * np.abs(x) ** (self.p - 1.0)
        return Functional(coeffs, self.dual_norm(coeffs))

    # -- modulus of smoothness -------------------------------------------

    def modulus_smoothness_bound(self, t: float) -> float:
        """Analytic upper bound for rho_X(t).

        Exact sqrt(1+t^2)-1 in the Hilbert case; t^p/p for 1 < p <= 2;
        (p-1)t^2 for p > 2; the triangle-inequality bound t for p in {1, inf}.
        """
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t == 0.0:
            return 0.0
        if self.p == 2.0:
            return hilbert_modulus(t)
        if self.p == 1.0 or self.p == math.inf:
            return float(t)
        if self.p < 2.0:
            return float(t ** self.p / self.p)
        return float((self.p - 1.0) * t * t)

    def _structured_pairs(self, t: float):
        """Deterministic seed pairs: axis pairs (attain the sup for p <= 2)
        and two-coordinate diagonal pairs (attain it for p >= 2)."""
        n = self.dim
        pairs = []
        e = np.eye(n)
        for i in range(min(n, 4)):
            for j in range(min(n, 4)):
                if i == j:
                    continue
                pairs.append((e[i], t * e[j]))
                d1 = e[i] + e[j]
                d2 = e[i] - e[j]
                pairs.append((d1 / self.norm(d1), t * d2 / self.norm(d2)))
                pairs.append((d1 / self.norm(d1), t * e[j]))
        if n == 1:
            pairs.append((e[0], t * e[0]))
        return pairs

    def modulus_smoothness_empirical(self, t: float, samples: int, seed: int) -> float:
        """Empirical rho_X(t): max of (||x+y|| + ||x-y||)/2 - 1 over unit x
        and ||y|| = t, on a deterministic seed set plus `samples` seeded
        random pairs.

        The objective is even in y, so every sampled pair carries its
        antipode implicitly.  Deterministic given (t, samples, seed).
        """
        if t <= 0:
            raise ValueError("t must be positive")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        best = 0.0
        for x, y in self._structured_pairs(t):
            best = max(best, (self.norm(x + y) + self.norm(x - y)) / 2.0 - 1.0)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((samples, self.dim))
        Y = rng.standard_normal((samples, self.dim))
        nx = self.norms(X)
        ny = self.norms(Y)
        ok = (nx > 1e-12) & (ny > 1e-12)
        X = X[ok] / nx[ok, None]
        Y = t * Y[ok] / ny[ok, None]
        if len(X):
            vals = (self.norms(X + Y) + self.norms(X - Y)) / 2.0 - 1.0
            best = max(best, float(vals.max()))
        return min(best, t)   # triangle-inequality cap; guards float noise

    def smoothness_power(self) -> float:
        """Critical exponent alpha: 2 for p >= 2 (incl. Hilbert), p for
        1 < p < 2, and 1 for p in {1, inf}."""
        if self.p == 1.0 or self.p == math.inf:
            return 1.0
        if self.p >= 2.0:
            return 2.0
        return self.p

    # -- serialization -----------------------------------------------------

    def to_descriptor(self) -> dict:
        p = "inf" if self.p == math.inf else self.p
        return {"dim": self.dim, "norm": {"type": "lp", "p": p}}

    @classmethod
    def from_descriptor(cls, d: dict) -> "NormedSpace":
        """The space of a descriptor {"dim": int, "norm": {"type": "lp",
        "p": number or "inf"}}; ValueError (KeyError for a missing "dim")
        on any other shape."""
        if not isinstance(d, dict):
            raise ValueError("space descriptor must be an object")
        norm = d.get("norm", {})
        if not isinstance(norm, dict) or norm.get("type") != "lp":
            raise ValueError('norm must be {"type": "lp", "p": ...}')
        dim = d["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        p = norm.get("p")
        return cls(dim=dim, p=math.inf if p == "inf" else real_number(p, "p"))


def real_number(v, what: str) -> float:
    """v as a float when it is a JSON number (booleans excluded), else
    ValueError naming `what`."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be a number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{what} is out of range") from None
