"""Parametric observation families for regression designs.

Each family models one observation channel p(x, theta) and exposes the
pieces the rest of the pipeline needs: density, score, Fisher
information, the variance-stabilizing antiderivative gamma with
gamma'(theta) = sqrt(fisher(theta)), exact per-point score laws, a
sufficient statistic with its mean map (used by the block kernel), and
exact Hellinger affinities between nearby parameters.

Built-ins: bernoulli, poisson, gaussian_scale, location_normal, plus
location_custom built from a tabulated noise density.  Every family
declares a compact working parameter interval on which the Fisher
information is bounded away from 0 and infinity; regression functions
are expected to live there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DomainError, NumericError, SingularityError
from .laws import AtomLaw, ScaledChi2Law, ScoreLaw, StandardNormalLaw


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------


def _out(out):
    """A map's numpy result as a Python float when it is 0-d."""
    return out if out.ndim else float(out)


def _poisson_pmf(k, mu):
    """Poisson(mu) pmf at integer k >= 0; the same bits as scipy.stats.poisson.pmf."""
    from scipy import special  # on use: no golden or benchmark study takes a Poisson pmf

    return np.exp(special.xlogy(k, mu) - special.gammaln(k + 1) - mu)


# the largest uniform numpy's Generator draws: (2^53 - 1) / 2^53
_U_MAX = 1.0 - 2.0**-53

_FINE, _COARSE = 1024, 512
_NEWTON_STEPS = 20


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n: int):
    """Nodes, increasing, and weights of the n-node Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n finds the roots in [0, 1) from the starts
    cos(pi (k - 1/4) / (n + 1/2)); the negative roots mirror them, so
    the nodes are antisymmetric and the weights symmetric exactly.  The
    weights are 2 / ((1 - x^2) P_n'(x)^2) at the converged nodes.
    """
    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise NumericError(f"Gauss-Legendre rule of {n} nodes: Newton's method did not converge")
    w = 2.0 / ((1.0 - x * x) * _legendre(n, x)[1] ** 2)
    # x decreases from the largest root; an odd n's middle root 0 is kept once
    return np.concatenate([-x, x[::-1][n % 2 :]]), np.concatenate([w, w[::-1][n % 2 :]])


@functools.cache
def _legendre_rules():
    """Nodes of the fine and coarse Gauss-Legendre rules on [-1, 1], then each rule's weights.

    Built on first use, not at import, by `_gauss_legendre` in O(n)
    memory.  numpy's leggauss solves an n x n eigenproblem, which adds
    about 16 MB to the peak resident memory, and scipy's roots_legendre
    loads scipy.linalg for its banded eigensolver, about 6 MB more.
    """
    fine, w_fine = _gauss_legendre(_FINE)
    coarse, w_coarse = _gauss_legendre(_COARSE)
    rules = (np.concatenate([fine, coarse]), w_fine, w_coarse)
    for array in rules:
        array.flags.writeable = False
    return rules


def _rule_nodes(lo: float, hi: float) -> np.ndarray:
    """Both rules' nodes on [lo, hi]: the fine rule's, increasing, then the coarse rule's."""
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * _legendre_rules()[0]


def _quad(name: str, fn, lo: float, hi: float) -> float:
    """Integral of fn over [lo, hi] by the 1024-node Gauss-Legendre rule.

    fn takes an array of nodes and is called once, on the nodes of the
    1024- and 512-node rules together.  The error estimate is the
    distance between the two rules; NumericError unless the value is
    finite and the error at most 1e-7 * max(1, |value|).
    """
    _, w_fine, w_coarse = _legendre_rules()
    half = 0.5 * float(hi - lo)
    vals = np.asarray(fn(_rule_nodes(lo, hi)), dtype=float)
    val = half * float(np.sum(w_fine * vals[:_FINE]))
    err = abs(val - half * float(np.sum(w_coarse * vals[_FINE:])))
    if not (math.isfinite(val) and err <= 1e-7 * max(1.0, abs(val))):
        raise NumericError(f"{name}: quadrature did not converge (err={err:.2e})")
    return float(val)


def _weighted_quad(family: ParametricFamily, theta: float, fn, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of fn(x, p) * p with p = p(x, theta).

    The density at theta is evaluated once per node array: it weights
    the nodes and is passed on to fn.
    """

    def weighted(x):
        p = family.density(x, theta)
        return fn(x, p) * p

    return _quad(family.name, weighted, lo, hi)


@dataclass(frozen=True, eq=False)
class SamplingTable:
    """Checked parameters with the per-point constants of a family's sampler.

    `ParametricFamily.sampling_table` builds one; a design cell builds
    it once, and `sample` on it draws without checking theta again.
    consts is None for every family but Bernoulli, whose sampler needs
    per-point cutoffs.
    """

    family: ParametricFamily
    theta: np.ndarray
    consts: object


class ParametricFamily:
    """One observation channel p(x, theta), theta in an open interval.

    Families implement the underscored maps (`_density`, `_score`, ...)
    on float arrays.  The public maps convert their inputs once, check
    theta in `gamma`, `sampling_table` and `sample` (unless it is given
    a table), and return a Python float for a 0-d result.
    """

    name: str = "abstract"
    theta_interval: tuple[float, float] = (-math.inf, math.inf)
    working_interval: tuple[float, float] = (-math.inf, math.inf)

    # -- parameter checks ---------------------------------------------------

    def require_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        lo, hi = self.theta_interval
        if not np.all((theta > lo) & (theta < hi)):  # NaN fails too
            raise DomainError(
                f"{self.name}: parameter outside the open interval ({lo}, {hi})"
            )
        return theta

    def in_working_interval(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        lo, hi = self.working_interval
        return bool(np.all(theta >= lo) and np.all(theta <= hi))

    # -- core maps ------------------------------------------------------------

    def density(self, x, theta):
        return _out(self._density(np.asarray(x, dtype=float), np.asarray(theta, dtype=float)))

    def score(self, x, theta):
        return _out(self._score(np.asarray(x, dtype=float), np.asarray(theta, dtype=float)))

    def fisher(self, theta):
        return _out(self._fisher(np.asarray(theta, dtype=float)))

    def gamma(self, theta):
        """Antiderivative of sqrt(fisher), in closed form per family."""
        return _out(self._gamma(self.require_theta(theta)))

    def gamma_inverse(self, y):
        return _out(self._gamma_inverse(np.asarray(y, dtype=float)))

    def sampling_table(self, theta) -> SamplingTable:
        """Theta, checked once, with the constants `sample` draws from."""
        theta = self.require_theta(theta)
        return SamplingTable(self, theta, self._sampling_consts(theta))

    def sample(self, theta, rng: np.random.Generator):
        """One observation per entry of theta, or of a table from sampling_table.

        Raw parameters are checked and tabulated first; a table is not
        checked again.
        """
        if not isinstance(theta, SamplingTable):
            theta = self.sampling_table(theta)
        elif theta.family is not self:
            raise ArgumentError(f"{self.name}: sampling table of another family")
        return _out(np.asarray(self._sample(theta, rng), dtype=float))

    def _density(self, x, theta):
        raise NotImplementedError

    def _score(self, x, theta):
        raise NotImplementedError

    def _fisher(self, theta):
        raise NotImplementedError

    def _gamma(self, theta):
        raise NotImplementedError

    def _gamma_inverse(self, y):
        raise NotImplementedError

    def _sampling_consts(self, theta):
        return None

    def _sample(self, table: SamplingTable, rng):
        raise NotImplementedError

    def score_law(self, theta) -> ScoreLaw:
        raise NotImplementedError

    def log_lr_affine(self, theta, u):
        """(a, b) with log p(x, u) - log p(x, theta) = a * score(x, theta) + b.

        None when the log-likelihood ratio is not affine in the score.
        Parameters are not checked here.
        """
        return None

    # -- sufficient statistic and its variance-stabilizing map --------------
    # The defaults are exact for a family whose statistic is the
    # observation itself with mean theta.

    def suff_stat(self, x):
        return np.asarray(x, dtype=float)

    def stat_mean(self, theta):
        return np.asarray(theta, dtype=float)

    def stat_mean_inverse(self, m):
        return np.asarray(m, dtype=float)

    def vst(self, m):
        """Map F on the statistic-mean scale with F(stat_mean(t)) = gamma(t)."""
        return _out(self._vst(np.asarray(m, dtype=float)))

    def _vst(self, m):
        return self._gamma(self.stat_mean_inverse(m))

    # -- expectations --------------------------------------------------------

    def support_atoms(self, theta) -> np.ndarray | None:
        """Enumerated support for discrete families, else None."""
        return None

    def quad_bounds(self, theta) -> tuple[float, float]:
        """Integration window holding all mass above the 1e-22 scale."""
        raise NotImplementedError

    def expect(self, theta, fn) -> float:
        """E_theta fn(X) by exact summation or a fixed Gauss-Legendre rule.

        fn acts on an array of values of X.
        """
        return self._expect_given_density(theta, lambda x, _p: fn(x))

    def _expect_given_density(self, theta, fn) -> float:
        """E_theta fn(X, p(X, theta)): each node's density weights it and is passed on.

        An integrand that also needs p(x, theta) reads it from its second
        argument instead of evaluating the density again.
        """
        theta = float(theta)
        atoms = self.support_atoms(theta)
        if atoms is not None:
            p = self.density(atoms, theta)
            return float(np.sum(fn(atoms, p) * p))
        return _weighted_quad(self, theta, fn, *self.quad_bounds(theta))

    # -- pairwise structure ---------------------------------------------------

    def affinity(self, theta, u):
        """Hellinger affinity: the integral of sqrt(p(x, theta) p(x, u))."""
        return _out(self._affinity(np.asarray(theta, dtype=float), np.asarray(u, dtype=float)))

    def _affinity(self, theta, u):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


class Bernoulli(ParametricFamily):
    """Binary channel: P(X=1) = theta."""

    name = "bernoulli"
    theta_interval = (0.0, 1.0)
    working_interval = (0.05, 0.95)

    def _density(self, x, theta):
        return np.where(x == 1.0, theta, np.where(x == 0.0, 1.0 - theta, 0.0))

    def _score(self, x, theta):
        return (x - theta) / (theta * (1.0 - theta))

    def _fisher(self, theta):
        return 1.0 / (theta * (1.0 - theta))

    def _gamma(self, theta):
        return 2.0 * np.arcsin(np.sqrt(theta))

    def _gamma_inverse(self, y):
        return np.sin(y / 2.0) ** 2

    def _sampling_consts(self, theta):
        # numpy's binomial(1, theta) inverts with p = min(theta, 1 - theta):
        # one uniform u and X = [u > qn], qn = exp(1 * log(1 - p)) in libm,
        # flipped for theta > 1/2.  Its loop draws a second uniform only if
        # u - qn > p qn / (1 - p) in floating point, which rounding keeps
        # monotone in u; a cell where the largest u reaches that stays on
        # rng.binomial (None).
        flip = theta > 0.5
        p = np.where(flip, 1.0 - theta, theta)
        q = 1.0 - p
        cut = np.array([math.exp(math.log(v)) for v in q.ravel().tolist()]).reshape(q.shape)
        if np.any(_U_MAX - cut > p * cut / q):
            return None
        return cut, flip

    def _sample(self, table, rng):
        if table.consts is None:
            return rng.binomial(1, table.theta)
        cut, flip = table.consts
        return (rng.random(cut.shape or None) > cut) ^ flip

    def score_law(self, theta) -> AtomLaw:
        # the law of (X - theta)/(theta (1 - theta)), X ~ Bernoulli(theta)
        theta = float(theta)
        return AtomLaw(
            np.array([-1.0 / (1.0 - theta), 1.0 / theta]), np.array([1.0 - theta, theta])
        )

    def log_lr_affine(self, theta, u):
        # log z = l0 + x D with x = theta + theta (1 - theta) score
        theta = np.asarray(theta, dtype=float)
        h = np.asarray(u, dtype=float) - theta
        l0 = np.log1p(-h / (1.0 - theta))
        d = np.log1p(h / theta) - l0
        return theta * (1.0 - theta) * d, l0 + theta * d

    def _vst(self, m):
        return 2.0 * np.arcsin(np.sqrt(np.clip(m, 0.0, 1.0)))

    def support_atoms(self, theta):
        return np.array([0.0, 1.0])

    def _affinity(self, theta, u):
        return np.sqrt(theta * u) + np.sqrt((1.0 - theta) * (1.0 - u))


class Poisson(ParametricFamily):
    """Counting channel: X ~ Poisson(theta)."""

    name = "poisson"
    theta_interval = (0.0, math.inf)
    working_interval = (0.1, 10.0)

    def _density(self, x, theta):
        return np.where(
            (x >= 0) & (x == np.floor(x)), _poisson_pmf(np.floor(x), theta), 0.0
        )

    def _score(self, x, theta):
        return x / theta - 1.0

    def _fisher(self, theta):
        return 1.0 / theta

    def _gamma(self, theta):
        return 2.0 * np.sqrt(theta)

    def _gamma_inverse(self, y):
        return (y / 2.0) ** 2

    def _sample(self, table, rng):
        return rng.poisson(table.theta)

    def score_law(self, theta) -> "PoissonScoreLaw":
        return PoissonScoreLaw(float(theta))

    def log_lr_affine(self, theta, u):
        # log z = x log(u/theta) - h with x = theta (1 + score)
        theta = np.asarray(theta, dtype=float)
        h = np.asarray(u, dtype=float) - theta
        a = theta * np.log1p(h / theta)
        return a, a - h

    def _vst(self, m):
        return 2.0 * np.sqrt(np.maximum(m, 0.0))

    def support_atoms(self, theta):
        # mean + 20 sigma + margin leaves tail mass far below 1e-22 even
        # for the tilted sums appearing in high-power moment audits
        mu = 1.5 * float(theta)
        cut = int(math.ceil(mu + 20.0 * math.sqrt(mu) + 60.0))
        return np.arange(0.0, cut + 1.0)

    def _affinity(self, theta, u):
        return np.exp(-0.5 * (np.sqrt(theta) - np.sqrt(u)) ** 2)


class PoissonScoreLaw(ScoreLaw):
    """Law of X/theta - 1 for X ~ Poisson(theta); sum laws read its Poisson form."""

    def __init__(self, theta: float):
        self.theta = float(theta)

    def poisson_form(self) -> tuple[float, float, float]:
        return self.theta, 1.0 / self.theta, -1.0

    def second_moment(self) -> float:
        return 1.0 / self.theta


class GaussianScale(ParametricFamily):
    """Scale channel: X ~ N(0, theta^2)."""

    name = "gaussian_scale"
    theta_interval = (0.0, math.inf)
    working_interval = (0.1, 10.0)

    def _density(self, x, theta):
        return np.exp(-0.5 * (x / theta) ** 2) / (np.sqrt(2.0 * np.pi) * theta)

    def _score(self, x, theta):
        return (x * x - theta * theta) / theta**3

    def _fisher(self, theta):
        return 2.0 / theta**2

    def _gamma(self, theta):
        return math.sqrt(2.0) * np.log(theta)

    def _gamma_inverse(self, y):
        return np.exp(y / math.sqrt(2.0))

    def _sample(self, table, rng):
        theta = table.theta
        return theta * rng.standard_normal(theta.shape or None)

    def score_law(self, theta) -> ScaledChi2Law:
        return ScaledChi2Law(float(theta))

    def log_lr_affine(self, theta, u):
        # log z = -log(u/theta) + k x^2/theta^2 with x^2 = theta^2 + theta^3 score
        theta = np.asarray(theta, dtype=float)
        u = np.asarray(u, dtype=float)
        h = u - theta
        k = h * (theta + u) / (2.0 * u * u)
        return theta * k, k - np.log1p(h / theta)

    def suff_stat(self, x):
        x = np.asarray(x, dtype=float)
        return x * x

    def stat_mean(self, theta):
        theta = np.asarray(theta, dtype=float)
        return theta * theta

    def stat_mean_inverse(self, m):
        m = np.asarray(m, dtype=float)
        return np.sqrt(np.maximum(m, 0.0))

    def _vst(self, m):
        return np.log(np.maximum(m, 1e-300)) / math.sqrt(2.0)

    def quad_bounds(self, theta):
        return (-16.0 * theta, 16.0 * theta)

    def _affinity(self, theta, u):
        return np.sqrt(2.0 * theta * u / (theta * theta + u * u))


class LocationNormal(ParametricFamily):
    """Location channel: X ~ N(theta, 1)."""

    name = "location_normal"
    theta_interval = (-math.inf, math.inf)
    working_interval = (-5.0, 5.0)

    def _density(self, x, theta):
        return np.exp(-0.5 * (x - theta) ** 2) / math.sqrt(2.0 * np.pi)

    def _score(self, x, theta):
        return x - theta

    def _fisher(self, theta):
        return np.ones_like(theta)

    def _gamma(self, theta):
        return theta

    def _gamma_inverse(self, y):
        return y

    def _sample(self, table, rng):
        theta = table.theta
        return theta + rng.standard_normal(theta.shape or None)

    def score_law(self, theta) -> StandardNormalLaw:
        return StandardNormalLaw()

    def quad_bounds(self, theta):
        return (theta - 16.0, theta + 16.0)

    def _affinity(self, theta, u):
        return np.exp(-((theta - u) ** 2) / 8.0)


class TabulatedLocation(ParametricFamily):
    """Location channel X = theta + noise with a tabulated noise density.

    The table gives (x, p(x)) on a strictly increasing grid; the density
    is trapezoid-normalized and treated as piecewise linear.  Score,
    Fisher information, sampling, and the score law are all derived from
    the table, so their accuracy is grid-resolution limited.
    """

    name = "location_custom"
    theta_interval = (-math.inf, math.inf)

    def __init__(self, grid, dens, working_interval=(-1.0, 1.0)):
        grid = np.asarray(grid, dtype=float)
        dens = np.asarray(dens, dtype=float)
        if grid.ndim != 1 or grid.size < 8:
            raise ArgumentError("location_custom: need at least 8 grid points")
        if np.any(np.diff(grid) <= 0):
            raise ArgumentError("location_custom: grid must be strictly increasing")
        if np.any(dens < 0) or not np.all(np.isfinite(dens)):
            raise ArgumentError("location_custom: density must be finite nonnegative")
        mass = np.trapezoid(dens, grid)
        if mass <= 0:
            raise ArgumentError("location_custom: density integrates to zero")
        self.grid = grid
        self.dens = dens / mass
        self.working_interval = tuple(working_interval)

        # cell masses on the trapezoid rule, reused for moments and sampling
        cell = 0.5 * (self.dens[1:] + self.dens[:-1]) * np.diff(grid)
        self._cdf = np.concatenate([[0.0], np.cumsum(cell)])
        self._cdf /= self._cdf[-1]

        dp = np.gradient(self.dens, grid)
        safe = np.maximum(self.dens, 1e-12 * self.dens.max())
        score_tab = -dp / safe
        score_tab[self.dens <= 0] = 0.0
        # trapezoid probability weights attached to the grid points
        weights = np.zeros_like(grid)
        half = 0.5 * np.diff(grid)
        weights[:-1] += half * self.dens[:-1]
        weights[1:] += half * self.dens[1:]
        weights /= weights.sum()
        mean_score = float(weights @ score_tab)
        self._score_tab = score_tab - mean_score
        self._info = float(weights @ self._score_tab**2)
        if self._info <= 0:
            raise ArgumentError("location_custom: zero Fisher information")
        self._noise_mean = float(weights @ grid)
        # neither the weights nor the score law depends on theta: one
        # read-only copy of each serves every design point
        self._weights = weights
        self._score_law = AtomLaw.from_unsorted(self._score_tab, weights)
        for arr in (weights, self._score_law.values, self._score_law.probs):
            arr.flags.writeable = False

    @classmethod
    def from_file(cls, path) -> "TabulatedLocation":
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ArgumentError(
                "location_custom: table must have two columns (x, density)"
            )
        return cls(data[:, 0], data[:, 1])

    def _density(self, x, theta):
        return np.interp(x - theta, self.grid, self.dens, left=0.0, right=0.0)

    def _score(self, x, theta):
        return np.interp(x - theta, self.grid, self._score_tab, left=0.0, right=0.0)

    def _fisher(self, theta):
        return np.full_like(theta, self._info)

    def _gamma(self, theta):
        return math.sqrt(self._info) * theta

    def _gamma_inverse(self, y):
        return y / math.sqrt(self._info)

    def _sample(self, table, rng):
        theta = table.theta
        u = rng.random(theta.shape or None)
        noise = np.interp(u, self._cdf, self.grid)
        return theta + noise

    def score_law(self, theta) -> AtomLaw:
        return self._score_law

    def stat_mean(self, theta):
        return np.asarray(theta, dtype=float) + self._noise_mean

    def stat_mean_inverse(self, m):
        return np.asarray(m, dtype=float) - self._noise_mean

    def quad_bounds(self, theta):
        return (self.grid[0] + theta, self.grid[-1] + theta)

    def _expect_given_density(self, theta, fn) -> float:
        theta = float(theta)
        xs = self.grid + theta
        return float(self._weights @ fn(xs, self.density(xs, theta)))

    def _affinity(self, theta, u):
        if theta.ndim or u.ndim:
            tb, ub = np.broadcast_arrays(np.atleast_1d(theta), np.atleast_1d(u))
            return np.array(
                [self.affinity(float(a), float(b)) for a, b in zip(tb, ub)]
            )
        theta_f, u_f = float(theta), float(u)
        lo = min(self.grid[0] + theta_f, self.grid[0] + u_f)
        hi = max(self.grid[-1] + theta_f, self.grid[-1] + u_f)
        xs = np.linspace(lo, hi, 4 * self.grid.size)
        vals = np.sqrt(self.density(xs, theta_f) * self.density(xs, u_f))
        return np.trapezoid(vals, xs)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BUILTINS = {cls.name: cls for cls in (Bernoulli, Poisson, GaussianScale, LocationNormal)}
BUILTIN_FAMILIES = tuple(_BUILTINS)


def get_family(name: str, table_path: str | None = None) -> ParametricFamily:
    """Look a family up by its config name.

    location_custom needs a table_path; an empty one counts as missing.
    Any other family rejects a nonempty table_path.
    """
    custom = TabulatedLocation.name
    if name in _BUILTINS:
        if table_path:
            raise ArgumentError(f"{name} takes no density table; only {custom} does")
        return _BUILTINS[name]()
    if name == custom:
        if not table_path:
            raise ArgumentError(f"{custom} requires a density table file")
        return TabulatedLocation.from_file(table_path)
    raise ArgumentError(
        f"unknown family {name!r}; choose from {'|'.join((*_BUILTINS, custom))}"
    )


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def fisher_info_quadrature(family: ParametricFamily, theta) -> float:
    """Independent numeric Fisher information: E_theta score(X, theta)^2."""
    family.require_theta(theta)
    t = float(np.asarray(theta))
    return family.expect(t, lambda x: np.asarray(family.score(x, t)) ** 2)


def _secant_score(family: ParametricFamily, x, theta: float, u: float, p_theta):
    """Secant score (2/(u-theta))(sqrt(p_u/p_theta) - 1) for checked u != theta.

    p_theta is p(x, theta), which the integrand already holds as the
    nodes' weight.  Quadrature integrands call this on every node array,
    so only the check that depends on x, zero density at theta, runs
    here.
    """
    p_t = np.asarray(p_theta, dtype=float)
    if (p_t <= 0.0).any():
        raise SingularityError(
            f"{family.name}: zero density at the conditioning parameter"
        )
    p_u = np.asarray(family.density(x, u), dtype=float)
    return _out((2.0 / (u - theta)) * (np.sqrt(p_u / p_t) - 1.0))


def _abs_moment(family: ParametricFamily, theta: float, g, power: float) -> float:
    """E_theta |g(X, p(X, theta))|^power for an integrand g on arrays.

    A power that is not an even integer puts a kink in |g|^power at
    every root of g, which one Gauss-Legendre rule does not resolve.  So
    the window is cut at the sign changes of g on the rule's nodes, each
    refined by two false-position steps, and the panels between them
    are summed.  Atom families and location_custom keep their exact
    sums.
    """
    theta = float(theta)

    def moment(x, p):
        return np.abs(np.asarray(g(x, p), dtype=float)) ** power

    if family.support_atoms(theta) is not None or isinstance(family, TabulatedLocation):
        return family._expect_given_density(theta, moment)

    def g_at(x):
        return np.asarray(g(x, family.density(x, theta)), dtype=float)

    lo, hi = family.quad_bounds(theta)
    x = _rule_nodes(lo, hi)[:_FINE]
    gx = g_at(x)
    cross = np.flatnonzero(np.signbit(gx[:-1]) != np.signbit(gx[1:]))
    a, b, ga, gb = x[cross], x[cross + 1], gx[cross], gx[cross + 1]
    for _ in range(2):
        c = b - gb * (b - a) / (gb - ga)
        gc = g_at(c)
        left = np.signbit(gc) == np.signbit(ga)
        a, ga = np.where(left, c, a), np.where(left, gc, ga)
        b, gb = np.where(left, b, c), np.where(left, gb, gc)
    cuts = [lo, *c, hi]
    return sum(
        _weighted_quad(family, theta, moment, s, t) for s, t in zip(cuts[:-1], cuts[1:])
    )


def _secant_moment(family: ParametricFamily, theta: float, u: float, power: float) -> float:
    """E_theta |secant score|^power for checked u != theta."""
    return _abs_moment(
        family, theta, lambda x, p: _secant_score(family, x, theta, u, p), power
    )


@dataclass(frozen=True)
class RegularityReport:
    """Grid estimates of the three family-regularity supremum conditions.

    These are audits over a finite pair grid, not certificates: r1 is
    the scaled L2 remainder of sqrt-density differentiability, r2 the
    2*delta_r2 moment of the secant score, r3 the Fisher range.
    """

    r1_sup_estimate: float
    r2_sup_estimate: float
    r3_bounds: tuple[float, float]
    pair_count: int
    insufficient_pairs: bool
    pass_flags: dict = field(default_factory=dict)

    def all_pass(self) -> bool:
        return all(self.pass_flags.values())


def default_delta_r1(beta: float) -> float:
    """Midpoint of the admissible exponent range (1/(2 beta), 1)."""
    return 0.5 * (1.0 / (2.0 * beta) + 1.0)


def default_delta_r2(beta: float) -> float:
    """Half a unit above the admissible threshold (2b+1)/(2b-1)."""
    return (2.0 * beta + 1.0) / (2.0 * beta - 1.0) + 0.5


def _r1_remainder(family: ParametricFamily, theta: float, u: float) -> float:
    """L2 norm of sqrt(p_u) - sqrt(p_theta) - (u-theta) * half-score * sqrt(p_theta)."""
    d = u - theta

    def integrand(x):
        p_t = np.asarray(family.density(x, theta), dtype=float)
        p_u = np.asarray(family.density(x, u), dtype=float)
        s_dot = 0.5 * np.asarray(family.score(x, theta), dtype=float) * np.sqrt(p_t)
        return (np.sqrt(p_u) - np.sqrt(p_t) - d * s_dot) ** 2

    atoms = family.support_atoms(theta)
    lo1, hi1 = (0.0, 0.0) if atoms is not None else family.quad_bounds(theta)
    if atoms is not None:
        total = float(np.sum(integrand(atoms)))
    elif isinstance(family, TabulatedLocation):
        # piecewise-linear density: dense trapezoid avoids kink trouble
        lo2, hi2 = family.quad_bounds(u)
        xs = np.linspace(min(lo1, lo2), max(hi1, hi2), 8 * family.grid.size)
        total = float(np.trapezoid(integrand(xs), xs))
    else:
        lo2, hi2 = family.quad_bounds(u)
        total = _quad(family.name, integrand, min(lo1, lo2), max(hi1, hi2))
    return math.sqrt(max(total, 0.0))


def check_regularity(
    family: ParametricFamily,
    grid,
    epsilon: float,
    beta: float,
) -> RegularityReport:
    """Estimate the regularity suprema over a finite (theta, u) pair grid.

    For each grid theta, partners u = theta +- epsilon * {1, 1/2, 1/4}
    are used; a partner outside the open parameter interval, or equal
    to theta, is dropped.  Estimates are maxima over the realized pairs.
    The exponents are default_delta_r1(beta) and default_delta_r2(beta).
    The grid is checked once here, so the integrands skip the checks.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ArgumentError("check_regularity: empty parameter grid")
    if not 0 <= epsilon < math.inf:
        raise ArgumentError("check_regularity: epsilon must be nonnegative and finite")
    if not 0.5 < beta < math.inf:
        raise ArgumentError("check_regularity: beta must be finite and exceed 1/2")
    family.require_theta(grid)
    d1 = default_delta_r1(beta)
    d2 = default_delta_r2(beta)

    lo, hi = family.theta_interval
    pairs: list[tuple[float, float]] = []
    for theta in grid:
        for frac in (1.0, 0.5, 0.25):
            for sign in (-1.0, 1.0):
                u = float(theta + sign * frac * epsilon)
                if lo < u < hi and u != theta:
                    pairs.append((float(theta), u))

    r1_sup = 0.0
    r2_sup = 0.0
    for theta, u in pairs:
        rem = _r1_remainder(family, theta, u)
        r1_sup = max(r1_sup, rem / abs(u - theta) ** (1.0 + d1))
        r2_sup = max(r2_sup, _secant_moment(family, theta, u, 2.0 * d2))
    for theta in grid:
        # the u = theta member of the pair family: plain score moment
        moment = _abs_moment(family, theta, lambda x, _p, t=theta: family.score(x, t), 2.0 * d2)
        r2_sup = max(r2_sup, moment)

    fish = np.asarray(family.fisher(grid), dtype=float)
    r3 = (float(fish.min()), float(fish.max()))
    insufficient = len(pairs) == 0
    flags = {
        "r1": (not insufficient) and math.isfinite(r1_sup),
        "r2": (not insufficient) and math.isfinite(r2_sup),
        "r3": r3[0] > 0.0 and math.isfinite(r3[1]),
    }
    return RegularityReport(
        r1_sup_estimate=r1_sup,
        r2_sup_estimate=r2_sup,
        r3_bounds=r3,
        pair_count=len(pairs),
        insufficient_pairs=insufficient,
        pass_flags=flags,
    )
