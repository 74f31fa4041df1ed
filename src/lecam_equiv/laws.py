"""Distribution objects for per-observation score variables.

Each regression design point i carries the law of the score
l_dot(X_i, theta_i) under X_i ~ p(., theta_i).  The sum-law build and
the bounded-score truncation need three things from such a law: exact
low-order moments (plain and clipped), a log characteristic function
for building laws of weighted sums, and, where the support is finite,
its atoms.  `is_gaussian` marks the standard normal law, whose weighted
sums need no FFT.  Discrete families get exact atom enumeration; the
continuous built-ins get closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, TruncationConstantError


class ScoreLaw:
    """Interface for the law of a single score variable (mean zero)."""

    is_gaussian: bool = False

    def atoms(self) -> "AtomLaw | None":
        """Finite-support representation when one exists."""
        return None

    def second_moment(self) -> float:
        raise NotImplementedError

    def log_cf(self, omega):
        """log E exp(i omega xi) on an array of angular frequencies.

        Returned in real arithmetic as (log modulus, phase): two arrays
        shaped like omega.  The phase need not be reduced to (-pi, pi].
        """
        raise NotImplementedError

    def clipped_moments(self, k: float) -> tuple[float, float, float]:
        """(E xi 1{|xi|<=k}, E xi^2 1{|xi|<=k}, P(|xi|<=k))."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class AtomLaw(ScoreLaw):
    """Finite-support law given by sorted atoms and their probabilities."""

    values: np.ndarray
    probs: np.ndarray

    @staticmethod
    def from_unsorted(values, probs) -> "AtomLaw":
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        order = np.argsort(values, kind="stable")
        return AtomLaw(values[order], probs[order])

    def atoms(self) -> "AtomLaw":
        return self

    def second_moment(self) -> float:
        return float(np.dot(self.probs, self.values**2))

    def log_cf(self, omega):
        arg = np.outer(np.asarray(omega, dtype=float), self.values)
        # a fixed-order sum per row, so a row's bits do not depend on the
        # other rows in the call or on the BLAS thread count
        re = np.sum(np.cos(arg) * self.probs, axis=-1)
        im = np.sum(np.sin(arg) * self.probs, axis=-1)
        # the modulus can vanish where atoms cancel: floor it at 1e-300
        return np.log(np.maximum(np.hypot(re, im), 1e-300)), np.arctan2(im, re)

    def clipped_moments(self, k: float) -> tuple[float, float, float]:
        inside = np.abs(self.values) <= k
        p = self.probs[inside]
        v = self.values[inside]
        return float(p @ v), float(p @ v**2), float(p.sum())


@dataclass(frozen=True, eq=False)
class StandardNormalLaw(ScoreLaw):
    """Score law of the unit-information Gaussian location family."""

    is_gaussian: bool = True

    def second_moment(self) -> float:
        return 1.0

    def log_cf(self, omega):
        omega = np.asarray(omega, dtype=float)
        return -0.5 * omega**2, np.zeros_like(omega)

    def clipped_moments(self, k: float) -> tuple[float, float, float]:
        from scipy import special  # on use: no golden or benchmark study truncates scores

        # E xi^2 1{|xi|>k} = 2*(k*phi(k) + 1 - Phi(k)) for the standard normal
        phi_k = np.exp(-0.5 * k * k) / np.sqrt(2.0 * np.pi)
        tail = float(special.ndtr(-k))
        m2_out = 2.0 * (k * phi_k + tail)
        return 0.0, 1.0 - m2_out, 1.0 - 2.0 * tail


@dataclass(frozen=True, eq=False)
class ScaledChi2Law(ScoreLaw):
    """Law of (W - 1)/theta with W ~ chi-square(1).

    This is the score law of the Gaussian scale family at parameter
    theta; its second moment is 2/theta^2.
    """

    theta: float

    def second_moment(self) -> float:
        return 2.0 / self.theta**2

    def log_cf(self, omega):
        # cf = (1 - 2it)^(-1/2) exp(-it) with t = omega/theta
        t = np.asarray(omega, dtype=float) / self.theta
        return -0.25 * np.log1p(4.0 * t * t), 0.5 * np.arctan(2.0 * t) - t

    def clipped_moments(self, k: float) -> tuple[float, float, float]:
        from scipy import special  # on use: no golden or benchmark study truncates scores

        # |xi| <= k maps to W in [max(0, 1-theta*k), 1+theta*k]
        lo = max(0.0, 1.0 - self.theta * k)
        hi = 1.0 + self.theta * k
        # chi2(1) partial moments: E W 1{W<=w} = F_3(w), E W^2 1{W<=w} = 3 F_5(w)
        p_in = special.chdtr(1, hi) - special.chdtr(1, lo)
        ew = special.chdtr(3, hi) - special.chdtr(3, lo)
        ew2 = 3.0 * (special.chdtr(5, hi) - special.chdtr(5, lo))
        m1 = (ew - p_in) / self.theta
        m2 = (ew2 - 2.0 * ew + p_in) / self.theta**2
        return float(m1), float(m2), float(p_in)


@dataclass(frozen=True)
class TruncationParams:
    """Bounded-score modification parameters for one design point.

    clip_level: scores are zeroed outside [-clip_level, clip_level];
    clip_mean: mean of the zeroed-out score (subtracted to recenter);
    x_n: kick magnitude; p: probability of each of the +-x_n kicks.
    """

    clip_level: float
    clip_mean: float
    x_n: float
    p: float


def truncation_params(
    law: ScoreLaw, clip_level: float, c1: float, target_second_moment: float | None = None
) -> TruncationParams:
    """Clipping plus three-point-kick parameters restoring the variance.

    target_second_moment overrides the law's own second moment as the
    variance to restore (used when an exact analytic value is available).
    """
    m1, m2, p_in = law.clipped_moments(clip_level)
    if p_in >= 1.0 - 1e-14:
        # nothing is clipped: the law is mean zero, so the modification
        # must reduce to the identity map exactly
        m1, e_eta2 = 0.0, m2
    else:
        e_eta2 = m2 - m1 * m1
    total = law.second_moment() if target_second_moment is None else target_second_moment
    v2 = max(total - e_eta2, 0.0)
    if v2 <= 1e-13 * max(total, 1.0):
        v2 = 0.0
    x_n = c1 * clip_level
    p = 0.5 * v2 / x_n**2 if x_n > 0 else (0.0 if v2 == 0.0 else np.inf)
    if p > 0.5:
        needed = 1.05 * np.sqrt(v2) / clip_level
        raise TruncationConstantError(
            f"kick probability {p:.4g} exceeds 1/2; "
            f"increase the kick constant to at least {needed:.4g}",
            suggested_c1=float(needed),
        )
    return TruncationParams(clip_level, m1, x_n, p)


def apply_truncation(xi, clip_level, clip_mean, p, x_n, rng: np.random.Generator):
    """Realize the bounded modification on sampled raw scores.

    clip_mean and the kick probability p may be per-point arrays; every
    parameter broadcasts against xi.
    """
    eta = np.where(np.abs(xi) <= clip_level, xi, 0.0) - clip_mean
    u = rng.random(np.shape(xi))
    kick = np.where(u < p, x_n, 0.0)
    kick = np.where(u >= 1.0 - p, -x_n, kick)
    return eta + kick


class TruncatedLaw(ScoreLaw):
    """Law of the recentered clipped score plus the three-point kick."""

    def __init__(self, base: ScoreLaw, params: TruncationParams):
        self.base = base
        self.params = params
        self._atoms: AtomLaw | None = None
        base_atoms = base.atoms()
        if base_atoms is not None:
            self._atoms = self._build_atoms(base_atoms, params)

    @staticmethod
    def _build_atoms(base: AtomLaw, tp: TruncationParams) -> AtomLaw:
        eta_vals = (
            np.where(np.abs(base.values) <= tp.clip_level, base.values, 0.0)
            - tp.clip_mean
        )
        kicks = np.array([-tp.x_n, 0.0, tp.x_n])
        kick_probs = np.array([tp.p, 1.0 - 2.0 * tp.p, tp.p])
        vals = (eta_vals[:, None] + kicks[None, :]).ravel()
        probs = (base.probs[:, None] * kick_probs[None, :]).ravel()
        keep = probs > 0
        law = AtomLaw.from_unsorted(vals[keep], probs[keep])
        # clipping sends every base atom beyond the clip level to one value:
        # merge runs of equal values so each distinct atom is stored once
        v = law.values
        starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
        return AtomLaw(v[starts], np.add.reduceat(law.probs, starts))

    def atoms(self) -> AtomLaw | None:
        return self._atoms

    def second_moment(self) -> float:
        tp = self.params
        m1, m2, _ = self.base.clipped_moments(tp.clip_level)
        return (m2 - m1 * m1) + 2.0 * tp.p * tp.x_n**2

    def log_cf(self, omega):
        if self._atoms is not None:
            return self._atoms.log_cf(omega)
        raise NotImplementedError("characteristic function needs an atomic base")

    def clipped_moments(self, k: float) -> tuple[float, float, float]:
        if self._atoms is not None:
            return self._atoms.clipped_moments(k)
        raise NotImplementedError


# half-width of the sum-law value grid, in standard deviations
SPAN_SIGMAS = 16.0

# running log modulus below which a frequency bin leaves the sum-law build:
# exp underflows to exactly 0.0 below about -745.13, and the log moduli
# still to be added are nonpositive, so the bin's output is already 0.0
_LIVE_CUT = -800.0


def _live_half_spectrum(laws, weights, grid_size, dx, x0):
    """Smoothed spectrum of sum_i w_i xi_i on the live bins of 0..grid_size // 2.

    Returns (live, head): head holds the spectrum at the bin indices in
    live, or at every bin when live is None.  A bin leaves once its
    running log modulus falls below _LIVE_CUT; the laws added after that
    are not evaluated there.
    """
    # the angular fftfreq bins 0..grid_size // 2, bit for bit: for even
    # grid_size the last one is the Nyquist bin at -grid_size / 2
    omega = np.arange(grid_size // 2 + 1, dtype=float)
    if grid_size % 2 == 0:
        omega[-1] = -omega[-1]
    omega *= 1.0 / (grid_size * dx)
    omega *= 2.0 * np.pi
    # accumulate the log cf to avoid underflow of the product,
    # starting from the one-bin smoothing term
    log_mod = -0.5 * (dx * omega) ** 2
    phase = np.zeros(omega.size)
    live = None  # indices of the bins still in the build; None while all are
    for law, w in zip(laws, weights):
        if w == 0.0:
            continue
        lm, ph = law.log_cf(omega * w)
        log_mod += lm
        phase += ph
        del lm, ph  # freed before the next law's call
        # a NaN compares false, so a NaN bin stays live and propagates
        drop = log_mod < _LIVE_CUT
        if drop.any():
            keep = ~drop
            live = np.flatnonzero(keep) if live is None else live[keep]
            omega, log_mod, phase = omega[keep], log_mod[keep], phase[keep]
    head = np.empty(omega.size, dtype=complex)
    head.real = np.cos(phase)
    head.imag = np.sin(phase)
    head *= np.exp(log_mod)
    shift = -1j * omega
    shift *= x0
    head *= np.exp(shift, out=shift)
    return live, head


class WeightedSumLaw:
    """Numeric law of T = sum_i w_i xi_i for independent mean-zero xi_i.

    Built once per (f, h, n) cell from the product of characteristic
    functions on a frequency grid, summed as real log moduli and phases.
    T is real, so its characteristic function is Hermitian: the laws are
    evaluated on the grid_size // 2 + 1 bins 0..grid_size // 2 (the
    Nyquist bin included), and each negative bin is the conjugate of its
    mirror.  That is exact, not an approximation: every built-in log_cf
    is even in its log modulus and odd in its phase, so the mirror holds
    the values that evaluating the negative bins would give, bit for
    bit.  A bin leaves the build once its running log modulus falls
    below _LIVE_CUT, and later laws are evaluated on the live bins only.
    That is exact too: |cf| <= 1, so every log modulus still to be added
    is nonpositive (up to an ulp for atom laws) and exp of the full sum
    would be exactly 0.0.  The inverse FFT gives a density on a value
    grid spanning +-SPAN_SIGMAS standard deviations.  A one-bin Gaussian
    smoothing is folded in so that quasi-atomic laws produce a
    well-behaved grid density; `uniformize` compensates by jittering the
    input at the same bandwidth, so U = F(T + jitter) is uniform up to
    grid resolution.  The negative density mass clipped to zero is kept
    in clipped_mass.
    """

    def __init__(
        self,
        laws: list[ScoreLaw],
        weights: np.ndarray,
        grid_size: int = 1 << 16,
    ):
        weights = np.asarray(weights, dtype=float)
        var = sum(w * w * law.second_moment() for law, w in zip(laws, weights))
        if not var > 0.0:
            raise ArgumentError("weighted sum law needs a positive variance")
        self.sigma = float(np.sqrt(var))
        span = SPAN_SIGMAS * self.sigma
        dx = 2.0 * span / grid_size
        self.smooth_bw = dx
        x0 = -span
        live, head = _live_half_spectrum(laws, weights, grid_size, dx, x0)
        n_half = grid_size // 2 + 1
        spectrum = np.zeros(grid_size, dtype=complex)
        spectrum[slice(n_half) if live is None else live] = head
        del head
        np.conjugate(spectrum[1 : (grid_size + 1) // 2][::-1], out=spectrum[n_half:])
        np.fft.ifft(spectrum, out=spectrum)
        cdf = spectrum.real / dx  # the density, until the cumsum below
        del spectrum
        neg = np.negative(cdf)
        self.clipped_mass = float(np.sum(np.maximum(neg, 0.0, out=neg)) * dx)
        del neg
        np.maximum(cdf, 0.0, out=cdf)
        np.cumsum(cdf, out=cdf)
        cdf *= dx
        cdf /= cdf[-1]
        self.cdf_grid = cdf
        self.grid = x0 + dx * np.arange(grid_size)

    def uniformize(self, t: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Map draws of T to (0,1) so the output is uniform under the law.

        A pure map: normals holds one standard normal per draw of T,
        shaped like t, and jitters it at the smoothing bandwidth.
        """
        t = np.asarray(t, dtype=float)
        jitter = np.asarray(normals, dtype=float) * self.smooth_bw
        u = np.interp(t + jitter, self.grid, self.cdf_grid)
        eps = 1e-14
        return np.clip(u, eps, 1.0 - eps)
