"""Distribution objects for per-observation score variables.

Each regression design point i carries the law of the score
l_dot(X_i, theta_i) under X_i ~ p(., theta_i).  The sum-law build
reads its second moment and exactly one description of its
characteristic function: a Poisson form (`poisson_form`), else atoms
(`atoms`), else, for a law with neither, its own `log_cf`.
`is_gaussian` marks the standard normal law, whose weighted sums need
no FFT.  Discrete families get exact atom enumeration; the continuous
built-ins get closed-form log characteristic functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError


class ScoreLaw:
    """Interface for the law of a single score variable (mean zero)."""

    is_gaussian: bool = False

    def atoms(self) -> "AtomLaw | None":
        """Finite-support representation when one exists."""
        return None

    def poisson_form(self) -> "tuple[float, float, float] | None":
        """(rate, step, offset) when xi = step * X + offset with X ~ Poisson(rate).

        The log cf is then rate (exp(i omega step) - 1) + i omega offset,
        which the sum-law build evaluates from rotation tables.
        """
        return None

    def second_moment(self) -> float:
        raise NotImplementedError

    def log_cf(self, omega):
        """log E exp(i omega xi) on an array of angular frequencies.

        Returned in real arithmetic as (log modulus, phase): two arrays
        shaped like omega.  The phase need not be reduced to (-pi, pi].
        Only a law with neither a Poisson form nor atoms defines it.
        """
        raise NotImplementedError(f"{type(self).__name__} has no characteristic function")


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


@dataclass(frozen=True, eq=False)
class StandardNormalLaw(ScoreLaw):
    """Score law of the unit-information Gaussian location family."""

    is_gaussian: bool = True

    def second_moment(self) -> float:
        return 1.0

    def log_cf(self, omega):
        omega = np.asarray(omega, dtype=float)
        return -0.5 * omega**2, np.zeros_like(omega)


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


# half-width of the sum-law value grid, in standard deviations
SPAN_SIGMAS = 16.0

# running log modulus below which a frequency bin is dead: exp underflows to
# exactly 0.0 below about -745.13, and the log moduli still to be added are
# nonpositive, so a row of dead bins leaves the sum-law build
_LIVE_CUT = -800.0

# rfft bins per row of the sum-law build: a row is the unit of the live band,
# and a rotation table holds one entry per row and one per bin of a row
_ROW_BINS = 64
# most design points in one block of the table build, and most coarse-table
# entries (points x rotating atoms x rows) one block may hold
_BLOCK_POINTS = 32
_BLOCK_TABLE = 1 << 13
# floor of an atom block's product modulus before it is divided out
_TINY = 1e-300


def _rotations(c, omega, scale=None):
    """scale * exp(i c omega) as a complex table: one row of omega per entry of c."""
    arg = np.multiply.outer(c, omega)
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    if scale is not None:
        out *= scale[..., None]
    return out


class _LiveSpectrum:
    """The log cf of a weighted sum on the live rows of the rfft bins, as it is built.

    The bins are rows of _ROW_BINS; bins past the last rfft bin pad the last
    row at log modulus -inf.  At a live bin of frequency omega the cf is
    exp(log_mod) * acc * exp(i (phase + shift * omega)): acc, the unit-modulus
    product of the atom laws, exists once an atom block has been added.  A row
    whose bins are all below _LIVE_CUT is dropped; a NaN compares false, so a
    NaN bin keeps its row live.
    """

    def __init__(self, grid_size, dx):
        self.n_bins = grid_size // 2 + 1
        self.n_rows = -(-self.n_bins // _ROW_BINS)
        k = np.arange(self.n_rows * _ROW_BINS)
        # the rfftfreq bins, computed as np.fft.rfftfreq computes them
        self.omega = (2.0 * np.pi * (k * (1.0 / (grid_size * dx)))).reshape(self.n_rows, -1)
        self.fine = self.omega[0].copy()  # offsets within a row
        self.rows = np.arange(self.n_rows)
        # start from the one-bin smoothing term
        self.log_mod = -0.5 * (dx * self.omega) ** 2
        self.log_mod.reshape(-1)[self.n_bins :] = -np.inf
        self.phase = np.zeros_like(self.log_mod)
        self.shift = 0.0
        self.acc = None
        self._scratch = np.empty(self.omega.size, dtype=complex)

    def _buffer(self):
        """A complex scratch array shaped like the live rows."""
        return self._scratch[: self.log_mod.size].reshape(self.log_mod.shape)

    def block_points(self, kind):
        """Most points in one block of `kind`: "poisson", or an atom count."""
        rotating = 1 if kind == "poisson" else max(kind - 1, 1)
        return max(1, min(_BLOCK_POINTS, _BLOCK_TABLE // (rotating * self.n_rows)))

    def add_block(self, kind, block):
        """Add a block of (form, weight) pairs of one kind, then drop the dead rows."""
        forms, w = zip(*block)
        if kind == "poisson":
            self._add_poisson(forms, np.array(w))
        else:
            self._add_atoms(forms, np.array(w))
        self._drop_dead_rows()

    def add_log_cf(self, law, w):
        """Add one law through its log_cf, on the live bins only."""
        n = self.log_mod.size
        if n and self.rows[-1] == self.n_rows - 1:
            n -= self.n_rows * _ROW_BINS - self.n_bins  # no pad bins
        lm, ph = law.log_cf(self.omega.reshape(-1)[:n] * w)
        self.log_mod.reshape(-1)[:n] += lm
        self.phase.reshape(-1)[:n] += ph
        del lm, ph  # freed before the next law's call
        self._drop_dead_rows()

    def _add_poisson(self, forms, w):
        """Add a block of laws of step * Poisson(rate) + offset, with weights w.

        Each adds rate (cos(omega c) - 1) to the log modulus and rate sin(omega c)
        to the phase, c = w step, from e^{i omega c} = coarse row x fine offset.
        """
        rate, step, offset = np.array(forms).T
        c = w * step
        coarse = _rotations(c, self.omega[:, 0], rate)
        fine = _rotations(c, self.fine)
        rot = self._buffer()
        for a, row_term, bin_term in zip(rate, coarse, fine):
            np.multiply.outer(row_term, bin_term, out=rot)
            self.log_mod += rot.real
            self.log_mod -= a
            self.phase += rot.imag
        self.shift += (w * offset).sum()

    def _add_atoms(self, atoms, w):
        """Add a block of atom laws with the same atom count, with weights w.

        The first atom of each law is factored out into the shift; the other
        atoms' rotations are summed per point and multiplied into acc, whose
        modulus is moved into the log modulus once per block.
        """
        c = np.array([law.values for law in atoms]) * w[:, None]
        probs = np.array([law.probs for law in atoms])
        self.shift += c[:, 0].sum()
        if c.shape[1] == 1:
            return  # a point mass rotates nothing
        rel = c[:, 1:] - c[:, :1]
        coarse = _rotations(rel, self.omega[:, 0], probs[:, 1:])
        fine = _rotations(rel, self.fine)
        if self.acc is None:
            self.acc = np.ones(self.log_mod.shape, dtype=complex)
        cf = self._buffer()
        term = np.empty_like(cf) if c.shape[1] > 2 else None
        for p0, row_terms, bin_terms in zip(probs[:, 0], coarse, fine):
            np.multiply.outer(row_terms[0], bin_terms[0], out=cf)
            for row_term, bin_term in zip(row_terms[1:], bin_terms[1:]):
                cf += np.multiply.outer(row_term, bin_term, out=term)
            cf.real += p0
            self.acc *= cf
        mod = np.abs(self.acc)
        # an exact zero of the cf is floored before it is divided out
        np.maximum(mod, _TINY, out=mod)
        self.acc /= mod
        self.log_mod += np.log(mod, out=mod)

    def _drop_dead_rows(self):
        dead = (self.log_mod < _LIVE_CUT).all(axis=1)
        if dead.any():
            keep = ~dead
            self.rows, self.omega = self.rows[keep], self.omega[keep]
            self.log_mod, self.phase = self.log_mod[keep], self.phase[keep]
            if self.acc is not None:
                self.acc = self.acc[keep]

    def half_spectrum(self, x0):
        """The cf times exp(-i x0 omega) on the rfft bins, zeros off the live band."""
        self._scratch = None
        phase = self.phase
        phase += (self.shift - x0) * self.omega
        mod = np.exp(self.log_mod, out=self.log_mod)
        half = np.zeros((self.n_rows, _ROW_BINS), dtype=complex)
        half.real[self.rows] = mod * np.cos(phase)
        half.imag[self.rows] = mod * np.sin(phase)
        if self.acc is not None:
            half[self.rows] *= self.acc
        return half.reshape(-1)[: self.n_bins]


def _live_half_spectrum(laws, weights, grid_size, dx, x0):
    """Smoothed spectrum of sum_i w_i xi_i on the rfftfreq bins, for a grid from x0.

    Runs of consecutive points whose laws have a Poisson form, or atoms in
    equal number, are added in blocks from rotation tables; any other law
    is added through its log_cf.
    """
    spectrum = _LiveSpectrum(grid_size, dx)
    block, block_kind = [], None
    for law, w in zip(laws, weights):
        if w == 0.0:
            continue
        form = law.poisson_form()
        if form is not None:
            kind = "poisson"
        else:
            form = law.atoms()
            kind = None if form is None else form.values.size
        if block and (kind != block_kind or len(block) == spectrum.block_points(block_kind)):
            spectrum.add_block(block_kind, block)
            block = []
        if kind is None:
            spectrum.add_log_cf(law, w)
        else:
            block_kind = kind
            block.append((form, w))
    if block:
        spectrum.add_block(block_kind, block)
    return spectrum.half_spectrum(x0)


DEFAULT_GRID_SIZE = 1 << 16  # FFT grid of a sum law, and of a study's coupling plans


class WeightedSumLaw:
    """Numeric law of T = sum_i w_i xi_i for independent mean-zero xi_i.

    Built once per (f, h, n) cell from the product of characteristic
    functions on the grid_size // 2 + 1 nonnegative bins of
    np.fft.rfftfreq, which fix the Hermitian cf of the real T.  The bins
    are laid out in rows of _ROW_BINS.  The cf of a law with a Poisson
    form (`poisson_form`) or with atoms depends on omega only through
    exp(i omega c), c = w / theta or w * v_j.  For a block of
    consecutive such points the build forms exp(i omega_k c) at
    k = row * _ROW_BINS + r as the product of two short tables, one over
    the rows and one over r, so a point costs rows + _ROW_BINS cosines
    and sines instead of one per bin.  A Poisson law adds its closed-form
    log modulus and phase; atom laws multiply a running complex product
    of their atom sums, whose modulus moves into the log modulus once per
    block.  Any other law adds its log_cf, as (log modulus, phase), on
    the live bins.  np.fft.irfft inverts the half spectrum (of the
    Nyquist bin it reads the real part) to a density on a value grid
    spanning +-SPAN_SIGMAS standard deviations.

    A row leaves the build once every bin in it has a running log
    modulus below _LIVE_CUT, checked after each block and each log_cf
    law; later laws are evaluated on the live rows only.  That is exact:
    |cf| <= 1, so every log modulus still to be added is nonpositive (up
    to a few ulps for atom laws) and exp of the full sum would be
    exactly 0.0.  A one-bin Gaussian smoothing is folded in so that
    quasi-atomic laws produce a well-behaved grid density; `uniformize`
    compensates by jittering the input at the same bandwidth, so
    U = F(T + jitter) is uniform up to grid resolution.  The negative
    density mass clipped to zero is kept in clipped_mass.  Until ROADMAP
    item 20 lands, the grid holds the law of -T, not of T (irfft sums
    with exp(+i omega x)), and the exact-law tests of the sum law in
    tests/test_laws.py are xfail.

    Raises ArgumentError unless there is one weight per law, grid_size
    is an integer of at least 2 and the variance is finite and positive.
    """

    def __init__(
        self,
        laws: list[ScoreLaw],
        weights: np.ndarray,
        grid_size: int = DEFAULT_GRID_SIZE,
    ):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(laws),):
            raise ArgumentError(
                f"weighted sum law needs one weight per law: {len(laws)} laws, "
                f"weights of shape {weights.shape}"
            )
        if isinstance(grid_size, bool) or not isinstance(grid_size, (int, np.integer)) or grid_size < 2:
            raise ArgumentError(f"weighted sum law needs an integer grid_size >= 2, not {grid_size!r}")
        # an infinite weight or an overflowing w^2 E xi^2 is rejected below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            var = sum(w * w * law.second_moment() for law, w in zip(laws, weights))
        if not 0.0 < var < np.inf:
            raise ArgumentError("weighted sum law needs a finite positive variance")
        self.sigma = float(np.sqrt(var))
        span = SPAN_SIGMAS * self.sigma
        dx = 2.0 * span / grid_size
        self.smooth_bw = dx
        x0 = -span
        half = _live_half_spectrum(laws, weights, grid_size, dx, x0)
        cdf = np.fft.irfft(half, n=grid_size) / dx  # the density, until the cumsum below
        del half
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
