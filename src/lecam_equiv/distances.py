"""Hellinger and total-variation machinery with brute-force oracles.

Squared Hellinger distance is the primary currency: it multiplies
across independent coordinates through 1 - H^2 factors, bounds total
variation via TV <= sqrt(2) H, and upper-bounds the transformation
deficiency between experiments once both likelihood processes live on
one probability space.  Everything here is either closed-form, exact
enumeration, or quadrature; the only Monte Carlo entry point is the
coupled-likelihood estimator, which consumes pre-generated draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArgumentError, CapacityError, SupportMismatchError

BRUTE_FORCE_CAP = 1 << 20


# ---------------------------------------------------------------------------
# density descriptors
# ---------------------------------------------------------------------------


class DensityDescriptor:
    """Marker base for one-dimensional density descriptions."""


@dataclass(frozen=True, eq=False)
class PmfDescriptor(DensityDescriptor):
    """Finite support probability mass function."""

    values: np.ndarray
    probs: np.ndarray

    @staticmethod
    def make(values, probs) -> "PmfDescriptor":
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1:
            raise ArgumentError("pmf needs matching 1-d values and probs")
        if not np.all(np.isfinite(values)):
            raise ArgumentError("pmf values must be finite")
        if not np.all((probs >= 0) & (probs < np.inf)):
            raise ArgumentError("pmf probabilities must be finite and nonnegative")
        order = np.argsort(values)
        return PmfDescriptor(values[order], probs[order])


@dataclass(frozen=True, eq=False)
class PdfDescriptor(DensityDescriptor):
    """Density on an interval carrying essentially all of its mass."""

    fn: Callable
    lo: float
    hi: float


def describe_family_density(family, theta) -> DensityDescriptor:
    """Density descriptor of one family member, reusing its support logic."""
    atoms = family.support_atoms(theta)
    if atoms is not None:
        return PmfDescriptor.make(atoms, family.density(atoms, theta))
    lo, hi = family.quad_bounds(theta)
    return PdfDescriptor(lambda x, t=float(theta): family.density(x, t), float(lo), float(hi))


def _align_on_union(union: np.ndarray, values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(union)
    idx = np.searchsorted(union, values)
    out[idx] = probs
    return out


# ---------------------------------------------------------------------------
# Hellinger computations
# ---------------------------------------------------------------------------


def hellinger_sq_1d(p: DensityDescriptor, q: DensityDescriptor) -> float:
    """(1/2) integral of (sqrt p - sqrt q)^2 over a shared support."""
    if isinstance(p, PmfDescriptor) and isinstance(q, PmfDescriptor):
        union = np.union1d(p.values, q.values)
        pp = _align_on_union(union, p.values, p.probs)
        qq = _align_on_union(union, q.values, q.probs)
        val = 0.5 * float(np.sum((np.sqrt(pp) - np.sqrt(qq)) ** 2))
    elif isinstance(p, PdfDescriptor) and isinstance(q, PdfDescriptor):
        from scipy import integrate  # on use: no study kind reaches this branch

        lo, hi = min(p.lo, q.lo), max(p.hi, q.hi)
        val = 0.5 * integrate.quad(
            lambda x: (math.sqrt(max(float(p.fn(x)), 0.0)) - math.sqrt(max(float(q.fn(x)), 0.0)))
            ** 2,
            lo,
            hi,
            limit=400,
        )[0]
    else:
        raise SupportMismatchError(
            "densities must share a support kind (both pmf or both pdf)"
        )
    return float(min(max(val, 0.0), 1.0))


def hellinger_gaussian(mu1: float, mu2: float) -> float:
    """Closed form for unit-variance Gaussians: 1 - exp(-(mu1-mu2)^2/8)."""
    return 1.0 - math.exp(-((mu1 - mu2) ** 2) / 8.0)


class ProductHellinger(NamedTuple):
    value: float
    subadditive_bound: float


def hellinger_sq_product(h2_components) -> ProductHellinger:
    """Combine per-coordinate squared Hellinger distances across a product.

    value is exact: 1 - prod(1 - h2_i); subadditive_bound is the cruder
    sum of components clipped to 1, always >= value.
    """
    h2 = np.asarray(h2_components, dtype=float)
    if not np.all((h2 >= 0.0) & (h2 <= 1.0)):
        raise ArgumentError("squared Hellinger components must lie in [0, 1]")
    if h2.size == 0:
        return ProductHellinger(0.0, 0.0)
    # log-domain product keeps 10^4-coordinate products accurate
    one_minus = 1.0 - h2
    if np.any(one_minus == 0.0):
        value = 1.0
    else:
        value = 1.0 - math.exp(float(np.sum(np.log(one_minus))))
    return ProductHellinger(
        float(min(max(value, 0.0), 1.0)), float(min(np.sum(h2), 1.0))
    )


def tv_and_deficiency_bound(h2: float) -> tuple[float, str]:
    """Upper bound sqrt(2 h2) on total variation, hence on deficiency.

    The bound chain: TV <= sqrt(2) H, and for experiments realized on a
    common space the one-sided deficiency is at most the expected total
    variation between coupled likelihood processes.
    """
    if not 0.0 <= h2 <= 1.0:
        raise ArgumentError("squared Hellinger input must lie in [0, 1]")
    bound = min(math.sqrt(2.0 * h2), 1.0)
    return bound, "upper bound on total variation and coupled-experiment deficiency"


# ---------------------------------------------------------------------------
# brute-force oracles on small product spaces
# ---------------------------------------------------------------------------


def _product_distribution(pmfs) -> np.ndarray:
    total = 1
    for probs in pmfs:
        total *= len(probs)
        if total > BRUTE_FORCE_CAP:
            raise CapacityError(
                f"product space exceeds {BRUTE_FORCE_CAP} outcomes"
            )
    out = np.array([1.0])
    for probs in pmfs:
        out = np.kron(out, np.asarray(probs, dtype=float))
    return out


def _check_product_pair(product_p, product_q) -> None:
    if len(product_p) != len(product_q):
        raise ArgumentError("product factors must pair up one-to-one")
    for pp, qq in zip(product_p, product_q):
        if len(pp) != len(qq):
            raise SupportMismatchError(
                "paired coordinates must share an outcome set"
            )


def brute_force_tv(product_p, product_q) -> float:
    """Exact total variation between two product laws by enumeration.

    Arguments are lists of per-coordinate probability vectors; paired
    coordinates must enumerate the same outcome set in the same order.
    """
    _check_product_pair(product_p, product_q)
    p = _product_distribution(product_p)
    q = _product_distribution(product_q)
    return 0.5 * float(np.sum(np.abs(p - q)))


def brute_force_hellinger_sq(product_p, product_q) -> float:
    """Exact squared Hellinger distance between product laws by enumeration."""
    _check_product_pair(product_p, product_q)
    p = _product_distribution(product_p)
    q = _product_distribution(product_q)
    return float(min(max(1.0 - np.sum(np.sqrt(p * q)), 0.0), 1.0))


# ---------------------------------------------------------------------------
# reports and the Monte Carlo estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceReport:
    """One distance estimate tagged with how it was computed.

    kind: hellinger2 | tv | deficiency_upper; method: closed-form |
    quadrature | brute-force | monte-carlo.  mc_stderr must be present
    exactly when the method is monte-carlo.
    """

    kind: str
    method: str
    value: float
    mc_stderr: float | None = None
    replicate_count: int = 0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ArgumentError("distance report value must lie in [0, 1]")
        if (self.method == "monte-carlo") != (self.mc_stderr is not None):
            raise ArgumentError(
                "mc_stderr must be present exactly for monte-carlo reports"
            )


def _log_lik_arrays(draws) -> tuple[np.ndarray, np.ndarray]:
    """(original, gaussian) log-likelihood ratios of a list of draws or of draw stacks."""
    a = np.concatenate([np.empty(0), *(np.atleast_1d(d.log_lik_original) for d in draws)])
    b = np.concatenate([np.empty(0), *(np.atleast_1d(d.log_lik_gaussian) for d in draws)])
    return a, b


def mc_hellinger_coupled(draws) -> DistanceReport:
    """Monte Carlo squared Hellinger distance from coupled likelihood pairs.

    Each draw carries log likelihood ratios of the two experiments
    against the shared central measure; the estimator averages
    (sqrt(L1) - sqrt(L0))^2 / 2 with a jackknife standard error.
    draws is a list of draw stacks (or of one-draw records with scalar
    log-likelihoods), read in order.
    """
    a, b = _log_lik_arrays(draws)
    if a.size < 10:
        raise ArgumentError("need at least 10 coupled draws for a standard error")
    # cap log likelihoods so squared exponentials stay inside float range
    a = np.minimum(a, 600.0)
    b = np.minimum(b, 600.0)
    terms = 0.5 * (np.exp(0.5 * a) - np.exp(0.5 * b)) ** 2
    r = terms.size
    value = float(terms.mean())
    leave_one_out = (terms.sum() - terms) / (r - 1)
    stderr = math.sqrt((r - 1) / r * float(np.sum((leave_one_out - leave_one_out.mean()) ** 2)))
    return DistanceReport(
        kind="hellinger2",
        method="monte-carlo",
        value=float(min(max(value, 0.0), 1.0)),
        mc_stderr=stderr,
        replicate_count=r,
    )
