"""Squared Hellinger distance reports and the coupled Monte Carlo estimator.

Squared Hellinger distance is the currency of the studies: for
experiments realized on one probability space it bounds total variation
through TV <= sqrt(2) H, hence the deficiency between them.  A report
records one value and, for a Monte Carlo estimate, its standard
error; the only estimator here averages over pre-generated coupled
draws.  The closed-form homoscedastic distance lives with the kernel in
`globalization` and reports no standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError


@dataclass(frozen=True)
class DistanceReport:
    """One squared Hellinger distance, with its Monte Carlo standard error.

    mc_stderr is None for a closed-form value.
    """

    value: float
    mc_stderr: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ArgumentError("distance report value must lie in [0, 1]")


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
    return DistanceReport(value=float(min(max(value, 0.0), 1.0)), mc_stderr=stderr)
