"""Statistical analysis of contact traces.

Section III-B's metadata-validation model rests on inter-contact times
having "exponential decay for many mobility models and real traces".
This module provides the tools to check that premise on any
:class:`~repro.traces.model.ContactTrace` -- real or synthetic:

* maximum-likelihood exponential fits of per-pair inter-contact times;
* Kolmogorov-Smirnov goodness-of-fit against the fitted exponential;
* the empirical CCDF of the aggregate inter-contact distribution (the
  curve the DTN literature plots on log axes);
* heterogeneity statistics of the pair-rate distribution, which drive how
  aggressively Eq. 1 invalidates cached metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .model import ContactTrace

__all__ = [
    "ExponentialFit",
    "fit_pair_exponential",
    "exponential_fit_report",
    "intercontact_ccdf",
    "rate_heterogeneity",
]


@dataclass(frozen=True)
class ExponentialFit:
    """MLE exponential fit of one pair's inter-contact gaps."""

    pair: Tuple[int, int]
    rate_per_s: float
    num_gaps: int
    ks_statistic: float
    ks_pvalue: float


def fit_pair_exponential(pair: Tuple[int, int], gaps: Sequence[float]) -> ExponentialFit:
    """Fit ``Exp(lambda)`` to one pair's gaps and KS-test the fit."""
    from scipy import stats

    if not gaps:
        raise ValueError(f"pair {pair} has no inter-contact gaps to fit")
    samples = np.asarray(gaps, dtype=float)
    if (samples <= 0.0).any():
        samples = samples[samples > 0.0]
        if samples.size == 0:
            raise ValueError(f"pair {pair} has only zero-length gaps")
    rate = 1.0 / samples.mean()
    statistic, pvalue = stats.kstest(samples, "expon", args=(0.0, 1.0 / rate))
    return ExponentialFit(
        pair=pair,
        rate_per_s=float(rate),
        num_gaps=int(samples.size),
        ks_statistic=float(statistic),
        ks_pvalue=float(pvalue),
    )


def exponential_fit_report(
    trace: ContactTrace,
    min_gaps: int = 10,
) -> List[ExponentialFit]:
    """Exponential fits for every pair with at least *min_gaps* gaps.

    The report quantifies how well the Section III-B assumption holds on
    *trace*: high KS p-values mean the per-pair exponential model (and
    hence Eq. 1) is well grounded.
    """
    if min_gaps < 2:
        raise ValueError(f"min_gaps must be at least 2, got {min_gaps}")
    fits = []
    for pair, gaps in sorted(trace.pair_intercontact_gaps().items()):
        if len(gaps) >= min_gaps:
            fits.append(fit_pair_exponential(pair, gaps))
    return fits


def intercontact_ccdf(
    trace: ContactTrace,
    points: int = 50,
) -> List[Tuple[float, float]]:
    """Empirical CCDF of all inter-contact gaps: ``(gap_s, P[T > gap])``.

    Evaluated on a log-spaced grid between the smallest and largest gap,
    matching how the DTN literature plots the aggregate distribution.
    """
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    gaps: List[float] = []
    for pair_gaps in trace.pair_intercontact_gaps().values():
        gaps.extend(g for g in pair_gaps if g > 0.0)
    if not gaps:
        return []
    samples = np.sort(np.asarray(gaps))
    grid = np.logspace(
        math.log10(samples[0]), math.log10(samples[-1]), num=points
    )
    ccdf = 1.0 - np.searchsorted(samples, grid, side="right") / samples.size
    return [(float(g), float(p)) for g, p in zip(grid, ccdf)]


def rate_heterogeneity(trace: ContactTrace) -> Dict[str, float]:
    """Dispersion statistics of the per-pair contact rates.

    Returns the mean, coefficient of variation, and 90/50 percentile ratio
    of ``lambda_ab`` across pairs -- large values mean Eq. 1's aggregate
    ``lambda_a`` is dominated by a few strong ties (teammates), which is
    exactly the "rescuers in the same team contact more often" pattern
    the paper models.
    """
    rates = np.asarray(list(trace.pair_rates().values()), dtype=float)
    if rates.size == 0:
        return {"pairs": 0.0, "mean": 0.0, "cv": 0.0, "p90_over_p50": 0.0}
    p50, p90 = np.percentile(rates, [50.0, 90.0])
    return {
        "pairs": float(rates.size),
        "mean": float(rates.mean()),
        "cv": float(rates.std() / rates.mean()) if rates.mean() > 0.0 else 0.0,
        "p90_over_p50": float(p90 / p50) if p50 > 0.0 else 0.0,
    }
