"""Numeric kernels replacing scipy/statsmodels (not installed here).

All kernels are pure numpy, deterministic, and operate on *small* driver-side
arrays — they belong to the "pandas Computation" phase of the pipeline
(paper §5.2), never to the distributed phase.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = [
    "norm_ppf",
    "norm_pdf",
    "gaussian_kde",
    "kendall_tau",
    "ks_distance",
    "uniformity_pvalue_stat",
    "pearson",
    "hexbin_counts",
]


def norm_pdf(x: np.ndarray | float) -> np.ndarray | float:
    """Standard normal density."""
    return np.exp(-0.5 * np.asarray(x, dtype="float64") ** 2) / np.sqrt(2 * np.pi)


def norm_ppf(p: np.ndarray | float) -> np.ndarray | float:
    """Inverse standard-normal CDF via Acklam's rational approximation.

    Absolute error < 1.15e-9 over (0, 1) — more than enough for Q-Q plots.
    Replaces ``scipy.stats.norm.ppf``. Returns ±inf at 0/1 and nan outside.
    """
    p = np.asarray(p, dtype="float64")
    scalar = p.ndim == 0
    p = np.atleast_1d(p).copy()

    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    p_low, p_high = 0.02425, 1 - 0.02425

    out = np.full_like(p, np.nan)
    out[p == 0] = -np.inf
    out[p == 1] = np.inf

    lo = (0 < p) & (p < p_low)
    if lo.any():
        q = np.sqrt(-2 * np.log(p[lo]))
        out[lo] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    mid = (p_low <= p) & (p <= p_high)
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        out[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    hi = (p_high < p) & (p < 1)
    if hi.any():
        q = np.sqrt(-2 * np.log(1 - p[hi]))
        out[hi] = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    return out[0] if scalar else out


def gaussian_kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian kernel density estimate of ``samples`` evaluated on ``grid``.

    Bandwidth defaults to Scott's rule (``n**(-1/5) * std``), matching the
    scipy default the paper's KDE plot relies on. Vectorized O(n·g) —
    intended for sampled/driver-side data only.
    """
    x = np.asarray(samples, dtype="float64")
    x = x[np.isfinite(x)]
    if x.size == 0:
        return np.zeros_like(grid, dtype="float64")
    std = x.std(ddof=1) if x.size > 1 else 1.0
    if std == 0 or not np.isfinite(std):
        std = 1.0
    h = bandwidth if bandwidth is not None else std * x.size ** (-1 / 5)
    if h <= 0 or not np.isfinite(h):
        h = 1.0
    z = (np.asarray(grid, dtype="float64")[:, None] - x[None, :]) / h
    return norm_pdf(z).mean(axis=1) / h


def kendall_tau(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b with tie correction.

    O(n²) via vectorized sign outer-products — callers must cap n (the
    correlation module samples to ``kendall.sample_size``). Replaces
    ``scipy.stats.kendalltau``; nan rows are dropped pairwise.
    """
    x = np.asarray(x, dtype="float64")
    y = np.asarray(y, dtype="float64")
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    n = x.size
    if n < 2:
        return float("nan")
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    sx, sy = sx[iu], sy[iu]
    concordant_minus_discordant = float((sx * sy).sum())
    n_pairs = n * (n - 1) / 2
    ties_x = n_pairs - float(np.count_nonzero(sx))
    ties_y = n_pairs - float(np.count_nonzero(sy))
    denom = np.sqrt((n_pairs - ties_x) * (n_pairs - ties_y))
    if denom == 0:
        return float("nan")
    return concordant_minus_discordant / denom


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (max ECDF gap).

    Used by the 'similar distribution' insight and by plot_missing's
    before/after comparison. Replaces ``scipy.stats.ks_2samp``'s statistic.
    """
    a = np.sort(np.asarray(a, dtype="float64"))
    b = np.sort(np.asarray(b, dtype="float64"))
    a, b = a[np.isfinite(a)], b[np.isfinite(b)]
    if a.size == 0 or b.size == 0:
        return float("nan")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def uniformity_pvalue_stat(counts: np.ndarray) -> float:
    """Normalized chi-square statistic against the uniform distribution.

    Returns chi²/(N·(k-1)) ∈ [0, 1]-ish (Cramér's-V²-style normalization);
    small values ⇒ near-uniform. Drives the 'uniform' insight without
    needing a chi-square CDF (scipy-free).
    """
    c = np.asarray(counts, dtype="float64")
    c = c[np.isfinite(c)]
    k, total = c.size, c.sum()
    if k < 2 or total == 0:
        return float("nan")
    expected = total / k
    with np.errstate(invalid="ignore", over="ignore"):
        chi2 = float(((c - expected) ** 2 / expected).sum())
    return chi2 / (total * (k - 1))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pairwise-complete Pearson correlation (driver-side helper)."""
    x = np.asarray(x, dtype="float64")
    y = np.asarray(y, dtype="float64")
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if x.size < 2 or x.std() == 0 or y.std() == 0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def hexbin_counts(x: np.ndarray, y: np.ndarray, gridsize: int) -> pd.DataFrame:
    """Non-empty cells of a ``gridsize``×``gridsize`` equi-width grid over
    the pairs where both ``x`` and ``y`` are finite.

    Each axis spans its finite min to max (a constant axis puts every value
    in bin 0; the max lands in the last bin). Returns ``xbin``, ``ybin``
    and ``count`` columns in row-major cell order.
    """
    x = np.asarray(x, dtype="float64")
    y = np.asarray(y, dtype="float64")
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if x.size == 0:
        return pd.DataFrame(columns=["xbin", "ybin", "count"])

    def bins(v: np.ndarray) -> np.ndarray:
        span = (v.max() - v.min()) or 1.0
        return np.clip(((v - v.min()) / span * gridsize).astype(int), 0, gridsize - 1)

    flat = np.bincount(bins(x) * gridsize + bins(y), minlength=gridsize * gridsize)
    nz = np.nonzero(flat)[0]
    return pd.DataFrame({"xbin": nz // gridsize, "ybin": nz % gridsize, "count": flat[nz]})
