"""Config Manager (paper §4.2.1).

User-facing parameters are flat dot-keys (``"hist.bins": 50``) exactly as
in the paper's how-to guide; internally they are resolved against a
registry of defaults grouped per plot/insight. The resolved ``Config`` is
the single object threaded through Compute and Render, so no function
signature carries dozens of parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

# Registry of every configurable parameter: dot-key -> (default, doc).
# This registry also *is* the how-to guide's knowledge base (core/howto.py).
DEFAULTS: dict[str, tuple[Any, str]] = {
    # -- compute-wide --
    "compute.seed": (42, "Seed for all sampling, so intermediates are reproducible."),
    # -- per-plot --
    "hist.bins": (50, "Number of equi-width bins in histograms."),
    "kde.grid_points": (100, "Number of evaluation points of the KDE curve."),
    "kde.sample_size": (5_000, "Sample size the KDE is fitted on."),
    "qq.points": (100, "Number of quantile points in the normal Q-Q plot."),
    "box.whisker": (1.5, "IQR multiplier for box-plot whiskers."),
    "bar.top_n": (10, "Top categories shown in bar charts."),
    "pie.top_n": (6, "Top categories shown in pie charts."),
    "wordfreq.top_n": (10, "Top words in the word-frequency table."),
    "scatter.sample_size": (1_000, "Points sampled for the scatter plot."),
    "hexbin.gridsize": (20, "Hexbin grid resolution per axis."),
    "nested.top_n": (5, "Top categories per axis in nested/stacked bar charts."),
    "heatmap.top_n": (10, "Top categories per axis in the CC heat map."),
    "line.ngroups": (5, "Number of category groups in the multi-line chart."),
    "boxnum.bins": (10, "Number of x-bins for the binned (NN) box plot."),
    "spectrum.bins": (20, "Number of row segments in the missing spectrum."),
    "correlation.methods": (("pearson", "spearman", "kendall"), "Correlation methods to compute."),
    "kendall.sample_size": (2_000, "Row cap for the exact Kendall tau-b kernel (O(n^2))."),
    # -- insight thresholds (paper §4.2.2: each insight has its own threshold) --
    "insight.missing.threshold": (0.01, "Fraction of missing cells to flag a column."),
    "insight.duplicates.threshold": (0.01, "Fraction of duplicate rows to flag the dataset."),
    "insight.skewed.threshold": (1.0, "|skewness| above which a column is flagged skewed."),
    "insight.uniform.threshold": (0.01, "Normalized chi2 below which a distribution is flagged uniform."),
    "insight.high_cardinality.threshold": (50, "Distinct count above which a categorical is flagged."),
    "insight.constant.threshold": (1, "Distinct count at/below which a column is flagged constant."),
    "insight.zeros.threshold": (0.1, "Fraction of zeros to flag a numeric column."),
    "insight.negatives.threshold": (0.0, "Fraction of negatives to flag a numeric column."),
    "insight.infinity.threshold": (0.0, "Fraction of +-inf values to flag a numeric column."),
    "insight.correlation.threshold": (0.7, "|r| above which a pair is flagged highly correlated."),
    "insight.similar.threshold": (0.05, "KS distance below which two distributions are flagged similar."),
    # -- render --
    "render.width": (450, "Figure width in px."),
    "render.height": (300, "Figure height in px."),
    "render.report_title": ("DataPrep.EDA Report", "Title of the rendered HTML report."),
}


@dataclass(frozen=True)
class Config:
    """Immutable resolved configuration (dot-key -> value)."""

    values: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_user(cls, user: Mapping[str, Any] | None = None) -> "Config":
        """Resolve user overrides against :data:`DEFAULTS`.

        Unknown keys raise ``KeyError`` listing near-miss suggestions — the
        paper's customizability goal depends on users being told what *is*
        configurable rather than silently ignoring typos.
        """
        resolved = {k: v for k, (v, _doc) in DEFAULTS.items()}
        for key, value in (user or {}).items():
            if key not in resolved:
                prefix = key.split(".")[0]
                near = sorted(k for k in resolved if k.startswith(prefix + "."))
                raise KeyError(
                    f"unknown config key {key!r}; "
                    f"known keys with this prefix: {near or sorted(resolved)[:8]}"
                )
            resolved[key] = value
        return cls(values=resolved)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def __contains__(self, key: str) -> bool:  # pragma: no cover - trivial
        return key in self.values

    def __iter__(self) -> Iterator[str]:  # pragma: no cover - trivial
        return iter(self.values)

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    def group(self, prefix: str) -> dict[str, Any]:
        """All keys under ``prefix.`` with the prefix stripped."""
        dot = prefix + "."
        return {k[len(dot):]: v for k, v in self.values.items() if k.startswith(dot)}
