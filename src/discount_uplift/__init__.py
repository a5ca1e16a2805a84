"""Promotional-uplift estimation for discounted sales of expiring perishables.

The package ingests store/SKU/day panel data, fits a per-SKU baseline sales
model on discount-free days, regresses the discount-day residuals on the
discounted-sales count, and aggregates the per-SKU uplift estimates. A
seeded synthetic data generator with planted ground truth and a
replenishment feedback-loop simulator serve as verification oracles.
"""

__version__ = "0.1.0"

from .aggregate import (Boxplot, Histogram, StudyAggregate, boxplot_stats,
                        summarize, trim_central)
from .domain import (EligibilityRule, ExcludedPanel, ExclusionReason,
                     Observation, ObservationTable, ObservationView,
                     ParseResult, RowIssue, SkuPanel,
                     build_panels, filter_eligible, parse_csv, serialize_csv)
from .ols import FitResult, FitStatus, fit_ols, predict, t_critical, t_pvalue
from .synth import (CycleConfig, CycleTrace, DgpConfig, cycle_summary,
                    generate_panel, generate_study, simulate_cycle)
from .two_step import (ReportStatus, Sidedness, SkuUpliftReport, StudyReports,
                       estimate_sku, run_study)

__all__ = [
    "__version__",
    "Boxplot", "Histogram", "StudyAggregate", "boxplot_stats", "summarize",
    "trim_central",
    "EligibilityRule", "ExcludedPanel", "ExclusionReason", "Observation",
    "ObservationTable", "ObservationView", "ParseResult", "RowIssue",
    "SkuPanel", "build_panels", "filter_eligible", "parse_csv",
    "serialize_csv",
    "FitResult", "FitStatus", "fit_ols", "predict",
    "t_critical", "t_pvalue",
    "CycleConfig", "CycleTrace", "DgpConfig", "cycle_summary",
    "generate_panel", "generate_study", "simulate_cycle",
    "ReportStatus", "Sidedness", "SkuUpliftReport", "StudyReports",
    "estimate_sku", "run_study",
]
