"""Experiment harness (S22): one module per paper table / figure.

Each module exposes ``run_*`` returning structured rows and ``format_*``
rendering them as the paper prints them.  The benchmarks under
``benchmarks/`` are thin wrappers over these functions.

Scale notes: by default the harness runs on scaled-down synthetic datasets
(environment variables ``REPRO_SO_N`` / ``REPRO_GERMAN_N`` override the row
counts; ``REPRO_FULL=1`` selects the paper's full sizes).  EXPERIMENTS.md
records paper-vs-measured values.

The names below resolve on first access (PEP 562), so a command loads
only the experiment it runs.
"""

from repro._lazy import lazy_exports

#: Export -> the submodule it is re-exported from.
_LAZY = {
    name: f"repro.experiments.{module}"
    for module, names in (
        ("settings", ("ExperimentSettings",)),
        ("reporting", ("ResultRow", "format_rows", "row_from_metrics")),
        ("table3", ("format_table3", "run_table3")),
        ("table4", ("format_table4", "run_table4")),
        ("table5", ("format_table5", "run_table5")),
        ("table6", ("format_table6", "run_table6")),
        ("figure3", ("format_figure3", "run_figure3")),
        ("figure4", ("format_figure4", "run_figure4")),
        ("figure5", ("format_figure5", "run_figure5")),
        ("apriori_sweep", ("format_apriori_sweep", "run_apriori_sweep")),
    )
    for name in names
}

__all__ = [
    "ExperimentSettings",
    "ResultRow",
    "format_rows",
    "row_from_metrics",
    "run_table3",
    "format_table3",
    "run_table4",
    "format_table4",
    "run_table5",
    "format_table5",
    "run_table6",
    "format_table6",
    "run_figure3",
    "format_figure3",
    "run_figure4",
    "format_figure4",
    "run_figure5",
    "format_figure5",
    "run_apriori_sweep",
    "format_apriori_sweep",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
