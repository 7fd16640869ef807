"""Shared utilities: errors, RNG handling, timers and text formatting.

:func:`ensure_rng` resolves on first access (PEP 562): it needs numpy,
which the errors, timers and text helpers do not.
"""

from repro._lazy import lazy_exports
from repro.utils.errors import (
    ReproError,
    SchemaError,
    PatternError,
    EstimationError,
    ConfigError,
)
from repro.utils.timer import Timer, StepTimer
from repro.utils.text import format_table, format_float, format_percent

__all__ = [
    "ReproError",
    "SchemaError",
    "PatternError",
    "EstimationError",
    "ConfigError",
    "ensure_rng",
    "Timer",
    "StepTimer",
    "format_table",
    "format_float",
    "format_percent",
]

__getattr__, __dir__ = lazy_exports(__name__, {"ensure_rng": "repro.utils.rng"})
