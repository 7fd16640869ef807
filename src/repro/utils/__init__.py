"""Shared utilities: errors, RNG handling, timers and text formatting.

:func:`ensure_rng` resolves on first access (PEP 562): it needs numpy,
which the errors, timers and text helpers do not.
"""

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


def __getattr__(name: str):
    if name == "ensure_rng":
        from repro.utils.rng import ensure_rng

        globals()[name] = ensure_rng
        return ensure_rng
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "ensure_rng"})
