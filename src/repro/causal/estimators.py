"""CATE estimation under backdoor adjustment (Sec. 3, Eq. 1 and its
conditional form).

The paper computes CATE values with the DoWhy library; this module provides
the equivalent estimators from scratch:

- :class:`LinearAdjustmentEstimator` — DoWhy's default
  ``backdoor.linear_regression``: regress ``O ~ 1 + T + Z`` on the rows of
  the conditioning subpopulation, read the effect off the ``T`` coefficient,
  and test it against zero with a t-test.
- :class:`StratifiedEstimator` — exact stratification on the adjustment
  attributes: within every stratum ``Z=z`` containing both treated and
  control rows, take the difference of outcome means; aggregate weighted by
  stratum size.  This directly mirrors the identification formula
  ``E_Z[E[O|T=1,B,Z] - E[O|T=0,B,Z]]`` and serves as a cross-check and
  ablation of the linear estimator.

Both estimators return a :class:`CateResult` carrying the estimate, its
standard error, a p-value against the zero-effect null, and diagnostic
counts.  Degenerate inputs (no treated rows, no control rows, zero overlap)
yield an *invalid* result rather than an exception, because Step 2 of FairCap
probes thousands of candidate treatments and must skip the degenerate ones
cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.causal.linalg import ols, one_hot
from repro.tabular.column import CategoricalColumn, NumericColumn
from repro.tabular.table import Table
from repro.utils.errors import EstimationError

#: Diagnostic reason shared by every positivity-screen rejection (scalar
#: estimators, the batched kernels, and the bitset pruning layer must emit
#: byte-identical results for the same degenerate candidate).
POSITIVITY_REASON = "positivity violated: empty treated or control group"


@dataclass(frozen=True)
class CateResult:
    """Outcome of a CATE estimation.

    Attributes
    ----------
    estimate:
        The CATE point estimate (NaN when invalid).
    stderr:
        Standard error of the estimate (NaN when unavailable).
    p_value:
        Two-sided p-value against ``CATE = 0`` (NaN when unavailable).
    n, n_treated, n_control:
        Row counts of the conditioning subpopulation and its treated /
        control partition.
    adjustment:
        The adjustment attributes used.
    valid:
        Whether the estimate is usable.
    reason:
        Human-readable reason when ``valid`` is False.
    """

    estimate: float
    stderr: float
    p_value: float
    n: int
    n_treated: int
    n_control: int
    adjustment: tuple[str, ...] = ()
    valid: bool = True
    reason: str = ""

    def is_significant(self, alpha: float = 0.05) -> bool:
        """Whether the effect is significant at level ``alpha``."""
        return self.valid and np.isfinite(self.p_value) and self.p_value <= alpha

    @staticmethod
    def invalid(
        reason: str,
        n: int = 0,
        n_treated: int = 0,
        n_control: int = 0,
        adjustment: tuple[str, ...] = (),
    ) -> "CateResult":
        """Build an invalid (unusable) result with a diagnostic reason."""
        return CateResult(
            estimate=float("nan"),
            stderr=float("nan"),
            p_value=float("nan"),
            n=n,
            n_treated=n_treated,
            n_control=n_control,
            adjustment=adjustment,
            valid=False,
            reason=reason,
        )


def _encode_adjustment(table: Table, names: tuple[str, ...]) -> np.ndarray:
    """Encode adjustment columns into a design block.

    Categorical columns one-hot encode with the first category dropped;
    continuous columns enter as-is.  Returns an ``(n, k)`` matrix (``k`` may
    be zero when there is nothing to adjust for).
    """
    blocks: list[np.ndarray] = []
    for name in names:
        column = table.column(name)
        if isinstance(column, CategoricalColumn):
            blocks.append(one_hot(column.codes, len(column.categories)))
        else:
            blocks.append(column.decode().reshape(-1, 1))
    if not blocks:
        return np.empty((table.n_rows, 0), dtype=np.float64)
    return np.hstack(blocks)


def _treatment_unidentified(design: np.ndarray) -> bool:
    """Whether the treatment column (column 1) lies in the span of the rest.

    Only consulted on rank-deficient designs.  If every null-space
    direction lives among the adjustment columns, the treatment coefficient
    is still unique across all least-squares solutions and the fit stands;
    if the treated indicator itself is (numerically) a linear function of
    the intercept and adjustment block, no amount of data identifies the
    effect and the estimate must be declared invalid.
    """
    t_col = design[:, 1]
    others = np.delete(design, 1, axis=1)
    projection, *_ = np.linalg.lstsq(others, t_col, rcond=None)
    residual = t_col - others @ projection
    return float(residual @ residual) <= 1e-16 * design.shape[0]


def _outcome_vector(table: Table, outcome: str) -> np.ndarray:
    column = table.column(outcome)
    if not isinstance(column, NumericColumn):
        raise EstimationError(
            f"outcome {outcome!r} must be continuous (binary outcomes should "
            "be encoded as 0/1 numeric columns)"
        )
    return column.decode()


class LinearAdjustmentEstimator:
    """CATE via OLS on ``O ~ 1 + T + adjustment`` (DoWhy's default)."""

    name = "linear_adjustment"

    def cache_key(self) -> tuple:
        """Identity-and-parameters key for :class:`EstimationCache` entries."""
        return (self.name,)

    def estimate(
        self,
        table: Table,
        treated: np.ndarray,
        outcome: str,
        adjustment: tuple[str, ...] = (),
    ) -> CateResult:
        """Estimate the effect of the binary ``treated`` indicator on ``outcome``.

        Parameters
        ----------
        table:
            The conditioning subpopulation (rows already restricted to the
            grouping pattern).
        treated:
            Boolean array over ``table`` rows: True = treatment group
            (the rows satisfying the intervention pattern), False = control.
        outcome:
            Continuous outcome attribute name.
        adjustment:
            Confounder attributes (a backdoor set).
        """
        treated = np.asarray(treated, dtype=bool)
        if treated.shape != (table.n_rows,):
            raise EstimationError(
                f"treated mask length {treated.shape} != rows {table.n_rows}"
            )
        n = table.n_rows
        n_treated = int(treated.sum())
        n_control = n - n_treated
        if n_treated == 0 or n_control == 0:
            return CateResult.invalid(
                POSITIVITY_REASON,
                n=n,
                n_treated=n_treated,
                n_control=n_control,
                adjustment=adjustment,
            )

        y = _outcome_vector(table, outcome)
        z_block = _encode_adjustment(table, adjustment)
        design = np.hstack(
            [
                np.ones((n, 1)),
                treated.astype(np.float64).reshape(-1, 1),
                z_block,
            ]
        )
        fit = ols(design, y)
        estimate = float(fit.coefficients[1])
        stderr = float(fit.stderr[1])
        if fit.dof <= 0 or not np.isfinite(stderr) or stderr == 0.0:
            return CateResult.invalid(
                "degenerate fit: no residual degrees of freedom",
                n=n,
                n_treated=n_treated,
                n_control=n_control,
                adjustment=adjustment,
            )
        if fit.rank < design.shape[1] and _treatment_unidentified(design):
            # The treated indicator lies in the span of the intercept and
            # the adjustment block — the effect is not identified (zero
            # overlap within adjustment strata) and lstsq's minimum-norm
            # split would silently report an arbitrary coefficient.
            return CateResult.invalid(
                "treatment collinear with the adjustment set "
                "(no treated/control overlap within strata)",
                n=n,
                n_treated=n_treated,
                n_control=n_control,
                adjustment=adjustment,
            )
        t_stat = estimate / stderr
        p_value = float(2.0 * special.stdtr(fit.dof, -abs(t_stat)))
        return CateResult(
            estimate=estimate,
            stderr=stderr,
            p_value=p_value,
            n=n,
            n_treated=n_treated,
            n_control=n_control,
            adjustment=adjustment,
        )

    def estimate_level_rows(
        self,
        table: Table,
        treated_rows: np.ndarray,
        outcome: str,
        adjustments,
        float_rows: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> list[CateResult]:
        """Batched FWL estimation of a whole lattice level (row-major stack).

        Delegates to :func:`repro.causal.batch.estimate_level_rows`; the
        presence of this method is what routes Step 2 onto the batched
        engine (:class:`StratifiedEstimator` has none and always takes the
        scalar per-candidate path).
        """
        from repro.causal.batch import estimate_level_rows

        return estimate_level_rows(
            table,
            treated_rows,
            outcome,
            adjustments,
            float_rows=float_rows,
            counts=counts,
        )


class StratifiedEstimator:
    """CATE via exact stratification on the adjustment attributes.

    Continuous adjustment attributes are discretised into ``n_bins``
    quantile bins before stratifying.  Strata that lack either a treated or a
    control row are dropped; if the dropped strata hold more than
    ``max_dropped_fraction`` of the rows the estimate is marked invalid
    (severe positivity violation).
    """

    name = "stratified"

    def __init__(self, n_bins: int = 4, max_dropped_fraction: float = 0.5) -> None:
        if n_bins < 2:
            raise EstimationError("n_bins must be at least 2")
        self.n_bins = n_bins
        self.max_dropped_fraction = max_dropped_fraction

    def cache_key(self) -> tuple:
        """Identity-and-parameters key for :class:`EstimationCache` entries."""
        return (self.name, self.n_bins, self.max_dropped_fraction)

    def _stratum_codes(self, table: Table, names: tuple[str, ...]) -> np.ndarray:
        """Combine adjustment columns into a single stratum id per row."""
        combined = np.zeros(table.n_rows, dtype=np.int64)
        for name in names:
            column = table.column(name)
            if isinstance(column, CategoricalColumn):
                codes = column.codes.astype(np.int64)
                cardinality = max(len(column.categories), 1)
            else:
                values = column.decode()
                edges = np.quantile(values, np.linspace(0, 1, self.n_bins + 1)[1:-1])
                codes = np.searchsorted(np.unique(edges), values, side="right")
                cardinality = self.n_bins
            combined = combined * cardinality + codes
        return combined

    def estimate(
        self,
        table: Table,
        treated: np.ndarray,
        outcome: str,
        adjustment: tuple[str, ...] = (),
    ) -> CateResult:
        """Estimate the treatment effect by within-stratum mean differences."""
        treated = np.asarray(treated, dtype=bool)
        if treated.shape != (table.n_rows,):
            raise EstimationError(
                f"treated mask length {treated.shape} != rows {table.n_rows}"
            )
        n = table.n_rows
        n_treated = int(treated.sum())
        n_control = n - n_treated
        if n_treated == 0 or n_control == 0:
            return CateResult.invalid(
                POSITIVITY_REASON,
                n=n,
                n_treated=n_treated,
                n_control=n_control,
                adjustment=adjustment,
            )

        y = _outcome_vector(table, outcome)
        strata = self._stratum_codes(table, adjustment)
        # Aggregate every stratum at once with bincount instead of a Python
        # loop over np.unique: per-arm counts, outcome sums, and (two-pass,
        # for numerical stability) squared deviations.
        _, inverse = np.unique(strata, return_inverse=True)
        n_strata = int(inverse.max()) + 1
        cnt_t = np.bincount(inverse[treated], minlength=n_strata)
        cnt_c = np.bincount(inverse[~treated], minlength=n_strata)
        overlap = (cnt_t > 0) & (cnt_c > 0)

        if not overlap.any():
            return CateResult.invalid(
                "no stratum contains both treated and control rows",
                n=n,
                n_treated=n_treated,
                n_control=n_control,
                adjustment=adjustment,
            )

        with np.errstate(divide="ignore", invalid="ignore"):
            mean_t = (
                np.bincount(inverse[treated], weights=y[treated], minlength=n_strata)
                / cnt_t
            )
            mean_c = (
                np.bincount(inverse[~treated], weights=y[~treated], minlength=n_strata)
                / cnt_c
            )
            dev_t = np.bincount(
                inverse[treated],
                weights=(y[treated] - mean_t[inverse[treated]]) ** 2,
                minlength=n_strata,
            )
            dev_c = np.bincount(
                inverse[~treated],
                weights=(y[~treated] - mean_c[inverse[~treated]]) ** 2,
                minlength=n_strata,
            )
            var_t = np.where(cnt_t > 1, dev_t / np.maximum(cnt_t - 1, 1) / cnt_t, 0.0)
            var_c = np.where(cnt_c > 1, dev_c / np.maximum(cnt_c - 1, 1) / cnt_c, 0.0)

        effects = (mean_t - mean_c)[overlap]
        weights = (cnt_t + cnt_c)[overlap].astype(np.float64)
        variances = (var_t + var_c)[overlap]
        used_rows = int(weights.sum())
        dropped_fraction = 1.0 - used_rows / n
        if dropped_fraction > self.max_dropped_fraction:
            return CateResult.invalid(
                f"positivity too weak: {dropped_fraction:.0%} of rows in "
                "strata lacking overlap",
                n=n,
                n_treated=n_treated,
                n_control=n_control,
                adjustment=adjustment,
            )

        weight_arr = weights / weights.sum()
        estimate = float(effects @ weight_arr)
        variance = float(variances @ (weight_arr**2))
        stderr = float(np.sqrt(variance)) if variance > 0 else float("nan")
        if np.isfinite(stderr) and stderr > 0:
            z_stat = estimate / stderr
            p_value = float(2.0 * special.ndtr(-abs(z_stat)))
        else:
            p_value = float("nan")
        return CateResult(
            estimate=estimate,
            stderr=stderr,
            p_value=p_value,
            n=n,
            n_treated=n_treated,
            n_control=n_control,
            adjustment=adjustment,
        )


_DEFAULT_ESTIMATOR = LinearAdjustmentEstimator()


def estimate_cate(
    table: Table,
    treated: np.ndarray,
    outcome: str,
    adjustment: tuple[str, ...] = (),
    estimator: LinearAdjustmentEstimator | StratifiedEstimator | None = None,
    cache=None,
) -> CateResult:
    """Facade: estimate a CATE with the given (or default linear) estimator.

    ``cache`` may be an :class:`~repro.parallel.cache.EstimationCache` (or
    anything exposing ``get_or_estimate``); a hit returns a result identical
    to recomputation because entries are keyed by the full problem content.
    """
    chosen = estimator if estimator is not None else _DEFAULT_ESTIMATOR
    if cache is not None:
        return cache.get_or_estimate(chosen, table, treated, outcome, adjustment)
    return chosen.estimate(table, treated, outcome, adjustment)
