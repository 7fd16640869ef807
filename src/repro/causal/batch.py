"""Batched Frisch-Waugh-Lovell CATE estimation: one GEMM per lattice level.

Step 2 of FairCap evaluates hundreds of intervention candidates against the
*same* (sub-table, adjustment set, outcome) triple — within one lattice
level only the treated column of the OLS design differs between candidates.
The scalar path (:class:`~repro.causal.estimators.LinearAdjustmentEstimator`)
nevertheless pays a full ``lstsq`` *and* a dense covariance factorization per
candidate, rebuilding identical one-hot adjustment blocks every time.

This module factors the shared work out once and amortises it over the whole
level via the Frisch-Waugh-Lovell theorem.  Write the design as
``X = [t, W]`` with ``W = [1, Z-block]``.  For ``W`` of full column rank,
with Gram matrix ``G = WᵀW``, the orthogonal projector onto ``col(W)`` is
``P = W G⁻¹ Wᵀ``; residualise both the treated indicator and the outcome
against it::

    t̃ = t - W G⁻¹ Wᵀ t          ỹ = y - W G⁻¹ Wᵀ y

Then the OLS coefficient of ``t`` is ``β = (t̃·ỹ) / (t̃·t̃)``, its sampling
variance is ``s² / (t̃·t̃)``, and the residual sum of squares of the *full*
regression is ``ỹ·ỹ - (t̃·ỹ)²/(t̃·t̃)``.  ``P`` depends on ``col(W)`` alone,
so any basis of it gives the same residuals: a ``W`` with structurally
redundant columns is factorized through a full-rank subset of them.  The
identity for the variance holds even when the design the scalar path fits
is rank deficient (absent one-hot categories): the ``t``-coefficient of the
minimum-norm least-squares solution is the unique functional
``y ↦ t̃·y / t̃·t̃`` whenever ``t ∉ col(W)``, so the ``t`` row of ``X⁺`` is
``t̃ᵀ/(t̃·t̃)`` and ``(XᵀX)⁺_tt = 1/(t̃·t̃)`` — exactly what the scalar path
reads off ``pinv``.

Every design of one table shares one statistic (:class:`_Moments`): the
augmented design ``A = [1, Z_U, y]`` over *every* non-outcome column ``U``
of the table and its moment matrix ``M = AᵀA``, one GEMM per (table,
outcome).  A design's normal equations are then index work on ``M`` and
``A``: :class:`GramFactorization` captures ``G⁻¹`` for a basis of
``col(W)``, its rank and the residualised outcome — computed once per
(table, adjustment, outcome) and memoised on the table it factorizes, so
it lives exactly as long as that sub-table — or marks the design
degenerate.  :func:`estimate_level_rows` residualises a whole lattice level
— an ``(m, n)`` row stack of treated masks, grouped by adjustment set — in
one GEMM pair per group and reads off all ``m`` estimates, standard errors
and t-test p-values vectorised.

Exactness contract
------------------
Results agree with the scalar path to floating-point working precision
(differentially tested at rtol 1e-9).  Rank deficiency that the table's
exact counts reveal stays on the FWL path: an absent one-hot category
leaves a zero column, and a categorical block with no row at its dropped
reference level sums to the intercept.  The Gram build drops those columns
(one per such block), which leaves ``col(W)`` — hence every FWL quantity
and the rank behind the dof ``n - rank - 1`` — unchanged.  Candidates the
FWL identities do not cover bit-identically fall back to the scalar
``ols()`` path per column:

- a ``W`` the Gram build rejects: collinear beyond those structural cases
  (e.g. a duplicated attribute), wider than its table after them, or
  ill-conditioned under the gate :data:`GRAM_RCOND_MIN`;
- ``t`` numerically inside ``col(W)`` (the full design is rank deficient);
- a numerically perfect fit (RSS at rounding level), where the FWL RSS
  identity loses relative accuracy.

Per-candidate determinism: each candidate's estimate is a pure function of
its row, the factorization, and the *batch shape* — BLAS GEMM kernels round
identically under row permutation at a fixed width, but not necessarily
across different widths.  Callers that must be bit-reproducible across
executors therefore key caches by the whole batch (see
``EstimationCache.rows_level_key``), never by single candidates computed
inside different batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special
from scipy.linalg import blas, lapack

from repro.causal.estimators import (
    POSITIVITY_REASON,
    CateResult,
    LinearAdjustmentEstimator,
    _outcome_vector,
)
from repro.obs.runtime import current as obs_current
from repro.tabular.column import CategoricalColumn
from repro.tabular.table import Table
from repro.utils.errors import EstimationError, SchemaError

# Guard thresholds for the scalar fallback (see module docstring).
RESIDUAL_TOL = 1e-10  # ‖t̃‖²/‖t‖² below this -> t ∈ col(W) numerically
PERFECT_FIT_TOL = 1e-12  # RSS/‖ỹ‖² below this -> scalar path
# Condition gate of the Gram (normal-equations) factorization: its
# projector loses ~kappa(W)^2 * eps of relative accuracy, so requiring
# rcond(R) >= 1e-3 keeps Gram-path estimates ~1e-10-accurate — inside the
# rtol-1e-9 differential contract.  A design under the gate is marked
# degenerate and its columns take the scalar path, which defines their
# bits.  That includes full-rank but badly scaled designs, such as a
# continuous adjuster whose mean dwarfs its spread: exact, but slower.
GRAM_RCOND_MIN = 1e-3

_SCALAR_FALLBACK = LinearAdjustmentEstimator()

_POSITIVITY = POSITIVITY_REASON
_DEGENERATE = "degenerate fit: no residual degrees of freedom"


#: Precomputed label keys for the factorization-route counter, a per-event
#: hot site that fires on every factorization build.
_ROUTE_KEYS = {
    route: f"route={route}" for route in ("gram", "gram_reduced", "degenerate")
}

#: Precomputed label keys of ``cache.lookups`` for the factorization memo,
#: indexed by whether the lookup hit.
_LOOKUP_KEYS = ("outcome=miss,tier=factorization", "outcome=hit,tier=factorization")


def _count_route(route: str) -> None:
    """Factorization route counter: ``gram``, ``gram_reduced`` or ``degenerate``.

    Engine counters like this one are *not* in the deterministic family:
    with a cache attached, whether a (table, adjustment) pair is factorized
    at all depends on cache state, which differs between one shared serial
    cache and per-worker seeded caches.
    """
    telemetry = obs_current()
    if telemetry.enabled:
        telemetry.registry.inc_key("estimation.factorizations", _ROUTE_KEYS[route])


def _count_scalar_fallbacks(kernel: str, reason: str, count: int) -> None:
    """Columns answered by the scalar OLS path instead of the FWL identities."""
    if count:
        telemetry = obs_current()
        if telemetry.enabled:
            telemetry.registry.inc(
                "estimation.scalar_fallbacks", count, kernel=kernel, reason=reason
            )


def _count_degenerate_fits(kernel: str, count: int) -> None:
    """Columns rejected with no residual degrees of freedom."""
    if count:
        telemetry = obs_current()
        if telemetry.enabled:
            telemetry.registry.inc("estimation.degenerate_fits", count, kernel=kernel)


@dataclass(frozen=True)
class GramFactorization:
    """Normal-equations factorization of ``W`` for the row-major kernel.

    Holds a basis of ``col(W)`` plus the inverse of its Gram matrix
    ``G = WᵀW`` (through its Cholesky factor): the FWL projection becomes
    ``t̃ = t - (t W) G⁻¹ Wᵀ``, two GEMMs.  The build multiplies nothing
    over the table's rows: ``G``, ``Wᵀy`` and ``W`` itself are index
    subselections of the table's :class:`_Moments`, built once per (table,
    outcome), so a build is index work, k×k LAPACK and one ``dgemv`` for
    the outcome residual.  That setup cost is what dominates Step-2 mining
    once everything else is batched.

    A design the build rejects (see :func:`build_rows_factorization`)
    yields the *degenerate marker*: ``degenerate=True``, rank 0 and empty
    arrays.  Every column estimated against it takes the scalar ``ols()``
    path, which defines its bits.  The marker is an instance rather than
    ``None`` because the table's memo (:func:`_table_factorization`) reads
    ``None`` as a miss.
    """

    w: np.ndarray  # (n, rank) basis columns of the design block
    gram_inv: np.ndarray  # (rank, rank) inverse of WᵀW
    rank: int
    y_res: np.ndarray
    y_res_sq: float
    n: int
    degenerate: bool = False


@dataclass(frozen=True)
class _Moments:
    """The augmented design of one (table, outcome) and its moment matrix.

    ``rows`` is ``Aᵀ`` for the design ``A = [1, Z_U, y]`` (C-contiguous,
    one design column per row): the intercept, then the encoded block of
    *every* column except the outcome, in table column order, then the
    outcome.  The encoding is
    :func:`repro.causal.estimators._encode_adjustment`'s: categoricals
    one-hot with the first category dropped, continuous as-is.
    ``moments`` is ``M = AᵀA``, one GEMM.  ``spans`` maps each column name,
    the outcome included, to its range of rows, and ``basis`` flags the
    rows a basis of ``col(W)`` keeps (:func:`_basis_rows`).

    ``U`` is fixed by the table alone, never by which designs were asked
    for first: the CATE level cache is keyed by table content and shared
    across contexts, so a design's bits must not depend on request order.
    """

    rows: np.ndarray
    moments: np.ndarray
    spans: dict[str, tuple[int, int]]
    basis: np.ndarray


def _augmented_rows(table: Table, outcome: str):
    """``Aᵀ`` (the ``rows`` of :class:`_Moments`), ``spans`` and the blocks.

    Reading the outcome first validates it on every design.  The blocks
    are the categorical row ranges; a one-category column's range is
    empty and left out.
    """
    y = _outcome_vector(table, outcome)
    n = table.n_rows
    spans: dict[str, tuple[int, int]] = {}
    blocks: list[tuple[int, int]] = []
    codes, continuous = [], []
    start = 1
    for spec in table.schema:
        if spec.name == outcome:
            continue
        column = table.column(spec.name)
        if isinstance(column, CategoricalColumn):
            stop = start + len(column.categories) - 1
            if stop > start:
                blocks.append((start, stop))
                codes.append(column.codes)
        else:
            stop = start + 1
            continuous.append((start, column.decode()))
        spans[spec.name] = (start, stop)
        start = stop
    spans[outcome] = (start, start + 1)
    rows = np.zeros((start + 1, n))
    rows[0] = 1.0
    rows[start] = y
    for row, values in continuous:
        rows[row] = values
    if blocks:
        # Code c >= 1 sets row first + c - 1; code 0 is the reference.
        codes = np.stack(codes)
        flat = (np.asarray(blocks)[:, :1] - 1 + codes) * n + np.arange(n)
        rows.reshape(-1)[flat[codes > 0]] = 1.0
    return rows, spans, blocks


def _moment_matrix(table: Table, outcome: str) -> np.ndarray:
    """``M`` of one in-RAM table (a shard)."""
    rows = _augmented_rows(table, outcome)[0]
    return rows @ rows.T


def _merge_shard_arrays(table, stat) -> np.ndarray:
    """Accumulate a row-additive array statistic shard by shard.

    The accumulation order is the fixed shard order, so the result is
    deterministic for a given shard layout regardless of who computes it
    (serial, thread, or process workers).  Intercept and one-hot entries
    are integer-valued, so their merge is *exact*; continuous entries are
    shard-order-deterministic floating sums.
    """
    total: np.ndarray | None = None
    for shard in table.iter_shards():
        part = stat(shard)
        if total is None:
            total = np.array(part, dtype=np.float64, copy=True)
        else:
            total += part
    assert total is not None  # sharded tables always have >= 1 shard
    return total


def _basis_rows(moments: np.ndarray, blocks: list[tuple[int, int]]) -> np.ndarray:
    """Columns of ``A`` that a basis of ``col(W)`` keeps, in every design.

    Decided on the exact integer counts ``M`` holds (one-hot column sums
    are in the intercept row, one-hot diagonals are counts), so no
    rounding enters the choice.  Each column is decided from its own block
    alone, so the table-wide mask restricted to a design's columns is that
    design's basis.  Two structural deficiencies deflate:

    - an exactly-zero column (a one-hot category absent from the table)
      has a zero diagonal entry and spans nothing;
    - a categorical block whose column counts sum to the row count has no
      row at its dropped reference level, so its present columns sum to
      the intercept; dropping the block's first present column leaves
      ``col(W)`` unchanged.

    Anything else (e.g. two attributes that coincide on this table) is
    left for the Cholesky and condition gate to reject.
    """
    basis = moments.diagonal() > 0.0  # the intercept's entry is n > 0
    if blocks:
        # Block sums sit at the even positions.  ``blocks`` holds no empty
        # block: reduceat over an empty range returns the next element.
        bounds = np.asarray(blocks)
        sums = np.add.reduceat(moments[0], bounds.ravel())[::2]
        for start, stop in bounds[sums == moments[0, 0]].tolist():
            basis[start + int(np.argmax(basis[start:stop]))] = False
    return basis


def _table_moments(table: Table, outcome: str) -> _Moments:
    """The table's :class:`_Moments` for ``outcome``, memoised on the table.

    For a sharded table ``M`` is the shard-order sum of the shards' own
    ``M``: its integer entries are bit-identical to the in-RAM build.
    ``A`` still spans all of the table's rows, but no mining path
    factorizes a sharded table (context sub-tables are in-RAM gathers), so
    only direct callers pay for it.
    """
    memo = table.__dict__.setdefault("_moments_cache", {})
    stats = memo.get(outcome)
    if stats is None:
        rows, spans, blocks = _augmented_rows(table, outcome)
        if getattr(table, "is_sharded", False):
            moments = _merge_shard_arrays(
                table, lambda shard: _moment_matrix(shard, outcome)
            )
        else:
            moments = rows @ rows.T
        stats = _Moments(rows, moments, spans, _basis_rows(moments, blocks))
        memo[outcome] = stats
    return stats


def _finish_gram(gram):
    """Cholesky + condition gate + mirrored inverse; None -> degenerate."""
    r_factor, info = lapack.dpotrf(gram, lower=0)
    if info != 0:  # not positive definite: rank deficient
        return None
    rcond = lapack.dtrcon(r_factor, norm="1", uplo="U", diag="N")[0]
    if rcond < GRAM_RCOND_MIN:
        return None
    gram_inv, info = lapack.dpotri(r_factor, lower=0)
    if info != 0:  # pragma: no cover - dpotri after a clean dpotrf
        return None
    # dpotri fills the upper triangle only (dpotrf zeroed the strict
    # lower); mirror without np.triu's mask machinery.
    diagonal_inv = gram_inv.diagonal().copy()
    gram_inv = gram_inv + gram_inv.T
    np.fill_diagonal(gram_inv, diagonal_inv)
    return gram_inv


def _degenerate_marker(n: int) -> GramFactorization:
    """The factorization of a design the Gram build rejects."""
    _count_route("degenerate")
    return GramFactorization(
        w=np.empty((n, 0)),
        gram_inv=np.empty((0, 0)),
        rank=0,
        y_res=np.empty(0),
        y_res_sq=0.0,
        n=n,
        degenerate=True,
    )


def build_rows_factorization(
    table: Table, outcome: str, adjustment: tuple[str, ...] = ()
) -> GramFactorization:
    """Factorize ``[1, Z-block]`` for the fused row-major kernel.

    Index work on the table's :class:`_Moments`: the design's columns are
    the intercept plus each adjustment attribute's columns of ``A``, in
    adjustment order (the outcome, passed as an adjuster, is ``A``'s ``y``
    column).  The build keeps those in the table's basis mask
    (:func:`_basis_rows`): exactly-zero columns (absent one-hot
    categories) and, per categorical block whose reference level is
    absent, the block's first present column are dropped (route
    ``gram_reduced``).  The basis spans the same ``col(W)``, so the FWL
    residuals, and the rank behind the dof ``n - rank - 1``, are the
    scalar path's.  Then ``G = M[keep][:, keep]``, ``Wᵀy = M[keep, y]``
    and ``W = A[:, keep]``.  A design still wider than its table, or
    rejected by the Cholesky or the condition gate, yields the degenerate
    marker (route ``degenerate``); the kernel answers its columns through
    the scalar path.
    """
    n = table.n_rows
    if n == 0:
        raise EstimationError("cannot factorize an empty design")
    stats = _table_moments(table, outcome)
    cols = [0]
    for name in adjustment:
        span = stats.spans.get(name)
        if span is None:
            raise SchemaError(f"unknown attribute {name!r}")
        cols.extend(range(*span))
    cols = np.array(cols)
    keep = cols[stats.basis[cols]]
    if keep.size > n:
        return _degenerate_marker(n)
    gram_inv = _finish_gram(stats.moments[keep[:, None], keep])
    if gram_inv is None:
        return _degenerate_marker(n)
    w = stats.rows[keep].T
    # One fused GEMV: y_res = y - W (G^-1 Wᵀy), accumulated in place.
    y_res = blas.dgemv(
        -1.0,
        w,
        gram_inv @ stats.moments[keep, -1],
        beta=1.0,
        y=stats.rows[-1].copy(),
        overwrite_y=1,
    )
    _count_route("gram_reduced" if keep.size < cols.size else "gram")
    return GramFactorization(
        w=w,
        gram_inv=gram_inv,
        rank=keep.size,
        y_res=y_res,
        y_res_sq=float(y_res @ y_res),
        n=n,
    )


def _table_factorization(
    table: Table, outcome: str, adjustment: tuple[str, ...]
) -> GramFactorization:
    """:func:`build_rows_factorization`, memoised on ``table``.

    The memo sits in ``table.__dict__`` beside the table's moment
    statistic, keyed by ``(outcome, adjustment)``, so a factorization lives
    exactly as long as the sub-table it factorizes: one Step-2 context.
    Its bits are a pure function of the table's content, so a hit is
    bit-identical to a rebuild.  A build that raises memoises nothing.  In
    a traced run every lookup counts as a factorization-tier
    ``cache.lookups`` hit or miss.
    """
    memo = table.__dict__.setdefault("_factorization_cache", {})
    key = (outcome, adjustment)
    factorization = memo.get(key)
    hit = factorization is not None
    if not hit:
        factorization = build_rows_factorization(table, outcome, adjustment)
        memo[key] = factorization
    telemetry = obs_current()
    if telemetry.enabled:
        telemetry.registry.inc_key("cache.lookups", _LOOKUP_KEYS[hit])
    return factorization


def estimate_level_rows(
    table: Table,
    treated_rows: np.ndarray,
    outcome: str,
    adjustments: Sequence[tuple[str, ...]],
    float_rows: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> list[CateResult]:
    """Estimate one CATE per candidate row for a whole lattice level.

    The Step-2 level kernel.  Candidates arrive as an ``(m, n)`` *row-major*
    stack — the layout packed bitsets unpack into for free
    (:func:`repro.mining.bitsets.unpack_rows`) — so every per-candidate
    reduction runs over a contiguous row and the projection GEMM pair is
    ``T W`` then ``- (T W G⁻¹) Wᵀ``.  Rows may use different adjustment sets
    (``adjustments[j]`` belongs to row ``j``); rows sharing a set form one
    FWL group and ride the same GEMM pair.

    Two fixed costs are hoisted out to the caller:

    - ``float_rows`` lets the caller convert the boolean stack to float64
      **once per level** and share it across sub-population calls;
    - ``counts`` lets the caller pass popcount-derived treated counts (the
      bitset layer computes them anyway for support pruning), replacing
      the per-call boolean row sums.

    Each group with at least one row past the positivity screen looks its
    design up in ``table``'s factorization memo
    (:func:`_table_factorization`) and builds it only on a miss, so every
    level of one sub-table shares each design's build.

    Exactness: results agree with the scalar
    :meth:`~repro.causal.estimators.LinearAdjustmentEstimator.estimate` to
    working precision (rtol 1e-9, differentially tested); the positivity
    screen, designs the Gram build marks degenerate and the identity
    guards take the scalar ``ols()`` path and match it bit for bit.
    Per-row bits are a pure function of the batch content, so a level's
    results never depend on which other grouping patterns were mined before
    it or by which worker (serial ≡ process at any chunking).
    """
    treated_rows = np.asarray(treated_rows, dtype=bool)
    if treated_rows.ndim != 2:
        raise EstimationError(
            f"treated_rows must be 2-D (m, n), got shape {treated_rows.shape}"
        )
    m, n = treated_rows.shape
    if n != table.n_rows:
        raise EstimationError(
            f"treated_rows columns {n} != table rows {table.n_rows}"
        )
    if len(adjustments) != m:
        raise EstimationError(
            f"{len(adjustments)} adjustment tuples for {m} rows"
        )
    if m == 0:
        return []

    if counts is None:
        counts = treated_rows.sum(axis=1)
    else:
        counts = np.asarray(counts)
    n_treated = [int(c) for c in counts]
    results: list[CateResult | None] = [None] * m

    for j in range(m):
        if n_treated[j] == 0 or n_treated[j] == n:
            results[j] = CateResult.invalid(
                _POSITIVITY,
                n=n,
                n_treated=n_treated[j],
                n_control=n - n_treated[j],
                adjustment=tuple(adjustments[j]),
            )

    # First-seen grouping by adjustment set: deterministic given the level.
    groups: dict[tuple[str, ...], list[int]] = {}
    for j in range(m):
        if results[j] is None:
            groups.setdefault(tuple(adjustments[j]), []).append(j)
    if not groups:
        return results  # type: ignore[return-value]

    if float_rows is None:
        float_rows = treated_rows.astype(np.float64)

    # Per-group work is the two GEMMs and the two row reductions only;
    # every elementwise identity below runs once per call on the stacked
    # per-column arrays (order: group-concatenation, deterministic).
    act_cols: list[int] = []
    act_adjustment: list[tuple[str, ...]] = []
    group_sizes: list[int] = []
    group_dof: list[int] = []
    group_ysq: list[float] = []
    tt_parts: list[np.ndarray] = []
    ty_parts: list[np.ndarray] = []

    with obs_current().tracer.span(
        "estimation.level", kernel="rows", columns=m, groups=len(groups)
    ):
        for adjustment, cols in groups.items():
            factorization = _table_factorization(table, outcome, adjustment)
            if factorization.degenerate:
                _count_scalar_fallbacks("rows", "collinear_design", len(cols))
                for j in cols:
                    results[j] = _SCALAR_FALLBACK.estimate(
                        table, treated_rows[j], outcome, adjustment
                    )
                continue

            t_rows = float_rows[cols] if len(cols) != m else float_rows
            # The transposed GEMM pair: project out col(W) row-wise, then the
            # contiguous-row reductions (einsum stays off BLAS; each row's sum
            # is a pure function of that row).
            projected = (t_rows @ factorization.w) @ factorization.gram_inv
            t_res = t_rows - projected @ factorization.w.T
            tt_parts.append(np.einsum("ij,ij->i", t_res, t_res))
            ty_parts.append(np.einsum("ij,j->i", t_res, factorization.y_res))
            act_cols.extend(cols)
            act_adjustment.append(adjustment)
            group_sizes.append(len(cols))
            group_dof.append(n - factorization.rank - 1)
            group_ysq.append(factorization.y_res_sq)

    if not act_cols:
        return results  # type: ignore[return-value]

    tt = np.concatenate(tt_parts) if len(tt_parts) > 1 else tt_parts[0]
    ty = np.concatenate(ty_parts) if len(ty_parts) > 1 else ty_parts[0]
    sizes = np.asarray(group_sizes)
    dof_col = np.repeat(np.asarray(group_dof, dtype=np.float64), sizes)
    ysq_col = np.repeat(np.asarray(group_ysq), sizes)
    act_counts = counts[act_cols].astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        estimates = ty / tt
        rss = ysq_col - ty * ty / tt
        stderrs = np.sqrt((rss / np.maximum(dof_col, 1.0)) / tt)
        # ‖t‖² of a boolean mask is its treated count; a numerically
        # perfect fit makes the FWL RSS identity cancel catastrophically —
        # both defer to the scalar path, which defines the answer
        # bit-for-bit.
        fallback = tt <= RESIDUAL_TOL * act_counts
        fallback |= rss <= PERFECT_FIT_TOL * np.maximum(ysq_col, 1.0)
        degenerate_fit = (dof_col <= 0) | ~np.isfinite(stderrs) | (stderrs == 0.0)
        t_stats = estimates / stderrs
        p_values = 2.0 * special.stdtr(dof_col, -np.abs(t_stats))

    if obs_current().enabled:
        _count_scalar_fallbacks(
            "rows", "identity_guard", int(np.count_nonzero(fallback))
        )
        _count_degenerate_fits(
            "rows", int(np.count_nonzero(degenerate_fit & ~fallback))
        )

    bad = fallback | degenerate_fit
    if bad.any():
        adj_col = np.repeat(np.arange(len(act_adjustment)), sizes)
        fallback_l = fallback.tolist()
        for pos in np.flatnonzero(bad):
            j = act_cols[pos]
            adjustment = act_adjustment[adj_col[pos]]
            if fallback_l[pos]:
                results[j] = _SCALAR_FALLBACK.estimate(
                    table, treated_rows[j], outcome, adjustment
                )
            else:
                results[j] = CateResult.invalid(
                    _DEGENERATE,
                    n=n,
                    n_treated=n_treated[j],
                    n_control=n - n_treated[j],
                    adjustment=adjustment,
                )
        bad_l = bad.tolist()
    else:
        bad_l = None

    est_l = estimates.tolist()
    se_l = stderrs.tolist()
    p_l = p_values.tolist()
    for pos, j in enumerate(act_cols):
        if bad_l is not None and bad_l[pos]:
            continue
        results[j] = CateResult(
            estimate=est_l[pos],
            stderr=se_l[pos],
            p_value=p_l[pos],
            n=n,
            n_treated=n_treated[j],
            n_control=n - n_treated[j],
            adjustment=tuple(adjustments[j]),
        )
    return results  # type: ignore[return-value]
