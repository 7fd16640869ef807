"""Batched Frisch-Waugh-Lovell CATE estimation: one GEMM per lattice level.

Step 2 of FairCap evaluates hundreds of intervention candidates against the
*same* (sub-table, adjustment set, outcome) triple — within one lattice
level only the treated column of the OLS design differs between candidates.
The scalar path (:class:`~repro.causal.estimators.LinearAdjustmentEstimator`)
nevertheless pays a full ``lstsq`` *and* a dense covariance factorization per
candidate, rebuilding identical one-hot adjustment blocks every time.

This module factors the shared work out once and amortises it over the whole
level via the Frisch-Waugh-Lovell theorem.  Write the design as
``X = [t, W]`` with ``W = [1, Z-block]``; residualise both the treated
indicator and the outcome against ``col(W)``::

    t̃ = t - Q Qᵀ t          ỹ = y - Q Qᵀ y

where ``Q`` is a thin orthonormal basis of ``col(W)``.  Then the OLS
coefficient of ``t`` is ``β = (t̃·ỹ) / (t̃·t̃)``, its sampling variance is
``s² / (t̃·t̃)``, and the residual sum of squares of the *full* regression is
``ỹ·ỹ - (t̃·ỹ)²/(t̃·t̃)``.  The identity for the variance holds even when
``W`` is rank deficient (absent one-hot categories, collinear adjustment
columns): the ``t``-coefficient of the minimum-norm least-squares solution is
the unique functional ``y ↦ t̃·y / t̃·t̃`` whenever ``t ∉ col(W)``, so the
``t`` row of ``X⁺`` is ``t̃ᵀ/(t̃·t̃)`` and ``(XᵀX)⁺_tt = 1/(t̃·t̃)`` — exactly
what the scalar path reads off ``pinv``.

:class:`DesignFactorization` (a thin QR) and :class:`GramFactorization`
(block-assembled normal equations, the fast path) capture the projector onto
``col(W)``, its rank and the residualised outcome — computed once per
(table, adjustment, outcome) and cacheable (see
:class:`~repro.parallel.cache.EstimationCache`).
:func:`estimate_level_rows` residualises a whole lattice level — an
``(m, n)`` row stack of treated masks, grouped by adjustment set — in one
GEMM pair per group and reads off all ``m`` estimates, standard errors and
t-test p-values vectorised.

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

- a ``W`` the QR build certifies degenerate: collinear beyond those
  structural cases (e.g. a duplicated attribute), or wider than its table
  after them;
- ``t`` numerically inside ``col(W)`` (the full design is rank deficient);
- an ill-conditioned ``W`` whose numerical rank is ambiguous under the
  ``lstsq`` cutoff rule;
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
from scipy import linalg as scipy_linalg
from scipy import special
from scipy.linalg import blas, lapack

from repro.causal.estimators import (
    POSITIVITY_REASON,
    CateResult,
    LinearAdjustmentEstimator,
    _outcome_vector,
)
from repro.causal.linalg import one_hot
from repro.obs.runtime import current as obs_current
from repro.tabular.column import CategoricalColumn
from repro.tabular.schema import AttributeKind
from repro.tabular.table import Table
from repro.utils.errors import EstimationError

# Guard thresholds for the scalar fallback (see module docstring).  The
# rank cutoff mirrors numpy's lstsq rcond rule; CONDITION_MARGIN widens it
# so designs whose rank determination is ambiguous between the W-SVD here
# and the X-SVD inside lstsq are routed to the scalar path instead of
# risking an off-by-one dof.  RCOND_FAST_PATH is the dtrcon estimate above
# which a design is certified clean without computing singular values.
CONDITION_MARGIN = 1e3
RCOND_FAST_PATH = 1e-7
RESIDUAL_TOL = 1e-10  # ‖t̃‖²/‖t‖² below this -> t ∈ col(W) numerically
PERFECT_FIT_TOL = 1e-12  # RSS/‖ỹ‖² below this -> scalar path
# Condition gate of the Gram (normal-equations) factorization: its
# projector loses ~kappa(W)^2 * eps of relative accuracy, so requiring
# rcond(R) >= 1e-3 keeps Gram-path estimates ~1e-10-accurate — inside the
# rtol-1e-9 differential contract — and routes anything worse to the QR
# build, whose certification logic is the reference.
GRAM_RCOND_MIN = 1e-3

_SCALAR_FALLBACK = LinearAdjustmentEstimator()

# Lazily-bound handle to repro.parallel.shm (a causal -> parallel module
# import would be cyclic at load time).  Stays None until the first
# cache-miss lookup; the lookup itself is a no-op dictionary probe in
# every process that never attached a shared-memory segment.
_shm = None


def _shared_lookup(table: Table, key):
    """A worker-attached shared-memory buffer for a per-table cache key."""
    global _shm
    if _shm is None:
        from repro.parallel import shm

        _shm = shm
    return _shm.lookup(table, key)

_POSITIVITY = POSITIVITY_REASON
_DEGENERATE = "degenerate fit: no residual degrees of freedom"


#: Precomputed label keys for the factorization-route counter: the one
#: per-event hot site that fires on every factorization build.
_ROUTE_KEYS = {
    route: f"route={route}"
    for route in ("gram", "gram_reduced", "qr", "qr_collinear")
}


def _count_route(route: str) -> None:
    """Factorization route counter (Gram fast path vs QR reference).

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
class DesignFactorization:
    """Orthonormal factorization of the shared design block ``W = [1, Z]``.

    Attributes
    ----------
    q:
        ``(n, r)`` orthonormal basis of ``col(W)``.
    rank:
        Numerical rank ``r`` of ``W`` under the ``lstsq`` cutoff rule.
    y_res:
        The outcome residualised against ``col(W)`` (``ỹ``).
    y_res_sq:
        Cached ``ỹ·ỹ``.
    n:
        Row count of the underlying table.
    degenerate:
        True when ``W`` is rank deficient beyond exactly-zero columns or
        ill-conditioned near the rank cutoff; every estimate against a
        degenerate factorization takes the scalar fallback path.
    """

    q: np.ndarray
    rank: int
    y_res: np.ndarray
    y_res_sq: float
    n: int
    degenerate: bool


def _attribute_block(table: Table, name: str) -> np.ndarray:
    """Encoded design columns of one adjustment attribute, memoised per table.

    Same encoding as :func:`repro.causal.estimators._encode_adjustment`:
    categoricals one-hot with the first category dropped, continuous as-is.
    The same attribute appears in many adjustment sets of one sub-table
    (every treatment whose backdoor set contains it), so the block rides on
    the immutable table like its fingerprint does.
    """
    cache = table.__dict__.setdefault("_design_block_cache", {})
    block = cache.get(name)
    if block is None:
        block = _shared_lookup(table, ("block", name))
    if block is None:
        column = table.column(name)
        if isinstance(column, CategoricalColumn):
            block = one_hot(column.codes, len(column.categories))
        else:
            block = column.decode().reshape(-1, 1).astype(np.float64, copy=False)
    cache[name] = block
    return block


def _attribute_block_t(table: Table, name: str) -> np.ndarray:
    """C-contiguous transpose of :func:`_attribute_block`, memoised too.

    Design assembly copies whole attribute blocks; doing it in the
    transposed layout turns strided column writes into contiguous row
    memcpys, and the resulting Fortran-order ``W`` view is what LAPACK and
    BLAS natively consume (``dgeqrf``'s ``overwrite_a`` only avoids its
    internal copy for Fortran-contiguous input).
    """
    cache = table.__dict__.setdefault("_design_block_t_cache", {})
    block_t = cache.get(name)
    if block_t is None:
        block_t = _shared_lookup(table, ("block_t", name))
    if block_t is None:
        block_t = np.ascontiguousarray(_attribute_block(table, name).T)
    cache[name] = block_t
    return block_t


def _build_design_block(table: Table, adjustment: tuple[str, ...]) -> np.ndarray:
    """Assemble ``W = [1, Z-block]`` (Fortran order) from cached blocks."""
    n = table.n_rows
    blocks_t = [_attribute_block_t(table, name) for name in adjustment]
    total = 1 + sum(block.shape[0] for block in blocks_t)
    w_t = np.empty((total, n), dtype=np.float64)
    w_t[0] = 1.0
    offset = 1
    for block in blocks_t:
        width = block.shape[0]
        w_t[offset : offset + width] = block
        offset += width
    return w_t.T


def _rank_from_singular_values(
    r_factor: np.ndarray, shape: tuple[int, int]
) -> tuple[int, bool]:
    """(rank, shaky) from the singular values of the triangular factor."""
    s = np.linalg.svd(r_factor, compute_uv=False)
    cutoff = max(shape) * np.finfo(np.float64).eps * s[0]
    rank = int((s > cutoff).sum())
    shaky = bool(((s > cutoff) & (s < CONDITION_MARGIN * cutoff)).any())
    return rank, shaky


def build_factorization(
    table: Table, outcome: str, adjustment: tuple[str, ...] = ()
) -> DesignFactorization:
    """Factorize ``[1, Z-block]`` for one (table, adjustment, outcome) triple.

    One thin QR per triple; every lattice level sharing the triple reuses
    the result.  Rank and conditioning are certified on the small
    triangular factor: a LAPACK ``dtrcon`` estimate fast-paths the
    well-conditioned common case, and only suspicious designs pay an SVD of
    ``R`` (whose singular values equal ``W``'s, so the rank cutoff matches
    ``lstsq``'s rule).  Exactly-zero adjustment columns (one-hot categories
    absent from the sub-table) deflate cleanly — they contribute nothing to
    the basis and the rank, matching ``lstsq``'s treatment of them in the
    scalar path.
    """
    y = _outcome_vector(table, outcome)
    n = table.n_rows
    if n == 0:
        raise EstimationError("cannot factorize an empty design")
    w = _build_design_block(table, adjustment)
    n_cols = w.shape[1]

    rank = n_cols
    degenerate = False
    if n_cols > n:  # wide design: trivially deficient
        degenerate = True
        q = np.empty((n, 0), dtype=np.float64)  # unused on the scalar path
    else:
        # Raw LAPACK spelling of scipy.linalg.qr(mode="economic"): same
        # bits, none of the wrapper overhead — this runs ~1.4k times per
        # German Table-4 mining run.  ``w`` is freshly assembled above and
        # ``qr_t`` is ours, so both factorization steps may overwrite their
        # inputs in place instead of paying an (n, k) copy each.
        lwork = int(lapack.dgeqrf_lwork(n, n_cols)[0])
        qr_t, tau, _, info = lapack.dgeqrf(w, lwork=lwork, overwrite_a=1)
        if info != 0:  # pragma: no cover - LAPACK input errors
            raise EstimationError(f"dgeqrf failed with info={info}")
        r_factor = qr_t[:n_cols, :n_cols]  # sub-diagonal junk is ignored
        diag = np.abs(r_factor.diagonal())
        if diag.size and diag.min() == 0.0:
            degenerate = True  # exactly singular; maybe just zero columns
        else:
            rcond = lapack.dtrcon(r_factor, norm="1", uplo="U", diag="N")[0]
            if rcond < RCOND_FAST_PATH:
                rank, shaky = _rank_from_singular_values(
                    np.triu(r_factor), w.shape
                )
                degenerate = rank < n_cols or shaky
        q, _, info = lapack.dorgqr(qr_t, tau, lwork=lwork, overwrite_a=1)
        if info != 0:  # pragma: no cover - LAPACK input errors
            raise EstimationError(f"dorgqr failed with info={info}")
    if degenerate:
        # Zero columns (absent one-hot categories) deflate cleanly: drop
        # them and re-factorize; any other deficiency keeps the
        # factorization degenerate and takes the scalar fallback per
        # column.  The first QR consumed ``w`` in place (overwrite_a), so
        # this rare branch reassembles it from the cached blocks.
        w = _build_design_block(table, adjustment)
        nonzero = np.abs(w).max(axis=0) > 0.0
        if not nonzero.all():
            reduced = np.ascontiguousarray(w[:, nonzero])
            if reduced.shape[1] <= n:
                q2, r2 = scipy_linalg.qr(
                    reduced, mode="economic", overwrite_a=True, check_finite=False
                )
                rank, shaky = _rank_from_singular_values(r2, reduced.shape)
                if rank == reduced.shape[1] and not shaky:
                    q = q2
                    degenerate = False

    _count_route("qr_collinear" if degenerate else "qr")
    if degenerate:
        # Basis unused on the degenerate path; keep fields consistent.
        rank = min(rank, q.shape[1])
    q = q[:, :rank] if q.shape[1] != rank else q
    # C-contiguous basis: LAPACK hands back Fortran order, under which the
    # projection GEMM's per-column rounding depends on the column position;
    # row-major Q keeps batch results bit-invariant under column
    # permutation (the property the differential suite pins down).
    q = np.ascontiguousarray(q)
    y_res = y - q @ (q.T @ y)
    return DesignFactorization(
        q=q,
        rank=rank,
        y_res=y_res,
        y_res_sq=float(y_res @ y_res),
        n=n,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class GramFactorization:
    """Normal-equations factorization of ``W`` for the row-major kernel.

    Holds the design block plus the inverse of its Gram matrix ``G = WᵀW``
    (through its Cholesky factor): the FWL projection becomes
    ``t̃ = t - (t W) G⁻¹ Wᵀ`` — the same two big GEMMs as the Q-based
    spelling — but the *build* skips the Householder QR entirely, and on
    the fast path never runs a syrk either: ``G``'s blocks are pairwise
    products of per-attribute design blocks, which repeat across the many
    adjustment sets of one table and are therefore memoised on the table
    (:func:`_gram_pair`), so a typical build is a handful of tiny copies,
    k×k LAPACK, and one assembly of ``W`` for the projection GEMMs.  That
    setup cost is what dominates Step-2 mining once everything else is
    batched.

    Only well-conditioned designs get here (see
    :func:`build_rows_factorization`): anything whose Cholesky fails or
    whose ``rcond`` falls under :data:`GRAM_RCOND_MIN` is routed to
    :func:`build_factorization` — so degenerate handling, and its
    bit-exact scalar fallback, stay byte-for-byte the QR path's.
    """

    w: np.ndarray  # (n, rank) basis columns of the design block
    gram_inv: np.ndarray  # (rank, rank) inverse of WᵀW
    rank: int
    y_res: np.ndarray
    y_res_sq: float
    n: int
    degenerate: bool = False


def _gram_cache(table: Table) -> dict:
    return table.__dict__.setdefault("_gram_block_cache", {})


def _merge_shard_arrays(table, stat) -> np.ndarray:
    """Accumulate a row-additive array statistic shard by shard.

    The accumulation order is the fixed shard order, so the result is
    deterministic for a given shard layout regardless of who computes it
    (serial, thread, or process workers).  One-hot cross products and column sums
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


def _block_column_sums(table: Table, name: str) -> np.ndarray:
    """Column sums of one attribute's design block (= its ``1ᵀ block`` row)."""
    cache = _gram_cache(table)
    key = ("sums", name)
    sums = cache.get(key)
    if sums is None:
        sums = _shared_lookup(table, key)
    if sums is None:
        if getattr(table, "is_sharded", False):
            sums = _merge_shard_arrays(
                table, lambda shard: _block_column_sums(shard, name)
            )
        else:
            sums = _attribute_block(table, name).sum(axis=0)
    cache[key] = sums
    return sums


def _gram_pair(table: Table, a: str, b: str) -> np.ndarray:
    """``block(a)ᵀ block(b)``, memoised per table under the sorted pair."""
    cache = _gram_cache(table)
    first, second = (a, b) if a <= b else (b, a)
    key = ("pair", first, second)
    product = cache.get(key)
    if product is None:
        product = _shared_lookup(table, key)
    if product is None:
        if getattr(table, "is_sharded", False):
            product = _merge_shard_arrays(
                table, lambda shard: _gram_pair(shard, first, second)
            )
        else:
            product = (
                _attribute_block(table, first).T @ _attribute_block(table, second)
            )
    cache[key] = product
    return product if (a, b) == (first, second) else product.T


def _outcome_block_products(table: Table, outcome: str, name: str) -> np.ndarray:
    """``yᵀ block(name)``, memoised per (outcome, attribute) per table."""
    cache = _gram_cache(table)
    key = ("y", outcome, name)
    product = cache.get(key)
    if product is None:
        product = _shared_lookup(table, key)
    if product is None:
        if getattr(table, "is_sharded", False):
            product = _merge_shard_arrays(
                table, lambda shard: _outcome_block_products(shard, outcome, name)
            )
        else:
            product = _outcome_vector(table, outcome) @ _attribute_block(table, name)
    cache[key] = product
    return product


def _outcome_sum(table: Table, outcome: str) -> float:
    """``yᵀ1`` (the outcome's intercept component), memoised per table."""
    cache = _gram_cache(table)
    key = ("ysum", outcome)
    total = cache.get(key)
    if total is None:
        total = _shared_lookup(table, key)
        if total is not None:
            total = float(np.asarray(total).reshape(-1)[0])
    if total is None:
        if getattr(table, "is_sharded", False):
            total = 0.0
            for shard in table.iter_shards():
                total += _outcome_sum(shard, outcome)
        else:
            total = float(_outcome_vector(table, outcome).sum())
    cache[key] = total
    return total


def _assemble_gram(
    table: Table, adjustment: tuple[str, ...], widths: list[int], k: int
) -> np.ndarray:
    """Assemble the upper triangle of ``G = WᵀW`` from memoised products.

    The strict lower triangle is left zero — dpotrf/dpotri only read the
    upper, and the mirror step after dpotri relies on zeros below.
    """
    gram = np.zeros((k, k))
    gram[0, 0] = float(table.n_rows)
    offsets = np.cumsum([1] + widths).tolist()
    for i, name in enumerate(adjustment):
        gram[0, offsets[i] : offsets[i + 1]] = _block_column_sums(table, name)
        for j in range(i, len(adjustment)):
            gram[
                offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]
            ] = _gram_pair(table, name, adjustment[j])
    return gram


def _finish_gram(gram):
    """Cholesky + condition gate + mirrored inverse; None -> QR fallback."""
    r_factor, info = lapack.dpotrf(gram, lower=0)
    if info != 0:  # not positive definite: rank deficient
        return None
    rcond = lapack.dtrcon(r_factor, norm="1", uplo="U", diag="N")[0]
    if rcond < GRAM_RCOND_MIN:
        return None
    gram_inv, info = lapack.dpotri(r_factor, lower=0)
    if info != 0:  # pragma: no cover - dpotri after a clean dpotrf
        return None
    # dpotri fills the upper triangle only (the strict lower is still the
    # zeros left there); mirror without np.triu's mask machinery.
    diagonal_inv = gram_inv.diagonal().copy()
    gram_inv = gram_inv + gram_inv.T
    np.fill_diagonal(gram_inv, diagonal_inv)
    return gram_inv


def _outcome_products(
    table: Table, outcome: str, adjustment: tuple[str, ...], widths: list[int], k: int
) -> np.ndarray:
    """``Wᵀy`` assembled from the memoised per-attribute products."""
    wy = np.empty(k)
    wy[0] = _outcome_sum(table, outcome)
    offset = 1
    for name, width in zip(adjustment, widths):
        wy[offset : offset + width] = _outcome_block_products(table, outcome, name)
        offset += width
    return wy


def _spanning_columns(
    gram: np.ndarray, widths: list[int], categorical: list[bool]
) -> np.ndarray:
    """Indices of the design columns that form a basis of ``col(W)``.

    Decided on the exact integer counts the assembled Gram already holds
    (one-hot column sums are row 0, one-hot diagonals are counts), so no
    rounding enters the choice.  Two structural deficiencies deflate:

    - an exactly-zero column (a one-hot category absent from the table)
      has a zero diagonal entry and spans nothing;
    - a categorical block whose column counts sum to the row count has no
      row at its dropped reference level, so its present columns sum to
      the intercept; dropping the block's first present column leaves
      ``col(W)`` unchanged.

    Anything else (e.g. two attributes that coincide on this table) is
    left for the Cholesky and condition gate to reject.
    """
    present = gram.diagonal() > 0.0  # the intercept's entry is n > 0
    offset = 1
    for width, is_categorical in zip(widths, categorical):
        block = slice(offset, offset + width)
        if is_categorical and gram[0, block].sum() == gram[0, 0]:
            present[offset + int(np.argmax(present[block]))] = False
        offset += width
    return np.flatnonzero(present)


def build_rows_factorization(
    table: Table, outcome: str, adjustment: tuple[str, ...] = ()
):
    """Factorize ``[1, Z-block]`` for the fused row-major kernel.

    Block-structured Gram/Cholesky (:class:`GramFactorization`) from
    per-table memoised pair products, no syrk over ``W``.  Before the
    width test and the Cholesky, :func:`_spanning_columns` picks a basis of
    ``col(W)`` from the Gram's exact counts: exactly-zero columns (absent
    one-hot categories) and, per categorical block whose reference level
    is absent, the block's first present column are dropped by
    subselecting the Gram (route ``gram_reduced``).  The basis spans the
    same ``col(W)``, so the FWL residuals, and the rank behind the dof
    ``n - rank - 1``, are the scalar path's.  Any design still wider than
    its table, or rejected by the Cholesky or the condition gate, falls
    back to the QR build, whose :class:`DesignFactorization` the kernel
    consumes interchangeably.
    """
    n = table.n_rows
    if n == 0:
        raise EstimationError("cannot factorize an empty design")
    categorical = [
        table.schema.spec(name).kind is AttributeKind.CATEGORICAL
        for name in adjustment
    ]
    if getattr(table, "is_sharded", False):
        # Widths come off the schema: no whole-table block materialisation
        # for out-of-core tables (their Gram entries merge from shards).
        widths = [
            len(table.categories(name)) - 1 if is_categorical else 1
            for name, is_categorical in zip(adjustment, categorical)
        ]
    else:
        widths = [_attribute_block(table, name).shape[1] for name in adjustment]
    k = 1 + sum(widths)
    gram = _assemble_gram(table, adjustment, widths, k)
    keep = _spanning_columns(gram, widths, categorical)
    if keep.size > n:
        return build_factorization(table, outcome, adjustment)
    reduced = keep.size < k
    if reduced:
        # Subselecting the assembled Gram *is* the reduced design's Gram
        # (built from the same memoised, or for out-of-core tables
        # shard-merged, pair products); sorted index subselection keeps
        # the upper-triangular/zero-lower layout ``_finish_gram`` needs.
        gram = np.ascontiguousarray(gram[np.ix_(keep, keep)])
    gram_inv = _finish_gram(gram)
    if gram_inv is None:
        return build_factorization(table, outcome, adjustment)
    w = _build_design_block(table, adjustment)
    wy = _outcome_products(table, outcome, adjustment, widths, k)
    if reduced:
        w = np.ascontiguousarray(w[:, keep])
        wy = wy[keep]
    y = _outcome_vector(table, outcome)
    # One fused GEMV: y_res = y - W (G^-1 Wᵀy), accumulated in place.
    y_res = blas.dgemv(-1.0, w, gram_inv @ wy, beta=1.0, y=y.copy(), overwrite_y=1)
    _count_route("gram_reduced" if reduced else "gram")
    return GramFactorization(
        w=w,
        gram_inv=gram_inv,
        rank=keep.size,
        y_res=y_res,
        y_res_sq=float(y_res @ y_res),
        n=n,
    )


def estimate_level_rows(
    table: Table,
    treated_rows: np.ndarray,
    outcome: str,
    adjustments: Sequence[tuple[str, ...]],
    factorization_for=None,
    float_rows: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> list[CateResult]:
    """Estimate one CATE per candidate row for a whole lattice level.

    The Step-2 level kernel.  Candidates arrive as an ``(m, n)`` *row-major*
    stack — the layout packed bitsets unpack into for free
    (:func:`repro.mining.bitsets.unpack_rows`) — so every per-candidate
    reduction runs over a contiguous row and the projection GEMM pair is
    ``T W`` then ``- (T W G⁻¹) Wᵀ`` (or ``T Q`` then ``- (T Q) Qᵀ`` on the
    QR route).  Rows may use different adjustment sets
    (``adjustments[j]`` belongs to row ``j``); rows sharing a set form one
    FWL group and ride the same GEMM pair.

    Two fixed costs are hoisted out to the caller:

    - ``float_rows`` lets the caller convert the boolean stack to float64
      **once per level** and share it across sub-population calls;
    - ``counts`` lets the caller pass popcount-derived treated counts (the
      bitset layer computes them anyway for support pruning), replacing
      the per-call boolean row sums.

    ``factorization_for`` is an optional ``adjustment -> factorization``
    callable (e.g. a cache lookup), invoked once per group with at least
    one row passing the positivity screen.

    Exactness: results agree with the scalar
    :meth:`~repro.causal.estimators.LinearAdjustmentEstimator.estimate` to
    working precision (rtol 1e-9, differentially tested); the positivity
    screen, degenerate designs and the identity guards take the scalar
    ``ols()`` path and match it bit for bit.  Per-row bits are a pure
    function of the batch content, so a level's results never depend on
    which other grouping patterns were mined before it or by which worker
    (serial ≡ process at any chunking).
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
            if factorization_for is not None:
                factorization = factorization_for(adjustment)
            else:
                factorization = build_rows_factorization(table, outcome, adjustment)
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
            if isinstance(factorization, GramFactorization):
                projected = (t_rows @ factorization.w) @ factorization.gram_inv
                t_res = t_rows - projected @ factorization.w.T
            else:
                q = factorization.q
                t_res = t_rows - (t_rows @ q) @ q.T
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
