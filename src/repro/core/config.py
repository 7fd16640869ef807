"""Configuration of the FairCap algorithm.

:class:`FairCapConfig` gathers every tunable of Algorithm 1 with the paper's
defaults (Sec. 6, "Default parameters"): Apriori threshold 0.1, at most ~20
rules, linear-adjustment CATE estimation with a 0.05 significance filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.causal.estimators import LinearAdjustmentEstimator, StratifiedEstimator
from repro.core.variants import ProblemVariant
from repro.parallel.cache import EstimationCache
from repro.parallel.executors import make_executor
from repro.parallel.resilience import FaultPlan
from repro.utils.errors import ConfigError

ESTIMATORS = {
    "linear": LinearAdjustmentEstimator,
    "stratified": StratifiedEstimator,
}


@dataclass(frozen=True)
class FairCapConfig:
    """All tunables of the FairCap pipeline.

    Attributes
    ----------
    variant:
        The problem variant (fairness + coverage constraints) to solve.
    apriori_min_support:
        The Apriori threshold ``tau`` of Step 1 (paper default 0.1).  Under a
        rule-coverage constraint the effective threshold is raised to the
        coverage ``theta`` (Sec. 5.4).
    max_grouping_size:
        Maximum number of attributes in a grouping pattern.
    max_intervention_size:
        Maximum number of attributes in an intervention pattern (lattice
        depth of Step 2).
    max_values_per_attribute:
        Per-attribute cap on candidate values when building grouping items
        and treatment items (None = no cap).
    continuous_bins:
        Quantile bins used for continuous attributes in patterns.
    significance_alpha:
        Keep only treatments whose CATE is significant at this level
        (None disables the filter).
    min_subgroup_size:
        Minimum subgroup size for a CATE to count (smaller -> utility 0).
    estimator:
        ``"linear"`` (OLS adjustment; DoWhy's default) or ``"stratified"``.
    lambda_size, lambda_utility:
        Objective weights ``lambda_1`` and ``lambda_2`` of Def. 4.6.
    max_rules:
        Hard cap on the ruleset size (the paper's tables top out at 20).
    stop_threshold:
        Greedy stops when the best normalised marginal score drops below
        this (after coverage constraints are met).
    prune_non_causal:
        Step-2 optimisation (i): drop mutable attributes with no directed
        path to the outcome in the DAG.
    grouping_attributes, intervention_attributes:
        Optional explicit attribute subsets (default: the schema's immutable
        and mutable attributes respectively); used by the Figure 5
        attribute-count sweep.
    n_workers:
        Step-2 worker count, the only parallelism setting: ``1`` (default)
        runs the in-process serial loop, ``N > 1`` a process pool of ``N``
        workers (chunked work-stealing across grouping patterns), and ``0``
        all visible CPUs (serial when that is one).  Results are
        bit-for-bit identical for every worker count — see the determinism
        contract in :mod:`repro.parallel`.
    cache_size:
        Entry bound of the content-addressed CATE memo
        (:class:`~repro.parallel.cache.EstimationCache`) that
        :meth:`make_cache` builds for callers sharing one memo across
        runs, such as the ``table4``–``table6`` experiments across a block's
        variants; ``0`` makes :meth:`make_cache` return ``None``.  A
        :class:`~repro.core.faircap.FairCap` run never builds a cache of its
        own, so the field sizes nothing else.  Caching never changes
        results, only latency.
    batch_estimation:
        Route Step-2 lattice levels through the batched FWL estimation
        engine (:mod:`repro.causal.batch`).  Each grouping pattern is mined
        to completion on its own; per lattice level, candidate masks are
        AND-composed from packed item bitsets, zero-support candidates are
        popcount-pruned, the *overall* batch is estimated in one GEMM pair
        per adjustment set, and protected / non-protected batches only for
        the kept candidates.  ``False`` selects the scalar per-candidate
        path — the differential reference the batch engine is tested
        against.  Only the linear-adjustment estimator has a batched path;
        other estimators ignore the flag.  Mined rulesets are identical
        either way (estimates agree to working precision; degenerate
        candidates take the scalar path bit-identically).
    max_chunk_retries:
        How many times a failed mining chunk (worker death, injected
        fault, chunk timeout) is re-executed before degrading to
        in-process serial execution (:mod:`repro.parallel.resilience`).
        Retries never change results — chunks are pure functions of
        immutable inputs, reassembled in input order.
    chunk_timeout_seconds:
        Per-chunk execution bound inside the process pool (``None`` = no
        bound).  A chunk exceeding it is retried and, once retries are
        exhausted, runs unbounded in-process so a slow chunk completes
        slowly rather than never.  Only affects the process executor.
    retry_backoff_seconds:
        Base of the deterministic (jitter-free) exponential backoff
        between chunk retries.
    checkpoint_dir:
        Directory for run-level checkpoint/resume: completed per-pattern
        Step-2 results are persisted under a content-addressed run key
        (table fingerprint + config digest + mining inputs) as they land,
        and a rerun loads them verbatim instead of remining
        (:class:`~repro.parallel.resilience.RunCheckpoint`).  Resume ≡
        fresh bit-for-bit — the files hold the pickled results
        themselves.  ``None`` (default) disables checkpointing.
    fault_plan:
        Deterministic fault-injection plan for the resilience test
        harness (:class:`~repro.parallel.resilience.FaultPlan`; a plan
        string like ``"kill:chunk=1"`` is parsed).  Faults fire in
        process-pool workers (or, for ``abort``, in the checkpointing
        driver) on exactly the planned ``(chunk, attempt)`` executions.
        Never set in production runs.
    shard_rows:
        Out-of-core mining: spill the input table into fixed-size row
        shards (:class:`~repro.datasets.sharded.ShardedTable`) before
        mining and run Step 1 / Step 2 against the sharded handle —
        packed predicate words build in one pass over the shards, Gram
        sufficient statistics merge shard by shard, and grouping-context
        sub-tables materialise by pure row gather, so mined rulesets are
        bit-identical to the in-RAM run while peak RSS stays
        O(shard + sufficient stats).  ``None`` (default) mines in RAM.
    shard_dir:
        Directory for the shard spill.  ``None`` uses a per-run temporary
        directory (removed after the run); a named directory persists and
        is *reused* on a rerun when its manifest still matches the
        table's fingerprint and ``shard_rows``.
    telemetry:
        Install a live telemetry session (:mod:`repro.obs`) for the run:
        mining counters, engine counters, and a hierarchical span trace,
        surfaced as ``FairCapResult.telemetry`` (the run-report dict the
        CLI's ``--trace-json`` writes).  Off by default with near-zero
        overhead — instrumentation sites check a no-op registry and move
        on.  Telemetry never touches numerics: mined rulesets are
        bit-identical with the flag on or off, and the deterministic
        counter family is exact across executors and worker counts (the
        observability differential obligation).
    """

    variant: ProblemVariant = field(default_factory=ProblemVariant)
    apriori_min_support: float = 0.1
    max_grouping_size: int = 3
    max_intervention_size: int = 2
    max_values_per_attribute: int | None = 8
    continuous_bins: int = 4
    significance_alpha: float | None = 0.05
    min_subgroup_size: int = 10
    estimator: str = "linear"
    lambda_size: float = 1.0
    lambda_utility: float = 1.0
    max_rules: int = 20
    stop_threshold: float = 0.01
    prune_non_causal: bool = True
    grouping_attributes: tuple[str, ...] | None = None
    intervention_attributes: tuple[str, ...] | None = None
    n_workers: int = 1
    # Sized to hold the full working set of a laptop-scale experiment run
    # (a 6,000-row Table 4 variant estimates ~5-20k CATEs; entries are a few
    # hundred bytes each) so cross-variant reuse survives the LRU.
    cache_size: int = 65_536
    batch_estimation: bool = True
    max_chunk_retries: int = 2
    chunk_timeout_seconds: float | None = None
    retry_backoff_seconds: float = 0.05
    checkpoint_dir: str | None = None
    fault_plan: FaultPlan | None = None
    shard_rows: int | None = None
    shard_dir: str | None = None
    telemetry: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.fault_plan, str):
            object.__setattr__(self, "fault_plan", FaultPlan.parse(self.fault_plan))
        if self.max_chunk_retries < 0:
            raise ConfigError("max_chunk_retries must be >= 0")
        if self.chunk_timeout_seconds is not None and self.chunk_timeout_seconds <= 0:
            raise ConfigError("chunk_timeout_seconds must be > 0 or None")
        if self.retry_backoff_seconds < 0:
            raise ConfigError("retry_backoff_seconds must be >= 0")
        if not 0.0 < self.apriori_min_support <= 1.0:
            raise ConfigError("apriori_min_support must be in (0, 1]")
        if self.max_grouping_size < 1:
            raise ConfigError("max_grouping_size must be >= 1")
        if self.max_intervention_size < 1:
            raise ConfigError("max_intervention_size must be >= 1")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(
                f"unknown estimator {self.estimator!r}; "
                f"choose from {sorted(ESTIMATORS)}"
            )
        if self.significance_alpha is not None and not (
            0.0 < self.significance_alpha < 1.0
        ):
            raise ConfigError("significance_alpha must be in (0, 1) or None")
        if self.lambda_size < 0 or self.lambda_utility < 0:
            raise ConfigError("objective weights must be non-negative")
        if self.max_rules < 1:
            raise ConfigError("max_rules must be >= 1")
        if self.n_workers < 0:
            raise ConfigError("n_workers must be >= 0 (0 = all visible CPUs)")
        if self.cache_size < 0:
            raise ConfigError("cache_size must be >= 0 (0 disables caching)")
        if self.shard_rows is not None and self.shard_rows < 1:
            raise ConfigError("shard_rows must be >= 1 or None")
        if self.shard_dir is not None and self.shard_rows is None:
            raise ConfigError("shard_dir requires shard_rows")

    def make_estimator(self):
        """Instantiate the configured CATE estimator."""
        return ESTIMATORS[self.estimator]()

    def make_executor(self):
        """Instantiate the Step-2 executor for ``n_workers``."""
        return make_executor(self.n_workers)

    def make_cache(self) -> EstimationCache | None:
        """A CATE memo to share across runs (``None`` when ``cache_size`` is 0)."""
        if self.cache_size == 0:
            return None
        return EstimationCache(self.cache_size)

    def with_variant(self, variant: ProblemVariant) -> "FairCapConfig":
        """Copy of this config solving a different problem variant."""
        return replace(self, variant=variant)

    def effective_apriori_support(self) -> float:
        """Step-1 support threshold, raised under a rule-coverage constraint.

        Sec. 5.4: "We set the Apriori's threshold to ensure that each mined
        grouping pattern covers a sufficient number of individuals when a
        rule coverage constraint is imposed."
        """
        if self.variant.has_rule_coverage:
            assert self.variant.coverage is not None
            return max(self.apriori_min_support, self.variant.coverage.theta)
        return self.apriori_min_support
