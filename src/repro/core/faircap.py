"""The FairCap driver (Algorithm 1): grouping -> interventions -> greedy.

:class:`FairCap` wires the three steps together and instruments each with a
wall-clock timer, matching the phase breakdown of the paper's Figure 3
(``group_mining`` / ``treatment_mining`` / ``greedy_selection``).

Typical use::

    from repro.core import FairCap, FairCapConfig
    from repro.core.variants import canonical_variants

    variants = canonical_variants("SP", 10_000, theta=0.5, theta_protected=0.5)
    config = FairCapConfig(variant=variants["Group fairness"])
    result = FairCap(config).run(table, schema, dag, protected)
    for rule in result.ruleset:
        print(rule)
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass

from repro.causal.dag import CausalDAG
from repro.core.config import FairCapConfig
from repro.core.greedy import GreedyResult, greedy_select
from repro.core.grouping import mine_grouping_patterns
from repro.core.intervention import (
    intervention_items,
    mine_interventions_for_groups,
)
from repro.mining.apriori import FrequentPattern
from repro.obs import build_report, telemetry_session
from repro.rules.protected import ProtectedGroup
from repro.rules.rule import PrescriptionRule
from repro.rules.ruleset import RuleSet, RulesetEvaluator, RulesetMetrics
from repro.rules.utility import RuleEvaluator
from repro.tabular.schema import Schema
from repro.tabular.table import Table
from repro.utils.errors import SchemaError
from repro.utils.timer import StepTimer

STEP_GROUP_MINING = "group_mining"
STEP_TREATMENT_MINING = "treatment_mining"
STEP_GREEDY = "greedy_selection"


@dataclass(frozen=True)
class FairCapResult:
    """Everything a FairCap run produces.

    Attributes
    ----------
    ruleset:
        The selected prescription rules.
    metrics:
        The Table 4 quantities of the selected ruleset.
    grouping_patterns:
        Step-1 output (frequent grouping patterns).
    candidate_rules:
        Step-2 output (one best rule per grouping pattern, pre-selection).
    timings:
        Per-step wall-clock seconds (Figure 3 phases).
    nodes_evaluated:
        Total lattice nodes whose CATE was estimated in Step 2.
    config:
        The configuration used.
    telemetry:
        The run report (counters, derived rates, span tree) when
        ``config.telemetry`` is set; ``None`` otherwise.  Same document the
        CLI's ``--trace-json`` writes (see :mod:`repro.obs.report`).
    """

    ruleset: RuleSet
    metrics: RulesetMetrics
    grouping_patterns: tuple[FrequentPattern, ...]
    candidate_rules: tuple[PrescriptionRule, ...]
    timings: dict[str, float]
    nodes_evaluated: int
    config: FairCapConfig
    n_rows: int
    n_protected: int
    greedy: GreedyResult
    telemetry: dict | None = None

    def satisfied(self) -> bool:
        """Whether the selected ruleset meets the variant's constraints."""
        variant = self.config.variant
        ok = True
        if variant.fairness is not None:
            ok &= variant.fairness.satisfied(self.metrics, self.ruleset.rules)
        if variant.coverage is not None:
            ok &= variant.coverage.satisfied(
                self.metrics, self.ruleset.rules, self.n_rows, self.n_protected
            )
        return bool(ok)


class FairCap:
    """The FairCap algorithm (paper's Algorithm 1).

    Parameters
    ----------
    config:
        Algorithm tunables (defaults to :class:`FairCapConfig`), including
        the Step-2 execution strategy (``executor`` / ``n_workers``) and the
        CATE memo bound (``cache_size``).
    executor:
        Optional pre-built :mod:`repro.parallel` executor; overrides the
        config's ``executor``/``n_workers`` spelling.  Results are identical
        for every executor and worker count (determinism contract).
    cache:
        Optional :class:`~repro.parallel.cache.EstimationCache` shared
        across runs — e.g. one cache for all nine variants of a Table 4
        block, so overlapping candidates are estimated once.  ``None``
        builds a fresh per-run cache of ``config.cache_size`` entries.
    """

    def __init__(
        self,
        config: FairCapConfig | None = None,
        executor=None,
        cache=None,
    ) -> None:
        self.config = config if config is not None else FairCapConfig()
        self.executor = executor
        self.cache = cache

    def run(
        self,
        table: Table,
        schema: Schema | None,
        dag: CausalDAG,
        protected: ProtectedGroup,
    ) -> FairCapResult:
        """Run the full pipeline on ``table`` and return the selected ruleset.

        Parameters
        ----------
        table:
            The database instance ``D``.
        schema:
            Attribute roles; ``None`` uses the table's own schema.
        dag:
            The causal DAG ``G_D``.
        protected:
            The protected group ``P_p``.
        """
        schema = schema if schema is not None else table.schema
        schema.validate_for_prescription()
        missing = [n for n in schema.names if n not in dag]
        if missing:
            raise SchemaError(f"causal DAG is missing schema attributes: {missing}")

        config = self.config
        executor = self.executor if self.executor is not None else config.make_executor()
        cache = self.cache if self.cache is not None else config.make_cache()
        timer = StepTimer()

        # Out-of-core mode: spill the table into fixed-size row shards and
        # mine against the sharded handle.  An already-sharded input (e.g.
        # from a chunked scenario writer) is used as-is.  The spill is a
        # pure re-layout — fingerprint, masks, and every materialised
        # context sub-table are content-identical — so mined rulesets are
        # bit-for-bit the in-RAM run's.
        shard_tmp: str | None = None
        if config.shard_rows is not None and not getattr(table, "is_sharded", False):
            from repro.datasets.sharded import ShardedTable

            if config.shard_dir is not None:
                directory = config.shard_dir
                reuse = True
            else:
                directory = tempfile.mkdtemp(prefix="faircap-shards-")
                shard_tmp = directory
                reuse = False
            table = ShardedTable.write(
                table, directory, config.shard_rows, reuse=reuse
            )
        try:
            return self._run_pipeline(
                table, schema, dag, protected, config, executor, cache, timer
            )
        finally:
            if shard_tmp is not None:
                shutil.rmtree(shard_tmp, ignore_errors=True)

    def _run_pipeline(
        self, table, schema, dag, protected, config, executor, cache, timer
    ) -> "FairCapResult":
        with telemetry_session(enabled=config.telemetry) as telemetry:
            # The cache keeps its own integer counters; telemetry reads the
            # run's delta at the end rather than hooking every lookup (see
            # EstimationCache.emit_counters).  The baseline matters when a
            # shared cache arrives warm from a previous run.
            cache_baseline = (
                cache.stats() if config.telemetry and cache is not None else None
            )
            with telemetry.tracer.span(
                "faircap.run",
                n_rows=table.n_rows,
                executor=executor.kind,
                n_workers=executor.n_workers,
            ):
                with timer.step(STEP_GROUP_MINING):
                    grouping_patterns = mine_grouping_patterns(
                        table, schema, config, protected
                    )

                with timer.step(STEP_TREATMENT_MINING):
                    evaluator = RuleEvaluator(
                        table,
                        schema.outcome_name,
                        dag,
                        protected,
                        estimator=config.make_estimator(),
                        min_subgroup_size=config.min_subgroup_size,
                        cache=cache,
                    )
                    items = intervention_items(table, schema, dag, config)
                    candidate_rules, nodes_evaluated = mine_interventions_for_groups(
                        evaluator, grouping_patterns, items, config, executor=executor
                    )

                with timer.step(STEP_GREEDY):
                    ruleset_evaluator = RulesetEvaluator(
                        table, candidate_rules, protected
                    )
                    greedy = greedy_select(ruleset_evaluator, config)

            report = None
            if config.telemetry:
                registry = telemetry.registry
                if cache is not None:
                    stats = cache.emit_counters(registry, cache_baseline)
                    registry.set_gauge(
                        "cache.entries", stats.entries, tier="estimation"
                    )
                    registry.set_gauge(
                        "cache.hit_rate", stats.hit_rate, tier="estimation"
                    )
                # The factorization memo counts its own lookups into the
                # registry (repro.causal.batch); process workers' counts
                # have been merged in by now.
                hits, misses = (
                    registry.counter_value(
                        "cache.lookups", tier="factorization", outcome=outcome
                    )
                    for outcome in ("hit", "miss")
                )
                if hits or misses:
                    registry.set_gauge(
                        "cache.hit_rate", hits / (hits + misses), tier="factorization"
                    )
                report = build_report(
                    telemetry,
                    meta={
                        "n_rows": table.n_rows,
                        "executor": executor.kind,
                        "n_workers": executor.n_workers,
                        "n_grouping_patterns": len(grouping_patterns),
                        "n_rules": len(greedy.ruleset),
                        "nodes_evaluated": nodes_evaluated,
                        "batch_estimation": config.batch_estimation,
                        "timings": timer.as_dict(),
                    },
                )

        return FairCapResult(
            ruleset=greedy.ruleset,
            metrics=greedy.metrics,
            grouping_patterns=tuple(grouping_patterns),
            candidate_rules=tuple(candidate_rules),
            timings=timer.as_dict(),
            nodes_evaluated=nodes_evaluated,
            config=config,
            n_rows=table.n_rows,
            n_protected=int(protected.mask(table).sum()),
            greedy=greedy,
            telemetry=report,
        )


def run_faircap(
    table: Table,
    dag: CausalDAG,
    protected: ProtectedGroup,
    config: FairCapConfig | None = None,
    schema: Schema | None = None,
    executor=None,
    cache=None,
) -> FairCapResult:
    """Convenience facade: ``FairCap(config).run(table, schema, dag, protected)``."""
    return FairCap(config, executor=executor, cache=cache).run(
        table, schema, dag, protected
    )
