"""Step 2 of FairCap: mining fair, high-utility intervention patterns
(Sec. 5.2 and the variant adjustments of Sec. 5.4).

For each grouping pattern mined in Step 1, the space of candidate treatments
is the lattice of conjunctions over the *mutable* attributes.  The lattice
is traversed top-down (:func:`repro.mining.lattice.traverse_lattice`); a
node is *kept* — i.e. its supersets are explored — when its CATE is positive,
estimable, and statistically significant.

The best treatment for the grouping pattern is then chosen by *benefit*:

- no fairness constraint: benefit = utility (CauSumX's highest-CATE search);
- group SP: the utility/(1+gap) penalty of Sec. 5.2;
- group BGL: the utility/(1+shortfall) penalty of Sec. 5.4;
- individual fairness (SP or BGL): only treatments that themselves satisfy
  the per-rule constraint are eligible; among them, highest CATE wins.

Implementation notes: every grouping pattern's lattice is mined to
completion, one pattern at a time, by :func:`mine_intervention` (Algorithm
1's loop), so at most one :class:`~repro.rules.utility.GroupEvaluationContext`
per worker is alive at any moment.  With the linear estimator each lattice
level is one batched estimation pass (:mod:`repro.causal.batch`); the
scalar per-candidate path (``batch_estimation=False`` or the stratified
estimator) is the differential reference.  The paper's optimisation (i) —
discarding mutable attributes with no causal path to the outcome — is
applied when building the item list; optimisation (ii) (parallelism across
grouping patterns) is the process pool of :mod:`repro.parallel`, chosen by
``FairCapConfig.n_workers`` (or an executor passed to
:func:`mine_interventions_for_groups`).  One worker, the default, runs the
in-process loop so the Figure 3/4 runtime shapes reflect algorithmic work
rather than process-pool noise, and the differential suite guarantees any
worker count returns identical rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.causal.dag import CausalDAG
from repro.core.config import FairCapConfig
from repro.fairness.benefit import benefit
from repro.mining.apriori import build_items
from repro.mining.lattice import LatticeNode, traverse_lattice
from repro.mining.patterns import Pattern
from repro.obs.runtime import current as obs_current
from repro.parallel.executors import ProcessExecutor
from repro.rules.rule import PrescriptionRule
from repro.rules.utility import (
    GroupEvaluationContext,
    RuleEvaluator,
    keep_candidate,
)
from repro.tabular.schema import Schema
from repro.utils.errors import ConfigError


@dataclass(frozen=True)
class InterventionMiningResult:
    """Outcome of Step 2 for one grouping pattern.

    Attributes
    ----------
    best:
        The selected rule (None when no eligible treatment exists).
    candidates:
        Every positive-utility rule materialised in the lattice (used by
        diagnostics and by the brute-force reference solver).
    nodes_evaluated:
        Number of lattice nodes whose CATE was estimated.
    """

    best: PrescriptionRule | None
    candidates: tuple[PrescriptionRule, ...]
    nodes_evaluated: int


def intervention_items(
    table, schema: Schema, dag: CausalDAG, config: FairCapConfig
) -> list[Pattern]:
    """Build the level-1 treatment items (one per mutable attribute value).

    Applies the paper's optimisation (i): attributes without a directed path
    to the outcome are discarded when ``config.prune_non_causal`` is set.
    """
    attributes = config.intervention_attributes
    if attributes is None:
        attributes = schema.mutable_names
    else:
        unknown = [a for a in attributes if a not in schema.names]
        if unknown:
            raise ConfigError(f"unknown intervention attributes: {unknown}")
    if not attributes:
        raise ConfigError("no mutable attributes available for interventions")

    if config.prune_non_causal:
        relevant = dag.causally_relevant(schema.outcome_name)
        attributes = tuple(a for a in attributes if a in relevant)

    return build_items(
        table,
        attributes,
        continuous_bins=config.continuous_bins,
        max_values_per_attribute=config.max_values_per_attribute,
    )


def _make_decider(config: FairCapConfig):
    """The keep/expand decision shared by every Step-2 execution path.

    Delegates to :func:`repro.rules.utility.keep_candidate` (a rule's
    utility is ``usable(overall)``, so testing the overall estimate is the
    same predicate) — the batched engine's phase-2 planning uses the
    identical helper, keeping both paths on the same lattice by
    construction.
    """
    alpha = config.significance_alpha

    def decide(rule: PrescriptionRule) -> tuple[bool, PrescriptionRule]:
        return keep_candidate(rule.estimate, alpha), rule

    return decide


def _select_best(
    candidates: list[PrescriptionRule], fairness
) -> PrescriptionRule | None:
    """Pick one grouping pattern's best treatment (Sec. 5.2 / 5.4).

    Shared by the batched and scalar paths so their selection logic
    cannot drift: matroid (individual-fairness) variants filter to
    per-rule-satisfying treatments and take the highest utility; everything
    else maximises the variant's benefit function.
    """
    eligible = candidates
    if fairness is not None and fairness.is_matroid:
        # Individual fairness: Step 2 only selects treatments that are
        # guaranteed to meet the per-rule constraint (Sec. 5.4).
        eligible = [r for r in candidates if fairness.satisfied_by_rule(r)]
    if not eligible:
        return None
    if fairness is not None and fairness.is_matroid:
        return max(eligible, key=lambda r: r.utility)
    return max(eligible, key=lambda r: benefit(r, fairness))


def batched_path_available(config: FairCapConfig, evaluator: RuleEvaluator) -> bool:
    """Whether Step 2 runs on the batched engine (else the scalar path)."""
    return config.batch_estimation and hasattr(
        evaluator.estimator, "estimate_level_rows"
    )


def _estimate_level(
    context: GroupEvaluationContext, patterns: list[Pattern], alpha
) -> list[tuple[bool, PrescriptionRule]]:
    """One lattice level through the batched engine, in two phases.

    ``begin_level`` composes the level's stacks and popcount-prunes dead
    candidates; phase 1 estimates the *overall* batch, which is all the
    keep decision needs; phase 2 estimates protected / non-protected
    batches for the kept candidates only.
    """
    evaluator = context.evaluator
    work = context.begin_level(patterns)
    overall = work.requests
    evaluator.estimate_requests(overall)
    followup = work.followup(alpha)
    evaluator.estimate_requests(followup)
    telemetry = obs_current()
    if telemetry.enabled and patterns:
        _count_level(telemetry.registry, work, overall, followup)
    return work.finish()


def _count_level(registry, work, overall, followup) -> None:
    """Per-level mining counters (all deterministic).

    Popcount-pruned candidates, and the columns actually estimated in each
    phase, are pure functions of the context's own level content, so
    process-pool merges reproduce a serial run's totals exactly.
    """
    level = len(work.interventions[0].attributes)
    if work.pruned:
        registry.inc("mining.pruned", len(work.pruned), deterministic=True, level=level)
    for phase, requests in (("overall", overall), ("subpopulation", followup)):
        columns = sum(request.treated_rows.shape[0] for request in requests)
        if columns:
            registry.inc(
                "mining.estimated_columns",
                columns,
                deterministic=True,
                phase=phase,
                level=level,
            )


def mine_intervention(
    context: GroupEvaluationContext,
    items: list[Pattern],
    config: FairCapConfig,
) -> InterventionMiningResult:
    """Run the Step-2 lattice search for one grouping pattern to completion.

    Parameters
    ----------
    context:
        Pre-built evaluation context for the grouping pattern (holds the
        filtered sub-table and protected split).
    items:
        Candidate level-1 treatment items (from :func:`intervention_items`).
    config:
        Algorithm configuration; ``config.variant.fairness`` selects the
        benefit function.
    """
    if batched_path_available(config, context.evaluator):
        # Batched FWL engine: one estimation pass per lattice level
        # instead of one OLS per candidate (repro.causal.batch).
        alpha = config.significance_alpha

        def evaluate_level(patterns: list[Pattern]) -> list[tuple[bool, PrescriptionRule]]:
            return _estimate_level(context, patterns, alpha)

    else:
        # Scalar per-candidate path: the differential reference.
        decide = _make_decider(config)

        def evaluate_level(patterns: list[Pattern]) -> list[tuple[bool, PrescriptionRule]]:
            return [decide(context.evaluate(pattern)) for pattern in patterns]

    nodes: list[LatticeNode] = traverse_lattice(
        items, evaluate_level, max_level=config.max_intervention_size
    )
    return _result_from_nodes(nodes, config)


def mine_grouping(
    evaluator: RuleEvaluator,
    grouping: Pattern,
    items: list[Pattern],
    config: FairCapConfig,
) -> InterventionMiningResult:
    """Build one grouping pattern's context and mine it to completion.

    The loop body every Step-2 caller shares (the serial loop, process
    workers, and the baseline adapters).  The context — the pattern's
    sub-tables, bitsets and level stacks — is released when this returns,
    so a worker holds one context at a time.
    """
    with obs_current().tracer.span("mining.context"):
        return mine_intervention(evaluator.context(grouping), items, config)


def _result_from_nodes(
    nodes: list[LatticeNode], config: FairCapConfig
) -> InterventionMiningResult:
    kept = [node.payload for node in nodes if node.keep]
    candidates: list[PrescriptionRule] = [
        rule for rule in kept if isinstance(rule, PrescriptionRule)
    ]
    best = _select_best(candidates, config.variant.fairness)
    telemetry = obs_current()
    if telemetry.enabled:
        _count_mining_nodes(telemetry.registry, nodes, best)
    return InterventionMiningResult(
        best=best, candidates=tuple(candidates), nodes_evaluated=len(nodes)
    )


def _count_mining_nodes(registry, nodes: list[LatticeNode], best) -> None:
    """Mining-pipeline counters, taken at the shared result-assembly point.

    Both Step-2 paths (batched and scalar) produce their node lists through
    the same traversal, which the determinism contract pins to be
    identical across executors, worker counts and chunkings —
    so these counters are flagged *deterministic*: their merged totals are
    exact, and the observability differential compares them bit-for-bit.
    Invalid-estimate reasons are read off the rules' ``CateResult``s, which
    are equally traversal-determined.
    """
    per_level: dict[int, list[int]] = {}
    reasons: dict[str, int] = {}
    for node in nodes:
        cell = per_level.setdefault(node.level, [0, 0])
        cell[0] += 1
        if node.keep:
            cell[1] += 1
        estimate = getattr(node.payload, "estimate", None)
        if estimate is not None and not estimate.valid:
            reason = estimate.reason or "unknown"
            reasons[reason] = reasons.get(reason, 0) + 1
    for level, (candidates, kept) in sorted(per_level.items()):
        registry.inc(
            "mining.candidates", candidates, deterministic=True, level=level
        )
        if kept:
            registry.inc("mining.kept", kept, deterministic=True, level=level)
    for reason, count in reasons.items():
        registry.inc(
            "mining.invalid_estimates", count, deterministic=True, reason=reason
        )
    if best is not None:
        registry.inc("mining.rules", 1, deterministic=True)


def mine_interventions_for_groups(
    evaluator: RuleEvaluator,
    grouping_patterns,
    items: list[Pattern],
    config: FairCapConfig,
    executor=None,
) -> tuple[list[PrescriptionRule], int]:
    """Run Step 2 for every grouping pattern; return rules + node count.

    Each grouping pattern contributes at most one rule (its best treatment),
    mirroring Algorithm 1's loop.  With an ``executor`` (see
    :mod:`repro.parallel.executors`) the per-pattern searches fan out in
    chunks; the rule list is reassembled in Step-1 mining order either way,
    so the result is independent of the execution strategy.  With
    ``config.checkpoint_dir`` set, completed per-pattern results are
    persisted as they land and a rerun resumes from them
    (:class:`~repro.parallel.resilience.RunCheckpoint`) — resumed results
    are the saved bits, so resume ≡ fresh by construction.
    """
    patterns = list(grouping_patterns)
    if getattr(config, "checkpoint_dir", None):
        detailed = _mine_checkpointed(evaluator, patterns, items, config, executor)
    else:
        detailed = mine_interventions_detailed(
            evaluator, patterns, items, config, executor
        )
    rules = [best for best, _ in detailed if best is not None]
    return rules, sum(nodes for _, nodes in detailed)


def mine_interventions_detailed(
    evaluator: RuleEvaluator,
    grouping_patterns,
    items: list[Pattern],
    config: FairCapConfig,
    executor=None,
) -> list[tuple[PrescriptionRule | None, int]]:
    """Per-pattern Step-2 results: one ``(best, nodes)`` per pattern, in order.

    A :class:`~repro.parallel.executors.ProcessExecutor` with more than one
    worker fans the patterns out across its pool; anything else runs the
    in-process loop below.
    """
    if isinstance(executor, ProcessExecutor) and executor.n_workers > 1:
        from repro.parallel.mining import mine_groups_detailed

        return mine_groups_detailed(
            evaluator, grouping_patterns, items, config, executor
        )

    detailed: list[tuple[PrescriptionRule | None, int]] = []
    for frequent in grouping_patterns:
        result = mine_grouping(evaluator, frequent.pattern, items, config)
        detailed.append((result.best, result.nodes_evaluated))
    return detailed


#: Patterns mined between checkpoint saves.  Durability granularity, not a
#: result knob: each pattern's result is independent of which patterns are
#: mined alongside it, so any window size yields identical bits.
CHECKPOINT_WINDOW = 8


def _mine_checkpointed(
    evaluator: RuleEvaluator,
    patterns: list,
    items: list[Pattern],
    config: FairCapConfig,
    executor=None,
) -> list[tuple[PrescriptionRule | None, int]]:
    """Mine with per-pattern persistence: load hits, mine misses in windows.

    A killed driver loses at most one window of work; everything saved
    before the crash is loaded verbatim on the next run (the files hold
    the pickled results themselves, so a resumed run is bit-identical to
    a fresh one).  The injected ``abort`` fault fires here, after the
    planned save count, to make crashed-driver tests deterministic.
    """
    from repro.parallel.resilience import RunCheckpoint, maybe_driver_abort

    checkpoint = RunCheckpoint.for_run(
        config.checkpoint_dir, evaluator, config, items
    )
    results: dict[int, tuple] = {}
    missing: list[int] = []
    for index, frequent in enumerate(patterns):
        hit = checkpoint.load(index, frequent.pattern)
        if hit is None:
            missing.append(index)
        else:
            results[index] = hit
    plan = getattr(config, "fault_plan", None)
    saves = 0
    for start in range(0, len(missing), CHECKPOINT_WINDOW):
        window = missing[start : start + CHECKPOINT_WINDOW]
        mined = mine_interventions_detailed(
            evaluator, [patterns[i] for i in window], items, config, executor
        )
        for index, (best, nodes) in zip(window, mined):
            checkpoint.save(index, patterns[index].pattern, best, nodes)
            results[index] = (best, nodes)
            saves += 1
            maybe_driver_abort(plan, saves)
    return [results[index] for index in range(len(patterns))]
