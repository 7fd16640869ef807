"""Rule evaluation: from (grouping, intervention) patterns to utilities.

:class:`RuleEvaluator` owns everything needed to turn a candidate pattern
pair into an evaluated :class:`~repro.rules.rule.PrescriptionRule`:

1. restrict the table to ``Coverage(P_grp)``;
2. split it into treated (``P_int`` true) and control rows;
3. pick a backdoor adjustment set for the intervention attributes from the
   causal DAG (dropping attributes that are constant inside the subgroup —
   e.g. attributes fixed by the grouping pattern itself);
4. estimate the three CATEs of Def. 4.4 (overall / protected /
   non-protected).

Because Step 2 of FairCap evaluates *many* intervention patterns against the
*same* grouping pattern, the per-group work (filtering the table, splitting
into protected / non-protected sub-tables) is factored into a
:class:`GroupEvaluationContext` that is built once per grouping pattern.

The batched engine (:func:`repro.core.intervention.mine_intervention`)
hands each lattice level to :meth:`GroupEvaluationContext.begin_level`,
which composes the level's treated stacks from packed item bitsets
(:mod:`repro.mining.bitsets`), popcount-prunes zero-support candidates
before any estimation, and emits the *overall* estimation request;
:meth:`_LevelWork.followup` applies the keep filter and emits protected /
non-protected requests for the kept candidates only — a rejected
candidate's sub-population CATEs are never computed.
:meth:`RuleEvaluator.estimate_requests` answers requests through the fused
row-major kernel (:func:`repro.causal.batch.estimate_level_rows`) under
level-granularity cache keys.  The kernel memoises each design's
factorization on the sub-table it factorizes, so a context's
factorizations die with it; a protected or non-protected side that covers
every row of the context *is* the context's sub-table and shares them.
:meth:`GroupEvaluationContext.evaluate` is the scalar per-candidate
reference.

Utilities follow the paper's conventions: a rule covering no tuples has
utility 0, and a sub-group CATE that cannot be estimated (no protected rows,
say) also contributes utility 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.causal.backdoor import backdoor_adjustment_set, parents_adjustment_set
from repro.causal.dag import CausalDAG
from repro.causal.estimators import (
    POSITIVITY_REASON,
    CateResult,
    LinearAdjustmentEstimator,
    StratifiedEstimator,
)
from repro.mining.bitsets import (
    pack_mask,
    pattern_bitset,
    popcount_rows,
    unpack_rows,
)
from repro.mining.patterns import Pattern
from repro.obs.runtime import current as obs_current
from repro.parallel.cache import (
    EstimationCache,
    packed_rows_digest,
    treated_mask_digest,
)
from repro.rules.protected import ProtectedGroup
from repro.rules.rule import PrescriptionRule
from repro.tabular.table import Table
from repro.utils.errors import EstimationError

_MISSING = object()


def keep_candidate(overall: "CateResult | None", alpha: float | None) -> bool:
    """The Step-2 keep/expand predicate, on the overall CATE alone.

    A node's supersets are explored when its overall effect is usable,
    positive, and (when ``alpha`` is set) significant — Sec. 5.2's filter.
    Single source of truth shared by the scalar decider
    (:func:`repro.core.intervention._make_decider`) and the batched
    engine's phase-2 planning (:meth:`_LevelWork.followup`), so the two
    paths cannot drift apart on which lattice they explore.
    """
    if overall is None or not overall.valid:
        return False
    keep = float(overall.estimate) > 0.0
    if keep and alpha is not None:
        keep = overall.is_significant(alpha)
    return keep


class _SubRequest:
    """One (sub-population, lattice level) estimation unit.

    Carries everything :meth:`RuleEvaluator.estimate_requests` needs to
    answer it — the sub-table, the row-major treated stack plus its shared
    float conversion, popcount-derived treated counts, per-candidate
    effective adjustment sets, and the content-digest parts of its
    level-granularity cache key.  ``results`` is filled in place.
    """

    __slots__ = (
        "table",
        "treated_rows",
        "float_rows",
        "counts",
        "effective",
        "digest_parts",
        "results",
    )

    def __init__(
        self, table, treated_rows, float_rows, counts, effective, digest_parts
    ):
        self.table = table
        self.treated_rows = treated_rows
        self.float_rows = float_rows
        self.counts = counts
        self.effective = effective
        self.digest_parts = digest_parts
        self.results: list[CateResult] | None = None


class _LevelWork:
    """One lattice level of one context, estimated in two phases.

    Built by :meth:`GroupEvaluationContext.begin_level`: popcount-pruned
    candidates arrive pre-assembled in ``pruned``; the surviving
    candidates' *overall* batch sits in ``requests`` for the first
    estimation pass.  :meth:`followup` then applies the keep filter — Step
    2 expands a node on its overall CATE alone (positive, significant) —
    and emits protected / non-protected requests **only for the kept
    columns**: a rejected candidate's sub-population CATEs are never read
    (its rule is discarded after the keep decision), so estimating them
    eagerly, as the scalar reference does, is pure waste.  :meth:`finish`
    re-interleaves everything into ``(keep, rule)`` evaluations in
    candidate order.
    """

    __slots__ = (
        "context",
        "interventions",
        "pruned",
        "requests",
        "_const_rules",
        "_survivor_count",
        "_treated_rows",
        "_packed",
        "_counts",
        "_prot_counts",
        "_raw_adjustments",
        "_overall",
        "_keep",
        "_kept_pos",
        "_prot",
        "_nonprot",
    )

    def __init__(self, context, interventions):
        self.context = context
        self.interventions = interventions
        self.pruned: dict[int, PrescriptionRule] = {}
        self.requests: list[_SubRequest] = []
        self._const_rules: list[PrescriptionRule] | None = None
        self._survivor_count = 0
        self._treated_rows = None
        self._packed = None
        self._counts = None
        self._prot_counts = None
        self._raw_adjustments = None
        self._overall = None
        self._keep: list[bool] | None = None
        self._kept_pos: list[int] | None = None
        self._prot = None
        self._nonprot = None

    def followup(self, alpha: float | None) -> list[_SubRequest]:
        """Phase 2: keep-filter on overall results, kept-only sub-requests."""
        if self._const_rules is not None:
            return []
        overall = (
            self._overall.results
            if isinstance(self._overall, _SubRequest)
            else self._overall
        )
        self._overall = overall
        self._keep = keep = [keep_candidate(result, alpha) for result in overall]
        self._kept_pos = [pos for pos, kept in enumerate(keep) if kept]
        if not self._kept_pos:
            self._prot = self._nonprot = []
            return []
        self._prot, self._nonprot = self.context._subpopulation_entries(self)
        return self.requests

    def finish(self) -> list[tuple[bool, PrescriptionRule]]:
        """Assemble the level's ``(keep, rule)`` evaluations in order."""
        if self._const_rules is not None:
            # Constant rules all carry utility 0 -> never kept.
            return [(False, rule) for rule in self._const_rules]
        prot = self._prot.results if isinstance(self._prot, _SubRequest) else self._prot
        nonprot = (
            self._nonprot.results
            if isinstance(self._nonprot, _SubRequest)
            else self._nonprot
        )
        kept_index = {pos: i for i, pos in enumerate(self._kept_pos)}
        evaluations: list[tuple[bool, PrescriptionRule]] = []
        pos = 0
        for j, intervention in enumerate(self.interventions):
            rule = self.pruned.get(j)
            if rule is not None:
                evaluations.append((False, rule))
                continue
            kept = self._keep[pos]
            if kept:
                i = kept_index[pos]
                rule = self.context._assemble_rule(
                    intervention, self._overall[pos], prot[i], nonprot[i]
                )
            else:
                # Rejected candidates' sub-population CATEs were skipped;
                # their rules are only ever counted, never selected.
                rule = self.context._assemble_rule(
                    intervention, self._overall[pos], None, None
                )
            evaluations.append((kept, rule))
            pos += 1
        return evaluations


class GroupEvaluationContext:
    """Cached state for evaluating treatments against one grouping pattern."""

    def __init__(self, evaluator: "RuleEvaluator", grouping: Pattern) -> None:
        self.evaluator = evaluator
        self.grouping = grouping
        group_mask = grouping.mask(evaluator.table)
        self.coverage_count = int(group_mask.sum())
        self.subtable = evaluator.table.filter(group_mask)
        self.sub_protected = evaluator.protected_mask[group_mask]
        self.protected_count = int(self.sub_protected.sum())
        non_protected_count = self.coverage_count - self.protected_count
        # A side that holds every covered row *is* the subtable, so its
        # batches reuse the factorizations memoised on the subtable.
        self.protected_table = self._side_table(
            self.sub_protected, self.protected_count
        )
        self.non_protected_table = self._side_table(
            ~self.sub_protected, non_protected_count
        )
        # Built lazily by the batched engine: the protected row-selection
        # as packed words for popcount splits, and its digest for the
        # sub-population cache keys.
        self._protected_words: np.ndarray | None = None
        self._protected_digest: bytes | None = None

    def _side_table(self, rows: np.ndarray, count: int) -> Table | None:
        """The protected or non-protected sub-table: ``None`` when empty."""
        if count == 0:
            return None
        if count == self.coverage_count:
            return self.subtable
        return self.subtable.filter(rows)

    def _protected_bitset(self) -> np.ndarray:
        """Packed protected-row mask over the subtable (lazily built)."""
        if self._protected_words is None:
            self._protected_words = pack_mask(self.sub_protected)
        return self._protected_words

    def _protected_mask_digest(self) -> bytes:
        """Digest of the protected row-selection for sub-population cache keys."""
        if self._protected_digest is None:
            self._protected_digest = treated_mask_digest(self.sub_protected)
        return self._protected_digest

    def _pruned_result(
        self, sub_table: Table, c_sub: int, raw_adjustment: tuple[str, ...]
    ) -> CateResult:
        """The result estimation *would* produce for a zero-support column.

        Replicates, branch for branch, what the scalar :meth:`RuleEvaluator.cate`
        emits for a candidate whose treated count in the whole subgroup is 0
        or n: the minimum-subgroup guard first (raw adjustment attributes,
        like the guard), then the estimator's positivity rejection (with the
        sub-table's effective adjustment).  This is what makes popcount
        pruning ≡ the scalar overall rejection exactly, field for field.
        """
        n_sub = sub_table.n_rows
        min_size = self.evaluator.min_subgroup_size
        if n_sub < min_size:
            return CateResult.invalid(
                f"subgroup smaller than {min_size}",
                n=n_sub,
                n_treated=c_sub,
                n_control=n_sub - c_sub,
                adjustment=tuple(raw_adjustment),
            )
        effective = self.evaluator._effective_adjustment(sub_table, raw_adjustment)
        return CateResult.invalid(
            POSITIVITY_REASON,
            n=n_sub,
            n_treated=c_sub,
            n_control=n_sub - c_sub,
            adjustment=effective,
        )

    def _pruned_rule(
        self,
        intervention: Pattern,
        raw_adjustment: tuple[str, ...],
        count: int,
    ) -> PrescriptionRule:
        """Assemble a popcount-pruned candidate's rule without estimation.

        A zero-support candidate can never be kept, and the batched engine
        only estimates sub-population CATEs for kept candidates — so,
        exactly like every other rejected candidate's rule, the pruned rule
        carries the synthesized *overall* rejection and ``None``
        sub-populations.
        """
        overall = self._pruned_result(self.subtable, count, raw_adjustment)
        return self._assemble_rule(intervention, overall, None, None)

    def _zero_coverage_rule(self, intervention: Pattern) -> PrescriptionRule:
        return PrescriptionRule(
            grouping=self.grouping,
            intervention=intervention,
            utility=0.0,
            utility_protected=0.0,
            utility_non_protected=0.0,
            coverage_count=0,
            protected_coverage_count=0,
        )

    def _compose_level(self, interventions: list[Pattern]):
        """Compose one level's treated stacks, pruning zero-support columns.

        The stacks are AND-composed from per-predicate packed bitsets, and
        candidates whose treated count is 0 or the whole subgroup are
        popcount-pruned *before* any boolean row is materialised.  Returns
        ``(pruned, survivors, treated_rows, counts, prot_counts,
        raw_adjustments, packed)`` for the surviving candidates:
        ``treated_rows`` is their row-major boolean stack and ``packed``
        its word form (for digest reuse).
        """
        evaluator = self.evaluator
        n = self.subtable.n_rows
        m = len(interventions)
        raw_adjustments = [
            evaluator.adjustment_for(intervention.attributes)
            for intervention in interventions
        ]
        first = pattern_bitset(self.subtable, interventions[0])
        packed = np.empty((m, first.shape[0]), dtype=np.uint64)
        packed[0] = first
        for j in range(1, m):
            packed[j] = pattern_bitset(self.subtable, interventions[j])
        counts = popcount_rows(packed)
        prot_counts = (
            popcount_rows(packed & self._protected_bitset()[None, :])
            if self.protected_table is not None
            else None
        )
        pruned: dict[int, PrescriptionRule] = {}
        survivors = list(range(m))
        prunable = (counts == 0) | (counts == n)
        if prunable.any():
            for j in np.flatnonzero(prunable):
                pruned[int(j)] = self._pruned_rule(
                    interventions[j], raw_adjustments[j], int(counts[j])
                )
            survivors = [int(j) for j in np.flatnonzero(~prunable)]
        if not survivors:
            return pruned, survivors, None, None, None, raw_adjustments, None
        packed_s = packed[survivors] if len(survivors) != m else packed
        treated_rows = unpack_rows(packed_s, n)
        counts_s = counts[survivors]
        prot_s = prot_counts[survivors] if prot_counts is not None else None
        raw_s = [raw_adjustments[j] for j in survivors]
        return pruned, survivors, treated_rows, counts_s, prot_s, raw_s, packed_s

    def _population_entry(
        self,
        work: "_LevelWork",
        sub_table,
        rows_mask,
        treated_rows,
        float_rows,
        pop_counts,
        raw_adjustments,
        base_digest,
        tag: str,
    ):
        """One sub-population's share of a level: a request or a const list.

        Mirrors the scalar :meth:`RuleEvaluator.cate` guards exactly — the
        minimum-subgroup cutoff first (raw adjustment attributes), then the
        per-sub-table effective-adjustment restriction (computed once per
        *distinct* set instead of once per column) — before emitting an
        estimation request onto ``work``.
        """
        m = treated_rows.shape[0]
        if sub_table is None:
            return [None] * m
        evaluator = self.evaluator
        if rows_mask is None or sub_table is self.subtable:
            # A side holding every covered row needs no copy of the stack;
            # its cache key still names the side (``rows_mask`` below).
            sub_rows, sub_float = treated_rows, float_rows
        else:
            # Converting the sliced boolean stack is cheaper than slicing
            # the float stack (1 byte read per element instead of 8) and
            # produces bit-identical values; the kernel converts on demand.
            sub_rows, sub_float = treated_rows[:, rows_mask], None
        n_sub = sub_table.n_rows
        if pop_counts is None:
            pop_counts = sub_rows.sum(axis=1)
        if n_sub < evaluator.min_subgroup_size:
            counts_l = [int(c) for c in pop_counts]
            return [
                CateResult.invalid(
                    f"subgroup smaller than {evaluator.min_subgroup_size}",
                    n=n_sub,
                    n_treated=counts_l[pos],
                    n_control=n_sub - counts_l[pos],
                    adjustment=tuple(raw_adjustments[pos]),
                )
                for pos in range(m)
            ]
        distinct: dict = {}
        effective = []
        for adjustment in raw_adjustments:
            eff = distinct.get(adjustment, _MISSING)
            if eff is _MISSING:
                eff = evaluator._effective_adjustment(sub_table, adjustment)
                distinct[adjustment] = eff
            effective.append(eff)
        digest_parts = None
        if base_digest is not None:
            digest_parts = (
                ("rows", base_digest)
                if rows_mask is None
                else ("rows-sub", base_digest, self._protected_mask_digest(), tag)
            )
        request = _SubRequest(
            sub_table, sub_rows, sub_float, pop_counts, effective, digest_parts
        )
        work.requests.append(request)
        return request

    def begin_level(self, interventions: Sequence[Pattern]) -> _LevelWork:
        """Plan one lattice level for two-phase estimation.

        Composes the level's treated stacks from packed item bitsets,
        prunes candidates without support variation by popcount — their
        rules are synthesized exactly as the scalar path would reject them
        — converts the surviving stack to float **once** per level, and
        emits the *overall* sub-population's request.  The caller runs it
        (:meth:`RuleEvaluator.estimate_requests`), calls
        :meth:`_LevelWork.followup` to get the kept columns' protected /
        non-protected requests, runs those, and then
        :meth:`_LevelWork.finish`.
        """
        interventions = list(interventions)
        for intervention in interventions:
            if intervention.is_empty():
                raise EstimationError("intervention pattern must be non-empty")
        work = _LevelWork(self, interventions)
        if not interventions:
            work._const_rules = []
            return work
        if self.coverage_count == 0:
            work._const_rules = [
                self._zero_coverage_rule(intervention)
                for intervention in interventions
            ]
            return work

        pruned, survivors, treated_rows, counts, prot_counts, raw_s, packed_s = (
            self._compose_level(interventions)
        )
        work.pruned = pruned
        if not survivors:
            work._const_rules = [pruned[j] for j in range(len(interventions))]
            return work

        float_rows = treated_rows.astype(np.float64)
        base_digest = None
        if self.evaluator.cache is not None:
            base_digest = packed_rows_digest(packed_s, self.subtable.n_rows)
        work._survivor_count = len(survivors)
        work._treated_rows = treated_rows
        work._packed = packed_s
        work._counts = counts
        work._prot_counts = prot_counts
        work._raw_adjustments = raw_s
        work._overall = self._population_entry(
            work,
            self.subtable,
            None,
            treated_rows,
            float_rows,
            counts,
            raw_s,
            base_digest,
            "all",
        )
        return work

    def _subpopulation_entries(self, work: "_LevelWork"):
        """Phase-2 entries: protected / non-protected batches, kept columns only."""
        kept_pos = work._kept_pos
        if len(kept_pos) != work._survivor_count:
            treated_rows = work._treated_rows[kept_pos]
            packed = work._packed[kept_pos]
            counts = work._counts[kept_pos]
            prot_counts = (
                work._prot_counts[kept_pos] if work._prot_counts is not None else None
            )
            raw_s = [work._raw_adjustments[pos] for pos in kept_pos]
        else:
            treated_rows = work._treated_rows
            packed = work._packed
            counts = work._counts
            prot_counts = work._prot_counts
            raw_s = work._raw_adjustments
        base_digest = None
        if self.evaluator.cache is not None:
            base_digest = packed_rows_digest(packed, self.subtable.n_rows)
        nonprot_counts = counts - prot_counts if prot_counts is not None else None
        work.requests = []
        prot = self._population_entry(
            work,
            self.protected_table,
            self.sub_protected,
            treated_rows,
            None,
            prot_counts,
            raw_s,
            base_digest,
            "prot",
        )
        nonprot = self._population_entry(
            work,
            self.non_protected_table,
            ~self.sub_protected,
            treated_rows,
            None,
            nonprot_counts,
            raw_s,
            base_digest,
            "nonprot",
        )
        return prot, nonprot

    def evaluate(self, intervention: Pattern) -> PrescriptionRule:
        """Evaluate ``intervention`` for this context's grouping pattern."""
        if intervention.is_empty():
            raise EstimationError("intervention pattern must be non-empty")
        if self.coverage_count == 0:
            return self._zero_coverage_rule(intervention)
        evaluator = self.evaluator
        treated = intervention.mask(self.subtable)
        adjustment = evaluator.adjustment_for(intervention.attributes)

        overall = evaluator.cate(self.subtable, treated, adjustment)
        prot = (
            evaluator.cate(
                self.protected_table, treated[self.sub_protected], adjustment
            )
            if self.protected_table is not None
            else None
        )
        nonprot = (
            evaluator.cate(
                self.non_protected_table, treated[~self.sub_protected], adjustment
            )
            if self.non_protected_table is not None
            else None
        )

        return self._assemble_rule(intervention, overall, prot, nonprot)

    def _assemble_rule(
        self,
        intervention: Pattern,
        overall: CateResult | None,
        prot: CateResult | None,
        nonprot: CateResult | None,
    ) -> PrescriptionRule:
        def usable(result: CateResult | None) -> float:
            if result is None or not result.valid:
                return 0.0
            return float(result.estimate)

        return PrescriptionRule(
            grouping=self.grouping,
            intervention=intervention,
            utility=usable(overall),
            utility_protected=usable(prot),
            utility_non_protected=usable(nonprot),
            coverage_count=self.coverage_count,
            protected_coverage_count=self.protected_count,
            estimate=overall,
            estimate_protected=prot,
            estimate_non_protected=nonprot,
        )


class RuleEvaluator:
    """Evaluates prescription rules against a dataset and causal DAG.

    Parameters
    ----------
    table:
        The full database instance ``D``.
    outcome:
        The outcome attribute ``O``.
    dag:
        Causal DAG over (at least) the attributes appearing in rules plus
        the outcome.
    protected:
        The protected group ``P_p``.
    estimator:
        CATE estimator; defaults to linear adjustment (DoWhy's default).
    min_subgroup_size:
        Sub-populations smaller than this yield utility 0 instead of a
        noisy estimate (both for the rule itself and for the protected /
        non-protected splits).
    cache:
        Optional :class:`~repro.parallel.cache.EstimationCache` memoising
        CATE results by content; hits are identical to recomputation, so
        the cache never changes results (see :mod:`repro.parallel`).
    """

    def __init__(
        self,
        table: Table,
        outcome: str,
        dag: CausalDAG,
        protected: ProtectedGroup,
        estimator: LinearAdjustmentEstimator | StratifiedEstimator | None = None,
        min_subgroup_size: int = 10,
        cache=None,
    ) -> None:
        self.table = table
        self.outcome = outcome
        self.dag = dag
        self.protected = protected
        self.estimator = (
            estimator if estimator is not None else LinearAdjustmentEstimator()
        )
        self.min_subgroup_size = min_subgroup_size
        self.cache = cache
        self.protected_mask = protected.mask(table)
        self._adjustment_cache: dict[tuple[str, ...], tuple[str, ...]] = {}

    # -- adjustment ------------------------------------------------------------

    def adjustment_for(self, treatment_attributes: tuple[str, ...]) -> tuple[str, ...]:
        """Backdoor adjustment set for the treatment attributes (cached)."""
        key = tuple(sorted(treatment_attributes))
        if key not in self._adjustment_cache:
            try:
                adjustment = backdoor_adjustment_set(self.dag, key, self.outcome)
            except EstimationError:
                # A DAG that lacks the outcome or a treatment is an error.
                if any(node not in self.dag for node in (self.outcome, *key)):
                    raise
                # Compound treatments whose constituents influence each
                # other's parents have no strict backdoor set; fall back to
                # the practical parents-union adjustment (see backdoor.py).
                adjustment = parents_adjustment_set(self.dag, key, self.outcome)
            # Keep only attributes present in the table: the DAG may mention
            # latent context nodes that were never materialised.
            available = set(self.table.column_names)
            self._adjustment_cache[key] = tuple(
                z for z in adjustment if z in available
            )
        return self._adjustment_cache[key]

    # -- estimation ------------------------------------------------------------

    def cate(
        self,
        subtable: Table,
        treated: np.ndarray,
        adjustment: tuple[str, ...],
    ) -> CateResult:
        """Estimate a CATE on ``subtable`` guarding against tiny subgroups."""
        if subtable.n_rows < self.min_subgroup_size:
            return CateResult.invalid(
                f"subgroup smaller than {self.min_subgroup_size}",
                n=subtable.n_rows,
                n_treated=int(treated.sum()),
                n_control=int((~treated).sum()),
                adjustment=adjustment,
            )
        # Drop adjustment attributes that are constant within the subgroup
        # (they cannot confound there and only make the design degenerate).
        effective = tuple(
            z for z in adjustment if len(subtable.column(z).value_counts()) > 1
        )
        if self.cache is not None:
            return self.cache.get_or_estimate(
                self.estimator, subtable, treated, self.outcome, effective
            )
        return self.estimator.estimate(subtable, treated, self.outcome, effective)

    @staticmethod
    def _effective_adjustment(
        subtable: Table, adjustment: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Non-constant adjustment attributes, memoised per table instance.

        Same restriction the scalar :meth:`cate` applies inline; both the
        overall and protected/non-protected batches of every lattice level
        ask for it, so the answer rides on the (immutable) table like
        :meth:`repro.tabular.table.Table.mask_cache` entries do.
        """
        memo = subtable.__dict__.setdefault("_effective_adjustment_cache", {})
        effective = memo.get(adjustment)
        if effective is None:
            varying = memo.setdefault("_varying", {})
            keep = []
            for z in adjustment:
                flag = varying.get(z)
                if flag is None:
                    flag = len(subtable.column(z).value_counts()) > 1
                    varying[z] = flag
                if flag:
                    keep.append(z)
            effective = tuple(keep)
            memo[adjustment] = effective
        return effective

    def estimate_requests(self, requests: Sequence[_SubRequest]) -> None:
        """Answer (sub-population, level) requests, filling ``results``.

        Each request is memoised under its level-granularity key
        (:meth:`repro.parallel.cache.EstimationCache.rows_level_key`) and
        computed through the fused row-major kernel on a miss.  Per-request
        bits depend only on the request's own content — never on which
        other grouping patterns were mined before it or by which worker —
        which is what keeps results identical across executors and
        chunkings (the serial ≡ process contract of :mod:`repro.parallel`).
        """
        cache = self.cache
        estimator = self.estimator
        for request in requests:
            key = None
            if cache is not None:
                key = EstimationCache.rows_level_key(
                    estimator,
                    request.table,
                    request.digest_parts,
                    self.outcome,
                    request.effective,
                )
                cached = cache.get(key)
                if cached is not None:
                    request.results = cached
                    continue
            request.results = estimator.estimate_level_rows(
                request.table,
                request.treated_rows,
                self.outcome,
                request.effective,
                float_rows=request.float_rows,
                counts=request.counts,
            )
            if key is not None:
                cache.put(key, request.results)

    def context(self, grouping: Pattern) -> GroupEvaluationContext:
        """Build the cached per-group context for ``grouping``."""
        telemetry = obs_current()
        if telemetry.enabled:
            # One context per grouping pattern, whichever engine or
            # executor runs it — an exact, executor-invariant count.
            telemetry.registry.inc("mining.contexts", 1, deterministic=True)
        return GroupEvaluationContext(self, grouping)

    def evaluate(self, grouping: Pattern, intervention: Pattern) -> PrescriptionRule:
        """Build the evaluated :class:`PrescriptionRule` for a pattern pair."""
        return self.context(grouping).evaluate(intervention)
