"""FairCap: fair and actionable causal prescription rulesets.

A from-scratch reproduction of *"Fair and Actionable Causal Prescription
Ruleset"* (Li, Levy, Youngmann, Galhotra, Roy; SIGMOD 2025), including every
substrate the paper depends on: a columnar table layer, Pearl-model causal
inference (backdoor adjustment, CATE estimation, PC discovery), Apriori and
lattice pattern mining, the FairCap three-step algorithm with all 18 problem
variants, the CauSumX / IDS / FRL baselines, SCM-backed synthetic datasets,
and an experiment harness regenerating every table and figure of the
evaluation.

Quickstart — mine a ruleset::

    from repro import (
        FairCap, FairCapConfig, canonical_variants, load_stackoverflow,
    )

    bundle = load_stackoverflow(n=5000, rng=0)
    variants = canonical_variants("SP", 10_000, theta=0.5, theta_protected=0.5)
    config = FairCapConfig(variant=variants["Group fairness"])
    result = FairCap(config).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    for rule in result.ruleset:
        print(rule)

Quickstart — deploy it (:mod:`repro.serve`)::

    from repro import PrescriptionEngine, ServingArtifact

    # Persist the mined ruleset as a versioned JSON artifact ...
    artifact = ServingArtifact(
        result.ruleset, schema=bundle.schema, protected=bundle.protected
    )
    artifact.save("ruleset.json")

    # ... and answer per-individual queries against it.
    engine = PrescriptionEngine.from_artifact(ServingArtifact.load("ruleset.json"))
    prescription = engine.prescribe({"Country": "US", "Age": 31, ...})
    print(prescription.intervention, prescription.expected_utility)

    # Or over HTTP (also: python -m repro serve --artifact ruleset.json):
    # POST /v1/prescribe {"individual": {...}} -> {"prescription": {...}}

The names in ``__all__`` resolve on first access (PEP 562): ``import repro``
loads nothing but the resolver (:mod:`repro._lazy`), and ``repro serve``
never pays for the estimation stack.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public export -> the subpackage it is re-exported from.
_EXPORTS = {
    name: module
    for module, names in (
        ("repro.tabular", (
            "Table", "Schema", "AttributeSpec", "AttributeKind", "AttributeRole",
            "read_csv", "write_csv",
        )),
        ("repro.mining", ("Pattern", "Predicate", "Operator")),
        # Not "repro.mining": there, ``apriori`` is the submodule once loaded.
        ("repro.mining.apriori", ("apriori",)),
        ("repro.causal", (
            "CausalDAG", "CateResult", "LinearAdjustmentEstimator",
            "StratifiedEstimator", "estimate_cate", "backdoor_adjustment_set",
            "pc_dag", "StructuralCausalModel", "SCMNode",
        )),
        ("repro.rules", (
            "PrescriptionRule", "RuleSet", "RulesetEvaluator", "RulesetMetrics",
            "ProtectedGroup", "RuleTemplates", "describe_rule",
        )),
        ("repro.fairness", (
            "FairnessConstraint", "CoverageConstraint", "statistical_parity",
            "bounded_group_loss", "group_coverage", "rule_coverage",
            "select_variant",
        )),
        ("repro.core", (
            "FairCap", "FairCapConfig", "FairCapResult", "ProblemVariant",
            "canonical_variants", "all_variants", "unconstrained", "run_faircap",
            "brute_force_select",
        )),
        ("repro.baselines", ("run_causumx", "run_ids", "run_frl")),
        ("repro.datasets", ("load_stackoverflow", "load_german", "load_dataset")),
        # ground-truth oracle worlds
        ("repro.scenarios", (
            "ScenarioSpec", "ScenarioWorld", "oracle_grid", "load_scenario",
        )),
        ("repro.serve", (
            "ServingArtifact", "CompiledRuleIndex", "PrescriptionEngine",
            "Prescription",
        )),
    )
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
