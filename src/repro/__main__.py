"""Command-line interface: ``python -m repro <command>``.

Commands mirror the experiment harness::

    python -m repro table3
    python -m repro table4 --dataset german --n 1500
    python -m repro table5 --n 3000
    python -m repro table6 --dataset stackoverflow
    python -m repro figure3 | figure4 | figure5 | apriori-sweep
    python -m repro run --dataset stackoverflow --variant "Group fairness"

and the serving subsystem::

    python -m repro export --dataset german --out ruleset.json
    python -m repro export --dataset german --artifact-dir artifacts/ --activate
    python -m repro serve --artifact ruleset.json --port 8080
    python -m repro serve --artifact-dir artifacts/ --workers 8
    python -m repro list-datasets
    python -m repro --version

Dataset sizes default to the laptop-scale experiment settings; ``--n``
overrides both datasets, ``--seed`` the generator seed.  Each command
imports what it runs, so ``serve`` starts without the estimation stack.
"""

from __future__ import annotations

import argparse
import sys


def _settings(args: argparse.Namespace):
    """``ExperimentSettings`` = environment defaults <- CLI flags."""
    from repro.experiments import ExperimentSettings

    base = ExperimentSettings.from_environment()
    so_n = args.n if args.n is not None else base.so_n
    german_n = args.n if args.n is not None else base.german_n
    seed = args.seed if args.seed is not None else base.seed
    n_workers = getattr(args, "workers", None)
    n_workers = n_workers if n_workers is not None else base.n_workers
    executor = getattr(args, "executor", None) or base.executor
    cache_size = getattr(args, "cache_size", None)
    cache_size = cache_size if cache_size is not None else base.cache_size
    return ExperimentSettings(
        so_n=so_n, german_n=german_n, seed=seed,
        n_workers=n_workers, executor=executor, cache_size=cache_size,
        n_override=args.n,
    )


def _cmd_table3(args: argparse.Namespace) -> str:
    from repro.experiments import format_table3, run_table3

    return format_table3(run_table3(rng=args.seed if args.seed else 7))


def _cmd_table4(args: argparse.Namespace) -> str:
    from repro.experiments import format_table4, run_table4

    return format_table4(run_table4(args.dataset, settings=_settings(args)))


def _cmd_table5(args: argparse.Namespace) -> str:
    from repro.experiments import format_table5, run_table5

    return format_table5(run_table5(args.dataset, settings=_settings(args)))


def _cmd_table6(args: argparse.Namespace) -> str:
    from repro.experiments import format_table6, run_table6

    return format_table6(run_table6(args.dataset, settings=_settings(args)))


def _cmd_figure3(args: argparse.Namespace) -> str:
    from repro.experiments import format_figure3, run_figure3

    return format_figure3(run_figure3(args.dataset, settings=_settings(args)))


def _cmd_figure4(args: argparse.Namespace) -> str:
    from repro.experiments import format_figure4, run_figure4

    return format_figure4(run_figure4(args.dataset, settings=_settings(args)))


def _cmd_figure5(args: argparse.Namespace) -> str:
    from repro.experiments import format_figure5, run_figure5

    return format_figure5(run_figure5(args.dataset, settings=_settings(args)))


def _cmd_apriori_sweep(args: argparse.Namespace) -> str:
    from repro.experiments import format_apriori_sweep, run_apriori_sweep

    return format_apriori_sweep(
        run_apriori_sweep(args.dataset, settings=_settings(args))
    )


def _run_variant(args: argparse.Namespace):
    """Shared mine step: load the dataset and run FairCap on one variant."""
    import dataclasses

    from repro.core.faircap import FairCap

    settings = _settings(args)
    bundle = settings.load(args.dataset)
    variants = settings.variants_for(bundle)
    if args.variant not in variants:
        raise SystemExit(
            f"unknown variant {args.variant!r}; choose from: "
            + ", ".join(sorted(variants))
        )
    config = settings.config_for(bundle, variants[args.variant])
    if getattr(args, "trace_json", None):
        config = dataclasses.replace(config, telemetry=True)
    if getattr(args, "checkpoint_dir", None):
        config = dataclasses.replace(config, checkpoint_dir=args.checkpoint_dir)
    if getattr(args, "fault_plan", None):
        config = dataclasses.replace(config, fault_plan=args.fault_plan)
    if getattr(args, "shard_rows", None):
        config = dataclasses.replace(
            config,
            shard_rows=args.shard_rows,
            shard_dir=getattr(args, "shard_dir", None),
        )
    result = FairCap(config).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    return settings, bundle, result


def _cmd_run(args: argparse.Namespace) -> str:
    from repro.experiments.casestudy import render_case_study

    settings, bundle, result = _run_variant(args)
    trace_lines = []
    if getattr(args, "trace_json", None):
        from repro.obs import write_report

        report = dict(result.telemetry or {})
        report.setdefault("meta", {}).update(
            {"dataset": args.dataset, "variant": args.variant, "seed": settings.seed}
        )
        write_report(args.trace_json, report)
        trace_lines = [f"telemetry report written to {args.trace_json}", ""]
    lines = trace_lines + [
        f"dataset={args.dataset} variant={args.variant!r} "
        f"rows={bundle.table.n_rows}",
        f"rules={result.metrics.n_rules} "
        f"coverage={result.metrics.coverage:.1%} "
        f"protected coverage={result.metrics.protected_coverage:.1%}",
        f"expected utility={result.metrics.expected_utility:,.2f} "
        f"(protected {result.metrics.expected_utility_protected:,.2f}, "
        f"non-protected {result.metrics.expected_utility_non_protected:,.2f}, "
        f"unfairness {result.metrics.unfairness:,.2f})",
        "",
        render_case_study(
            f"{args.dataset} ({args.variant})", result.ruleset,
            bundle.templates, rng=settings.seed,
        ),
    ]
    return "\n".join(lines)


def _mine_artifact(args: argparse.Namespace):
    """Mine a ruleset and wrap it as a serving artifact (export path)."""
    from repro.serve.artifact import ServingArtifact

    settings, bundle, result = _run_variant(args)
    artifact = ServingArtifact(
        ruleset=result.ruleset,
        schema=bundle.schema,
        protected=bundle.protected,
        metadata={
            "dataset": args.dataset,
            "variant": args.variant,
            "n_rows": bundle.table.n_rows,
            "seed": settings.seed,
            "expected_utility": result.metrics.expected_utility,
            "coverage": result.metrics.coverage,
        },
    )
    return artifact, result


def _cmd_export(args: argparse.Namespace) -> str:
    if not args.out and not args.artifact_dir:
        raise SystemExit("export needs --out and/or --artifact-dir")
    artifact, result = _mine_artifact(args)
    summary = (
        f"{result.ruleset.size} rules "
        f"(coverage {result.metrics.coverage:.1%}, expected utility "
        f"{result.metrics.expected_utility:,.2f})"
    )
    lines = []
    if args.out:
        artifact.save(args.out)
        lines.append(f"exported {summary} to {args.out}")
    if args.artifact_dir:
        from repro.serve.registry import ArtifactRegistry

        registry = ArtifactRegistry(args.artifact_dir)
        version = registry.publish(artifact)
        if args.activate:
            registry.activate(version)
        state = "activated" if args.activate else "published"
        lines.append(
            f"{state} {summary} as version {version} in {args.artifact_dir}"
        )
        if args.activate:
            lines.append(
                "note: a running server picks up the new version via "
                'POST /v1/artifacts/activate {"version": %d}' % version
            )
    return "\n".join(lines)


def _serve_config(args: argparse.Namespace):
    """``ServeConfig`` = built-in defaults <- REPRO_SERVE_* env <- CLI flags."""
    from repro.serve.config import ServeConfig

    overrides: dict[str, object] = {"quiet": False}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.cache_size is not None:
        overrides["cache_size"] = args.cache_size
    if args.max_concurrency is not None:
        overrides["max_concurrency"] = args.max_concurrency or None
    if args.request_deadline_ms is not None:
        overrides["request_deadline_seconds"] = args.request_deadline_ms / 1e3
    if args.artifact_dir is not None:
        overrides["artifact_dir"] = args.artifact_dir
    return ServeConfig.from_environment().with_overrides(**overrides)


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.serve.http import run_server
    from repro.utils.errors import ServeError

    config = _serve_config(args)
    if args.artifact and config.artifact_dir:
        raise SystemExit("--artifact and --artifact-dir are mutually exclusive")
    if config.artifact_dir:
        run_server(config=config)
    elif args.artifact:
        from repro.serve.artifact import ServingArtifact
        from repro.serve.engine import PrescriptionEngine

        artifact = ServingArtifact.load(args.artifact)
        engine = PrescriptionEngine.from_artifact(
            artifact, cache_size=config.cache_size
        )
        run_server(engine, config=config)
    else:
        raise ServeError(
            "serve needs --artifact FILE or --artifact-dir DIR "
            "(or REPRO_SERVE_ARTIFACT_DIR)"
        )
    return ""


def _cmd_list_datasets(args: argparse.Namespace) -> str:
    from repro.datasets.registry import DATASET_LOADERS
    from repro.scenarios import oracle_grid
    from repro.scenarios.catalog import SCENARIO_PREFIX

    lines = ["Bundled datasets:"]
    for name, loader in sorted(DATASET_LOADERS.items()):
        doc = (loader.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        lines.append(f"  {name:<15} {summary}")
    lines.append("")
    lines.append(
        "Scenario worlds (ground-truth SCMs with known CATEs; "
        f"load as {SCENARIO_PREFIX}<name>):"
    )
    for spec in oracle_grid():
        lines.append(f"  {SCENARIO_PREFIX}{spec.name:<28} {spec.description}")
    return "\n".join(lines)


_COMMANDS = {
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "table6": _cmd_table6,
    "figure3": _cmd_figure3,
    "figure4": _cmd_figure4,
    "figure5": _cmd_figure5,
    "apriori-sweep": _cmd_apriori_sweep,
    "run": _cmd_run,
    "export": _cmd_export,
    "serve": _cmd_serve,
    "list-datasets": _cmd_list_datasets,
}

_EXPERIMENT_COMMANDS = (
    "table3", "table4", "table5", "table6",
    "figure3", "figure4", "figure5", "apriori-sweep", "run",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FairCap reproduction: regenerate paper experiments "
                    "and serve mined rulesets.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_worker_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="treatment-mining worker count (0 = all CPUs; default 1). "
                 "Results are identical for any worker count — parallelism "
                 "only changes runtime (see repro.parallel).",
        )
        cmd.add_argument(
            "--executor", default=None,
            choices=["auto", "serial", "thread", "process"],
            help="execution strategy behind --workers "
                 "(auto = process when --workers != 1)",
        )
        cmd.add_argument(
            "--cache-size", type=int, default=None, metavar="N",
            help="CATE memo entry bound (0 disables caching for "
                 "paper-comparable cold runtimes; default 65536). "
                 "Caching never changes results, only runtime.",
        )
        cmd.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="persist completed grouping-context results under DIR "
                 "and resume from them on a rerun (resume is bit-identical "
                 "to a fresh run; see repro.parallel.resilience)",
        )
        cmd.add_argument(
            "--fault-plan", default=None, metavar="SPEC",
            help='deterministic fault injection for resilience testing, '
                 'e.g. "kill:chunk=1" or "delay:chunk=0,seconds=30" '
                 '(never use in production runs)',
        )
        cmd.add_argument(
            "--shard-rows", type=int, default=None, metavar="N",
            help="out-of-core mode: spill the table into N-row shards and "
                 "mine against the sharded store (peak memory scales with "
                 "the shard, not the table; results are bit-identical to "
                 "the in-RAM run — see repro.datasets.sharded)",
        )
        cmd.add_argument(
            "--shard-dir", default=None, metavar="DIR",
            help="persist the shard store under DIR and reuse it across "
                 "runs of the same table (requires --shard-rows; default "
                 "is a temporary directory removed after the run)",
        )

    for name in _EXPERIMENT_COMMANDS:
        cmd = sub.add_parser(name)
        if name == "run":
            # `run` accepts any registered dataset, including the
            # ground-truth scenario worlds (scenario:<name>); the paper
            # table/figure commands stay pinned to the paper datasets.
            cmd.add_argument(
                "--dataset", default="stackoverflow",
                help="bundled dataset or scenario world "
                     "(see `python -m repro list-datasets`)",
            )
        else:
            cmd.add_argument("--dataset", default="stackoverflow",
                             choices=["stackoverflow", "german"])
        cmd.add_argument("--n", type=int, default=None,
                         help="row-count override for both datasets")
        cmd.add_argument("--seed", type=int, default=None)
        add_worker_flags(cmd)
        if name == "run":
            cmd.add_argument("--variant", default="Group fairness",
                             help='e.g. "No constraints", "Group fairness"')
            cmd.add_argument(
                "--trace-json", default=None, metavar="PATH",
                help="enable run telemetry and write the span/counter "
                     "report (repro.obs.report schema) to PATH",
            )

    export = sub.add_parser(
        "export", help="mine a ruleset and write a serving artifact"
    )
    export.add_argument("--dataset", default="stackoverflow",
                        help="bundled dataset or scenario world "
                             "(see `python -m repro list-datasets`)")
    export.add_argument("--n", type=int, default=None,
                        help="row-count override for both datasets")
    export.add_argument("--seed", type=int, default=None)
    add_worker_flags(export)
    export.add_argument("--variant", default="Group fairness",
                        help='e.g. "No constraints", "Group fairness"')
    export.add_argument("--out", default=None,
                        help="output path for the ruleset artifact JSON")
    export.add_argument("--artifact-dir", default=None, metavar="DIR",
                        help="publish the artifact as the next version in a "
                             "versioned registry directory (see `serve "
                             "--artifact-dir`)")
    export.add_argument("--activate", action="store_true",
                        help="with --artifact-dir: also move the ACTIVE "
                             "pointer to the new version")

    serve = sub.add_parser(
        "serve", help="serve a ruleset artifact over HTTP (/v1 API)"
    )
    serve.add_argument("--artifact", default=None,
                       help="path to a single ruleset artifact JSON "
                            "(single-artifact mode, no hot reload)")
    serve.add_argument("--artifact-dir", default=None, metavar="DIR",
                       help="versioned artifact registry directory; serves "
                            "the ACTIVE version and enables hot reload via "
                            "POST /v1/artifacts/activate")
    serve.add_argument("--host", default=None,
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port (default 8080)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="request worker threads behind the accept loop "
                            "(default 8; bounds connection concurrency)")
    serve.add_argument("--cache-size", type=int, default=None,
                       help="profile LRU cache size (0 disables; default 1024)")
    serve.add_argument("--max-concurrency", type=int, default=None,
                       help="in-flight request bound; excess requests get "
                            "503 + Retry-After (0 = unbounded; default 64)")
    serve.add_argument("--request-deadline-ms", type=float, default=None,
                       help="per-request wall-clock budget; late requests "
                            "get 504 (default: none)")

    sub.add_parser("list-datasets", help="list the bundled datasets")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.utils.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
