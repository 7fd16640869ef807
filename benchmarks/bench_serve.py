"""Serving-tier load benchmark: sustained RPS, tail latency, hot reload.

Drives the full production serving tier — :class:`ArtifactRegistry` on
disk, :class:`PrescriptionService` behind the RCU hot-reload pointer, the
threaded HTTP server with the ``/v1`` API — with keep-alive HTTP clients
and records three things:

- **sustained load**: N client threads hammer ``POST /v1/prescribe`` over
  real German Credit rows against a mined ruleset; the record keeps
  requests/sec and p50/p99 latency.  Every response is differentially
  checked against a local reference engine — a throughput number only
  counts if the answers are right.
- **hot-reload probe**: the same load runs while ``POST
  /v1/artifacts/activate`` swaps the active artifact mid-flight.  The two
  versions answer provably different utilities per row, so a torn
  generation (new version number with the old engine, or vice versa) is
  detectable per response.  Zero failed requests and zero hybrids is a
  *hard* gate: any miss fails the run.
- **coalescing differential**: the same concurrent rows against a batched
  server (``batch_window_ms > 0``, requests coalesced into one vectorized
  index match) and an unbatched one — byte-for-byte identical
  prescriptions is a hard gate; the record keeps the observed batch sizes.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full run
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI job

Outputs:

- ``benchmarks/BENCH_serve.json`` — machine-readable record (schema in
  ``benchmarks/README.md``); the committed copy carries the
  ``smoke_baseline`` block the CI ``bench-trend`` job compares against
  (wall-clock, RPS, p99).
- ``benchmarks/results/serve.txt`` — human-readable table.
- ``--smoke`` writes ``benchmarks/results/serve-smoke.{txt,json}``
  instead (deterministic paths; never touches the committed record).

Wall-clock/RPS/latency are *soft* trend signals (shared CI boxes vary);
the hard gates are the three correctness contracts above.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from benchenv import environment
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap
from repro.core.variants import unconstrained
from repro.datasets import load_german
from repro.rules.ruleset import RuleSet
from repro.serve.artifact import ServingArtifact
from repro.serve.config import ServeConfig
from repro.serve.engine import PrescriptionEngine
from repro.serve.http import make_server
from repro.serve.registry import ArtifactRegistry

BENCH_DIR = Path(__file__).resolve().parent
JSON_PATH = BENCH_DIR / "BENCH_serve.json"
TEXT_PATH = BENCH_DIR / "results" / "serve.txt"
SMOKE_TEXT_PATH = BENCH_DIR / "results" / "serve-smoke.txt"
SMOKE_JSON_PATH = BENCH_DIR / "results" / "serve-smoke.json"

SMOKE_ROWS = 800
FULL_ROWS = 4_000

# v2 of the registry shifts every rule utility by this constant.  A shift
# preserves the argmax (same rule resolves), so each request row answers
# exactly ``v1_utility + SHIFT`` under v2 — a per-row, per-version tell
# that exposes hybrid responses during the hot-reload probe.
UTILITY_SHIFT = 1_000.0

#: (clients, requests per client, probe requests per client, coalesce rows)
SMOKE_LOAD = (3, 60, 30, 16)
FULL_LOAD = (4, 300, 60, 24)


def _mine_artifact(n_rows: int, seed: int) -> tuple[ServingArtifact, object]:
    """Mine a real ruleset from the German Credit bundle."""
    bundle = load_german(n=n_rows, rng=seed)
    config = FairCapConfig(
        variant=unconstrained(),
        apriori_min_support=0.1,
        max_grouping_size=2,
        max_intervention_size=1,
        max_values_per_attribute=5,
    )
    result = FairCap(config).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    artifact = ServingArtifact(
        result.ruleset,
        schema=bundle.schema,
        protected=bundle.protected,
        metadata={"dataset": "german", "rows": n_rows},
    )
    return artifact, bundle


def _shifted(artifact: ServingArtifact) -> ServingArtifact:
    """The same ruleset with every utility shifted by ``UTILITY_SHIFT``."""
    return replace(
        artifact,
        ruleset=RuleSet(
            replace(
                rule,
                utility=rule.utility + UTILITY_SHIFT,
                utility_protected=rule.utility_protected + UTILITY_SHIFT,
                utility_non_protected=rule.utility_non_protected + UTILITY_SHIFT,
            )
            for rule in artifact.ruleset
        ),
    )


def _request_rows(table, limit: int = 64) -> list[dict]:
    """JSON-ready request rows (numpy scalars decay to plain Python)."""
    return [
        {
            key: value.item() if isinstance(value, np.generic) else value
            for key, value in row.items()
        }
        for row in table.to_rows()[:limit]
    ]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


class _Client(threading.Thread):
    """One keep-alive HTTP client looping over pre-encoded request bodies."""

    def __init__(self, port: int, bodies: list[bytes], n_requests: int,
                 barrier: threading.Barrier) -> None:
        super().__init__(daemon=True)
        self._port = port
        self._bodies = bodies
        self._n = n_requests
        self._barrier = barrier
        self.latencies: list[float] = []
        self.responses: list[tuple[int, dict]] = []
        self.error: BaseException | None = None

    def run(self) -> None:  # noqa: D102 - thread body
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=30
            )
            self._barrier.wait(timeout=30)
            for i in range(self._n):
                body = self._bodies[i % len(self._bodies)]
                start = time.perf_counter()
                connection.request(
                    "POST", "/v1/prescribe", body,
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                self.latencies.append(time.perf_counter() - start)
                self.responses.append((response.status, payload))
            connection.close()
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            self.error = exc


def _drive(port: int, bodies: list[bytes], clients: int, per_client: int,
           mid_load=None) -> tuple[list[_Client], float]:
    """Run ``clients`` keep-alive clients; optionally fire ``mid_load()``."""
    barrier = threading.Barrier(clients + 1)
    threads = [_Client(port, bodies, per_client, barrier) for __ in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    start = time.perf_counter()
    if mid_load is not None:
        # Fire once the load is genuinely mid-flight: wait for roughly
        # half the responses to land (a fixed sleep either misses the
        # window on a fast box or dominates the run on a slow one).
        target = clients * per_client // 2
        give_up = time.monotonic() + 60
        while (
            sum(len(t.responses) for t in threads) < target
            and time.monotonic() < give_up
        ):
            time.sleep(0.001)
        mid_load()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - start
    return threads, elapsed


def _expected_utilities(artifact: ServingArtifact,
                        rows: list[dict]) -> list[float]:
    engine = PrescriptionEngine.from_artifact(artifact, cache_size=0)
    return [engine.prescribe(row).expected_utility for row in rows]


def _measure_load(port: int, bodies: list[bytes], expected: list[float],
                  clients: int, per_client: int) -> tuple[dict, list[str]]:
    """Sustained-RPS phase with a per-response differential check."""
    threads, elapsed = _drive(port, bodies, clients, per_client)
    failures = [f"load client crashed: {t.error!r}" for t in threads if t.error]
    latencies: list[float] = []
    bad = 0
    for thread in threads:
        latencies.extend(thread.latencies)
        for i, (status, payload) in enumerate(thread.responses):
            want = expected[i % len(expected)]
            if status != 200:
                bad += 1
            elif payload["prescription"]["expected_utility"] != want:
                bad += 1
                failures.append(
                    f"load answer mismatch: got "
                    f"{payload['prescription']['expected_utility']}, "
                    f"want {want}"
                )
    total = clients * per_client
    if len(latencies) != total:
        failures.append(
            f"load dropped requests: {len(latencies)}/{total} completed"
        )
    if bad:
        failures.append(f"load phase: {bad} bad responses out of {total}")
    latencies.sort()
    return {
        "clients": clients,
        "requests_per_client": per_client,
        "total_requests": total,
        "completed": len(latencies),
        "rps": round(total / elapsed, 1) if elapsed > 0 else 0.0,
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "wall_seconds": round(elapsed, 3),
    }, failures


def _measure_hot_reload(port: int, bodies: list[bytes],
                        expected_by_version: dict[int, list[float]],
                        clients: int, per_client: int) -> tuple[dict, list[str]]:
    """Swap the active artifact mid-load; every response must be whole."""

    def activate_v2():
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request(
            "POST", "/v1/artifacts/activate",
            json.dumps({"version": 2}).encode(),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = response.read()
        connection.close()
        if response.status != 200:
            raise RuntimeError(f"activate failed: {response.status} {body!r}")

    threads, elapsed = _drive(
        port, bodies, clients, per_client, mid_load=activate_v2
    )
    failures = [f"probe client crashed: {t.error!r}" for t in threads if t.error]
    total = clients * per_client
    completed = failed = hybrids = 0
    versions_seen: set[int] = set()
    for thread in threads:
        for i, (status, payload) in enumerate(thread.responses):
            completed += 1
            if status != 200:
                failed += 1
                continue
            version = payload.get("ruleset_version")
            utility = payload["prescription"]["expected_utility"]
            expected = expected_by_version.get(version)
            if expected is None:
                failed += 1
                failures.append(f"probe answered unknown version {version!r}")
                continue
            versions_seen.add(version)
            if utility != expected[i % len(bodies)]:
                hybrids += 1
                failures.append(
                    f"hybrid response: version {version} answered {utility}"
                )
    if completed != total:
        failures.append(f"probe dropped requests: {completed}/{total} completed")
    if failed:
        failures.append(f"probe: {failed} failed requests out of {total}")
    if 2 not in versions_seen:
        failures.append("probe never observed the new generation (v2)")
    return {
        "clients": clients,
        "requests_per_client": per_client,
        "total_requests": total,
        "completed": completed,
        "failed": failed,
        "hybrids": hybrids,
        "versions_seen": sorted(versions_seen),
        "zero_failed": failed == 0 and completed == total and hybrids == 0,
        "wall_seconds": round(elapsed, 3),
    }, failures


def _measure_coalescing(artifact: ServingArtifact,
                        rows: list[dict]) -> tuple[dict, list[str]]:
    """Batched server == unbatched server on the same concurrent rows."""
    failures: list[str] = []
    answers: dict[bool, list] = {}
    batch_sizes: list[float] = []
    for batched in (False, True):
        engine = PrescriptionEngine.from_artifact(artifact)
        config = ServeConfig(
            port=0,
            batch_window_ms=10.0 if batched else 0.0,
            batch_max_size=8,
        )
        server = make_server(engine, config=config)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        collected: list = [None] * len(rows)
        barrier = threading.Barrier(len(rows))

        def post(i, port=server.port, collected=collected, barrier=barrier):
            try:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=30
                )
                barrier.wait(timeout=30)
                connection.request(
                    "POST", "/v1/prescribe",
                    json.dumps({"individual": rows[i]}).encode(),
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                collected[i] = (
                    response.status, payload.get("prescription")
                )
                connection.close()
            except BaseException as exc:  # noqa: BLE001
                collected[i] = ("crash", repr(exc))

        workers = [
            threading.Thread(target=post, args=(i,), daemon=True)
            for i in range(len(rows))
        ]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            answers[batched] = collected
            if batched:
                snapshot = server.metrics.snapshot()
                histogram = snapshot["histograms"].get("serve.batch_size", {})
                for cell in histogram.get("values", {}).values():
                    batch_sizes.append((cell["sum"], cell["count"]))
                if not batch_sizes:
                    failures.append(
                        "coalescing: no batch was ever dispatched "
                        "(serve.batch_size histogram empty)"
                    )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    if answers[True] != answers[False]:
        diffs = sum(
            1 for a, b in zip(answers[True], answers[False]) if a != b
        )
        failures.append(
            f"coalescing differential: batched server diverged from "
            f"unbatched on {diffs}/{len(rows)} rows"
        )
    if not all(status == 200 for status, __ in answers[False]):
        failures.append("coalescing: unbatched server returned non-200s")
    dispatched = sum(count for __, count in batch_sizes)
    submitted = sum(total for total, __ in batch_sizes)
    return {
        "rows": len(rows),
        "identical": answers[True] == answers[False],
        "batches_dispatched": int(dispatched),
        "mean_batch_size": round(submitted / dispatched, 2) if dispatched else 0,
        "batch_window_ms": 10.0,
        "batch_max_size": 8,
    }, failures


def _run_workload(artifact: ServingArtifact, rows: list[dict],
                  load_shape: tuple[int, int, int, int]) -> tuple[dict, list[str]]:
    """The full three-phase workload against a two-version registry."""
    clients, per_client, probe_per_client, coalesce_rows = load_shape
    failures: list[str] = []
    bodies = [json.dumps({"individual": row}).encode() for row in rows]
    shifted = _shifted(artifact)
    # Reference answers per row per version (rows no rule covers answer
    # 0.0 under *both* versions — the shift only moves matched rules).
    expected_v1 = _expected_utilities(artifact, rows)
    expected_v2 = _expected_utilities(shifted, rows)

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        registry = ArtifactRegistry(Path(tmp) / "artifacts")
        registry.publish(artifact)
        registry.publish(shifted)
        registry.activate(1)
        server = make_server(
            config=ServeConfig(port=0, artifact_dir=str(registry.root))
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            load, problems = _measure_load(
                server.port, bodies, expected_v1, clients, per_client
            )
            failures.extend(problems)
            probe, problems = _measure_hot_reload(
                server.port, bodies, {1: expected_v1, 2: expected_v2},
                clients, probe_per_client,
            )
            failures.extend(problems)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    coalescing, problems = _measure_coalescing(
        artifact, rows[:coalesce_rows]
    )
    failures.extend(problems)
    return {"load": load, "hot_reload_probe": probe,
            "coalescing": coalescing}, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=None,
                        help="rows to mine the ruleset from "
                             f"(default {FULL_ROWS}, smoke {SMOKE_ROWS})")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI; writes "
                             "results/serve-smoke.{txt,json}")
    args = parser.parse_args(argv)

    n_rows = args.rows or (SMOKE_ROWS if args.smoke else FULL_ROWS)
    load_shape = SMOKE_LOAD if args.smoke else FULL_LOAD

    wall_start = time.perf_counter()
    print(f"mining German ruleset @ {n_rows} rows ...")
    artifact, bundle = _mine_artifact(n_rows, args.seed)
    rows = _request_rows(bundle.table)
    results, failures = _run_workload(artifact, rows, load_shape)
    wall = time.perf_counter() - wall_start

    load = results["load"]
    probe = results["hot_reload_probe"]
    coalescing = results["coalescing"]
    payload = {
        "benchmark": "serve",
        "dataset": "german",
        "env": environment(),
        "smoke": args.smoke,
        "ruleset": {
            "rows_mined": n_rows,
            "n_rules": len(artifact.ruleset),
            "request_rows": len(rows),
        },
        **results,
        "wall_seconds": round(wall, 3),
        "failures": failures,
        "passed": not failures,
    }

    lines = [
        f"bench_serve: german rows={n_rows} rules={len(artifact.ruleset)} "
        f"cpus={os.cpu_count()} "
        f"schedulable={payload['env']['schedulable_cpus']}"
        f"{' [smoke]' if args.smoke else ''}",
        "",
        f"sustained load ({load['clients']} keep-alive clients x "
        f"{load['requests_per_client']} requests):",
        f"  throughput   {load['rps']:>10,.1f} req/s",
        f"  p50 latency  {load['p50_ms']:>10.2f} ms",
        f"  p99 latency  {load['p99_ms']:>10.2f} ms",
        "",
        f"hot-reload probe ({probe['total_requests']} requests, activate "
        "v2 mid-load):",
        f"  completed {probe['completed']}/{probe['total_requests']}, "
        f"failed {probe['failed']}, hybrids {probe['hybrids']}, "
        f"versions seen {probe['versions_seen']} — "
        f"{'OK' if probe['zero_failed'] else 'FAILED (hard gate)'}",
        "",
        f"coalescing differential ({coalescing['rows']} concurrent rows, "
        f"window {coalescing['batch_window_ms']}ms):",
        f"  batched == unbatched: "
        f"{'yes' if coalescing['identical'] else 'NO (hard gate)'}; "
        f"{coalescing['batches_dispatched']} batches, "
        f"mean size {coalescing['mean_batch_size']}",
    ]
    print("\n".join(lines))

    text_path = SMOKE_TEXT_PATH if args.smoke else TEXT_PATH
    text_path.parent.mkdir(exist_ok=True)
    text_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {text_path}")
    if args.smoke:
        SMOKE_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {SMOKE_JSON_PATH}")
    else:
        # The committed record doubles as the CI trend baseline: re-run the
        # exact smoke configuration so baseline wall-clock/RPS/p99 are
        # measured by the same code path CI executes.
        print(f"re-running smoke configuration @ {SMOKE_ROWS} rows ...")
        smoke_start = time.perf_counter()
        smoke_artifact, smoke_bundle = _mine_artifact(SMOKE_ROWS, args.seed)
        smoke_rows = _request_rows(smoke_bundle.table)
        smoke_results, smoke_failures = _run_workload(
            smoke_artifact, smoke_rows, SMOKE_LOAD
        )
        failures.extend(f"smoke baseline: {f}" for f in smoke_failures)
        payload["failures"] = failures
        payload["passed"] = not failures
        payload["smoke_baseline"] = {
            "wall_seconds": round(time.perf_counter() - smoke_start, 3),
            "rps": smoke_results["load"]["rps"],
            "p50_ms": smoke_results["load"]["p50_ms"],
            "p99_ms": smoke_results["load"]["p99_ms"],
            "rows": SMOKE_ROWS,
            "clients": SMOKE_LOAD[0],
            "requests_per_client": SMOKE_LOAD[1],
            "cpu_count": os.cpu_count(),
        }
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {JSON_PATH}")

    if failures:
        print("FAILURE:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
