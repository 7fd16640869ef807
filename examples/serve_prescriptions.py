"""Mine -> export -> serve -> query: the full prescription-serving loop.

Mines a ruleset from the German Credit bundle, persists it as a versioned
JSON artifact, loads it back into a :class:`PrescriptionEngine`, answers
per-individual queries (including the worst-case Eq. 6 path for protected
individuals), and finally round-trips a request through the HTTP API on an
ephemeral port.  Run with::

    python examples/serve_prescriptions.py
"""

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro import FairCap, FairCapConfig, PrescriptionEngine, ServingArtifact
from repro.core.variants import unconstrained
from repro.datasets import load_german
from repro.serve.http import make_server


def main() -> None:
    # 1. Mine a ruleset (small, laptop-friendly scale).
    bundle = load_german(n=1_000, rng=7)
    config = FairCapConfig(
        variant=unconstrained(), apriori_min_support=0.15, max_rules=8
    )
    result = FairCap(config).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    print(f"mined {result.ruleset.size} rules "
          f"(coverage {result.metrics.coverage:.0%})")

    # 2. Export: the mined ruleset becomes a deployable JSON artifact.
    artifact_path = Path(tempfile.mkdtemp()) / "german_ruleset.json"
    ServingArtifact(
        ruleset=result.ruleset,
        schema=bundle.schema,
        protected=bundle.protected,
        metadata={"dataset": "german", "n_rows": bundle.table.n_rows},
    ).save(str(artifact_path))
    print(f"exported artifact to {artifact_path} "
          f"({artifact_path.stat().st_size:,} bytes)")

    # 3. Serve: load the artifact and answer per-individual queries.
    engine = PrescriptionEngine.from_artifact(ServingArtifact.load(str(artifact_path)))
    print(f"engine requires attributes: {', '.join(engine.index.attributes)}")
    for row in bundle.table.head(3).to_rows():
        prescription = engine.prescribe(row)
        tag = {True: "protected", False: "non-protected", None: "unknown"}
        print(f"  [{tag[prescription.protected]:>13}] "
              f"rule={prescription.rule_index} "
              f"utility={prescription.expected_utility:.3f} "
              f"matched={len(prescription.matched_rules)} rules")
    print(f"profile cache: {engine.cache_info()}")

    # 4. The same query over HTTP (ephemeral port, stdlib only).
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    individual = {
        key: (value if isinstance(value, str) else float(value))
        for key, value in bundle.table.head(1).to_rows()[0].items()
    }
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/v1/prescribe",
        data=json.dumps({"individual": individual}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        payload = json.loads(response.read())
    print(f"HTTP /v1/prescribe -> {json.dumps(payload['prescription'])[:120]}...")
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
