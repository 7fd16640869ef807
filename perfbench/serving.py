"""serve-mixed: a closed loop against ``python -m repro serve --artifact-dir``.

Set-up (untimed) mines two German rulesets in this process, publishes
them as versions 1 and 2 of an artifact registry, activates version 1,
and builds a local reference engine per version.  The server is then
started ``SETUP_SPAWNS`` times; each start is timed from spawn to the
first 200 from ``/v1/health`` (``setup_s`` is their median) and the last
one serves the load.

The load is one process, ``CONNECTIONS`` threads, one keep-alive
connection each, each sending its next request when the previous one
has been answered.  About 90% of requests prescribe one individual and
10% a batch of a few dozen; connection 0 also activates version 2, then
1, then 2, ... every ``activate_every`` requests.  Every response must
equal the reference engine's answer for the ``ruleset_version`` it
reports; a mismatch, a non-200 status or a connection error is a failed
operation.  The access log goes to ``/dev/null`` so it can never stall
the server.

With ``--trace 1`` the server runs in this process instead, first
untraced and then with spans patched around each serving layer; the
rps of the two halves gives the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

from perfbench.common import ROOT, child_env, median, percentile
from perfbench.ledger import Ledger

CONNECTIONS = 2
SETUP_SPAWNS = 3
WINDOWS = 5
BATCH_SHARE = 0.10
HEALTH_TIMEOUT_S = 60.0
SIZES = {
    False: {"rows": 2_000, "pool": 400, "batch": (24, 48), "activate_every": 200},
    True: {"rows": 500, "pool": 60, "batch": (8, 16), "activate_every": 40},
}
VARIANTS = ("Group fairness", "No constraints")

#: (patch target, span name) for the traced in-process server.
SERVE_PATCHES = (
    ("repro.serve.http:PrescriptionRequestHandler._route", "serve.http"),
    ("repro.serve.schemas:PrescribeRequest.parse", "serve.schemas.parse"),
    ("repro.serve.schemas:ActivateRequest.parse", "serve.schemas.parse"),
    ("repro.serve.http:PrescriptionRequestHandler._send_json", "serve.render"),
    ("repro.serve.engine:PrescriptionEngine.prescribe", "serve.engine.prescribe"),
    ("repro.serve.index:CompiledRuleIndex.match_indices", "serve.index.match"),
    ("repro.serve.service:PrescriptionService.activate", "serve.service.activate"),
    ("repro.serve.registry:ArtifactRegistry.get", "serve.registry.get"),
)


def _plain(value):
    return value.item() if hasattr(value, "item") else value


def _normalise(payload):
    return json.loads(json.dumps(payload))


class Fixture:
    """The registry, the individuals and the expected answers for one seed."""

    def __init__(self, seed: int, work_dir: str, reduced: bool, corrupt: bool) -> None:
        from repro.core.faircap import FairCap
        from repro.datasets.german import load_german
        from repro.serve.artifact import ServingArtifact
        from repro.serve.engine import PrescriptionEngine
        from repro.serve.registry import ArtifactRegistry
        from repro.serve.schemas import prescription_payload

        from perfbench.inputs import seeded_bundle

        sizes = SIZES[reduced]
        self.sizes = sizes
        self.registry_dir = os.path.join(work_dir, "registry")
        registry = ArtifactRegistry(self.registry_dir)
        settings, bundle = seeded_bundle("german", sizes["rows"], seed)
        variants = settings.variants_for(bundle)
        for name in VARIANTS:
            result = FairCap(settings.config_for(bundle, variants[name])).run(
                bundle.table, bundle.schema, bundle.dag, bundle.protected
            )
            registry.publish(
                ServingArtifact(
                    ruleset=result.ruleset,
                    schema=bundle.schema,
                    protected=bundle.protected,
                    metadata={"dataset": "german", "variant": name, "seed": seed},
                )
            )
        registry.activate(1)
        self.registry = registry

        rows = load_german(n=sizes["pool"], rng=seed + 1).table.to_rows()
        self.individuals = [{k: _plain(v) for k, v in row.items()} for row in rows]
        self.expected: dict[int, list[dict]] = {}
        for version in (1, 2):
            engine = PrescriptionEngine.from_artifact(registry.get(version), cache_size=0)
            self.expected[version] = [
                _normalise(prescription_payload(engine.prescribe(ind)).to_payload())
                for ind in self.individuals
            ]
        if corrupt:
            for answers in self.expected.values():
                for answer in answers:
                    answer["expected_utility"] += 1.0
        self.seed = seed


# -- the server process -------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _health_ok(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/v1/health")
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except OSError:
        return False
    finally:
        conn.close()


def spawn_server(registry_dir: str, env: dict) -> tuple[subprocess.Popen, int, float]:
    """Start ``repro serve``; returns ``(process, port, spawn-to-first-200 s)``."""
    port = _free_port()
    start = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--artifact-dir", registry_dir,
            "--port", str(port),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=ROOT,
    )
    while not _health_ok(port):
        if proc.poll() is not None or time.monotonic() - start > HEALTH_TIMEOUT_S:
            stop_server(proc)
            raise RuntimeError(f"server did not become healthy (exit {proc.returncode})")
        time.sleep(0.002)
    return proc, port, time.monotonic() - start


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing for pid {pid}")


# -- the load generator -------------------------------------------------------


class Client(threading.Thread):
    """One closed-loop connection; records (kind, latency_s, ok, done_at) per request."""

    def __init__(self, index: int, port: int, fixture: Fixture, stop: threading.Event):
        super().__init__(name=f"bench-client-{index}", daemon=True)
        self.index = index
        self.port = port
        self.fixture = fixture
        self.stop = stop
        self.samples: list[tuple[str, float, bool]] = []
        self.errors: list[str] = []
        self.rng = random.Random(fixture.seed * 1_000 + index)
        self.target = 1

    def _next(self, count: int) -> tuple[str, str, object]:
        fixture = self.fixture
        every = fixture.sizes["activate_every"]
        if self.index == 0 and count % every == 0:
            self.target = 2 if self.target == 1 else 1
            return "activate", "/v1/artifacts/activate", self.target
        pool = len(fixture.individuals)
        if self.rng.random() < BATCH_SHARE:
            low, high = fixture.sizes["batch"]
            picks = [self.rng.randrange(pool) for _ in range(self.rng.randint(low, high))]
            return "batch", "/v1/prescribe", picks
        return "single", "/v1/prescribe", self.rng.randrange(pool)

    def _body(self, kind: str, arg) -> bytes:
        individuals = self.fixture.individuals
        if kind == "activate":
            payload = {"version": arg}
        elif kind == "batch":
            payload = {"individuals": [individuals[i] for i in arg]}
        else:
            payload = {"individual": individuals[arg]}
        return json.dumps(payload).encode("utf-8")

    def _check(self, kind: str, arg, status: int, body: bytes) -> str:
        if status != 200:
            return f"{kind}: HTTP {status}"
        data = json.loads(body)
        if kind == "activate":
            return "" if data.get("active_version") == arg else f"activate: {data}"
        expected = self.fixture.expected.get(data.get("ruleset_version"))
        if expected is None:
            return f"{kind}: unknown ruleset_version {data.get('ruleset_version')!r}"
        if kind == "single":
            ok = data.get("prescription") == expected[arg]
        else:
            got = data.get("prescriptions") or []
            ok = len(got) == len(arg) and all(g == expected[i] for g, i in zip(got, arg))
        return "" if ok else f"{kind}: response differs from the reference engine"

    def run(self) -> None:
        headers = {"Content-Type": "application/json"}
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        count = 0
        try:
            while not self.stop.is_set():
                count += 1
                kind, path, arg = self._next(count)
                body = self._body(kind, arg)
                start = time.perf_counter()
                try:
                    conn.request("POST", path, body, headers)
                    response = conn.getresponse()
                    data = response.read()
                    latency = time.perf_counter() - start
                    error = self._check(kind, arg, response.status, data)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    latency = time.perf_counter() - start
                    error = f"{kind}: {type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                self.samples.append((kind, latency, not error, time.perf_counter()))
                if error:
                    self.errors.append(error)
        finally:
            conn.close()


def drive(port: int, fixture: Fixture, seconds: float) -> tuple[list, list, float, float]:
    """Run the closed loop for ``seconds``; returns samples, errors, start, elapsed."""
    stop = threading.Event()
    clients = [Client(i, port, fixture, stop) for i in range(CONNECTIONS)]
    start = time.perf_counter()
    for client in clients:
        client.start()
    time.sleep(seconds)
    stop.set()
    for client in clients:
        client.join(timeout=60)
        if client.is_alive():
            raise RuntimeError(f"{client.name} did not finish")
    elapsed = time.perf_counter() - start
    samples = [s for c in clients for s in c.samples]
    errors = [e for c in clients for e in c.errors]
    return samples, errors, start, elapsed


# -- the two runs --------------------------------------------------------------


def _latencies(samples, kind: str) -> list[float]:
    return [1e3 * s[1] for s in samples if s[0] == kind and s[2]]


def _windowed(samples, start: float, elapsed: float) -> dict:
    """Medians over ``WINDOWS`` equal slices of the load phase.

    Each slice gives its own single/batch p50 and rps; reporting the
    median slice keeps a host stall shorter than half the run out of the
    result.
    """
    width = elapsed / WINDOWS
    slices: list[list] = [[] for _ in range(WINDOWS)]
    for sample in samples:
        slices[min(WINDOWS - 1, int((sample[3] - start) / width))].append(sample)

    def p50(kind: str) -> float:
        return median(
            median(values) for values in (_latencies(s, kind) for s in slices) if values
        )

    return {
        "single": p50("single"),
        "batch": p50("batch"),
        "rps": median(len(s) / width for s in slices),
    }


def _untraced(fixture: Fixture, seconds: float, work_dir: str) -> dict:
    env = child_env(work_dir)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    setups = []
    proc = None
    try:
        for spawn in range(SETUP_SPAWNS):
            proc, port, setup = spawn_server(fixture.registry_dir, env)
            setups.append(setup)
            if spawn < SETUP_SPAWNS - 1:
                stop_server(proc)
        samples, errors, start, elapsed = drive(port, fixture, seconds)
        rss = vm_hwm_mb(proc.pid)
    finally:
        if proc is not None:
            stop_server(proc)
    failed = sum(1 for s in samples if not s[2])
    if proc.returncode not in (0, -signal.SIGTERM):
        errors.append(f"server exited with {proc.returncode}")
        failed += 1
    single = _latencies(samples, "single")
    batch = _latencies(samples, "batch")
    activate = _latencies(samples, "activate")
    windowed = _windowed(samples, start, elapsed)
    summary = {
        "attempted": len(samples),
        "failed": failed,
        "errors": errors,
        "named": {
            "setup_s": (median(setups), "s"),
            "rps": (windowed["rps"], "1/s"),
            "single_p50_ms": (windowed["single"], "ms"),
            "single_p99_ms": (percentile(single, 99), "ms"),
            "batch_p50_ms": (windowed["batch"], "ms"),
            "batch_p99_ms": (percentile(batch, 99), "ms"),
            "activate_p50_ms": (median(activate), "ms"),
            "peak_rss_mb": (rss, "MB"),
        },
        "counts": {
            "setup_s": len(setups),
            "rps": len(samples),
            "single_p50_ms": len(single),
            "single_p99_ms": len(single),
            "batch_p50_ms": len(batch),
            "batch_p99_ms": len(batch),
            "activate_p50_ms": len(activate),
            "peak_rss_mb": 1,
        },
        "metrics": {
            "setup_s": median(setups),
            "latency_ms": windowed["single"],
            "heavy_ms": windowed["batch"],
            "peak_rss_mb": rss,
        },
    }
    return summary


def _serve_layers(summary: dict) -> dict:
    own = summary["self_s"]
    total = summary["total_s"]
    calls = summary["calls"]
    counts = summary["counts"]

    def per_call(name: str) -> float:
        return own.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    lookups = counts.get("engine.cache.lookups", 0)
    statuses = {"200": 0, "4xx": 0, "5xx": 0}
    for key, value in counts.items():
        if key.startswith("status."):
            # Anything neither 200 nor 4xx (including status 0: no
            # response at all) is the server's failure.
            code = key.split(".", 1)[1]
            bucket = "200" if code == "200" else "4xx" if code.startswith("4") else "5xx"
            statuses[bucket] += value
    layers = {
        "serve.schemas.parse_s": per_call("serve.schemas.parse"),
        "serve.render_s": per_call("serve.render"),
        "serve.engine.prescribe_s": per_call("serve.engine.prescribe"),
        "serve.index.match_s": per_call("serve.index.match"),
        "serve.engine.cache_hit_rate": (
            counts.get("engine.cache.hits", 0) / lookups if lookups else 0.0
        ),
        "serve.service.activate_s": per_call("serve.service.activate"),
        "serve.registry.get_s": per_call("serve.registry.get"),
        "serve.http.other_s": per_call("serve.http"),
        "serve.http.unattributed_pct": (
            100.0 * own.get("serve.http", 0.0) / total["serve.http"]
            if total.get("serve.http")
            else 0.0
        ),
        "bench.ledger_residual_s": max(
            (abs(summary["self_sum"][n] - summary["roots"][n]) for n in summary["roots"]),
            default=0.0,
        ),
    }
    for bucket, value in statuses.items():
        layers[f"serve.http.requests.{bucket}"] = value
    return layers


def _install_counters(ledger: Ledger) -> None:
    from repro.serve.engine import PrescriptionEngine
    from repro.serve.http import PrescriptionRequestHandler

    def count_lookups(original):
        def lookup(self, key, count_miss=True):
            cached = original(self, key, count_miss)
            if key is not None:
                ledger.count("engine.cache.lookups")
                if cached is not None:
                    ledger.count("engine.cache.hits")
            return cached

        return lookup

    def count_status(original):
        def route(self, method):
            try:
                return original(self, method)
            finally:
                ledger.count(f"status.{getattr(self, '_status', 0)}")

        return route

    ledger.patch_hook(PrescriptionEngine, "_cache_lookup", count_lookups)
    # Wrapped before the span patch, so the status is read inside the span.
    ledger.patch_hook(PrescriptionRequestHandler, "_route", count_status)


def _traced(fixture: Fixture, seconds: float) -> dict:
    from repro.serve.config import ServeConfig
    from repro.serve.http import make_server

    config = ServeConfig(port=0, quiet=True, artifact_dir=fixture.registry_dir)
    server = make_server(config=config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    ledger = Ledger()
    try:
        base, base_errors, _, base_elapsed = drive(server.port, fixture, seconds / 2)
        _install_counters(ledger)
        for target, name in SERVE_PATCHES:
            ledger.patch(target, name)
        try:
            traced, errors, _, elapsed = drive(server.port, fixture, seconds / 2)
        finally:
            ledger.unpatch()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    samples = base + traced
    layers = _serve_layers(ledger.summary())
    base_rps = len(base) / base_elapsed
    traced_rps = len(traced) / elapsed
    layers["bench.trace_overhead_pct"] = 100.0 * (base_rps / traced_rps - 1.0)
    return {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if not s[2]),
        "errors": base_errors + errors,
        "named": {
            "rps_untraced": (base_rps, "1/s"),
            "rps_traced": (traced_rps, "1/s"),
        },
        "counts": {"rps_untraced": len(base), "rps_traced": len(traced)},
        "per_layer": layers,
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    reduced: bool = False,
    corrupt_reference: bool = False,
) -> dict:
    fixture = Fixture(seed, work_dir, reduced, corrupt_reference)
    if trace:
        return _traced(fixture, seconds)
    return _untraced(fixture, seconds, work_dir)
