"""Import contract: what each entry point loads, and the lazy re-exports.

``repro serve`` answers from a compiled rule index and never estimates a
CATE, so its process must not load SciPy, networkx or the estimation
subpackages; no process needs ``scipy.stats`` (p-values come from
``scipy.special`` kernels), networkx (the causal DAG is an in-repo bitmask
kernel; networkx is the tests' reference only) or
``multiprocessing.shared_memory`` (every process builds its own design
blocks).  ``repro`` and ``repro.rules``
resolve their re-exports on first access (PEP 562), so the public import
surface stays exactly what it was.

The two process checks run in a fresh interpreter: this test process has
long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.rules
import repro.rules.utility
from repro.mining.patterns import Pattern
from repro.rules.protected import ProtectedGroup
from repro.rules.rule import PrescriptionRule
from repro.rules.ruleset import RuleSet
from repro.serve.artifact import ServingArtifact
from repro.serve.registry import ArtifactRegistry

SRC = Path(__file__).resolve().parents[2] / "src"

#: Never loaded by a ``repro serve`` process.
SERVE_FORBIDDEN = (
    "scipy", "networkx", "repro.causal", "repro.core", "repro.experiments",
)

_FORBIDDEN_LOADED = """
def forbidden_loaded(prefixes):
    return sorted(
        m for m in sys.modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )
"""

_SERVE_CHILD = """\
import json, sys, threading, urllib.request
import repro.__main__
from repro.serve.config import ServeConfig
from repro.serve.engine import PrescriptionEngine
from repro.serve.http import make_server
from repro.serve.registry import ArtifactRegistry
""" + _FORBIDDEN_LOADED + """
registry_dir, prefixes = sys.argv[1], json.loads(sys.argv[2])
individual = {"Country": "US", "Age": 35.0, "Gender": "F"}
registry = ArtifactRegistry(registry_dir)
engine = PrescriptionEngine.from_artifact(registry.get(registry.active_version()))
single = engine.prescribe(individual)
assert single.rule_index is not None
assert len(engine.prescribe_batch([individual] * 3)) == 3

# The full tier, as `repro serve --artifact-dir` runs it.
server = make_server(config=ServeConfig(port=0, artifact_dir=registry_dir))
threading.Thread(target=server.serve_forever, daemon=True).start()
base = f"http://127.0.0.1:{server.port}/v1"

def post(path, payload):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200
        return json.loads(response.read())

post("/prescribe", {"individual": individual})
post("/prescribe", {"individuals": [individual] * 4})
post("/artifacts/activate", {"version": 2})
post("/prescribe", {"individual": individual})
for path in ("/health", "/rules", "/metrics", "/artifacts"):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        assert response.status == 200
server.shutdown()
server.server_close()
print(json.dumps(forbidden_loaded(prefixes)))
"""

_MINE_CHILD = """\
import contextlib, io, json, sys
from repro.__main__ import main
""" + _FORBIDDEN_LOADED + """
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["run", "--dataset", "german", "--n", "400",
                 "--variant", "No constraints"])
assert code == 0
print(json.dumps(forbidden_loaded(json.loads(sys.argv[1]))))
"""


def _child_loaded(code: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _toy_artifact(utility: float) -> ServingArtifact:
    ruleset = RuleSet(
        [
            PrescriptionRule(
                Pattern.of(Country="US"), Pattern.of(Training="Yes"),
                utility, 2.0, 6.0, 100, 30,
            ),
            PrescriptionRule(
                Pattern.empty(), Pattern.of(Training="Course"),
                1.0, 1.0, 1.0, 200, 50,
            ),
        ]
    )
    protected = ProtectedGroup(Pattern.of(Gender="F"), name="women")
    return ServingArtifact(ruleset, protected=protected)


def test_serve_process_loads_no_estimation_stack(tmp_path):
    registry = ArtifactRegistry(tmp_path / "registry")
    registry.publish(_toy_artifact(5.0))
    registry.publish(_toy_artifact(7.0))
    registry.activate(1)
    loaded = _child_loaded(
        _SERVE_CHILD, str(registry.root), json.dumps(SERVE_FORBIDDEN)
    )
    assert loaded == []


@pytest.mark.slow
def test_mining_process_loads_no_scipy_stats_networkx_or_shared_memory():
    forbidden = ("scipy.stats", "networkx", "multiprocessing.shared_memory")
    assert _child_loaded(_MINE_CHILD, json.dumps(forbidden)) == []


# -- lazy re-exports ------------------------------------------------------------


def test_every_export_is_its_home_modules_object():
    names = [name for name in repro.__all__ if name != "__version__"]
    assert len(set(names)) == len(names) == 57  # the surface the eager imports had
    for name in names:
        value = getattr(repro, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name


def test_dir_and_star_import_cover_all():
    assert set(repro.__all__) <= set(dir(repro))
    namespace: dict = {}
    exec("from repro import *", namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)


def test_rules_rule_evaluator_resolves_lazily():
    assert repro.rules.RuleEvaluator is repro.rules.utility.RuleEvaluator
    assert "RuleEvaluator" in dir(repro.rules)
    namespace: dict = {}
    exec("from repro.rules import *", namespace)
    assert set(repro.rules.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "module", [repro, repro.rules], ids=["repro", "repro.rules"]
)
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export
    assert not hasattr(module, "no_such_export")
