"""Shared generators and helpers for the serving-subsystem tests.

Randomized rulesets deliberately reuse a small grid of attribute values and
numeric thresholds so that (a) predicates collide across rules, exercising
the index's deduplication, and (b) table values land exactly on thresholds,
exercising the strict/inclusive boundary handling of the sorted interval
lists.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from repro.mining.patterns import Operator, Pattern, Predicate
from repro.rules.protected import ProtectedGroup
from repro.rules.rule import PrescriptionRule
from repro.rules.ruleset import RuleSet
from repro.tabular.table import Table
from repro.utils.rng import ensure_rng

CATEGORICAL_DOMAINS = {
    "Country": ("US", "DE", "IN", "FR"),
    "Role": ("Dev", "Ops", "Data"),
}
NUMERIC_GRID = {
    "Age": (18.0, 25.0, 30.0, 40.0, 55.0),
    "Salary": (30_000.0, 50_000.0, 90_000.0),
}
ALL_ATTRIBUTES = tuple(CATEGORICAL_DOMAINS) + tuple(NUMERIC_GRID)
_CAT_OPS = (Operator.EQ, Operator.NE)
_NUM_OPS = tuple(Operator)


def random_predicate(rng: np.random.Generator, attribute: str) -> Predicate:
    """A random predicate on ``attribute`` drawn from the shared grids."""
    if attribute in CATEGORICAL_DOMAINS:
        domain = CATEGORICAL_DOMAINS[attribute] + ("Unseen",)
        return Predicate(
            attribute,
            _CAT_OPS[rng.integers(len(_CAT_OPS))],
            domain[rng.integers(len(domain))],
        )
    grid = NUMERIC_GRID[attribute]
    return Predicate(
        attribute,
        _NUM_OPS[rng.integers(len(_NUM_OPS))],
        float(grid[rng.integers(len(grid))]),
    )


def random_rules(rng: np.random.Generator, n_rules: int) -> list[PrescriptionRule]:
    """Rules with random grouping patterns (0-3 predicates, distinct attrs)."""
    rules = []
    for __ in range(n_rules):
        n_preds = int(rng.integers(0, 4))
        attrs = rng.choice(len(ALL_ATTRIBUTES), size=n_preds, replace=False)
        grouping = Pattern(
            random_predicate(rng, ALL_ATTRIBUTES[int(a)]) for a in attrs
        )
        utility_p = float(rng.normal(0.0, 5.0))
        utility_np = float(rng.normal(0.0, 5.0))
        rules.append(
            PrescriptionRule(
                grouping=grouping,
                intervention=Pattern.of(Training="Yes"),
                utility=float(rng.normal(0.0, 5.0)),
                utility_protected=utility_p,
                utility_non_protected=utility_np,
                coverage_count=int(rng.integers(10, 500)),
                protected_coverage_count=int(rng.integers(0, 10)),
            )
        )
    return rules


def random_row(rng: np.random.Generator) -> dict[str, object]:
    """One individual covering every attribute in the shared universe."""
    row: dict[str, object] = {}
    for attribute, domain in CATEGORICAL_DOMAINS.items():
        row[attribute] = domain[rng.integers(len(domain))]
    for attribute, grid in NUMERIC_GRID.items():
        # Half the draws land exactly on a threshold, half in between.
        base = float(grid[rng.integers(len(grid))])
        row[attribute] = base if rng.random() < 0.5 else base + float(rng.random())
    row["Gender"] = ("F", "M")[rng.integers(2)]
    return row


def exchange(port: int, data: bytes) -> bytes:
    """Send ``data`` to a local server, half-close, read until it closes."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            # A rejection closes with part of an oversized request unread,
            # so the close is a reset; the response was read before it.
            pass
    return b"".join(chunks)


def wait_until(predicate, timeout: float = 2.0):
    """Poll for a post-response observation.

    A client sees the response body before the handler thread's ``finally``
    block records the request's metrics and access-log line, so assertions
    on those must allow the handler a moment to finish.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value or time.monotonic() > deadline:
            return value
        time.sleep(0.01)


def random_table(rng: np.random.Generator, n_rows: int) -> Table:
    """A table of :func:`random_row` individuals."""
    return Table.from_rows([random_row(rng) for __ in range(n_rows)])


@pytest.fixture()
def serve_rng() -> np.random.Generator:
    return ensure_rng(1234)


@pytest.fixture()
def toy_ruleset() -> RuleSet:
    """Three hand-built rules with distinct utility orderings."""
    return RuleSet(
        [
            PrescriptionRule(
                Pattern.of(Country="US"),
                Pattern.of(Training="Yes"),
                5.0, 2.0, 6.0, 100, 30,
            ),
            PrescriptionRule(
                Pattern(
                    [
                        Predicate("Age", Operator.GE, 30.0),
                        Predicate("Age", Operator.LT, 40.0),
                    ]
                ),
                Pattern.of(Training="Mentorship"),
                3.0, 4.0, 2.5, 80, 20,
            ),
            PrescriptionRule(
                Pattern.empty(),
                Pattern.of(Training="Course"),
                1.0, 1.0, 1.0, 200, 50,
            ),
        ]
    )


@pytest.fixture()
def serve_protected() -> ProtectedGroup:
    return ProtectedGroup(Pattern.of(Gender="F"), name="women")
