"""The PC causal-discovery algorithm (Spirtes, Glymour & Scheines 2001).

Used for the "PC DAG" row of Table 6 in the paper, which studies robustness
of FairCap's output to the choice of causal DAG.  The implementation follows
the classic recipe:

1. **Skeleton**: start from the complete undirected graph and remove edges
   whose endpoints test conditionally independent given some subset of their
   neighbourhood (subset size grows level by level up to ``max_cond_size``);
   the separating set is recorded.
2. **V-structures**: for every unshielded triple ``x - z - y`` with
   ``z`` outside ``sepset(x, y)``, orient ``x -> z <- y``.
3. **Meek rules** 1-3 propagate orientations.
4. **DAG extension**: any edge still undirected is oriented by a
   deterministic heuristic — toward the outcome if one endpoint is the
   outcome, otherwise from the alphabetically smaller node — skipping any
   orientation that would create a cycle.  (A CPDAG represents an
   equivalence class; FairCap needs one member, and the evaluation of
   Table 6 shows results are robust to this choice.)

Both graphs are plain insertion-ordered adjacency dicts (``node ->
{neighbour: None}``, a dict used as an ordered set).  The skeleton is
symmetric, and its edges are read as ``(earlier column, later column)``;
the mixed graph of steps 2-4 holds an undirected edge as a pair of
anti-parallel arcs and an oriented edge as a single arc.  Insertion order
fixes the order in which edges are tested and Meek's rules fire, so the
discovered DAG, edge order included, is a function of the table alone.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from repro.causal.dag import CausalDAG
from repro.causal.independence import CITester
from repro.tabular.table import Table

#: ``node -> {neighbour: None}``: insertion-ordered adjacency.
_Adjacency = dict[str, dict[str, None]]


def _undirected_edges(skeleton: _Adjacency) -> Iterator[tuple[str, str]]:
    """Each skeleton edge once, as ``(earlier node, later node)``."""
    seen: set[str] = set()
    for x, neighbours in skeleton.items():
        for y in neighbours:
            if y not in seen:
                yield x, y
        seen.add(x)


def pc_skeleton(
    table: Table,
    alpha: float = 0.05,
    max_cond_size: int = 2,
    tester: CITester | None = None,
) -> tuple[_Adjacency, dict[frozenset[str], tuple[str, ...]]]:
    """Estimate the undirected skeleton and separating sets.

    Returns
    -------
    (skeleton, sepsets):
        ``skeleton`` maps every column to its neighbours (``x`` and ``y``
        are adjacent iff ``y in skeleton[x]``, and then ``x in
        skeleton[y]``); ``sepsets`` maps each removed pair (as a frozenset)
        to the conditioning set that separated it.
    """
    tester = tester if tester is not None else CITester(table)
    nodes = list(table.column_names)
    graph: _Adjacency = {x: {y: None for y in nodes if y != x} for x in nodes}
    sepsets: dict[frozenset[str], tuple[str, ...]] = {}

    for level in range(max_cond_size + 1):
        removed_any = False
        # Snapshot edges: removal during iteration must not affect the loop.
        for x, y in sorted(_undirected_edges(graph)):
            neighbours = set(graph[x]) - {y}
            if len(neighbours) < level:
                continue
            separated = False
            for subset in combinations(sorted(neighbours), level):
                if tester.p_value(x, y, subset) > alpha:
                    sepsets[frozenset((x, y))] = subset
                    separated = True
                    break
            if separated:
                del graph[x][y]
                del graph[y][x]
                removed_any = True
        if not removed_any and level > 0:
            break
    return graph, sepsets


def _orient_v_structures(
    skeleton: _Adjacency, sepsets: dict[frozenset[str], tuple[str, ...]]
) -> _Adjacency:
    """Return the mixed graph holding the v-structure orientations."""
    mixed: _Adjacency = {node: {} for node in skeleton}
    for x, y in _undirected_edges(skeleton):
        mixed[x][y] = None
        mixed[y][x] = None
    for z in sorted(skeleton):
        for x, y in combinations(sorted(skeleton[z]), 2):
            if y in skeleton[x]:
                continue  # shielded triple
            sepset = sepsets.get(frozenset((x, y)), ())
            if z not in sepset:
                # x -> z <- y : drop the arcs pointing away from z.
                if _is_undirected(mixed, z, x):
                    del mixed[z][x]
                if _is_undirected(mixed, z, y):
                    del mixed[z][y]
    return mixed


def _arcs(mixed: _Adjacency) -> Iterator[tuple[str, str]]:
    for a, heads in mixed.items():
        for b in heads:
            yield a, b


def _adjacent(mixed: _Adjacency, a: str, b: str) -> bool:
    return b in mixed[a] or a in mixed[b]


def _is_undirected(mixed: _Adjacency, a: str, b: str) -> bool:
    return b in mixed[a] and a in mixed[b]


def _is_directed(mixed: _Adjacency, a: str, b: str) -> bool:
    return b in mixed[a] and a not in mixed[b]


def _apply_meek_rules(mixed: _Adjacency) -> None:
    """Apply Meek orientation rules 1-3 until fixpoint (in place)."""
    changed = True
    while changed:
        changed = False
        undirected = [
            (a, b)
            for a, b in _arcs(mixed)
            if a < b and _is_undirected(mixed, a, b)
        ]
        for a, b in undirected:
            for first, second in ((a, b), (b, a)):
                # Rule 1: c -> first, c and second non-adjacent => first -> second.
                rule1 = any(
                    _is_directed(mixed, c, first) and not _adjacent(mixed, c, second)
                    for c in mixed
                )
                # Rule 2: first -> c -> second => first -> second.
                rule2 = any(
                    _is_directed(mixed, first, c) and _is_directed(mixed, c, second)
                    for c in mixed[first]
                )
                # Rule 3: first - c -> second and first - d -> second with
                # c, d non-adjacent => first -> second.
                parents_of_second = [
                    c
                    for c in mixed
                    if _is_directed(mixed, c, second) and _is_undirected(mixed, first, c)
                ]
                rule3 = any(
                    not _adjacent(mixed, c, d)
                    for c, d in combinations(sorted(parents_of_second), 2)
                )
                if rule1 or rule2 or rule3:
                    if first in mixed[second]:
                        del mixed[second][first]
                        changed = True
                    break


def _reaches(succ: dict[str, list[str]], source: str, target: str) -> bool:
    """Whether a directed path ``source -> ... -> target`` exists in ``succ``."""
    stack, seen = [source], {source}
    while stack:
        node = stack.pop()
        if node == target:
            return True
        for nxt in succ[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _extend_to_dag(mixed: _Adjacency, outcome: str | None) -> CausalDAG:
    """Orient remaining undirected edges into a DAG (deterministic heuristic).

    With imperfect CI tests the v-structure phase can produce *conflicting*
    orientations that form directed cycles; the standard conservative remedy
    is applied here: pre-oriented edges are admitted one at a time (sorted,
    so deterministically) and any edge that would close a cycle is dropped.
    """
    succ: dict[str, list[str]] = {node: [] for node in mixed}

    def admit(u: str, v: str) -> bool:
        # The graph is acyclic, so u -> v closes a cycle iff v reaches u.
        if _reaches(succ, v, u):
            return False
        succ[u].append(v)
        return True

    for a, b in sorted(
        (a, b) for a, b in _arcs(mixed) if _is_directed(mixed, a, b)
    ):
        admit(a, b)
    pending = sorted(
        {tuple(sorted((a, b))) for a, b in _arcs(mixed) if _is_undirected(mixed, a, b)}
    )
    for a, b in pending:
        # Point into the outcome, otherwise from the smaller name; in an
        # acyclic graph at most one of the two orientations closes a cycle.
        u, v = (b, a) if a == outcome else (a, b)
        if not admit(u, v):
            admit(v, u)
    return CausalDAG(
        edges=[(u, v) for u, heads in succ.items() for v in heads], nodes=succ
    )


def pc_dag(
    table: Table,
    outcome: str | None = None,
    alpha: float = 0.05,
    max_cond_size: int = 2,
    tester: CITester | None = None,
) -> CausalDAG:
    """Run the full PC pipeline on ``table`` and return a CausalDAG.

    Parameters
    ----------
    table:
        The data to discover over (all columns participate).
    outcome:
        Optional outcome attribute; used only to bias the orientation of
        edges that the CPDAG leaves undirected (pointing into the outcome).
    alpha:
        Significance level of the CI tests.
    max_cond_size:
        Largest conditioning-set size to try in the skeleton phase.
    """
    skeleton, sepsets = pc_skeleton(
        table, alpha=alpha, max_cond_size=max_cond_size, tester=tester
    )
    mixed = _orient_v_structures(skeleton, sepsets)
    _apply_meek_rules(mixed)
    return _extend_to_dag(mixed, outcome)
