"""Causal DAGs over attribute names (Sec. 3 of the paper).

:class:`CausalDAG` is an immutable, validated directed acyclic graph whose
nodes are attribute names.  It exposes the graph-theoretic queries the rest
of the library needs — parents, ancestors, descendants, topological order,
d-separation — and keeps the invariant that the graph is acyclic at
construction time.

The causal DAGs FairCap works with have a few dozen nodes at most, so one
Python ``int`` holds any node set as a bitmask (bit ``i`` is the ``i``-th
node in :attr:`CausalDAG.nodes`).  Construction computes the parent, child,
ancestor and descendant masks of every node once, in topological order;
every query afterwards is a few mask operations.  Iteration orders
(``nodes``, ``edges``, ``topological_order()``) match those of
``networkx.DiGraph`` built from the same arguments, which the tests use as
their reference.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

from repro.utils.errors import SchemaError


class CausalDAG:
    """A directed acyclic graph over attribute names.

    Parameters
    ----------
    edges:
        ``(cause, effect)`` pairs.  Repeated pairs collapse into one edge.
    nodes:
        Optional additional isolated nodes (attributes that participate in no
        edge, e.g. an attribute known to be causally irrelevant).  They come
        first in :attr:`nodes`, followed by edge endpoints in order of first
        appearance.

    Raises
    ------
    SchemaError
        If the edge set contains a directed cycle or a self-loop.
    """

    def __init__(
        self,
        edges: Iterable[tuple[str, str]] = (),
        nodes: Iterable[str] = (),
    ) -> None:
        index: dict[str, int] = {}
        succ: list[list[int]] = []

        def add(name: str) -> int:
            i = index.get(name)
            if i is None:
                i = index[name] = len(succ)
                succ.append([])
            return i

        for name in nodes:
            add(name)
        seen: set[tuple[int, int]] = set()
        for cause, effect in edges:
            if cause == effect:
                raise SchemaError(f"self-loop on {cause!r} is not allowed")
            arc = (add(cause), add(effect))
            if arc not in seen:
                seen.add(arc)
                succ[arc[0]].append(arc[1])
        self._build(tuple(index), succ)

    def _build(self, names: tuple[str, ...], succ: Sequence[Sequence[int]]) -> None:
        """Index the graph and compute every node's masks (Kahn's algorithm)."""
        n = len(names)
        parents = [0] * n
        children = [0] * n
        indegree = [0] * n
        for u, targets in enumerate(succ):
            for v in targets:
                children[u] |= 1 << v
                parents[v] |= 1 << u
                indegree[v] += 1
        # A min-heap keyed on the name gives the lexicographic topological
        # order, the order scm.py samples in.
        heap = [(names[i], i) for i in range(n) if not indegree[i]]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            u = heapq.heappop(heap)[1]
            order.append(u)
            for v in succ[u]:
                indegree[v] -= 1
                if not indegree[v]:
                    heapq.heappush(heap, (names[v], v))
        if len(order) < n:
            stuck = sum(1 << i for i in range(n) if indegree[i])
            raise SchemaError(
                f"causal graph contains a cycle: {_cycle(names, parents, stuck)}"
            )
        ancestors = [0] * n
        for u in order:
            reach = ancestors[u] | 1 << u
            for v in succ[u]:
                ancestors[v] |= reach
        descendants = [0] * n
        for u in reversed(order):
            reach = 0
            for v in succ[u]:
                reach |= descendants[v] | 1 << v
            descendants[u] = reach
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._succ = tuple(tuple(targets) for targets in succ)
        self._parents = parents
        self._children = children
        self._ancestors = ancestors
        self._descendants = descendants
        self._order = tuple(names[i] for i in order)
        self._backdoor_graphs: dict[frozenset[str], CausalDAG] = {}

    def __getstate__(self) -> dict:
        # The masks are derived data; process workers receive the DAG in
        # their payload, so only names and successor lists travel.
        return {"names": self._names, "succ": self._succ}

    def __setstate__(self, state: dict) -> None:
        self._build(state["names"], state["succ"])

    # -- node sets as bitmasks --------------------------------------------------

    def _mask(self, nodes: Iterable[str]) -> int:
        """The bitmask of ``nodes``; :class:`SchemaError` on an unknown node."""
        mask = 0
        for node in nodes:
            self._require(node)
            mask |= 1 << self._index[node]
        return mask

    def _members(self, mask: int) -> list[str]:
        """Node names of ``mask``, in node order."""
        names = self._names
        return [names[i] for i in _bits(mask)]

    # -- basic queries ----------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node names (insertion order)."""
        return self._names

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """All directed edges, grouped by cause in node order."""
        names = self._names
        return tuple(
            (names[u], names[v]) for u, targets in enumerate(self._succ) for v in targets
        )

    def __contains__(self, node: object) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._names)

    def _require(self, node: str) -> None:
        if node not in self._index:
            raise SchemaError(f"node {node!r} not in causal DAG")

    def parents(self, node: str) -> tuple[str, ...]:
        """Direct causes of ``node`` (``Pa(node)`` in the paper)."""
        self._require(node)
        return tuple(sorted(self._members(self._parents[self._index[node]])))

    def children(self, node: str) -> tuple[str, ...]:
        """Direct effects of ``node``."""
        self._require(node)
        return tuple(sorted(self._members(self._children[self._index[node]])))

    def ancestors(self, node: str) -> frozenset[str]:
        """All strict ancestors of ``node``."""
        self._require(node)
        return frozenset(self._members(self._ancestors[self._index[node]]))

    def descendants(self, node: str) -> frozenset[str]:
        """All strict descendants of ``node``."""
        self._require(node)
        return frozenset(self._members(self._descendants[self._index[node]]))

    def topological_order(self) -> tuple[str, ...]:
        """A topological ordering of the nodes (smallest name first on ties)."""
        return self._order

    def has_directed_path(self, source: str, target: str) -> bool:
        """Whether a directed path ``source -> ... -> target`` exists.

        A node reaches itself by the empty path.
        """
        self._require(source)
        self._require(target)
        if source == target:
            return True
        return bool(self._descendants[self._index[source]] >> self._index[target] & 1)

    # -- causal-specific queries --------------------------------------------------

    def d_separated(
        self,
        xs: Iterable[str],
        ys: Iterable[str],
        zs: Iterable[str] = (),
    ) -> bool:
        """Whether node sets ``xs`` and ``ys`` are d-separated given ``zs``.

        Delegates to :func:`repro.causal.dseparation.d_separated`.
        """
        from repro.causal.dseparation import d_separated

        return d_separated(self, xs, ys, zs)

    def causally_relevant(self, outcome: str) -> frozenset[str]:
        """Nodes with a directed path into ``outcome``.

        This implements the paper's Step-2 optimisation (i): "discard
        attributes that do not have a causal relationship with the outcome,
        since such attributes have no impact on CATE values".
        """
        return self.ancestors(outcome)

    def without_outgoing_edges(self, nodes: Iterable[str]) -> "CausalDAG":
        """Return a copy with all edges *out of* ``nodes`` removed.

        This is the "backdoor graph" used when checking the backdoor
        criterion via d-separation.  Memoised per cut set: the greedy
        backdoor search asks for the same cut once per candidate set.
        """
        key = frozenset(nodes)
        dag = self._backdoor_graphs.get(key)
        if dag is None:
            cut = {self._index[node] for node in key if node in self._index}
            dag = CausalDAG.__new__(CausalDAG)
            dag._build(
                self._names,
                [() if u in cut else t for u, t in enumerate(self._succ)],
            )
            self._backdoor_graphs[key] = dag
        return dag

    def restricted_to(self, nodes: Iterable[str]) -> "CausalDAG":
        """Induced subgraph over ``nodes`` (node and edge order kept)."""
        keep = set(nodes)
        missing = keep.difference(self._index)
        if missing:
            raise SchemaError(f"nodes not in DAG: {sorted(missing)}")
        return CausalDAG(
            edges=[(u, v) for u, v in self.edges if u in keep and v in keep],
            nodes=[name for name in self._names if name in keep],
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalDAG):
            return NotImplemented
        return set(self.nodes) == set(other.nodes) and set(self.edges) == set(
            other.edges
        )

    def __repr__(self) -> str:
        n_edges = sum(len(targets) for targets in self._succ)
        return f"CausalDAG({len(self._names)} nodes, {n_edges} edges)"


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cycle(
    names: tuple[str, ...], parents: list[int], stuck: int
) -> list[tuple[str, str]]:
    """One directed cycle among the nodes Kahn's algorithm could not emit.

    Every such node keeps a parent that was not emitted either, so walking
    from parent to parent must revisit a node; the walk's loop, reversed,
    is a cycle.  It is named from its earliest node.
    """
    v = (stuck & -stuck).bit_length() - 1
    walk: list[int] = []
    position: dict[int, int] = {}
    while v not in position:
        position[v] = len(walk)
        walk.append(v)
        up = parents[v] & stuck
        v = (up & -up).bit_length() - 1
    loop = walk[position[v]:][::-1]
    start = loop.index(min(loop))
    loop = loop[start:] + loop[:start]
    return [(names[a], names[b]) for a, b in zip(loop, loop[1:] + loop[:1])]
