"""d-separation via the moralized ancestral graph (Lauritzen et al. 1990).

Given disjoint node sets ``X``, ``Y``, ``Z``:

1. restrict the DAG to the ancestral closure of ``X ∪ Y ∪ Z``;
2. *moralize*: connect every pair of parents that share a child, then drop
   edge directions;
3. delete ``Z``; ``X`` and ``Y`` are d-separated given ``Z`` iff no undirected
   path connects a node of ``X`` to a node of ``Y``.

The test runs on the bitmasks :class:`~repro.causal.dag.CausalDAG` computes
at construction: the closure is an OR of ancestor masks, and the search
grows a reached set from ``X`` one moral-graph neighbourhood at a time, so
the moral graph is never materialised.
"""

from __future__ import annotations

from typing import Iterable

from repro.causal.dag import CausalDAG, _bits
from repro.utils.errors import SchemaError


def d_separated(
    dag: CausalDAG,
    xs: Iterable[str],
    ys: Iterable[str],
    zs: Iterable[str] = (),
) -> bool:
    """Whether ``xs`` and ``ys`` are d-separated by ``zs`` in ``dag``.

    Parameters
    ----------
    dag:
        The causal DAG.
    xs, ys:
        Non-empty, disjoint node sets.
    zs:
        Conditioning set (may overlap neither ``xs`` nor ``ys``).

    Returns
    -------
    bool
        ``True`` iff every path between ``xs`` and ``ys`` is blocked by
        ``zs``.
    """
    x_set, y_set, z_set = set(xs), set(ys), set(zs)
    if not x_set or not y_set:
        raise SchemaError("d-separation requires non-empty X and Y sets")
    if x_set & y_set:
        raise SchemaError(f"X and Y overlap: {sorted(x_set & y_set)}")
    if (x_set | y_set) & z_set:
        raise SchemaError("conditioning set Z must be disjoint from X and Y")
    x, y, z = dag._mask(x_set), dag._mask(y_set), dag._mask(z_set)
    parents, children = dag._parents, dag._children

    # Step 1: ancestral closure of X ∪ Y ∪ Z.
    seeds = closure = x | y | z
    for i in _bits(seeds):
        closure |= dag._ancestors[i]

    # Steps 2-3: search the moral graph of the closure, minus Z, from X.
    # A node's moral neighbours are its parents (inside the closure, which
    # is ancestral), its children inside the closure, and those children's
    # other parents -- a child in Z still marries its parents.
    allowed = closure & ~z
    reached = frontier = x
    while frontier:
        step = 0
        for i in _bits(frontier):
            kids = children[i] & closure
            step |= parents[i] | kids
            for c in _bits(kids):
                step |= parents[c]
        frontier = step & allowed & ~reached
        if frontier & y:
            return False
        reached |= frontier
    return True
