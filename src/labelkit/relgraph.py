"""Undirected relatedness graph over label ids.

Supplies the graph distances behind the graph-aware score report. Distance
semantics: a node is at distance 0 from itself, connected nodes are at BFS
hop count, and everything else (including ids outside the graph) is
:data:`INFINITE`, which the scoring side turns into zero credit.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from typing import IO, Iterable, Sequence

from .catalog import LabelCatalog
from .csvio import csv_errors, csv_writer
from .errors import ParseError, PlanError
from .cleanse import AndSplit, OrGroup

INFINITE = math.inf


class RelationGraph:
    """Immutable undirected graph with cached all-targets BFS per source.

    Duplicate edges collapse (the same relation often arrives from several
    generators); self-loops are rejected because they would award distance
    zero twice.
    """

    def __init__(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]]):
        self._nodes = frozenset(nodes)
        adjacency: dict[int, set[int]] = {node: set() for node in self._nodes}
        edge_set: set[tuple[int, int]] = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if a not in self._nodes or b not in self._nodes:
                raise ValueError(f"edge ({a}, {b}) references a node outside the graph")
            if a > b:
                a, b = b, a
            if (a, b) in edge_set:
                continue
            edge_set.add((a, b))
            adjacency[a].add(b)
            adjacency[b].add(a)
        self._edges = frozenset(edge_set)
        self._adjacency = {node: tuple(sorted(peers)) for node, peers in adjacency.items()}
        self._bfs_cache: dict[int, dict[int, int]] = {}

    @property
    def nodes(self) -> frozenset[int]:
        return self._nodes

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._edges)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    def _distances_from(self, source: int) -> dict[int, int]:
        cached = self._bfs_cache.get(source)
        if cached is not None:
            return cached
        dist: dict[int, int] = {}
        if source in self._nodes:
            dist[source] = 0
            queue = deque([source])
            while queue:
                node = queue.popleft()
                d = dist[node] + 1
                for peer in self._adjacency[node]:
                    if peer not in dist:
                        dist[peer] = d
                        queue.append(peer)
        self._bfs_cache[source] = dist
        return dist

    def distance(self, a: int, b: int) -> float:
        """Shortest-path length between two ids, 0 for a == b even off the
        graph, :data:`INFINITE` when no path exists."""
        if a == b:
            return 0
        d = self._distances_from(a).get(b)
        return INFINITE if d is None else d

    def connected_components(self) -> list[frozenset[int]]:
        """Components sorted by descending size, ties by smallest member."""
        seen: set[int] = set()
        components: list[frozenset[int]] = []
        for node in sorted(self._nodes):
            if node in seen:
                continue
            reached = self._distances_from(node).keys()
            seen |= reached
            components.append(frozenset(reached))
        components.sort(key=lambda c: (-len(c), min(c)))
        return components


def _scope_ids(catalog: LabelCatalog, scope) -> frozenset[int]:
    if scope is None:
        return catalog.ids()
    if isinstance(scope, str):
        if scope not in catalog.categories():
            raise ValueError(f"unknown category {scope!r}")
        return catalog.category_ids(scope)
    ids = frozenset(scope)
    unknown = ids - catalog.ids()
    if unknown:
        raise ValueError(f"scope references unknown label ids {sorted(unknown)}")
    return ids


def build_graph(
    catalog: LabelCatalog,
    or_groups: Iterable[OrGroup] = (),
    and_splits: Iterable[AndSplit] = (),
    curated_edges: Iterable[tuple[int, int]] = (),
    scope=None,
) -> RelationGraph:
    """Assemble the relatedness graph for a catalog.

    Connective-derived relations contribute an edge from each composite
    source to every resolved token. Curated edges are trusted pairs from a
    reviewed file; they must reference known labels and may not be
    self-edges. Edges with an endpoint outside ``scope`` (None, a category
    name, or an id collection) are dropped, not errors, so one curated file
    can serve differently-scoped graphs.
    """
    nodes = _scope_ids(catalog, scope)
    edges: list[tuple[int, int]] = []

    def add(a: int, b: int) -> None:
        if a in nodes and b in nodes:
            edges.append((a, b))

    for group in or_groups:
        for member in group.members:
            add(group.source, member)
    for split in and_splits:
        for token in split.tokens:
            add(split.source, token)

    known = catalog.ids()
    for a, b in curated_edges:
        if a == b:
            raise PlanError(f"curated self-edge on label {a}")
        if a not in known or b not in known:
            raise PlanError(f"curated edge ({a}, {b}) references an unknown label")
        add(a, b)

    return RelationGraph(nodes, edges)


def parse_curated_edges(stream: IO[str], catalog: LabelCatalog) -> list[tuple[int, int]]:
    """Read a reviewed edge file: two comma-separated label names per line,
    bare or category-qualified; '#' starts a comment. What is left of a line
    is split by CSV rules, so a quoted name may hold a comma."""
    edges: list[tuple[int, int]] = []
    source = getattr(stream, "name", "<edges>")
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        with csv_errors(source, lambda: lineno):
            cells = next(csv.reader((line,)))
        parts = [p.strip() for p in cells]
        if len(parts) != 2 or not all(parts):
            raise ParseError(
                "expected two comma-separated label names",
                source=source,
                line=lineno,
            )
        try:
            a = catalog.resolve_name(parts[0]).id
            b = catalog.resolve_name(parts[1]).id
        except KeyError as exc:
            raise ParseError(exc.args[0], source=source, line=lineno) from None
        edges.append((a, b))
    return edges


def write_edge_list(graph: RelationGraph, catalog: LabelCatalog, stream: IO[str]) -> None:
    """Edge list as CSV of qualified names, ascending id order."""
    writer = csv_writer(stream)
    writer.writerow(["label_a", "label_b"])
    for a, b in graph.edges():
        writer.writerow([catalog.get(a).qualified_name, catalog.get(b).qualified_name])


def graph_summary(graph: RelationGraph) -> dict:
    components = graph.connected_components()
    sizes = [len(c) for c in components]
    return {
        "nodes": graph.n_nodes,
        "edges": graph.n_edges,
        "components": len(components),
        "component_sizes": sizes[:20],
        "largest_component": sizes[0] if sizes else 0,
        "isolated_nodes": sum(1 for s in sizes if s == 1),
    }
