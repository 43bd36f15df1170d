"""Undirected relatedness graph over label ids.

Supplies the graph distances behind the graph-aware score report, one
distance ball per source (:meth:`RelationGraph.ball`). Distance semantics: a
node is at distance 0 from itself and connected nodes are at BFS hop count;
everything else (including ids outside the graph) is outside the ball, which
the scoring side turns into zero credit.
"""

from __future__ import annotations

import csv
from collections import deque
from typing import IO, TYPE_CHECKING, Iterable, Iterator, KeysView

from .catalog import LabelCatalog
from .csvio import csv_errors
from .errors import ParseError, PlanError

if TYPE_CHECKING:
    from .cleanse import AndSplit, OrGroup


class RelationGraph:
    """Immutable undirected graph with a ball table: each source's ball maps
    every node it reaches to its BFS hop count, the source itself at 0 (even
    off the graph), and is built on first use and kept. The graph-aware
    report credits a prediction from its ball alone, and neither it nor
    :meth:`connected_components` asks for a ball for a label outside
    :attr:`linked`, which reaches only itself.

    Duplicate edges collapse (the same relation often arrives from several
    generators); self-loops are rejected because they would award distance
    zero twice.
    """

    def __init__(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]]):
        self._nodes = frozenset(nodes)
        adjacency: dict[int, set[int]] = {node: set() for node in self._nodes}
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if a not in self._nodes or b not in self._nodes:
                raise ValueError(f"edge ({a}, {b}) references a node outside the graph")
            adjacency[a].add(b)
            adjacency[b].add(a)
        # Only nodes with an edge: any other reaches only itself.
        self._adjacency = {node: tuple(sorted(peers)) for node, peers in adjacency.items() if peers}
        self._balls: dict[int, dict[int, int]] = {}

    @property
    def nodes(self) -> frozenset[int]:
        return self._nodes

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as ``(low id, high id)``, in ascending order."""
        return [(a, b) for a in sorted(self._adjacency) for b in self._adjacency[a] if a < b]

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._adjacency.values())) // 2

    @property
    def linked(self) -> KeysView[int]:
        """The nodes with at least one edge."""
        return self._adjacency.keys()

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    def ball(self, source: int) -> dict[int, int]:
        """``{node: hops}`` for every node reachable from ``source``,
        ``source`` itself at 0 even when it is off the graph. Treat the dict
        as read-only: it is the table's own."""
        ball = self._balls.get(source)
        if ball is not None:
            return ball
        ball = {source: 0}
        if source in self._adjacency:
            queue = deque([source])
            while queue:
                node = queue.popleft()
                d = ball[node] + 1
                for peer in self._adjacency[node]:
                    if peer not in ball:
                        ball[peer] = d
                        queue.append(peer)
        self._balls[source] = ball
        return ball

    def connected_components(self) -> list[frozenset[int]]:
        """Components sorted by descending size, ties by smallest member."""
        seen: set[int] = set()
        components: list[frozenset[int]] = []
        for node in sorted(self._nodes):
            if node in seen:
                continue
            reached = self.ball(node).keys() if node in self._adjacency else (node,)
            seen.update(reached)
            components.append(frozenset(reached))
        components.sort(key=lambda c: (-len(c), min(c)))
        return components


def build_graph(
    catalog: LabelCatalog,
    or_groups: Iterable[OrGroup] = (),
    and_splits: Iterable[AndSplit] = (),
    curated_edges: Iterable[tuple[int, int]] = (),
    scope: str | None = None,
) -> RelationGraph:
    """Assemble the relatedness graph for a catalog.

    Connective-derived relations contribute an edge from each composite
    source to every resolved token. Curated edges are trusted pairs from a
    reviewed file; they must reference known labels and may not be
    self-edges. The graph's nodes are the labels of the category ``scope``,
    or every label when it is None; edges with an endpoint outside it are
    dropped, not errors, so one curated file can serve differently-scoped
    graphs.
    """
    nodes = catalog.ids() if scope is None else catalog.category_ids(scope)
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
    """Read a reviewed edge file: two comma-separated label names per record,
    bare or category-qualified, split by CSV rules (RFC 4180); '#' outside a
    quoted field starts a comment. A quoted name may hold a comma, a '#', a
    quote or a line break and is kept as written; an unquoted one is stripped.
    A first record ``label_a,label_b`` is the header :func:`write_edge_list`
    writes. A pair naming one label twice is an error. Errors name the line
    a record starts on."""
    edges: list[tuple[int, int]] = []
    source = getattr(stream, "name", "<edges>")
    for n, (lineno, record, quoted) in enumerate(_edge_records(stream)):
        with csv_errors(source, lambda: lineno):
            cells = next(csv.reader((record,)))
        parts = [cell if q else cell.strip() for cell, q in zip(cells, quoted)]
        if n == 0 and parts == ["label_a", "label_b"]:
            continue
        if len(parts) != 2 or not all(p.strip() for p in parts):
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
        if a == b:
            raise ParseError(f"self-edge on label {parts[0]!r}", source=source, line=lineno)
        edges.append((a, b))
    return edges


def _edge_records(stream: IO[str]) -> Iterator[tuple[int, str, list[bool]]]:
    """(first line, text without comments, whether each field is quoted) of
    each non-blank record. As in the csv reader's default dialect, a '"'
    opens a quoted field only as a field's first character; inside one, '""'
    is a quote, a lone '"' closes it, and a line break continues the record."""
    state = "start"  # of a field; or "plain", "quoted", "closing" (a '"' in a quoted field)
    for lineno, raw in enumerate(stream, start=1):
        if state != "quoted":
            start, text, quoted, state = lineno, "", [False], "start"
            raw = raw.lstrip()
        cut = len(raw)
        for i, c in enumerate(raw):
            if state == "quoted":
                if c == '"':
                    state = "closing"
            elif state == "closing" and c == '"':
                state = "quoted"
            elif c == "#":
                cut = i
                break
            elif c == ",":
                state = "start"
                quoted.append(False)
            elif c == '"' and state == "start":
                state, quoted[-1] = "quoted", True
            else:
                state = "plain"
        text += raw[:cut]
        if state != "quoted" and text.strip():
            yield start, text.strip(), quoted
    if state == "quoted":
        yield start, text.strip(), quoted


def write_edge_list(graph: RelationGraph, catalog: LabelCatalog, stream: IO[str]) -> None:
    """Edge list as CSV of qualified names, ascending id order. A name is
    quoted when it holds a comma, a quote, a line break or a '#', or has
    outer whitespace, so :func:`parse_curated_edges` reads it as written."""

    def cell(name: str) -> str:
        plain = name == name.strip() and not any(c in name for c in ',"\r\n#')
        return name if plain else '"' + name.replace('"', '""') + '"'

    stream.write("label_a,label_b\n")
    for edge in graph.edges():
        stream.write(",".join(cell(catalog.get(i).qualified_name) for i in edge) + "\n")


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
