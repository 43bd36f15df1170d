"""Relatedness graph distances against an independent all-pairs oracle."""

import io
import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from labelkit.catalog import LabelCatalog, LabelRecord
from labelkit.cleanse import AndSplit, OrGroup
from labelkit.errors import ParseError, PlanError
from labelkit.relgraph import (
    RelationGraph,
    build_graph,
    graph_summary,
    parse_curated_edges,
    write_edge_list,
)
from conftest import build_catalog


def distance(graph, a, b):
    """Hop count from ``a`` to ``b`` read from ``a``'s ball; inf when ``b``
    is outside it."""
    return graph.ball(a).get(b, math.inf)


def floyd_warshall(nodes, edges):
    dist = {a: {b: (0 if a == b else math.inf) for b in nodes} for a in nodes}
    for a, b in edges:
        dist[a][b] = 1
        dist[b][a] = 1
    for k in nodes:
        dk = dist[k]
        for i in nodes:
            dik = dist[i][k]
            if dik == math.inf:
                continue
            di = dist[i]
            for j in nodes:
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def random_graph(rng, max_nodes=50):
    n = rng.randrange(2, max_nodes + 1)
    nodes = list(range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < rng.choice([0.02, 0.08, 0.3]):
                edges.append((i, j))
    return nodes, edges


def test_distance_matches_floyd_warshall():
    rng = random.Random(20260813)
    for _ in range(40):
        nodes, edges = random_graph(rng)
        graph = RelationGraph(nodes, edges)
        oracle = floyd_warshall(nodes, edges)
        for a in nodes:
            for b in nodes:
                assert distance(graph, a, b) == oracle[a][b], (a, b)


def test_distance_identity_and_infinite():
    graph = RelationGraph([1, 2, 3], [(1, 2)])
    assert distance(graph, 1, 1) == 0
    assert distance(graph, 3, 3) == 0
    assert distance(graph, 1, 2) == 1
    assert distance(graph, 1, 3) == math.inf
    # Ids outside the graph: identical ids still coincide, distinct ones
    # cannot be connected.
    assert distance(graph, 99, 99) == 0
    assert distance(graph, 1, 99) == math.inf
    assert distance(graph, 99, 98) == math.inf


def test_distance_symmetry():
    rng = random.Random(5)
    nodes, edges = random_graph(rng, max_nodes=30)
    graph = RelationGraph(nodes, edges)
    for _ in range(200):
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert distance(graph, a, b) == distance(graph, b, a)


def test_edge_addition_never_increases_distance():
    rng = random.Random(11)
    for _ in range(30):
        nodes, edges = random_graph(rng, max_nodes=25)
        graph = RelationGraph(nodes, edges)
        candidates = [
            (a, b)
            for i, a in enumerate(nodes)
            for b in nodes[i + 1:]
            if (a, b) not in set(graph.edges())
        ]
        if not candidates:
            continue
        extra = rng.choice(candidates)
        bigger = RelationGraph(nodes, list(edges) + [extra])
        for _ in range(40):
            a, b = rng.choice(nodes), rng.choice(nodes)
            assert distance(bigger, a, b) <= distance(graph, a, b)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        RelationGraph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        RelationGraph([1, 2], [(1, 3)])


def test_duplicate_edges_collapse():
    graph = RelationGraph([1, 2], [(1, 2), (2, 1), (1, 2)])
    assert graph.n_edges == 1


def test_thread_safety_matches_serial():
    rng = random.Random(3)
    nodes, edges = random_graph(rng, max_nodes=40)
    graph = RelationGraph(nodes, edges)
    queries = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(500)]
    serial = [distance(RelationGraph(nodes, edges), a, b) for a, b in queries]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda q: distance(graph, *q), queries))
    assert threaded == serial


def test_connected_components():
    graph = RelationGraph(range(6), [(0, 1), (1, 2), (3, 4)])
    comps = graph.connected_components()
    assert [len(c) for c in comps] == [3, 2, 1]
    assert comps[0] == frozenset({0, 1, 2})
    summary = graph_summary(graph)
    assert summary["nodes"] == 6
    assert summary["edges"] == 3
    assert summary["components"] == 3
    assert summary["isolated_nodes"] == 1


def union_find_components(nodes, edges):
    parent = {node: node for node in nodes}

    def root(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for a, b in edges:
        parent[root(a)] = root(b)
    groups = {}
    for node in nodes:
        groups.setdefault(root(node), set()).add(node)
    return sorted(map(frozenset, groups.values()), key=lambda c: (-len(c), min(c)))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=30),
    pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=25),
)
@example(n=5, pairs=[])
def test_components_match_union_find_and_cache_no_one_entry_ball(n, pairs):
    # At most 25 edges among up to 30 nodes leave most nodes isolated.
    edges = [(a, b) for a, b in pairs if a != b and a < n and b < n]
    graph = RelationGraph(range(n), edges)
    assert graph.connected_components() == union_find_components(range(n), edges)
    summary = graph_summary(graph)
    assert summary["isolated_nodes"] == sum(node not in graph.linked for node in range(n))
    assert all(len(ball) > 1 for ball in graph._balls.values())


# ---------------------------------------------------------------------------
# Building from catalog relations


def test_build_graph_from_connectives(mini_catalog):
    graph = build_graph(
        mini_catalog,
        or_groups=[OrGroup(2, (0, 1))],
        and_splits=[AndSplit(3, (4, 0))],
        curated_edges=[(5, 6), (6, 7)],
    )
    assert distance(graph, 0, 2) == 1
    assert distance(graph, 1, 0) == 2  # iraq - (egypt or iraq) - egypt
    assert distance(graph, 4, 0) == 2  # sudan - (sudan and egypt) - egypt
    assert distance(graph, 5, 7) == 2  # french - france - present-day france
    assert distance(graph, 8, 0) == math.inf  # china is isolated


def test_build_graph_scope_category(mini_catalog):
    graph = build_graph(
        mini_catalog,
        or_groups=[OrGroup(2, (0, 1))],
        curated_edges=[(5, 6)],  # culture-country edge falls out of scope
        scope="country",
    )
    assert graph.nodes == mini_catalog.category_ids("country")
    assert distance(graph, 0, 2) == 1
    assert 5 not in graph


def test_build_graph_scope_errors(mini_catalog):
    with pytest.raises(ValueError):
        build_graph(mini_catalog, scope="nonexistent category")


def test_build_graph_curated_validation(mini_catalog):
    with pytest.raises(PlanError):
        build_graph(mini_catalog, curated_edges=[(5, 5)])
    with pytest.raises(PlanError):
        build_graph(mini_catalog, curated_edges=[(5, 99999)])


def test_parse_curated_edges(mini_catalog):
    text = (
        "# reviewed pairs\n"
        "french, france\n"
        "\n"
        "country::united kingdom, england  # trailing comment\n"
    )
    edges = parse_curated_edges(io.StringIO(text), mini_catalog)
    assert edges == [(5, 6), (9, 10)]


def test_parse_curated_edges_errors(mini_catalog):
    with pytest.raises(ParseError, match=":1:"):
        parse_curated_edges(io.StringIO("only one name\n"), mini_catalog)
    with pytest.raises(ParseError, match="nonexistent"):
        parse_curated_edges(io.StringIO("nonexistent, france\n"), mini_catalog)


def test_parse_curated_edges_reads_the_header_only_first(mini_catalog):
    text = "# written by graph\nlabel_a , label_b\nfrench,france\n"
    assert parse_curated_edges(io.StringIO(text), mini_catalog) == [(5, 6)]
    with pytest.raises(ParseError, match=r"^<edges>:2: unknown label 'label_a'$"):
        parse_curated_edges(io.StringIO("french,france\nlabel_a,label_b\n"), mini_catalog)


def test_names_with_outer_spaces_or_hash_round_trip():
    catalog = build_catalog([(0, " medium", "silk"), (1, "medium", "paper"), (2, "tags", "no. #5")])
    assert parse_curated_edges(io.StringIO('" medium::silk",medium::paper\n'), catalog) == [(0, 1)]
    # An unquoted cell is still stripped.
    with pytest.raises(ParseError, match=r"^<edges>:1: unknown label 'medium::silk'$"):
        parse_curated_edges(io.StringIO(" medium::silk,medium::paper\n"), catalog)
    graph = build_graph(catalog, curated_edges=[(0, 1), (1, 2)])
    out = io.StringIO()
    write_edge_list(graph, catalog, out)
    assert out.getvalue() == (
        'label_a,label_b\n" medium::silk",medium::paper\nmedium::paper,"tags::no. #5"\n'
    )
    assert parse_curated_edges(io.StringIO(out.getvalue()), catalog) == [(0, 1), (1, 2)]


NAME_TEXT = st.text(
    st.one_of(
        st.sampled_from(['#', '"', ",", "\r", "\n", " ", "\t", ":", "a", "B"]),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(
        st.tuples(NAME_TEXT.filter(lambda c: ":" not in c), NAME_TEXT),
        min_size=2,
        max_size=6,
        unique_by=lambda pair: "::".join(pair),
    ),
    data=st.data(),
    newline=st.sampled_from(["\n", ""]),
)
@example(names=[(" medium", "silk"), ("medium", "paper")], data=None, newline="")
@example(names=[("tags", "no. #5"), ("a", ' "q"\r\n ')], data=None, newline="\n")
def test_write_edge_list_reads_back(names, data, newline):
    catalog = LabelCatalog(LabelRecord(i, cat, name) for i, (cat, name) in enumerate(names))
    pairs = [(a, b) for a in range(len(names)) for b in range(a + 1, len(names))]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1)) if data else pairs
    graph = build_graph(catalog, curated_edges=edges)
    out = io.StringIO()
    write_edge_list(graph, catalog, out)
    # newline="" splits lines at "\r" as well, as the CLI's reader does.
    read = parse_curated_edges(io.StringIO(out.getvalue(), newline=newline), catalog)
    assert read == graph.edges()


def test_write_edge_list(mini_catalog):
    graph = build_graph(mini_catalog, curated_edges=[(5, 6), (6, 7)])
    out = io.StringIO()
    write_edge_list(graph, mini_catalog, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "label_a,label_b"
    assert "culture::french,country::france" in lines[1]
    assert len(lines) == 3
