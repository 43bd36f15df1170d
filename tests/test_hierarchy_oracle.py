"""The hierarchy walk against the recursive walks it replaced.

``supercategory_closure`` finds a cycle, or builds the closure, from one
topological sort. The depth-first cycle search and the memoised ancestor
recursion it replaced are kept here as references: on every acyclic edge
set the closures agree, with and without ``transitive``, and on an edge set
with a cycle both find one, the new walk naming a cycle of the edges that
starts at its lowest id.
"""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelkit.cleanse import supercategory_closure
from labelkit.errors import PlanError


def reference_find_cycle(edges):
    """Return one cycle (as a node list) in the directed edge set, or None."""
    children = {}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack_path = []

    def visit(node):
        color[node] = GRAY
        stack_path.append(node)
        for child in children.get(node, ()):
            c = color.get(child, WHITE)
            if c == GRAY:
                return stack_path[stack_path.index(child):] + [child]
            if c == WHITE:
                found = visit(child)
                if found is not None:
                    return found
        stack_path.pop()
        color[node] = BLACK
        return None

    for node in list(children):
        if color.get(node, WHITE) == WHITE:
            found = visit(node)
            if found is not None:
                return found
    return None


def reference_closure(edges, transitive=True):
    """The closure as the recursive walk built it, for acyclic ``edges``."""
    parents = {}
    for super_id, sub_id in edges:
        parents.setdefault(sub_id, set()).add(super_id)
    if not transitive:
        return {sub: frozenset(sups) for sub, sups in parents.items()}

    closure = {}

    def ancestors(node):
        cached = closure.get(node)
        if cached is not None:
            return cached
        result = set()
        for parent in parents.get(node, ()):
            result.add(parent)
            result |= ancestors(parent)
        frozen = frozenset(result)
        closure[node] = frozen
        return frozen

    for sub in list(parents):
        ancestors(sub)
    return {sub: sups for sub, sups in closure.items() if sups}


@st.composite
def dags(draw):
    """Edges that run from a lower to a higher rank, over ids in no
    particular order, repeats allowed."""
    ids = draw(st.lists(st.integers(0, 10**6), unique=True, min_size=2, max_size=14))
    rank = st.integers(0, len(ids) - 1)
    pairs = draw(st.lists(st.tuples(rank, rank).filter(lambda p: p[0] != p[1]), max_size=40))
    return [(ids[min(a, b)], ids[max(a, b)]) for a, b in pairs]


@st.composite
def cyclic_graphs(draw):
    """A DAG with one cycle (a self-edge at length one) laid over it, the
    edges in any order."""
    edges = draw(dags())
    nodes = sorted({n for edge in edges for n in edge}) or [7]
    ring = draw(st.lists(st.sampled_from(nodes + [10**6 + 1, 10**6 + 2]), unique=True,
                         min_size=1, max_size=6))
    edges += [(a, b) for a, b in zip(ring, ring[1:] + ring[:1])]
    return draw(st.permutations(edges))


def reported_cycle(edges, transitive):
    with pytest.raises(PlanError) as info:
        supercategory_closure(edges, transitive=transitive)
    prefix = "hierarchy edges contain a cycle through labels "
    message = str(info.value)
    assert message.startswith(prefix)
    return ast.literal_eval(message[len(prefix):])


@given(edges=dags(), transitive=st.booleans())
@settings(max_examples=300, deadline=None)
def test_closure_matches_the_recursive_walk(edges, transitive):
    assert reference_find_cycle(edges) is None
    assert supercategory_closure(edges, transitive=transitive) == reference_closure(
        edges, transitive=transitive
    )


@given(edges=cyclic_graphs(), transitive=st.booleans())
@settings(max_examples=300, deadline=None)
def test_cycle_is_a_cycle_of_the_edges_from_its_lowest_id(edges, transitive):
    assert reference_find_cycle(edges) is not None
    cycle = reported_cycle(edges, transitive)
    assert len(cycle) >= 2 and cycle[0] == cycle[-1]
    assert cycle[0] == min(cycle)
    assert len(set(cycle[:-1])) == len(cycle) - 1
    assert set(zip(cycle, cycle[1:])) <= set(edges)
    assert reported_cycle(edges, not transitive) == cycle  # the same edges, the same cycle


@pytest.mark.parametrize(
    "edges, cycle",
    [
        ([(16, 16)], [16, 16]),
        ([(17, 16), (16, 17)], [16, 17, 16]),
        ([(5, 3), (3, 9), (9, 5), (1, 5)], [3, 9, 5, 3]),
    ],
)
def test_cycle_examples(edges, cycle):
    assert reported_cycle(edges, True) == reported_cycle(edges, False) == cycle
