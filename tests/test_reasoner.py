"""Materialization and subclass closure vs. the reachability and naive-fixpoint oracles."""

import os
import subprocess
from itertools import product
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cloudaudit
from cloudaudit.rdf import BlankNode, Graph, Iri, Literal, PrefixMap, Triple, TriplePattern, Var
from cloudaudit.reasoner import EntailmentView, materialize, subclasses_of
from cloudaudit.sparql import FilterExistence, GraphPattern, Polarity, Query, evaluate
from cloudaudit.vocab import (
    AUDIT_INTERFACE,
    BUSINESS_INTERFACE,
    CONTROL_INTERFACE,
    DATA_INTERFACE,
    INTERFACE,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
)

from oracles import ce, naive_rounds, type_closure


def test_type_lift_through_subclass():
    g = Graph([
        Triple(ce("OCCI"), RDF_TYPE, CONTROL_INTERFACE),
        Triple(CONTROL_INTERFACE, RDFS_SUBCLASS_OF, INTERFACE),
    ])
    result = materialize(g)
    assert Triple(ce("OCCI"), RDF_TYPE, INTERFACE) in result.graph
    assert result.inferred_count == 1


def test_empty_graph():
    result = materialize(Graph())
    assert result.inferred_count == 0
    assert result.iterations == 1
    assert len(result.graph) == 0


def test_asserted_graph_is_untouched_and_contained(model_doc):
    before = len(model_doc.graph)
    result = materialize(model_doc.graph)
    assert len(model_doc.graph) == before
    assert all(t in result.graph for t in model_doc.graph)
    assert result.inferred_count == len(result.graph) - before


def test_model_closure_matches_bfs_oracle(model_doc):
    result = materialize(model_doc.graph)
    assert set(result.graph) == type_closure(model_doc.graph)


def test_every_subclassed_instance_becomes_an_interface(model_doc):
    result = materialize(model_doc.graph)
    expected = set()
    for cls in (CONTROL_INTERFACE, BUSINESS_INTERFACE, AUDIT_INTERFACE, DATA_INTERFACE):
        expected.update(t.subject for t in model_doc.graph if t.predicate == RDF_TYPE and t.object == cls)
    lifted = {
        t.subject for t in result.graph if t.predicate == RDF_TYPE and t.object == INTERFACE
    }
    assert lifted == expected
    assert len(expected) == 9


def test_materialization_is_idempotent(model_doc):
    once = materialize(model_doc.graph)
    twice = materialize(once.graph)
    assert twice.inferred_count == 0
    assert set(twice.graph) == set(once.graph)


def test_subclasses_of_interface(model_doc):
    assert subclasses_of(model_doc.graph, INTERFACE) == {
        INTERFACE,
        CONTROL_INTERFACE,
        BUSINESS_INTERFACE,
        AUDIT_INTERFACE,
        DATA_INTERFACE,
    }


def test_subclasses_of_is_reflexive():
    lone = Iri("http://x.test/Lone")
    assert subclasses_of(Graph(), lone) == {lone}


def test_subclasses_of_reports_blank_node_classes():
    """A blank-node class is reported like an IRI class, so that its
    instances are found on the asserted graph as they are on the closure."""
    between = BlankNode("between")
    g = Graph([
        Triple(between, RDFS_SUBCLASS_OF, INTERFACE),
        Triple(DATA_INTERFACE, RDFS_SUBCLASS_OF, between),
    ])
    assert subclasses_of(g, INTERFACE) == {INTERFACE, between, DATA_INTERFACE}


def test_subclass_cycle_converges():
    a, b = Iri("http://x.test/A"), Iri("http://x.test/B")
    g = Graph([
        Triple(a, RDFS_SUBCLASS_OF, b),
        Triple(b, RDFS_SUBCLASS_OF, a),
    ])
    assert subclasses_of(g, a) == subclasses_of(g, b) == {a, b}
    result = materialize(Graph([*g, Triple(ce("i"), RDF_TYPE, a)]))
    assert Triple(ce("i"), RDF_TYPE, b) in result.graph


CLASSES = [Iri(f"http://hier.test/C{i}") for i in range(12)]
INSTANCES = [Iri(f"http://hier.test/i{i}") for i in range(30)]


@st.composite
def class_graphs(draw):
    g = Graph()
    # edges only from lower to higher index keep the hierarchy acyclic
    n_edges = draw(st.integers(0, 16))
    for _ in range(n_edges):
        lo = draw(st.integers(0, len(CLASSES) - 2))
        hi = draw(st.integers(lo + 1, len(CLASSES) - 1))
        g.add(Triple(CLASSES[lo], RDFS_SUBCLASS_OF, CLASSES[hi]))
    for instance in draw(st.lists(st.sampled_from(INSTANCES), max_size=30)):
        g.add(Triple(instance, RDF_TYPE, draw(st.sampled_from(CLASSES))))
    return g


@given(class_graphs())
@settings(max_examples=80)
def test_random_hierarchies_match_reachability_oracle(g):
    result = materialize(g)
    expected = type_closure(g)
    assert set(result.graph) == expected
    assert result.inferred_count == len(expected) - len(g)


BNODE_CLASSES = [BlankNode(f"k{i}") for i in range(3)]
SUPERS = CLASSES + BNODE_CLASSES + [Literal("not a class")]


@st.composite
def general_class_graphs(draw):
    """Hierarchies with cycles (C subClassOf C too), blank-node classes,
    literal superclasses and one chain up to 30 deep."""
    g = Graph()
    nodes = CLASSES + BNODE_CLASSES
    for _ in range(draw(st.integers(0, 16))):
        g.add(Triple(draw(st.sampled_from(nodes)), RDFS_SUBCLASS_OF, draw(st.sampled_from(SUPERS))))
    depth = draw(st.integers(0, 30))
    deep = [Iri(f"http://hier.test/D{i}") for i in range(depth + 1)]
    for lo, hi in zip(deep, deep[1:]):
        g.add(Triple(lo, RDFS_SUBCLASS_OF, hi))
    if depth and draw(st.booleans()):
        g.add(Triple(deep[-1], RDFS_SUBCLASS_OF, draw(st.sampled_from(nodes + deep))))
    for instance in draw(st.lists(st.sampled_from(INSTANCES + nodes), max_size=30)):
        g.add(Triple(instance, RDF_TYPE, draw(st.sampled_from(SUPERS + deep))))
    return g


@given(general_class_graphs())
@settings(max_examples=150)
def test_general_hierarchies_match_reachability_oracle(g):
    result = materialize(g)
    expected = type_closure(g)
    assert set(result.graph) == expected
    assert result.inferred_count == len(expected) - len(g)
    assert (result.iterations, result.inferred_count) == naive_rounds(g)
    again = materialize(result.graph)
    assert (again.iterations, again.inferred_count) == (1, 0)
    assert list(again.graph) == list(result.graph)


# --- the entailment view against the closure ---------------------------------

OTHER = Iri("http://hier.test/p")  # a predicate the rules never add
DEEP = [Iri(f"http://hier.test/D{i}") for i in (0, 1, 7, 30)]
VIEW_TERMS = CLASSES[:4] + BNODE_CLASSES + INSTANCES[:4] + DEEP + [Literal("not a class")]
_VARS = [Var("x"), Var("y"), Var("z")]


@st.composite
def view_graphs(draw):
    """`general_class_graphs` plus triples of another predicate, and more
    types among few instances, so that one node often has two classes
    under a third."""
    g = draw(general_class_graphs())
    nodes = INSTANCES[:4] + CLASSES[:4] + BNODE_CLASSES
    for _ in range(draw(st.integers(0, 8))):
        g.add(Triple(draw(st.sampled_from(nodes)), OTHER, draw(st.sampled_from(nodes + SUPERS))))
    for _ in range(draw(st.integers(0, 8))):
        g.add(Triple(draw(st.sampled_from(nodes)), RDF_TYPE, draw(st.sampled_from(VIEW_TERMS))))
    return g


def _slot_st(terms):
    return st.one_of(st.sampled_from(_VARS), st.sampled_from(terms))


# predicates are rdf:type, rdfs:subClassOf, the other predicate or a variable
_view_pattern_st = st.builds(
    TriplePattern,
    _slot_st(VIEW_TERMS),
    _slot_st([RDF_TYPE, RDF_TYPE, RDFS_SUBCLASS_OF, OTHER]),
    _slot_st(VIEW_TERMS),
)


@st.composite
def _view_group_st(draw, depth=0):
    """Up to three patterns, and FILTER [NOT] EXISTS groups nested two deep."""
    group = GraphPattern(triples=draw(st.lists(_view_pattern_st, min_size=1, max_size=3)))
    for _ in range(draw(st.integers(0, 2 - depth))):
        polarity = draw(st.sampled_from([Polarity.EXISTS, Polarity.NOT_EXISTS]))
        group.filters.append(FilterExistence(polarity, draw(_view_group_st(depth + 1))))
    return group


@given(view_graphs())
@settings(max_examples=150, deadline=None)
def test_view_lookups_answer_the_reachability_closure(g):
    """Every lookup of the view with terms of the graph yields, once each,
    the triples of the closure that the reachability oracle computes."""
    answers: dict[tuple, set] = {}  # lookup -> the closure's triples it matches
    for t in type_closure(g):
        for given_terms in product(*((None, term) for term in t)):
            answers.setdefault(given_terms, set()).add(t)
    view = EntailmentView(g)
    keys = [None] + VIEW_TERMS
    for given_terms in product(keys, [None, RDF_TYPE, RDFS_SUBCLASS_OF, OTHER], keys):
        hits = list(view.triples(*given_terms))
        assert len(hits) == len(set(hits))
        assert set(hits) == answers.get(given_terms, set()), given_terms


@given(view_graphs(), _view_group_st())
@settings(max_examples=200, deadline=None)
def test_view_evaluates_like_the_closure(g, where):
    query = Query(PrefixMap(), None, where)
    assert evaluate(query, EntailmentView(g)) == evaluate(query, materialize(g).graph)


def test_view_builds_the_closure_once_and_only_when_a_lookup_needs_it(monkeypatch):
    from cloudaudit import reasoner

    built = []
    unpatched = reasoner._closure

    def closure(graph):
        built.append(graph)
        return unpatched(graph)

    monkeypatch.setattr(reasoner, "_closure", closure)
    a, b, i = Iri("http://x.test/A"), Iri("http://x.test/B"), Iri("http://x.test/i")
    g = Graph([Triple(a, RDFS_SUBCLASS_OF, b), Triple(i, RDF_TYPE, a), Triple(i, OTHER, b)])
    view = EntailmentView(g)
    assert list(view.triples(None, RDF_TYPE, b)) == [Triple(i, RDF_TYPE, b)]
    assert list(view.triples(i, OTHER, None)) == [Triple(i, OTHER, b)]
    assert built == [] and len(view) == 3 and view.pool_size(1, RDF_TYPE) == 1
    for lookup in ((None, None, None), (i, RDF_TYPE, None), (None, RDFS_SUBCLASS_OF, b)):
        assert set(view.triples(*lookup)) <= type_closure(g)
    assert built == [g]


def chain(depth: int) -> Graph:
    """C0 subClassOf C1 ... subClassOf C<depth>, with one instance of C0."""
    classes = [Iri(f"http://chain.test/C{i}") for i in range(depth + 1)]
    g = Graph(Triple(lo, RDFS_SUBCLASS_OF, hi) for lo, hi in zip(classes, classes[1:]))
    g.add(Triple(Iri("http://chain.test/i"), RDF_TYPE, classes[0]))
    return g


class TestPinnedBookkeeping:
    """Round and inferred counts the CLI reports; a rewrite of the fixpoint
    must reproduce them exactly."""

    def test_deep_chain(self):
        result = materialize(chain(24))
        assert (result.iterations, result.inferred_count) == (6, 300)

    def test_two_class_cycle(self):
        a, b = Iri("http://x.test/A"), Iri("http://x.test/B")
        result = materialize(Graph([
            Triple(a, RDFS_SUBCLASS_OF, b),
            Triple(b, RDFS_SUBCLASS_OF, a),
            Triple(Iri("http://x.test/i"), RDF_TYPE, a),
        ]))
        assert (result.iterations, result.inferred_count) == (2, 3)

    def test_fixture(self, model_doc):
        result = materialize(model_doc.graph)
        assert (result.iterations, result.inferred_count) == (2, 9)

    @staticmethod
    def closure_of(g: Graph) -> Graph:
        """The closure, checked against both oracles."""
        result = materialize(g)
        assert set(result.graph) == type_closure(g)
        assert (result.iterations, result.inferred_count) == naive_rounds(g)
        return result.graph

    def test_instance_in_a_class_and_its_ancestor(self):
        """The lower class lifts the node to every level; the ancestor's
        own lifts arrive first."""
        g = chain(6)
        c = [Iri(f"http://chain.test/C{i}") for i in range(7)]
        node, alone = Iri("http://chain.test/both"), Iri("http://chain.test/upper")
        g.update([Triple(node, RDF_TYPE, c[4]), Triple(node, RDF_TYPE, c[1]),
                  Triple(alone, RDF_TYPE, c[4])])
        closure = self.closure_of(g)
        assert {t.object for t in closure.triples(node, RDF_TYPE)} == set(c[1:])
        assert {t.object for t in closure.triples(alone, RDF_TYPE)} == set(c[4:])

    def test_one_class_set_asserted_in_two_orders(self):
        a, b, x, y, z = (Iri(f"http://x.test/{n}") for n in "ABXYZ")
        i, j = Iri("http://x.test/i"), Iri("http://x.test/j")
        g = Graph([
            Triple(a, RDFS_SUBCLASS_OF, x), Triple(b, RDFS_SUBCLASS_OF, y),
            Triple(x, RDFS_SUBCLASS_OF, z),
            Triple(i, RDF_TYPE, a), Triple(i, RDF_TYPE, b),
            Triple(j, RDF_TYPE, b), Triple(j, RDF_TYPE, a),
        ])
        closure = self.closure_of(g)
        types = [{t.object for t in closure.triples(n, RDF_TYPE)} for n in (i, j)]
        assert types[0] == types[1] == {a, b, x, y, z}

    def test_node_that_is_a_class_and_an_instance(self):
        k, m, n, p = (Iri(f"http://x.test/{name}") for name in "KMNP")
        j = Iri("http://x.test/j")
        g = Graph([
            Triple(k, RDF_TYPE, m), Triple(k, RDFS_SUBCLASS_OF, n),
            Triple(m, RDFS_SUBCLASS_OF, p), Triple(j, RDF_TYPE, k),
        ])
        closure = self.closure_of(g)
        assert {t.object for t in closure.triples(k, RDF_TYPE)} == {m, p}
        assert {t.object for t in closure.triples(j, RDF_TYPE)} == {k, n}

    def test_superclass_that_is_a_literal(self):
        a, b = Iri("http://x.test/A"), Iri("http://x.test/B")
        i = Iri("http://x.test/i")
        g = Graph([
            Triple(a, RDFS_SUBCLASS_OF, b), Triple(b, RDFS_SUBCLASS_OF, Literal("not a class")),
            Triple(i, RDF_TYPE, a),
        ])
        closure = self.closure_of(g)
        assert Triple(i, RDF_TYPE, Literal("not a class")) in closure
        assert Triple(a, RDFS_SUBCLASS_OF, Literal("not a class")) in closure


BOUNDS = "http://bounds.test/"


def path_of(prefix: str, length: int) -> list[Iri]:
    return [Iri(f"{BOUNDS}{prefix}{i}") for i in range(length)]


def linked(*classes: Iri) -> list[Triple]:
    """subClassOf triples up a path of classes."""
    return [Triple(lo, RDFS_SUBCLASS_OF, hi) for lo, hi in zip(classes, classes[1:])]


@pytest.mark.parametrize("depth", [*range(1, 71), 127, 128, 129])
def test_chain_rounds_at_bit_length_boundaries(depth):
    """A pair d edges apart appears in round (d-1).bit_length() and a type
    δ edges up in round δ.bit_length(); a chain of 2**k or 2**k + 1 steps
    is where either moves on a round."""
    TestPinnedBookkeeping.closure_of(chain(depth))


@pytest.mark.parametrize("short, long, above", [(2, 4, 5), (2, 9, 0), (3, 5, 60), (1, 64, 3)])
def test_diamond_counts_the_shorter_path(short, long, above):
    """Bottom reaches Top by paths of `short` and `long` edges, and Top has
    `above` ancestors in a chain: their round follows the shorter path."""
    bottom, top = Iri(BOUNDS + "Bottom"), Iri(BOUNDS + "Top")
    g = Graph(linked(bottom, *path_of("S", short - 1), top)
              + linked(bottom, *path_of("L", long - 1), top)
              + linked(top, *path_of("U", above)))
    g.add(Triple(Iri(BOUNDS + "i"), RDF_TYPE, bottom))
    TestPinnedBookkeeping.closure_of(g)


@pytest.mark.parametrize("a, b, above", [(3, 4, 0), (4, 3, 0), (1, 2, 6), (7, 8, 0), (1, 64, 0)])
def test_node_in_two_classes_counts_the_nearer(a, b, above):
    """A node asserted in classes `a` and `b` edges below one ancestor, which
    has `above` ancestors in a chain: the ancestor's type and theirs arrive
    by the nearer class."""
    top = Iri(BOUNDS + "Top")
    first, second = path_of("A", a), path_of("B", b)
    g = Graph(linked(*first, top) + linked(*second, top) + linked(top, *path_of("U", above)))
    node = Iri(BOUNDS + "i")
    g.update([Triple(node, RDF_TYPE, first[0]), Triple(node, RDF_TYPE, second[0])])
    TestPinnedBookkeeping.closure_of(g)


SRC = Path(cloudaudit.__file__).resolve().parent.parent
MODEL = Path(__file__).resolve().parent.parent / "fixtures" / "cloudengine.ttl"

# Materializes the fixture and a graph with cycles, blank-node classes and
# literal objects, and prints the closure in iteration order.
CLOSURE_ORDER_SCRIPT = """
import sys
from cloudaudit.rdf import BlankNode, Graph, Iri, Literal, Triple
from cloudaudit.reasoner import materialize
from cloudaudit.turtle import parse_turtle
from cloudaudit.vocab import RDF_TYPE, RDFS_SUBCLASS_OF

c = [Iri(f"http://order.test/C{i}") for i in range(40)] + [BlankNode(f"b{i}") for i in range(5)]
g = Graph()
for i in range(len(c) - 1):
    g.add(Triple(c[i], RDFS_SUBCLASS_OF, c[(i * 7 + 3) % len(c)]))
    g.add(Triple(Iri(f"http://order.test/i{i}"), RDF_TYPE, c[(i * 11) % len(c)]))
g.add(Triple(c[5], RDFS_SUBCLASS_OF, Literal("not a class")))
model = parse_turtle(open(sys.argv[1], encoding="utf-8").read()).graph
for graph in (model, g):
    for t in materialize(graph).graph:
        print(repr(t))
"""


def run_with_hash_seed(seed: int, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)


class TestHashSeedIndependence:
    """Closure order and infer output must not depend on string hashing."""

    def test_closure_iteration_order(self):
        runs = [run_with_hash_seed(seed, "-c", CLOSURE_ORDER_SCRIPT, str(MODEL)) for seed in (1, 2)]
        assert all(r.returncode == 0 for r in runs), runs[0].stderr
        assert runs[0].stdout.count(b"\n") > 300
        assert runs[0].stdout == runs[1].stdout

    def test_infer_output_bytes(self):
        runs = [
            run_with_hash_seed(seed, "-m", "cloudaudit.cli", "infer", str(MODEL)) for seed in (1, 2)
        ]
        assert all(r.returncode == 0 for r in runs), runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr == b"9 inferred triple(s) in 2 iteration(s)\n"
