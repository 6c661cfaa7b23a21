"""RDFS materialization: subclass transitivity and instance type lifting.

Two rules run to a least fixpoint over the asserted graph:

  R1  x subClassOf y, y subClassOf z  =>  x subClassOf z
  R2  i type C, C subClassOf D        =>  i type D

Both are reachability over the asserted subClassOf edges, which R2 never
adds to.  One breadth-first walk per class, made once and memoized, finds
every class above it with its shortest distance (a class on a cycle is
above itself).  R1 adds each ancestor two or more edges away.  R2 depends
only on a node's set of asserted classes, so each distinct set is worked
out once: it lifts to every ancestor of its classes that is not in the
set, at that ancestor's least distance from the set, and every node
asserted in exactly that set gets those types.  The inferred triples go
into the graph in one update: the subClassOf triples by class and then by
distance, then each typed node's types, nodes in the order of their first
type triple.  All maps are insertion-ordered dicts, so the closure's
iteration order does not depend on the hash seed.

`iterations` is the number of rounds the naive fixpoint takes, which
applies both rules to the whole graph each round until one adds nothing.
After round k it holds every subClassOf pair up to 2**k edges apart (each
round joins two such paths), and every type up to 2**k - 1 edges above
the nearest asserted class (round k lifts by a path of at most 2**(k-1)
edges).  So a pair d edges apart appears in round (d-1).bit_length(), a
type δ edges above in round δ.bit_length(), and `iterations` is one more
than the latest of these: 1 when nothing is inferred.

R1 adds only rdfs:subClassOf triples and R2 only rdf:type triples
(`INFERRED_PREDICATES`), so a reader of any other predicate finds the same
triples in the asserted graph, and needs the closure only if it reads one
of these two.

`EntailmentView` answers the lookups of a query on the closure from the
asserted graph, by backward chaining over subClassOf where it can (as in
QueryPIE, Urbani et al. 2011), and builds the closure only for a lookup it
cannot answer so.

Reflexivity of subClassOf is answered by `subclasses_of` rather than being
materialized, which keeps inferred graphs small.  Domain/range entailment is
deliberately not applied: the model declares domains and ranges as
documentation, and materializing them would type nodes nobody asserted.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from .rdf import Graph, Iri, Record, Term, Triple, _triple
from .vocab import RDF_TYPE, RDFS_SUBCLASS_OF

INFERRED_PREDICATES = (RDFS_SUBCLASS_OF, RDF_TYPE)  # of R1's and R2's triples


class ClosureResult(Record):
    """Materialized graph with bookkeeping about the run."""

    __slots__ = ("graph", "inferred_count", "iterations")
    __hash__ = None

    def __init__(self, graph: Graph, inferred_count: int, iterations: int):
        self.graph, self.inferred_count, self.iterations = graph, inferred_count, iterations


def materialize(asserted: Graph) -> ClosureResult:
    """Compute the R1/R2 closure of a graph.

    The asserted graph is not modified; the result holds a fresh graph
    containing asserted plus inferred triples, with its lookup indexes
    built.
    """
    result = _closure(asserted)
    for position in range(3):  # here, so that the first lookups pay nothing
        result.graph._pools(position)
    return result


def _closure(asserted: Graph) -> ClosureResult:
    """`materialize` without building the result's indexes, each built by its
    first lookup: `infer` only iterates the closure, and `validate` reads two."""
    supers: dict[Term, list[Term]] = {}  # class -> its asserted superclasses
    classes_of: dict[Term, dict[Term, None]] = {}  # node -> its asserted classes
    for t in asserted:
        if t.predicate == RDFS_SUBCLASS_OF:
            supers.setdefault(t.subject, []).append(t.object)
        elif t.predicate == RDF_TYPE:
            classes_of.setdefault(t.subject, {})[t.object] = None
    above: dict[Term, dict[Term, int]] = {}  # class -> {ancestor: shortest distance}

    def ancestors(cls: Term) -> dict[Term, int]:
        found = above.get(cls)
        if found is None:
            found = above[cls] = {}
            queue = [cls]
            for c in queue:  # breadth first: the queue grows as it is read
                distance = found.get(c, 0) + 1  # cls is at 0 until a cycle reaches it
                for s in supers.get(c, ()):
                    if s not in found:
                        found[s] = distance
                        queue.append(s)
        return found

    inferred_sub = [(x, z, d) for x in supers for z, d in ancestors(x).items() if d > 1]
    lifts: dict[frozenset, dict[Term, int]] = {}  # class set -> {type it adds: distance}
    lift_of: dict[Term, dict[Term, int]] = {}  # node -> its class set's lift
    for node, classes in classes_of.items():
        key = frozenset(classes)
        lift = lifts.get(key)
        if lift is None:
            lift = lifts[key] = {}
            for c in classes:
                for d, n in ancestors(c).items():
                    if d not in key:
                        lift[d] = min(n, lift.get(d, n))
        lift_of[node] = lift
    latest = max([(d - 1).bit_length() for *_, d in inferred_sub]
                 + [n.bit_length() for lift in lifts.values() for n in lift.values()], default=0)

    graph = asserted.copy()
    added = graph.update(
        [Triple(x, RDFS_SUBCLASS_OF, z) for x, z, _ in inferred_sub]
        + [Triple(i, RDF_TYPE, d) for i, lift in lift_of.items() for d in lift]
    )
    return ClosureResult(graph=graph, inferred_count=added, iterations=1 + latest)


def subclasses_of(graph: Graph, cls: Iri) -> set[Term]:
    """Reflexive-transitive subclass set of a class.

    Walks subClassOf edges backwards from `cls`; the class itself is always
    included, and so is every blank-node class reached, so that the
    instances of the set are the same on the asserted graph as on its closure.
    """
    seen: set[Term] = {cls}
    queue = deque([cls])
    while queue:
        current = queue.popleft()
        for sub in graph.subjects(RDFS_SUBCLASS_OF, current):
            if sub not in seen:
                seen.add(sub)
                queue.append(sub)
    return seen


class EntailmentView:
    """The closure of an asserted graph as `sparql.evaluate` reads it: its
    `triples`, `pool_size` and `len`, answered from the asserted graph where
    the rules allow.

    A lookup (s?, rdf:type, C) with a given class is the asserted instances
    of each class in `subclasses_of(asserted, C)`, once per subject, typed C.
    A lookup whose predicate is given and not in `INFERRED_PREDICATES` reads
    the asserted graph.  Any other lookup (a free predicate, rdf:type with a
    free object, or rdfs:subClassOf) reads the closure, built by the first
    such lookup and indexed by its own lookups.  So each lookup answers the
    closure's triples, though not in the closure's order.  `pool_size` and
    `len` are the asserted graph's: they only order a plan.  The asserted
    graph must not change while the view is in use.
    """

    def __init__(self, asserted: Graph):
        self.asserted = asserted
        self._closed: Optional[Graph] = None
        self._subclasses: dict[Term, set[Term]] = {}  # class -> subclasses_of it

    def __len__(self) -> int:
        return len(self.asserted)

    def pool_size(self, position: int, term: Optional[Term] = None) -> float:
        return self.asserted.pool_size(position, term)

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        if predicate == RDF_TYPE and obj is not None:
            return self._instances(subject, obj)
        if predicate is not None and predicate not in INFERRED_PREDICATES:
            return self.asserted.triples(subject, predicate, obj)
        if self._closed is None:
            self._closed = _closure(self.asserted).graph
        return self._closed.triples(subject, predicate, obj)

    def _instances(self, subject: Optional[Term], cls: Term) -> Iterator[Triple]:
        classes = self._subclasses.get(cls)
        if classes is None:
            classes = self._subclasses[cls] = subclasses_of(self.asserted, cls)
        seen: set[Term] = set()
        for c in classes:
            for t in self.asserted.triples(subject, RDF_TYPE, c):
                if t.subject not in seen:
                    seen.add(t.subject)
                    yield _triple((t.subject, RDF_TYPE, cls))
