"""RDFS materialization: subclass transitivity and instance type lifting.

Two rules run to a least fixpoint over the asserted graph:

  R1  x subClassOf y, y subClassOf z  =>  x subClassOf z
  R2  i type C, C subClassOf D        =>  i type D

Evaluation is semi-naive.  One iteration applies both rules once to the
facts as they stood at the start of the iteration and adds every conclusion
they did not already hold; the run ends with the first iteration that adds
nothing.  A conclusion new in iteration k must use a fact added in
iteration k-1 (the asserted graph counts as added before iteration 1), so
each iteration joins only that delta against term-level indexes of all
facts: R1 as delta-sub ⋈ sub in both directions, R2 as delta-type ⋈ sub
and type ⋈ delta-sub.  A candidate the indexes already hold is dropped
at once.  This yields the same facts in the same iterations as
re-joining the whole graph every time.

The loop runs over the subClassOf triples and one stand-in per distinct
set of asserted classes, not over every typed node.  That is exact: R2
never feeds R1, so the subClassOf facts of each iteration do not depend on
any type, and the types derived for a node, and the iteration each appears
in, depend only on the node's own asserted classes and the subClassOf
facts.  Nodes asserted in the same set of classes therefore derive the
same types in the same iterations, and the first node with each set
stands in for the rest.  Afterwards every typed node gets its stand-in's
derived types, and the inferred triples go into the graph in one update:
the subClassOf triples in the order they were derived, then each typed
node's types, nodes in the order of their first type triple.  Indexes,
deltas and stand-ins are insertion-ordered dicts, so the closure's
iteration order does not depend on the hash seed.

Reflexivity of subClassOf is answered by `subclasses_of` rather than being
materialized, which keeps inferred graphs small.  Domain/range entailment is
deliberately not applied: the model declares domains and ranges as
documentation, and materializing them would type nodes nobody asserted.

Cycles in subClassOf are fine; the fixpoint still terminates because the
closure is bounded by the square of the vocabulary.
"""

from __future__ import annotations

from collections import deque

from .rdf import Graph, Iri, Record, Term, Triple
from .vocab import RDF_TYPE, RDFS_SUBCLASS_OF


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
    result.graph._build_index()  # here, so that the first lookup pays nothing
    return result


def _closure(asserted: Graph) -> ClosureResult:
    """`materialize` without building the result's indexes, for a caller
    that only iterates the closure, as `infer` does to write it."""
    delta_sub: list[tuple[Term, Term]] = []
    classes_of: dict[Term, dict[Term, None]] = {}  # node -> its asserted classes
    for t in asserted:
        if t.predicate == RDFS_SUBCLASS_OF:
            delta_sub.append((t.subject, t.object))
        elif t.predicate == RDF_TYPE:
            classes_of.setdefault(t.subject, {})[t.object] = None
    stand_ins: dict[frozenset, Term] = {}  # class set -> the first node with it
    stand_in_of = {i: stand_ins.setdefault(frozenset(cs), i) for i, cs in classes_of.items()}
    delta_type = [(i, c) for i in stand_ins.values() for c in classes_of[i]]
    # term-level indexes of the facts, dicts used as insertion-ordered sets:
    # supers[x] = {y: x sub y}, subs[y] = {x: x sub y}, members[c] = {i: i type c}
    supers: dict[Term, dict[Term, None]] = {}
    subs: dict[Term, dict[Term, None]] = {}
    members: dict[Term, dict[Term, None]] = {}
    inferred_sub: list[tuple[Term, Term]] = []
    derived: dict[Term, list[Term]] = {}  # stand-in -> its inferred types

    def record(sub_pairs: list[tuple[Term, Term]], type_pairs: list[tuple[Term, Term]]) -> None:
        for x, y in sub_pairs:
            supers.setdefault(x, {})[y] = None
            subs.setdefault(y, {})[x] = None
        for i, c in type_pairs:
            members.setdefault(c, {})[i] = None

    record(delta_sub, delta_type)
    iterations = 0
    empty: dict[Term, None] = {}
    while True:
        iterations += 1
        new_sub: dict[tuple[Term, Term], None] = {}
        new_type: dict[tuple[Term, Term], None] = {}
        for x, y in delta_sub:
            known = supers[x]
            for z in supers.get(y, empty):  # R1: x sub y (new), y sub z
                if z not in known:
                    new_sub[x, z] = None
            for w in subs.get(x, empty):  # R1: w sub x, x sub y (new)
                if y not in supers[w]:
                    new_sub[w, y] = None
            typed = members.get(y, empty)
            for i in members.get(x, empty):  # R2: i type x, x sub y (new)
                if i not in typed:
                    new_type[i, y] = None
        for i, c in delta_type:
            for d in supers.get(c, empty):  # R2: i type c (new), c sub d
                if i not in members.get(d, empty):
                    new_type[i, d] = None
        if not new_sub and not new_type:
            break
        delta_sub = list(new_sub)
        delta_type = list(new_type)
        record(delta_sub, delta_type)
        inferred_sub += delta_sub
        for i, d in delta_type:
            derived.setdefault(i, []).append(d)

    graph = asserted.copy()
    added = graph.update(
        [Triple(x, RDFS_SUBCLASS_OF, z) for x, z in inferred_sub]
        + [Triple(i, RDF_TYPE, d) for i, s in stand_in_of.items() for d in derived.get(s, ())]
    )
    return ClosureResult(graph=graph, inferred_count=added, iterations=iterations)


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
