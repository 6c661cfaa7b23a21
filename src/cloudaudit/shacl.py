"""SHACL subset: node shapes with class targets and property constraints.

Supported shape vocabulary: sh:NodeShape, sh:targetClass, sh:property with
sh:path (single predicate IRI), sh:minCount, sh:maxCount, sh:class and
sh:message.  Severity is fixed at violation.

Focus nodes and sh:class values count as instances of a class when typed
with it or any subclass the caller-supplied expander names.  With
`subclasses_of`, a graph and its RDFS closure give the same report unless
a path is rdf:type or rdfs:subClassOf, whose values the closure changes.
"""

from __future__ import annotations

import enum
from typing import Callable, Union

from .rdf import Graph, Iri, Literal, Record, Term, XSD_INTEGER, one_line, term_json, term_sort_key
from .turtle import Document
from .vocab import (
    RDF_TYPE,
    SH_CLASS,
    SH_MAX_COUNT,
    SH_MESSAGE,
    SH_MIN_COUNT,
    SH_NODE_SHAPE,
    SH_PATH,
    SH_PROPERTY,
    SH_TARGET_CLASS,
)

ClassExpander = Callable[[Graph, Iri], set[Term]]


class ShapeError(ValueError):
    """A shapes document is malformed (missing target, bad path or count)."""


class ConstraintKind(enum.Enum):
    MIN_COUNT = "MinCount"
    MAX_COUNT = "MaxCount"
    CLASS = "Class"


class PropertyConstraint(Record):
    __slots__ = ("path", "min_count", "max_count", "class_constraint", "message")

    def __init__(self, path: Iri, min_count: int | None = None, max_count: int | None = None,
                 class_constraint: Iri | None = None, message: str | None = None):
        if min_count is not None and max_count is not None and min_count > max_count:
            raise ShapeError(
                f"minCount {min_count} exceeds maxCount {max_count} for path {path.value}"
            )
        self.path, self.min_count, self.max_count = path, min_count, max_count
        self.class_constraint, self.message = class_constraint, message


class NodeShape(Record):
    __slots__ = ("shape_iri", "target_classes", "constraints")

    def __init__(self, shape_iri: Iri, target_classes: frozenset[Iri],
                 constraints: tuple[PropertyConstraint, ...] = ()):
        self.shape_iri, self.target_classes = shape_iri, target_classes
        self.constraints = constraints


class ValidationResult(Record):
    __slots__ = ("focus", "path", "shape", "constraint", "message", "observed")

    def __init__(self, focus: Term, path: Iri, shape: Iri, constraint: ConstraintKind, message: str,
                 observed: Union[int, Term]):
        self.focus, self.path, self.shape = focus, path, shape
        self.constraint, self.message, self.observed = constraint, message, observed

    def sort_key(self) -> tuple:
        observed = (
            str(self.observed)
            if isinstance(self.observed, int)
            else term_sort_key(self.observed)
        )
        return (
            term_sort_key(self.focus),
            self.shape.value,
            self.path.value,
            self.constraint.value,
            observed,
        )


class ValidationReport(Record):
    __slots__ = ("conforms", "results")
    __hash__ = None

    def __init__(self, conforms: bool, results: list[ValidationResult] | None = None):
        self.conforms = conforms
        self.results = [] if results is None else results

    def to_json_dict(self) -> dict:
        return {
            "conforms": self.conforms,
            "results": [
                {
                    "focusNode": term_json(r.focus),
                    "resultPath": r.path.value,
                    "sourceShape": r.shape.value,
                    "constraint": r.constraint.value,
                    "message": r.message,
                }
                for r in self.results
            ],
        }

    def to_text(self) -> str:
        lines = [f"conforms: {'true' if self.conforms else 'false'}"]
        for r in self.results:
            focus = term_sort_key(r.focus)
            lines.append(
                f"violation [{r.constraint.value}] focus={focus} "
                f"path=<{r.path.value}> shape=<{r.shape.value}>: {one_line(r.message)}"
            )
        return "\n".join(lines)


def _int_value(term: Term, what: str, shape: Iri) -> int:
    """A count: an xsd:integer literal of ASCII digits, as the reader types bare digits."""
    if (isinstance(term, Literal) and term.datatype == XSD_INTEGER
            and term.lexical.isascii() and term.lexical.isdigit()):
        try:
            return int(term.lexical)
        except ValueError:  # more digits than int() converts
            pass
    raise ShapeError(f"{what} of shape {shape.value} must be a non-negative integer, got {term!r}")


def _in_term_order(graph: Graph, node: Term, predicate: Iri) -> list[Term]:
    # shapes decode the same whatever the load order: holders keep one order,
    # and of repeated values the last in term order wins
    return sorted(graph.objects(node, predicate), key=term_sort_key)


def parse_shapes(doc: Document) -> list[NodeShape]:
    """Decode every sh:NodeShape in a parsed shapes document.

    Raises ShapeError when a shape lacks sh:targetClass, a property
    constraint lacks an IRI sh:path, or a count is not a non-negative
    xsd:integer literal.
    """
    graph = doc.graph
    shapes = []
    for subject in sorted(graph.subjects(RDF_TYPE, SH_NODE_SHAPE), key=term_sort_key):
        if not isinstance(subject, Iri):
            raise ShapeError(f"node shapes must be IRIs, got {subject!r}")
        targets = set()
        for target in graph.objects(subject, SH_TARGET_CLASS):
            if not isinstance(target, Iri):
                raise ShapeError(f"sh:targetClass of {subject.value} must be an IRI")
            targets.add(target)
        if not targets:
            raise ShapeError(f"shape {subject.value} has no sh:targetClass")
        constraints = []
        for holder in _in_term_order(graph, subject, SH_PROPERTY):
            paths = graph.objects(holder, SH_PATH)
            if len(paths) != 1 or not isinstance(paths[0], Iri):
                raise ShapeError(
                    f"property constraint of {subject.value} needs exactly one IRI sh:path"
                )
            path = paths[0]
            min_count = max_count = None
            class_constraint = None
            message = None
            for term in _in_term_order(graph, holder, SH_MIN_COUNT):
                min_count = _int_value(term, "sh:minCount", subject)
            for term in _in_term_order(graph, holder, SH_MAX_COUNT):
                max_count = _int_value(term, "sh:maxCount", subject)
            for term in _in_term_order(graph, holder, SH_CLASS):
                if not isinstance(term, Iri):
                    raise ShapeError(f"sh:class of {subject.value} must be an IRI")
                class_constraint = term
            for term in _in_term_order(graph, holder, SH_MESSAGE):
                if isinstance(term, Literal):
                    message = term.lexical
            constraints.append(
                PropertyConstraint(
                    path=path,
                    min_count=min_count,
                    max_count=max_count,
                    class_constraint=class_constraint,
                    message=message,
                )
            )
        shapes.append(
            NodeShape(
                shape_iri=subject,
                target_classes=frozenset(targets),
                constraints=tuple(constraints),
            )
        )
    shapes.sort(key=lambda s: s.shape_iri.value)
    return shapes


def _default_message(constraint: ConstraintKind, spec: PropertyConstraint) -> str:
    if constraint is ConstraintKind.MIN_COUNT:
        return f"expected at least {spec.min_count} value(s) for <{spec.path.value}>"
    if constraint is ConstraintKind.MAX_COUNT:
        return f"expected at most {spec.max_count} value(s) for <{spec.path.value}>"
    return f"values of <{spec.path.value}> must be instances of <{spec.class_constraint.value}>"


def _violation(shape: NodeShape, focus: Term, spec: PropertyConstraint, constraint: ConstraintKind,
               observed: Union[int, Term]) -> ValidationResult:
    message = spec.message or _default_message(constraint, spec)
    return ValidationResult(focus, spec.path, shape.shape_iri, constraint, message, observed)


def validate(data: Graph, shapes: list[NodeShape], class_expander: ClassExpander) -> ValidationReport:
    """Check every shape against the data graph and report violations.

    Focus nodes are subjects typed with a target class or any subclass the
    expander reports for it.  The report conforms exactly when it carries
    no results.
    """
    results: list[ValidationResult] = []
    for shape in shapes:
        focus_nodes: set[Term] = set()
        for target in shape.target_classes:
            for cls in class_expander(data, target):
                for subject in data.subjects(RDF_TYPE, cls):
                    focus_nodes.add(subject)
        if not focus_nodes:
            continue
        # each constraint with the classes its sh:class allows, or None
        checks = [
            (spec, None if spec.class_constraint is None
             else class_expander(data, spec.class_constraint))
            for spec in shape.constraints
        ]
        for focus in sorted(focus_nodes, key=term_sort_key):
            for spec, allowed in checks:
                values = data.objects(focus, spec.path)
                if spec.min_count is not None and len(values) < spec.min_count:
                    results.append(
                        _violation(shape, focus, spec, ConstraintKind.MIN_COUNT, len(values))
                    )
                if spec.max_count is not None and len(values) > spec.max_count:
                    results.append(
                        _violation(shape, focus, spec, ConstraintKind.MAX_COUNT, len(values))
                    )
                if allowed is not None:
                    for value in values:
                        types = set(data.objects(value, RDF_TYPE))
                        if types.isdisjoint(allowed):
                            results.append(
                                _violation(shape, focus, spec, ConstraintKind.CLASS, value)
                            )
    results.sort(key=ValidationResult.sort_key)
    return ValidationReport(conforms=not results, results=results)
