"""SHACL subset: node shapes with class targets and property constraints.

Supported shape vocabulary: sh:NodeShape, sh:targetClass, sh:property with
sh:path (single predicate IRI), sh:minCount, sh:maxCount, sh:class and
sh:message.  Severity is fixed at violation.

Focus nodes are all subjects typed with a target class or any of its
subclasses; subclass expansion is delegated to the caller-supplied
expander so validation can honor the same RDFS view the rest of the
pipeline uses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Union

from .rdf import Graph, Iri, Literal, Term, term_json, term_sort_key
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

ClassExpander = Callable[[Graph, Iri], set[Iri]]


class ShapeError(ValueError):
    """A shapes document is malformed (missing target, bad path or count)."""


class ConstraintKind(enum.Enum):
    MIN_COUNT = "MinCount"
    MAX_COUNT = "MaxCount"
    CLASS = "Class"


@dataclass(frozen=True)
class PropertyConstraint:
    path: Iri
    min_count: int | None = None
    max_count: int | None = None
    class_constraint: Iri | None = None
    message: str | None = None

    def __post_init__(self):
        if (
            self.min_count is not None
            and self.max_count is not None
            and self.min_count > self.max_count
        ):
            raise ShapeError(
                f"minCount {self.min_count} exceeds maxCount {self.max_count} "
                f"for path {self.path.value}"
            )


@dataclass(frozen=True)
class NodeShape:
    shape_iri: Iri
    target_classes: frozenset[Iri]
    constraints: tuple[PropertyConstraint, ...] = ()


@dataclass(frozen=True)
class ValidationResult:
    focus: Term
    path: Iri
    shape: Iri
    constraint: ConstraintKind
    message: str
    observed: Union[int, Term]

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


@dataclass
class ValidationReport:
    conforms: bool
    results: list[ValidationResult] = field(default_factory=list)

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
                f"path=<{r.path.value}> shape=<{r.shape.value}>: {r.message}"
            )
        return "\n".join(lines)


def _int_value(term: Term, what: str, shape: Iri) -> int:
    if isinstance(term, Literal) and term.lexical.isascii() and term.lexical.isdigit():
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
    integer.
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
        allowed_by_spec = {
            spec: class_expander(data, spec.class_constraint)
            for spec in shape.constraints
            if spec.class_constraint is not None and focus_nodes
        }
        for focus in sorted(focus_nodes, key=term_sort_key):
            for spec in shape.constraints:
                values = data.objects(focus, spec.path)
                if spec.min_count is not None and len(values) < spec.min_count:
                    results.append(
                        ValidationResult(
                            focus=focus,
                            path=spec.path,
                            shape=shape.shape_iri,
                            constraint=ConstraintKind.MIN_COUNT,
                            message=spec.message or _default_message(ConstraintKind.MIN_COUNT, spec),
                            observed=len(values),
                        )
                    )
                if spec.max_count is not None and len(values) > spec.max_count:
                    results.append(
                        ValidationResult(
                            focus=focus,
                            path=spec.path,
                            shape=shape.shape_iri,
                            constraint=ConstraintKind.MAX_COUNT,
                            message=spec.message or _default_message(ConstraintKind.MAX_COUNT, spec),
                            observed=len(values),
                        )
                    )
                if spec.class_constraint is not None:
                    for value in values:
                        types = set(data.objects(value, RDF_TYPE))
                        if types.isdisjoint(allowed_by_spec[spec]):
                            results.append(
                                ValidationResult(
                                    focus=focus,
                                    path=spec.path,
                                    shape=shape.shape_iri,
                                    constraint=ConstraintKind.CLASS,
                                    message=spec.message
                                    or _default_message(ConstraintKind.CLASS, spec),
                                    observed=value,
                                )
                            )
    results.sort(key=ValidationResult.sort_key)
    return ValidationReport(conforms=not results, results=results)
