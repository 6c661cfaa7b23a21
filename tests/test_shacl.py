"""Shape decoding and validation semantics, including the RDFS-aware targets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudaudit.rdf import Graph, Iri, Literal, Triple
from cloudaudit.reasoner import materialize, subclasses_of
from cloudaudit.shacl import (
    ConstraintKind,
    NodeShape,
    PropertyConstraint,
    ShapeError,
    ValidationReport,
    ValidationResult,
    parse_shapes,
    validate,
)
from cloudaudit.sparql import evaluate, parse_query
from cloudaudit.turtle import parse_turtle
from cloudaudit.vocab import RDF_TYPE, RDFS_SUBCLASS_OF

from oracles import LINE_BREAKS, ce, sec
from test_reasoner import BNODE_CLASSES, CLASSES, INSTANCES, general_class_graphs

ENCRYPTION_MESSAGE = "Data interfaces must declare an encryption method (at-rest)."

SHAPE_HEADER = (
    "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
    "@prefix cloudeng: <http://example.org/cloudengine#> .\n"
    "@prefix sec: <http://example.org/security#> .\n"
)


def shapes_from(text: str):
    return parse_shapes(parse_turtle(SHAPE_HEADER + text))


class TestParseShapes:
    def test_bundled_encryption_shape(self, shapes_doc):
        (shape,) = parse_shapes(shapes_doc)
        assert shape.shape_iri == ce("DataInterfaceShape")
        assert shape.target_classes == frozenset({ce("DataInterface")})
        (constraint,) = shape.constraints
        assert constraint.path == sec("encryptsData")
        assert constraint.min_count == 1
        assert constraint.max_count is None
        assert constraint.class_constraint is None
        assert constraint.message == ENCRYPTION_MESSAGE

    def test_empty_document(self):
        assert shapes_from("") == []

    def test_missing_path_is_an_error(self):
        with pytest.raises(ShapeError):
            shapes_from(
                "cloudeng:S a sh:NodeShape ;\n"
                "  sh:targetClass cloudeng:DataInterface ;\n"
                "  sh:property [ sh:minCount 1 ] .\n"
            )

    def test_missing_target_class_is_an_error(self):
        with pytest.raises(ShapeError):
            shapes_from("cloudeng:S a sh:NodeShape .\n")

    def test_non_numeric_count_is_an_error(self):
        with pytest.raises(ShapeError):
            shapes_from(
                "cloudeng:S a sh:NodeShape ;\n"
                "  sh:targetClass cloudeng:DataInterface ;\n"
                "  sh:property [ sh:path sec:encryptsData ; sh:minCount \"one\" ] .\n"
            )

    def test_non_ascii_digit_count_is_an_error(self):
        for count in ('"\u00b2"', '"\u0661"'):
            with pytest.raises(ShapeError):
                shapes_from(
                    "cloudeng:S a sh:NodeShape ;\n"
                    "  sh:targetClass cloudeng:DataInterface ;\n"
                    f"  sh:property [ sh:path sec:encryptsData ; sh:minCount {count} ] .\n"
                )

    @pytest.mark.parametrize("count", [
        'sh:minCount "5"', 'sh:maxCount "007"',
        # digits past int()'s default limit of 4,300
        pytest.param("sh:minCount " + "9" * 5000, id="5000-digit minCount"),
    ])
    def test_string_count_is_an_error(self, count):
        with pytest.raises(ShapeError, match="must be a non-negative integer"):
            shapes_from(
                "cloudeng:S a sh:NodeShape ;\n"
                "  sh:targetClass cloudeng:DataInterface ;\n"
                f"  sh:property [ sh:path sec:encryptsData ; {count} ] .\n"
            )

    def test_iri_class_constraint(self):
        (shape,) = shapes_from(
            "cloudeng:S a sh:NodeShape ;\n"
            "  sh:targetClass cloudeng:DataInterface ;\n"
            "  sh:property [ sh:path sec:uses ; sh:class sec:KeyManagement ] .\n"
        )
        (constraint,) = shape.constraints
        assert constraint.path == sec("uses")
        assert constraint.class_constraint == sec("KeyManagement")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('cloudeng:S a sh:NodeShape ; sh:targetClass cloudeng:C ;\n'
             '  sh:property [ sh:path sec:uses ; sh:class "K" ] .\n',
             "sh:class of http://example.org/cloudengine#S must be an IRI"),
            ("[] a sh:NodeShape ; sh:targetClass cloudeng:C .\n",
             "node shapes must be IRIs, got BlankNode('b1')"),
            ('cloudeng:S a sh:NodeShape ; sh:targetClass "C" .\n',
             "sh:targetClass of http://example.org/cloudengine#S must be an IRI"),
        ],
        ids=["literal-class", "blank-node-shape", "literal-target-class"],
    )
    def test_non_iri_terms_are_an_error(self, text, message):
        with pytest.raises(ShapeError) as refusal:
            shapes_from(text)
        assert str(refusal.value) == message

    def test_inverted_count_bounds_are_an_error(self):
        with pytest.raises(ShapeError):
            shapes_from(
                "cloudeng:S a sh:NodeShape ;\n"
                "  sh:targetClass cloudeng:DataInterface ;\n"
                "  sh:property [ sh:path sec:encryptsData ; sh:minCount 2 ; sh:maxCount 1 ] .\n"
            )


class TestValidate:
    def test_full_model_conforms(self, model_graph, shapes_doc):
        report = validate(model_graph, parse_shapes(shapes_doc), subclasses_of)
        assert report.conforms is True
        assert report.results == []

    def test_gap_model_has_exactly_the_swift_violation(self, gap_graph, shapes_doc):
        report = validate(gap_graph, parse_shapes(shapes_doc), subclasses_of)
        assert report.conforms is False
        (result,) = report.results
        assert result.focus == ce("Swift")
        assert result.path == sec("encryptsData")
        assert result.constraint is ConstraintKind.MIN_COUNT
        assert result.message == ENCRYPTION_MESSAGE
        assert result.observed == 0

    def test_shape_without_constraints_conforms_vacuously(self, model_graph):
        (shape,) = shapes_from(
            "cloudeng:Bare a sh:NodeShape ;\n  sh:targetClass cloudeng:DataInterface .\n"
        )
        assert shape.constraints == ()
        assert validate(model_graph, [shape], subclasses_of).conforms

    def test_zero_min_count_is_vacuous(self, model_graph):
        shape = NodeShape(
            shape_iri=ce("Vacuous"),
            target_classes=frozenset({ce("DataInterface")}),
            constraints=(PropertyConstraint(path=sec("encryptsData"), min_count=0),),
        )
        assert validate(model_graph, [shape], subclasses_of).conforms

    def test_max_count_violation_reports_observed_count(self):
        g = Graph([
            Triple(ce("node"), RDF_TYPE, ce("C")),
            Triple(ce("node"), sec("p"), Literal("1")),
            Triple(ce("node"), sec("p"), Literal("2")),
        ])
        shape = NodeShape(
            shape_iri=ce("S"),
            target_classes=frozenset({ce("C")}),
            constraints=(PropertyConstraint(path=sec("p"), max_count=1),),
        )
        report = validate(g, [shape], subclasses_of)
        (result,) = report.results
        assert result.constraint is ConstraintKind.MAX_COUNT
        assert result.observed == 2

    def test_class_constraint_accepts_subclass_typed_values(self):
        g = Graph([
            Triple(ce("engine"), RDF_TYPE, ce("C")),
            Triple(ce("engine"), sec("uses"), ce("good")),
            Triple(ce("engine"), sec("uses"), ce("bad")),
            Triple(ce("good"), RDF_TYPE, ce("SpecialKMS")),
            Triple(ce("SpecialKMS"), RDFS_SUBCLASS_OF, sec("KeyManagement")),
            Triple(ce("bad"), RDF_TYPE, ce("Unrelated")),
        ])
        shape = NodeShape(
            shape_iri=ce("S"),
            target_classes=frozenset({ce("C")}),
            constraints=(
                PropertyConstraint(path=sec("uses"), class_constraint=sec("KeyManagement")),
            ),
        )
        report = validate(g, [shape], subclasses_of)
        (result,) = report.results
        assert result.constraint is ConstraintKind.CLASS
        assert result.observed == ce("bad")

    def test_class_expander_runs_once_per_constraint(self):
        g = Graph([
            Triple(ce("good"), RDF_TYPE, ce("SpecialKMS")),
            Triple(ce("SpecialKMS"), RDFS_SUBCLASS_OF, sec("KeyManagement")),
            Triple(ce("bad"), RDF_TYPE, ce("Unrelated")),
        ])
        for n in range(6):
            g.add(Triple(ce(f"engine{n}"), RDF_TYPE, ce("C")))
            g.add(Triple(ce(f"engine{n}"), sec("uses"), ce("bad" if n % 2 else "good")))
        shape = NodeShape(
            shape_iri=ce("S"),
            target_classes=frozenset({ce("C")}),
            constraints=(
                PropertyConstraint(path=sec("uses"), class_constraint=sec("KeyManagement")),
                PropertyConstraint(path=sec("uses"), min_count=1),
            ),
        )
        calls = []

        def counting(graph, cls):
            calls.append(cls)
            return subclasses_of(graph, cls)

        report = validate(g, [shape], counting)
        assert sorted(calls, key=lambda c: c.value) == [ce("C"), sec("KeyManagement")]
        assert [(r.focus, r.constraint, r.observed) for r in report.results] == [
            (ce(f"engine{n}"), ConstraintKind.CLASS, ce("bad")) for n in (1, 3, 5)
        ]

    def test_targets_include_subclass_typed_instances(self):
        g = Graph([
            Triple(ce("ObjectStore"), RDFS_SUBCLASS_OF, ce("DataInterface")),
            Triple(ce("bucket"), RDF_TYPE, ce("ObjectStore")),
        ])
        shape = NodeShape(
            shape_iri=ce("S"),
            target_classes=frozenset({ce("DataInterface")}),
            constraints=(PropertyConstraint(path=sec("encryptsData"), min_count=1),),
        )
        report = validate(g, [shape], subclasses_of)
        assert [r.focus for r in report.results] == [ce("bucket")]

    def test_conforms_iff_no_results(self, model_graph, gap_graph, shapes_doc):
        shapes = parse_shapes(shapes_doc)
        for graph in (model_graph, gap_graph):
            report = validate(graph, shapes, subclasses_of)
            assert report.conforms == (not report.results)

    def test_min_count_never_worsens_when_values_are_added(self, gap_graph, shapes_doc):
        shapes = parse_shapes(shapes_doc)
        before = validate(gap_graph, shapes, subclasses_of)
        grown = gap_graph.copy()
        grown.add(Triple(ce("Swift"), sec("encryptsData"), sec("AES256")))
        after = validate(grown, shapes, subclasses_of)
        before_keys = {(r.focus, r.path) for r in before.results}
        after_keys = {(r.focus, r.path) for r in after.results}
        assert after_keys <= before_keys

    def test_report_renderings(self, gap_graph, shapes_doc):
        report = validate(gap_graph, parse_shapes(shapes_doc), subclasses_of)
        payload = report.to_json_dict()
        assert payload["conforms"] is False
        (entry,) = payload["results"]
        assert entry["focusNode"] == {"type": "iri", "value": ce("Swift").value}
        assert entry["message"] == ENCRYPTION_MESSAGE
        text = report.to_text()
        assert text.splitlines()[0] == "conforms: false"
        assert "Swift" in text


def test_min_count_violations_match_not_exists_query():
    """Shape {targetClass, path, minCount 1} and the equivalent FILTER NOT
    EXISTS query agree on 25 random materialized graphs."""
    rng = random.Random(20260811)
    cls = ce("TargetClass")
    sub = ce("TargetSubclass")
    path = sec("requiredProperty")
    nodes = [ce(f"node{i}") for i in range(8)]
    for _ in range(25):
        g = Graph()
        if rng.random() < 0.7:
            g.add(Triple(sub, RDFS_SUBCLASS_OF, cls))
        for node in nodes:
            if rng.random() < 0.7:
                g.add(Triple(node, RDF_TYPE, rng.choice([cls, sub])))
            if rng.random() < 0.5:
                g.add(Triple(node, path, Literal(str(rng.randint(0, 2)))))
        g = materialize(g).graph
        shape = NodeShape(
            shape_iri=ce("S"),
            target_classes=frozenset({cls}),
            constraints=(PropertyConstraint(path=path, min_count=1),),
        )
        violating = {r.focus for r in validate(g, [shape], subclasses_of).results}
        query = parse_query(
            f"SELECT ?x WHERE {{ ?x a <{cls.value}> . "
            f"FILTER NOT EXISTS {{ ?x <{path.value}> ?v }} }}"
        )
        from_query = {row[0] for row in evaluate(query, g).rows}
        assert violating == from_query


PATHS = [Iri(f"http://hier.test/p{i}") for i in range(2)]
VALUES = INSTANCES[:6] + CLASSES + BNODE_CLASSES + [Literal("v")]


@st.composite
def graphs_with_values(draw):
    """`general_class_graphs` plus instances of blank-node classes and values
    on `PATHS` among instances, classes and blank-node classes."""
    g = draw(general_class_graphs())
    for instance in draw(st.lists(st.sampled_from(INSTANCES), max_size=8)):
        g.add(Triple(instance, RDF_TYPE, draw(st.sampled_from(BNODE_CLASSES))))
    subjects = INSTANCES + CLASSES + BNODE_CLASSES
    for _ in range(draw(st.integers(0, 30))):
        g.add(Triple(draw(st.sampled_from(subjects)), draw(st.sampled_from(PATHS)),
                     draw(st.sampled_from(VALUES))))
    return g


@st.composite
def constraints(draw):
    low, high = sorted(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2)))
    return PropertyConstraint(
        path=draw(st.sampled_from(PATHS)),
        min_count=draw(st.sampled_from([None, low])),
        max_count=draw(st.sampled_from([None, high])),
        class_constraint=draw(st.none() | st.sampled_from(CLASSES)),
    )


node_shapes = st.lists(
    st.builds(
        NodeShape,
        shape_iri=st.sampled_from([ce("S0"), ce("S1")]),
        target_classes=st.frozensets(st.sampled_from(CLASSES), min_size=1, max_size=2),
        constraints=st.lists(constraints(), min_size=1, max_size=3).map(tuple),
    ),
    max_size=3,
)


@given(graphs_with_values(), node_shapes)
@settings(max_examples=300, deadline=None)
def test_asserted_graph_reports_like_its_closure(g, shapes):
    """Targets and sh:class see through subClassOf, blank-node classes
    included, so with no rdf:type or rdfs:subClassOf path the closure
    changes nothing a shape reads."""
    assert validate(g, shapes, subclasses_of) == validate(materialize(g).graph, shapes, subclasses_of)


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_message_stays_on_its_line(brk):
    """An sh:message line break is escaped in the text report, which so has
    as many lines as with a plain message; JSON keeps the message as it is."""
    def report(message):
        result = ValidationResult(ce("X"), sec("p"), sec("Shape"), ConstraintKind.MIN_COUNT,
                                  message, 0)
        return ValidationReport([result])

    forged = report(f"missing{brk}conforms: true")
    assert len(forged.to_text().splitlines()) == len(report("missing conforms: true").to_text().splitlines())
    assert forged.to_json_dict()["results"][0]["message"] == f"missing{brk}conforms: true"
