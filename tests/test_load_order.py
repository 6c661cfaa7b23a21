"""Reports do not depend on the order in which triples were loaded.

Each report is built twice: once from the parsed graph and once from a
graph holding the same triples inserted in reverse.  The bytes must match.
The small model below is built so that each place where a report reads
several values of one lookup has values whose insertion order differs from
their sorted order.
"""

import json

import pytest

from cloudaudit.compliance import coverage, remediation_hints
from cloudaudit.rdf import Graph
from cloudaudit.reasoner import materialize, subclasses_of
from cloudaudit.shacl import ShapeError, parse_shapes, validate
from cloudaudit.turtle import Document, parse_turtle, serialize_turtle

from oracles import ce

PREFIXES = """\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix cloudeng: <http://example.org/cloudengine#> .
@prefix sec: <http://example.org/security#> .
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://order.test/> .
"""

# ex:M.1 sorts before ex:M by term form ('.' < '>') but after it by IRI text
SMALL_MODEL = PREFIXES + """
ex:Engine cloudeng:hasDataInterface ex:Store ;
  sec:hasSecurityPolicy ex:Policy .
ex:Policy sec:compliesWith ex:Std, ex:Missing .
ex:Std rdfs:label "Zeta label", "Alpha label" .
ex:Store a cloudeng:DataInterface ;
  sec:encryptsData ex:M2, ex:M.1, ex:M .
ex:M2 sec:implementsStandard ex:Std .
ex:M.1 sec:implementsStandard ex:Std .
ex:M sec:implementsStandard ex:Std .
ex:Elsewhere sec:implementsStandard ex:Missing .
"""


def _shapes_text() -> str:
    # _:b1 ... _:b10 sort as b1, b10, b2, ... which is not insertion order
    holders = ",\n    ".join(
        f'[ sh:path sec:usesKMS ; sh:minCount 1 ; sh:message "holder {n}" ]'
        for n in range(1, 11)
    )
    return PREFIXES + f"""
ex:Shape a sh:NodeShape ;
  sh:targetClass cloudeng:DataInterface ;
  sh:property
    {holders},
    [ sh:path sec:usesTransportSecurity ; sh:minCount 1 ;
      sh:message "second message", "first message" ] .
"""


def _reversed(doc: Document) -> Document:
    return Document(Graph(reversed(list(doc.graph))), doc.prefixes)


def _reports(doc: Document, shapes_doc: Document, engine) -> list[str]:
    graph = materialize(doc.graph).graph
    report = coverage(graph, engine)
    shapes = parse_shapes(shapes_doc)
    return [
        serialize_turtle(doc),
        report.to_text(doc.prefixes),
        json.dumps(report.to_json_dict()),
        "\n".join(remediation_hints(report, graph, doc.prefixes)),
        validate(graph, shapes, subclasses_of).to_text(),
    ]


def test_small_model_reports_ignore_load_order():
    doc = parse_turtle(SMALL_MODEL)
    shapes_doc = parse_turtle(_shapes_text())
    engine = doc.prefixes.expand("ex:Engine")
    forward = _reports(doc, shapes_doc, engine)
    backward = _reports(_reversed(doc), _reversed(shapes_doc), engine)
    assert forward == backward
    assert "Alpha label" in forward[1]
    assert forward[1].index("ex:M.1") < forward[1].index("ex:M2")
    assert forward[4].count("holder") == 10
    assert "second message" in forward[4]


@pytest.mark.parametrize("engine", ["SecureCloudEngine", "HybridCompliantEngine"])
def test_fixture_reports_ignore_load_order(model_doc, shapes_doc, engine):
    forward = _reports(model_doc, shapes_doc, ce(engine))
    backward = _reports(_reversed(model_doc), _reversed(shapes_doc), ce(engine))
    assert forward == backward


def test_first_shape_error_ignores_load_order():
    doc = parse_turtle(PREFIXES + "ex:B a sh:NodeShape .\nex:A a sh:NodeShape .\n")
    for loaded in (doc, _reversed(doc)):
        with pytest.raises(ShapeError, match="^shape http://order.test/A has no sh:targetClass$"):
            parse_shapes(loaded)
