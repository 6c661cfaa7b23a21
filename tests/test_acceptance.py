"""Acceptance gate: one test per release criterion, all exact-match.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; each test also prints an `[acceptance]` line on success.
"""

import random

from cloudaudit.cli import main
from cloudaudit.compliance import CoverageState, coverage
from cloudaudit.openstack import IngestConfig, ingest, parse_cli_json
from cloudaudit.rdf import Graph, Iri, Literal, Triple, TriplePattern, Var
from cloudaudit.reasoner import materialize, subclasses_of
from cloudaudit.shacl import NodeShape, PropertyConstraint, parse_shapes, validate
from cloudaudit.sparql import GraphPattern, Query, evaluate, parse_query
from cloudaudit.rdf import PrefixMap
from cloudaudit.turtle import parse_turtle, serialize_turtle
from cloudaudit.vocab import (
    INTERFACE,
    INTERFACE_SUBCLASSES,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
)

from oracles import AWS, ISO, brute_rows, ce, isomorphic, sec, table_rows, type_closure

# frozen reference values (independent counts/traversals done once up front)
REFERENCE_TRIPLE_COUNT = 282
GAP_TRIPLE_COUNT = 281
ENCRYPTION_MESSAGE = "Data interfaces must declare an encryption method (at-rest)."
POLICY_BYTES = b"rule: admin_required\n"
POLICY_DIGEST = "ec31dfa516982574c40bad5fbc94b695500495920c123716f23a834b348e9a7e"


def _ok(name: str):
    print(f"[acceptance] {name}: PASS")


def test_01_fixture_parses_at_reference_count(fixtures_dir):
    doc = parse_turtle((fixtures_dir / "cloudengine.ttl").read_text(encoding="utf-8"))
    assert len(doc.graph) == REFERENCE_TRIPLE_COUNT
    gap = parse_turtle((fixtures_dir / "cloudengine_gap.ttl").read_text(encoding="utf-8"))
    assert len(gap.graph) == GAP_TRIPLE_COUNT
    _ok("model fixture parses at the reference triple count")


def test_02_round_trip_is_isomorphic(model_doc):
    again = parse_turtle(serialize_turtle(model_doc))
    assert isomorphic(again.graph, model_doc.graph)
    _ok("parse -> serialize -> parse round-trip is isomorphic")


def test_03_materialized_interface_set_matches_bfs_oracle(model_doc, model_graph):
    lifted = {
        t.subject for t in model_graph.match(TriplePattern(Var("x"), RDF_TYPE, INTERFACE))
    }
    union = set()
    for cls in INTERFACE_SUBCLASSES:
        union.update(
            t.subject for t in model_doc.graph.match(TriplePattern(Var("x"), RDF_TYPE, cls))
        )
    assert lifted == union
    assert set(model_graph) == type_closure(model_doc.graph)
    _ok("inference lifts exactly the four interface categories")


def test_04_encryption_gap_query(fixtures_dir, model_graph, gap_graph):
    query = parse_query((fixtures_dir / "q_missing_encryption.rq").read_text(encoding="utf-8"))
    assert evaluate(query, model_graph).rows == []
    assert brute_rows(model_graph, query) == []
    gap_table = evaluate(query, gap_graph)
    assert gap_table.rows == [(ce("Swift"),)]
    assert table_rows(gap_table) == brute_rows(gap_graph, query)
    _ok("encryption query: clean on full model, names Swift on gap model")


def test_05_encryption_shape(shapes_doc, model_graph, gap_graph):
    shapes = parse_shapes(shapes_doc)
    assert validate(model_graph, shapes, subclasses_of).conforms is True
    report = validate(gap_graph, shapes, subclasses_of)
    assert report.conforms is False
    (result,) = report.results
    assert result.focus == ce("Swift")
    assert result.message == ENCRYPTION_MESSAGE
    _ok("encryption shape: conforms on full model, one exact violation on gap model")


def test_06_compliance_gap_sets_and_evidence(model_graph):
    secure = coverage(model_graph, ce("SecureCloudEngine"))
    assert set(s.value for s in secure.gaps) == {
        ISO + "A.12.4.1",
        AWS + "SecurityPillar",
    }
    hybrid = coverage(model_graph, ce("HybridCompliantEngine"))
    assert set(s.value for s in hybrid.gaps) == {AWS + "SecurityPillar"}
    for report in (secure, hybrid):
        for status in report.statuses:
            assert (status.state is CoverageState.COVERED) == bool(status.evidence)
            for item in status.evidence:
                for cited in item.cited_triples():
                    assert cited in model_graph
    _ok("compliance gap sets exact on both engines; evidence replays")


def test_07_shape_and_query_agree_on_random_graphs():
    rng = random.Random(42)
    cls, sub, path = ce("C"), ce("CSub"), sec("p")
    nodes = [ce(f"n{i}") for i in range(10)]
    for _ in range(50):
        g = Graph()
        if rng.random() < 0.6:
            g.add(Triple(sub, RDFS_SUBCLASS_OF, cls))
        for node in nodes:
            if rng.random() < 0.6:
                g.add(Triple(node, RDF_TYPE, rng.choice([cls, sub])))
            for _ in range(rng.randint(0, 2)):
                g.add(Triple(node, path, Literal(str(rng.randint(0, 3)))))
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
        assert violating == {row[0] for row in evaluate(query, g).rows}
    _ok("shape violations equal NOT EXISTS query results on 50 random graphs")


def test_08_query_engine_equals_brute_force_on_random_bgps():
    rng = random.Random(1234)
    iris = [Iri(f"http://rand.test/{c}") for c in "abcdefgh"]
    objects = iris + [Literal("1"), Literal("2")]
    variables = [Var("x"), Var("y")]

    def any_slot(pool):
        return rng.choice(variables) if rng.random() < 0.45 else rng.choice(pool)

    for _ in range(100):
        g = Graph(
            Triple(rng.choice(iris), rng.choice(iris), rng.choice(objects))
            for _ in range(rng.randint(0, 40))
        )
        patterns = [
            TriplePattern(any_slot(iris), any_slot(iris), any_slot(objects))
            for _ in range(rng.randint(1, 3))
        ]
        query = Query(PrefixMap(), None, GraphPattern(triples=patterns))
        assert table_rows(evaluate(query, g)) == brute_rows(g, query)
    _ok("query evaluation equals brute-force enumeration on 100 random graphs")


def test_09_ingest_golden_and_hash(fixtures_dir, tmp_path):
    base = fixtures_dir / "openstack_sample"
    doc = ingest(
        endpoints=parse_cli_json((base / "endpoints.json").read_text(), "endpoints"),
        projects=parse_cli_json((base / "projects.json").read_text(), "projects"),
        users=parse_cli_json((base / "users.json").read_text(), "users"),
        assignments=parse_cli_json((base / "assignments.json").read_text(), "assignments"),
    )
    assert serialize_turtle(doc) == (base / "golden.ttl").read_text(encoding="utf-8")

    policy = tmp_path / "policy.yaml"
    policy.write_bytes(POLICY_BYTES)
    hashed = ingest(config=IngestConfig(policy_files={"keystone": policy}))
    (t,) = list(hashed.graph)
    assert t.object == Literal(POLICY_DIGEST)
    _ok("ingest sample is byte-identical to golden; policy hash matches SHA-256")


def test_10_cli_exit_codes(fixtures_dir):
    model = str(fixtures_dir / "cloudengine.ttl")
    gap = str(fixtures_dir / "cloudengine_gap.ttl")
    shapes = str(fixtures_dir / "shapes_data_encryption.ttl")
    query = str(fixtures_dir / "q_missing_encryption.rq")
    assert main(["validate", model, shapes]) == 0
    assert main(["validate", gap, shapes]) == 2
    assert main(["compliance", model, "--engine", "cloudeng:SecureCloudEngine"]) == 3
    assert main(["query", model, query]) == 0
    _ok("CLI exit codes are 0 / 2 / 3 / 0 on the golden invocations")
