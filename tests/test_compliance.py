"""Coverage traversal, gap detection, evidence replay and the query cross-check."""

import json
import random

import pytest

from cloudaudit.compliance import (
    CoverageState,
    EvidenceKind,
    NoPolicyError,
    attached_interfaces,
    coverage,
    coverage_queries,
    remediation_hints,
    standards_of,
)
from cloudaudit.rdf import Graph, Iri, Triple
from cloudaudit.reasoner import materialize
from cloudaudit.sparql import evaluate, parse_query
from cloudaudit.turtle import parse_turtle
from cloudaudit.vocab import (
    COMPLIES_WITH,
    HAS_DATA_INTERFACE,
    HAS_SECURITY_POLICY,
    IMPLEMENTS_STANDARD,
    RDF_TYPE,
)

from oracles import AWS, CSA, ISO, NIST, OPENSTACK, ce, gen, sec

SECURE = ce("SecureCloudEngine")
HYBRID = ce("HybridCompliantEngine")
SECURITY_PILLAR = Iri(AWS + "SecurityPillar")
EVENT_LOGGING = Iri(ISO + "A.12.4.1")


class TestTraversal:
    def test_secure_engine_interfaces_include_the_dangling_s3(self, model_graph):
        # the model attaches cloudeng:S3, which carries no declarations of
        # its own (aws:S3 is the declared node); the traversal surfaces it
        # as attached anyway
        assert attached_interfaces(model_graph, SECURE) == {
            ce("OCCI"),
            ce("SSOService"),
            ce("Syslog"),
            ce("S3"),
            ce("Swift"),
        }

    def test_hybrid_engine_interfaces(self, model_graph):
        assert attached_interfaces(model_graph, HYBRID) == {
            Iri(OPENSTACK + "Keystone"),
            Iri(AWS + "IAM"),
            Iri(AWS + "CloudTrail"),
            Iri(AWS + "S3"),
        }

    def test_unknown_engine_has_no_interfaces(self, model_graph):
        assert attached_interfaces(model_graph, ce("GhostEngine")) == set()

    def test_standards_of_rbac(self, model_graph):
        assert standards_of(model_graph, sec("RBAC")) == {
            Iri(NIST + "AC-3"),
            Iri(ISO + "A.9.4.1"),
            Iri(CSA + "IVS-02"),
        }

    def test_standards_of_okta_and_absent_nodes(self, model_graph):
        assert standards_of(model_graph, sec("Okta")) == set()
        assert standards_of(model_graph, ce("NotInGraph")) == set()


class TestCoverage:
    def test_secure_engine_gaps(self, model_graph):
        report = coverage(model_graph, SECURE)
        assert set(report.gaps) == {EVENT_LOGGING, SECURITY_PILLAR}
        assert report.gap_count == 2
        assert len(report.statuses) == 10
        assert report.policy == sec("EnterpriseCloudPolicy")
        assert report.warnings == []

    def test_hybrid_engine_gaps(self, model_graph):
        report = coverage(model_graph, HYBRID)
        assert set(report.gaps) == {SECURITY_PILLAR}
        assert report.gap_count == 1

    def test_every_evidence_chain_replays(self, model_graph):
        for engine in (SECURE, HYBRID):
            report = coverage(model_graph, engine)
            for status in report.statuses:
                if status.state is CoverageState.COVERED:
                    assert status.evidence
                for item in status.evidence:
                    assert item.standard == status.standard
                    for cited in item.cited_triples():
                        assert cited in model_graph

    def test_mechanism_evidence_names_the_hop(self, model_graph):
        report = coverage(model_graph, SECURE)
        by_standard = {s.standard: s for s in report.statuses}
        rbac_route = [
            e
            for e in by_standard[Iri(ISO + "A.9.4.1")].evidence
            if e.via is EvidenceKind.MECHANISM
        ]
        assert rbac_route == [e for e in rbac_route if e.mechanism == sec("RBAC")]
        assert rbac_route[0].interface == ce("OCCI")
        assert rbac_route[0].linking_property == sec("enforcesAuthorization")

    def test_policy_without_standards(self):
        g = Graph([
            Triple(ce("E"), HAS_SECURITY_POLICY, sec("EmptyPolicy")),
        ])
        report = coverage(g, ce("E"))
        assert report.statuses == [] and report.gap_count == 0

    def test_engine_without_policy(self, model_graph):
        with pytest.raises(NoPolicyError):
            coverage(model_graph, ce("GhostEngine"))

    def test_multiple_policies_warn_and_union(self):
        g = Graph([
            Triple(ce("E"), HAS_SECURITY_POLICY, sec("P1")),
            Triple(ce("E"), HAS_SECURITY_POLICY, sec("P2")),
            Triple(sec("P1"), COMPLIES_WITH, Iri(ISO + "A.1")),
            Triple(sec("P2"), COMPLIES_WITH, Iri(ISO + "A.2")),
        ])
        report = coverage(g, ce("E"))
        warning = (f"engine declares multiple security policies ({sec('P1').value}, "
                   f"{sec('P2').value}); using the union of their standards")
        assert report.warnings == [warning]
        assert {s.standard for s in report.statuses} == {Iri(ISO + "A.1"), Iri(ISO + "A.2")}
        assert report.policy == sec("P1")
        # the text report gives it its own line, under the counts
        assert report.to_text().splitlines()[2:5] == [
            "standards: 2 declared, 0 covered, 2 gap(s)", f"warning: {warning}", "",
        ]

    def test_sibling_standards_do_not_roll_up(self, model_graph):
        # SEC02/SEC03 are implemented, the pillar itself is not; exact-IRI
        # matching keeps it a gap
        report = coverage(model_graph, HYBRID)
        assert SECURITY_PILLAR in report.gaps

    def test_coverage_is_monotone_under_new_claims(self, model_graph):
        rng = random.Random(7)
        base = coverage(model_graph, SECURE)
        covered_before = {
            s.standard for s in base.statuses if s.state is CoverageState.COVERED
        }
        interfaces = sorted(attached_interfaces(model_graph, SECURE), key=lambda i: i.value)
        for _ in range(10):
            grown = model_graph.copy()
            standard = rng.choice([s.standard for s in base.statuses])
            grown.add(Triple(rng.choice(interfaces), IMPLEMENTS_STANDARD, standard))
            after = coverage(grown, SECURE)
            covered_after = {
                s.standard for s in after.statuses if s.state is CoverageState.COVERED
            }
            assert covered_before <= covered_after

    def test_report_is_deterministic(self, model_graph):
        a = coverage(model_graph, SECURE).to_json_dict()
        b = coverage(model_graph, SECURE).to_json_dict()
        assert json.dumps(a) == json.dumps(b)


class TestHints:
    def test_gap_with_known_implementers(self, model_graph, model_doc):
        report = coverage(model_graph, SECURE)
        hints = remediation_hints(report, model_graph, model_doc.prefixes)
        (pillar_hint,) = [h for h in hints if "SecurityPillar" in h]
        assert "no node in the model implements" in pillar_hint
        (logging_hint,) = [h for h in hints if "A.12.4.1" in h]
        assert "openstack:Ceilometer" in logging_hint
        assert "aws:CloudTrail" in logging_hint

    def test_no_gaps_no_hints(self, model_graph):
        report = coverage(model_graph, HYBRID)
        report.statuses = [s for s in report.statuses if s.state is CoverageState.COVERED]
        report.gap_count = 0
        assert remediation_hints(report, model_graph) == []


def test_vocabulary_constants_expand_under_the_model_prefixes(model_doc):
    from cloudaudit import vocab as v

    prefixes = model_doc.prefixes
    for name in dir(v):
        constant = getattr(v, name)
        if not isinstance(constant, Iri):
            continue
        if constant.value.startswith((v.CLOUDENG_NS, v.SEC_NS)):
            compact = prefixes.compact(constant)
            assert compact is not None, constant
            assert prefixes.expand(compact) == constant


def test_coverage_agrees_with_generated_queries(model_graph):
    """Covered(engine, standard) iff at least one generated BGP+EXISTS query
    returns rows, for every policy standard on both bundled engines."""
    for engine in (SECURE, HYBRID):
        report = coverage(model_graph, engine)
        for status in report.statuses:
            hit = any(
                evaluate(parse_query(text), model_graph).rows
                for text in coverage_queries(engine, status.standard)
            )
            assert hit == (status.state is CoverageState.COVERED), status.standard


@pytest.mark.parametrize("value", ["urn:x:eng\\u0041", "urn:x:a\\b"], ids=["escape", "backslash"])
def test_generated_queries_read_back_the_same_iris(value):
    engine, standard = Iri(value), Iri(value + "#std")
    for text in coverage_queries(engine, standard):
        where = parse_query(text).where
        assert where.triples[0].subject == engine
        assert where.filters[0].inner.triples[-1].object == standard


@pytest.mark.parametrize("engines, depth", [(60, 0), (30, 6)])
def test_asserted_graph_reports_like_its_closure(fixtures_dir, engines, depth):
    """The closure adds only rdf:type and rdfs:subClassOf triples, which
    coverage and hints never read, so every engine of a generated model has
    the same report and hints on the asserted graph as on its closure."""
    fixture = (fixtures_dir / "cloudengine.ttl").read_text(encoding="utf-8")
    model = gen.make_model(random.Random(depth), fixture, gen.read_turtle(fixture), engines,
                           depth=depth)
    doc = parse_turtle(model.text)
    closure = materialize(doc.graph).graph
    assert len(closure) > len(doc.graph)
    for engine in [SECURE, HYBRID, *map(Iri, model.engines)]:
        report = coverage(doc.graph, engine)
        assert report == coverage(closure, engine)
        assert (remediation_hints(report, doc.graph, doc.prefixes)
                == remediation_hints(report, closure, doc.prefixes))
