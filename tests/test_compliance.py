"""Coverage traversal, gap detection, evidence replay and the query cross-check."""

import json
import random

import pytest

from cloudaudit.compliance import (
    ComplianceReport,
    CoverageEvidence,
    CoverageState,
    EvidenceKind,
    NoPolicyError,
    coverage,
    coverage_queries,
    remediation_hints,
)
from cloudaudit.rdf import XSD_INTEGER, BlankNode, Graph, Iri, Literal, PrefixMap, Triple
from cloudaudit.reasoner import materialize
from cloudaudit.sparql import evaluate, parse_query
from cloudaudit.turtle import parse_turtle
from cloudaudit.vocab import (
    ATTACHMENT_PROPERTIES,
    COMPLIES_WITH,
    HAS_DATA_INTERFACE,
    HAS_SECURITY_POLICY,
    IMPLEMENTS_STANDARD,
    MECHANISM_PROPERTIES,
    RDF_TYPE,
    RDFS_LABEL,
)

from oracles import AWS, ISO, LINE_BREAKS, ce, gen, scan_coverage, scan_hints, sec

SECURE = ce("SecureCloudEngine")
HYBRID = ce("HybridCompliantEngine")
SECURITY_PILLAR = Iri(AWS + "SecurityPillar")
EVENT_LOGGING = Iri(ISO + "A.12.4.1")


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

    @pytest.mark.parametrize(
        "mechanism, linking", [(sec("RBAC"), None), (None, MECHANISM_PROPERTIES[0])],
        ids=["mechanism only", "linking property only"],
    )
    def test_evidence_names_a_hop_exactly_when_via_a_mechanism(self, mechanism, linking):
        direct = CoverageEvidence(EVENT_LOGGING, ce("OCCI"))
        assert direct.via is EvidenceKind.DIRECT
        mediated = CoverageEvidence(EVENT_LOGGING, ce("OCCI"), sec("RBAC"), MECHANISM_PROPERTIES[0])
        assert mediated.via is EvidenceKind.MECHANISM
        with pytest.raises(ValueError, match="^mechanism evidence requires mechanism and "
                                             "linking property$"):
            CoverageEvidence(EVENT_LOGGING, ce("OCCI"), mechanism, linking)

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
        # the engine's attached interfaces, cloudeng:S3 among them though it declares nothing
        interfaces = [ce("OCCI"), ce("S3"), ce("SSOService"), ce("Swift"), ce("Syslog")]
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
        assert remediation_hints(report, model_graph) == []

    def test_each_iri_implementer_is_named_once_in_value_order(self):
        """A graph built from repeated inserts holds each triple once, so a
        hint names each IRI implementer once, by IRI value (`ex:a` before
        `ex:a-b`, which `term_sort_key` puts the other way round), and no
        blank one; with no prefix map an IRI is written <iri>."""
        engine, policy, standard = Iri(EX + "e"), BlankNode("p"), Iri(EX + "std")
        implementers = [Iri(EX + "b"), BlankNode("z"), Iri(EX + "a-b"), Iri(EX + "c/d"),
                        BlankNode("a"), Iri(EX + "a")]
        triples = [Triple(engine, HAS_SECURITY_POLICY, policy),
                   Triple(policy, COMPLIES_WITH, standard)]
        triples += [Triple(node, IMPLEMENTS_STANDARD, standard) for node in implementers]
        graph = Graph(triples + triples[::-1])
        for t in triples:
            assert not graph.add(t)
        report = coverage(graph, engine)
        prefixes = PrefixMap({"ex": EX})
        hints = remediation_hints(report, graph, prefixes)
        assert hints == [f"ex:std: implemented in the model by ex:a, ex:a-b, ex:b, <{EX}c/d>; "
                         "attach one of them to ex:e"]
        assert hints == scan_hints(report, graph, prefixes)
        assert remediation_hints(report, graph) == [
            f"<{EX}std>: implemented in the model by <{EX}a>, <{EX}a-b>, <{EX}b>, <{EX}c/d>; "
            f"attach one of them to <{EX}e>"
        ]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_label_cannot_forge_a_report_line(brk):
    """A label's line break is escaped in the text report, which so has as
    many lines as with a plain label; JSON keeps the label as it is."""
    prefixes = PrefixMap({"ex": EX})

    def report(label):
        engine, policy, s1, s2 = Iri(EX + "E"), Iri(EX + "P"), Iri(EX + "S1"), Iri(EX + "S2")
        return coverage(Graph([
            Triple(engine, HAS_SECURITY_POLICY, policy),
            Triple(policy, COMPLIES_WITH, s1),
            Triple(policy, COMPLIES_WITH, s2),
            Triple(s1, RDFS_LABEL, Literal(label)),
        ]), engine)

    forged = report(f"Encryption{brk}COVERED  ex:S2  (forged)")
    plain = report("Encryption COVERED  ex:S2  (forged)")
    assert len(forged.to_text(prefixes).splitlines()) == len(plain.to_text(prefixes).splitlines())
    assert "COVERED" not in [line[:7] for line in forged.to_text(prefixes).splitlines()]
    assert forged.to_json_dict()["standards"][0]["label"] == f"Encryption{brk}COVERED  ex:S2  (forged)"


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


EX = "http://example.test/"
# local names sharing a prefix: by IRI value a < a-b < a/b, but by
# term_sort_key (`<...>`, and '-' < '/' < '>') a-b < a/b < a
SHARED_SUFFIXES = ("", "-b", "/b")


def random_coverage_graph(rng: random.Random) -> tuple[Graph, list[Iri]]:
    """A graph of engines, policies, interfaces, mechanisms and standards in
    which roles overlap, and the engines to audit.

    Every graph has an engine that is also an interface, interfaces shared
    between engines, a mechanism under two properties of one interface, a
    standard covered both directly and through that mechanism, an engine
    with two policies, a literal object on every property, several labels,
    IRIs that share a prefix, and blank-node policies, interfaces and
    mechanisms whose labels sort apart from their numbers (b1 < b10 < b2);
    its triples are inserted in shuffled order."""
    def pool(role):
        return ([Iri(f"{EX}{role}{suffix}") for suffix in SHARED_SUFFIXES]
                + [BlankNode(f"{role}{n}") for n in (1, 10, 2)])

    engines, policies, mechanisms = pool("e")[:3], pool("p"), pool("m")
    standards = pool("s")[:3] + [Iri(EX + "t")]
    interfaces = pool("i") + engines[:1]
    mechanisms.append(interfaces[0])
    triples = []

    def some(nodes, most):
        return rng.sample(nodes, rng.randint(0, min(most, len(nodes))))

    for engine in engines:
        for policy in some(policies, 2):
            triples.append((engine, HAS_SECURITY_POLICY, policy))
        for interface in some(interfaces, 3):
            for prop in rng.sample(ATTACHMENT_PROPERTIES, rng.choice((1, 1, 2))):
                triples.append((engine, prop, interface))
    for policy in policies:
        triples += [(policy, COMPLIES_WITH, s) for s in some(standards, 3)]
    for node in interfaces + mechanisms:
        triples += [(node, IMPLEMENTS_STANDARD, s) for s in some(standards, 2)]
    for interface in interfaces:
        for mechanism in some(mechanisms, 3):
            for prop in rng.sample(MECHANISM_PROPERTIES, rng.choice((1, 1, 2))):
                triples.append((interface, prop, mechanism))
    for standard in standards:
        for lexical in some(["b", "a", "A", "a b"], 3):
            triples.append((standard, RDFS_LABEL, Literal(lexical)))
        if rng.random() < 0.3:
            triples.append((standard, RDFS_LABEL, Literal("7", XSD_INTEGER)))
        if rng.random() < 0.3:
            triples.append((standard, RDFS_LABEL, Iri(EX + "label")))
    subjects = engines + policies + interfaces + mechanisms + standards
    for prop in (HAS_SECURITY_POLICY, COMPLIES_WITH, IMPLEMENTS_STANDARD, RDFS_LABEL,
                 *ATTACHMENT_PROPERTIES, *MECHANISM_PROPERTIES):
        triples += [(node, prop, Literal(EX + "s")) for node in rng.sample(subjects, 2)]
    interface, mechanism, standard = rng.choice(interfaces), rng.choice(mechanisms), rng.choice(standards)
    triples += [
        (engines[0], HAS_SECURITY_POLICY, policies[0]),
        (engines[0], HAS_SECURITY_POLICY, policies[1]),
        (policies[0], COMPLIES_WITH, standard),
        (engines[0], ATTACHMENT_PROPERTIES[0], interface),
        (engines[1], ATTACHMENT_PROPERTIES[1], interface),
        (interface, IMPLEMENTS_STANDARD, standard),
        (interface, MECHANISM_PROPERTIES[0], mechanism),
        (interface, MECHANISM_PROPERTIES[2], mechanism),
        (mechanism, IMPLEMENTS_STANDARD, standard),
    ]
    rng.shuffle(triples)
    return Graph(Triple(*t) for t in triples), engines + [Iri(EX + "ghost")]


def test_coverage_and_hints_equal_the_scan_oracle():
    """Full reports and hints equal the standard-by-standard scan's on
    random graphs; the cases each graph is built to hold show up."""
    prefixes = PrefixMap({"ex": EX})
    seen = set()
    for seed in range(150):
        graph, engines = random_coverage_graph(random.Random(seed))
        for engine in engines:
            expected = scan_coverage(graph, engine)
            if expected is None:
                with pytest.raises(NoPolicyError):
                    coverage(graph, engine)
                continue
            report = coverage(graph, engine)
            assert report == expected, (seed, engine)
            hints = remediation_hints(report, graph, prefixes)
            assert hints == scan_hints(report, graph, prefixes)
            if any("only by blank nodes" in hint for hint in hints):
                seen.add("blank implementers")
            seen.add("warning" if report.warnings else "one policy")
            if isinstance(report.policy, BlankNode):
                seen.add("blank policy")
            for status in report.statuses:
                kinds = {e.via for e in status.evidence}
                seen.add("both kinds" if len(kinds) == 2 else status.state)
                links = [(e.interface, e.mechanism) for e in status.evidence if e.mechanism]
                if len(links) > len(set(links)):
                    seen.add("two properties")
                for e in status.evidence:
                    for node in (e.interface, e.mechanism):
                        if isinstance(node, BlankNode):
                            seen.add("blank evidence")
    assert seen >= {"warning", "one policy", "both kinds", "two properties", "blank policy",
                    "blank evidence", "blank implementers", CoverageState.GAP,
                    CoverageState.COVERED}


def test_coverage_agrees_with_generated_queries_on_random_graphs():
    """Blank-node interfaces and mechanisms cover a standard for the query
    cross-check, which binds ?i and ?m to any node, and so for coverage."""
    for seed in range(30):
        graph, engines = random_coverage_graph(random.Random(seed))
        for engine in engines:
            if scan_coverage(graph, engine) is None:
                continue
            for status in coverage(graph, engine).statuses:
                hit = any(evaluate(parse_query(text), graph).rows
                          for text in coverage_queries(engine, status.standard))
                assert hit == (status.state is CoverageState.COVERED), (seed, engine, status)


def interface_grid(k: int, m: int) -> tuple[Graph, set]:
    """An engine with k interfaces of m mechanisms each, all of them also
    linking one shared mechanism under two properties, each mechanism
    implementing one of m declared, labelled standards; and the nodes that
    coverage visits: every subject of the graph."""
    engine, policy, shared = Iri(EX + "e"), Iri(EX + "p"), Iri(EX + "shared")
    standards = [Iri(f"{EX}s{j}") for j in range(m)]
    triples = [(engine, HAS_SECURITY_POLICY, policy), (shared, IMPLEMENTS_STANDARD, standards[0])]
    triples += [(policy, COMPLIES_WITH, s) for s in standards]
    triples += [(s, RDFS_LABEL, Literal(f"standard {j}")) for j, s in enumerate(standards)]
    for i in range(k):
        interface = Iri(f"{EX}i{i}")
        triples += [(engine, ATTACHMENT_PROPERTIES[i % 4], interface),
                    (interface, MECHANISM_PROPERTIES[0], shared),
                    (interface, MECHANISM_PROPERTIES[1], shared)]
        for j in range(m):
            mechanism = Iri(f"{EX}i{i}m{j}")
            triples += [(interface, MECHANISM_PROPERTIES[j % 5], mechanism),
                        (mechanism, IMPLEMENTS_STANDARD, standards[j])]
    graph = Graph(Triple(*t) for t in triples)
    return graph, {t.subject for t in graph}


def counted_coverage(graph: Graph) -> tuple[ComplianceReport, list]:
    """The report of engine ex:e, and the subjects coverage read through
    `Graph.about` in read order; any other lookup fails meanwhile."""
    reads = []
    about = graph.about

    def counted(subject):
        reads.append(subject)
        return about(subject)

    def refused(*args):
        raise AssertionError("coverage made a lookup other than Graph.about")

    graph.about = counted
    graph.objects = graph.subjects = graph.triples = graph.match = refused
    try:
        return coverage(graph, Iri(EX + "e")), reads
    finally:
        for name in ("about", "objects", "subjects", "triples", "match"):
            delattr(graph, name)


@pytest.mark.parametrize("n", [3, 6])
def test_coverage_reads_each_visited_node_once(n):
    """Work counted, not timed: at n and 2n, coverage makes one subject read
    per visited node, which together hold every triple once, and no other
    lookup."""
    graph, visited = interface_grid(n, n)
    report, reads = counted_coverage(graph)
    assert report.gap_count == 0 and len(report.statuses) == n
    assert sorted(reads) == sorted(visited)
    assert len(visited) == 3 + n + n * n + n
    assert sum(len(graph.about(node)) for node in reads) == len(graph)


def test_coverage_reads_each_visited_node_once_in_both_roles():
    """Interface ex:a links mechanism ex:b, and ex:b, attached too and
    sorting after ex:a, links its own mechanism ex:c: ex:b is read once,
    and both of its roles give their evidence."""
    e, p, a, b, c = (Iri(EX + name) for name in ("e", "p", "a", "b", "c"))
    sa, sb, sc = (Iri(EX + name) for name in ("sa", "sb", "sc"))
    graph = Graph(Triple(*t) for t in [
        (e, HAS_SECURITY_POLICY, p), (p, COMPLIES_WITH, sa), (p, COMPLIES_WITH, sb),
        (p, COMPLIES_WITH, sc), (e, ATTACHMENT_PROPERTIES[0], a), (e, ATTACHMENT_PROPERTIES[1], b),
        (a, MECHANISM_PROPERTIES[0], b), (b, MECHANISM_PROPERTIES[1], c),
        (a, IMPLEMENTS_STANDARD, sa), (b, IMPLEMENTS_STANDARD, sb), (c, IMPLEMENTS_STANDARD, sc),
    ])
    report, reads = counted_coverage(graph)
    evidence = {s.standard: s.evidence for s in report.statuses}
    assert evidence == {
        sa: (CoverageEvidence(sa, a),),
        sb: (CoverageEvidence(sb, a, b, MECHANISM_PROPERTIES[0]), CoverageEvidence(sb, b)),
        sc: (CoverageEvidence(sc, b, c, MECHANISM_PROPERTIES[1]),),
    }
    assert sorted(reads) == sorted([e, p, a, b, c, sa, sb, sc])
