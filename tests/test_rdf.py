"""Term model, graph set semantics, pattern matching and isomorphism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudaudit.rdf import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    PrefixMap,
    Triple,
    TriplePattern,
    UnknownPrefixError,
    Var,
    isomorphic,
)
from cloudaudit.vocab import RDF_TYPE

from oracles import CLOUDENG, ISO, SEC, ce, scan_match, sec


IRIS = [Iri(f"http://terms.test/{name}") for name in "abcdefg"]
BNODES = [BlankNode(f"n{i}") for i in range(3)]

subjects_st = st.sampled_from(IRIS + BNODES)
predicates_st = st.sampled_from(IRIS)
objects_st = st.one_of(
    st.sampled_from(IRIS + BNODES),
    st.builds(Literal, st.text(alphabet="xyz", max_size=2)),
)
triples_st = st.builds(Triple, subjects_st, predicates_st, objects_st)


def pattern_slot(concrete_st):
    return st.one_of(concrete_st, st.sampled_from([Var("a"), Var("b")]))


patterns_st = st.builds(
    TriplePattern,
    pattern_slot(subjects_st),
    pattern_slot(predicates_st),
    pattern_slot(objects_st),
)


class TestTerms:
    def test_iri_equality_is_byte_identity(self):
        assert Iri("http://x/a") == Iri("http://x/a")
        assert Iri("http://x/A") != Iri("http://x/a")

    @pytest.mark.parametrize(
        "bad",
        ["", "http://x/ a", "http://x/<", 'http://x/"', "a>b", "x\u00a0", "x\u001cy>", "\u2003"],
    )
    def test_invalid_iri_rejected(self, bad):
        with pytest.raises(ValueError) as info:
            Iri(bad)
        if bad:
            first = next(c for c in bad if c.isspace() or c in '<>"')
            assert str(info.value) == f"IRI contains forbidden character {first!r}: {bad!r}"

    def test_iri_accepts_other_characters(self):
        assert Iri("urn:x:\u200b\u00e9{}|^`\\").value == "urn:x:\u200b\u00e9{}|^`\\"

    def test_literal_equality_includes_datatype(self):
        assert Literal("1") == Literal("1")
        assert Literal("1") != Literal("1", Iri("http://www.w3.org/2001/XMLSchema#integer"))

    def test_triple_wellformedness(self):
        with pytest.raises(TypeError):
            Triple(Literal("x"), IRIS[0], IRIS[1])
        with pytest.raises(TypeError):
            Triple(IRIS[0], BlankNode("b"), IRIS[1])

    def test_var_requires_name(self):
        with pytest.raises(ValueError):
            Var("")


class TestGraph:
    def test_double_insert_is_idempotent(self):
        g = Graph()
        t = Triple(ce("OCCI"), RDF_TYPE, ce("ControlInterface"))
        assert g.add(t) is True
        assert g.add(t) is False
        assert len(g) == 1

    def test_single_insert_from_empty(self):
        g = Graph()
        g.add(Triple(Iri("https://aws.amazon.com/architecture/well-architected#S3"),
                     sec("encryptsData"), sec("AES256")))
        assert len(g) == 1

    @given(st.lists(triples_st, max_size=30))
    def test_size_matches_list_dedup_oracle(self, triples):
        g = Graph()
        dedup = []
        for t in triples:
            g.add(t)
            if t not in dedup:
                dedup.append(t)
        assert len(g) == len(dedup)
        assert set(g) == set(dedup)

    @given(st.lists(triples_st, max_size=30), patterns_st)
    def test_match_equals_linear_scan(self, triples, pattern):
        g = Graph(triples)
        assert g.match(pattern) == scan_match(g, pattern)

    def test_match_on_empty_graph(self):
        assert Graph().match(TriplePattern(Var("s"), Var("p"), Var("o"))) == []

    def test_match_is_sorted_and_deterministic(self):
        g = Graph()
        for name in ("c", "a", "b"):
            g.add(Triple(Iri(f"http://terms.test/{name}"), RDF_TYPE, ce("Interface")))
        hits = g.match(TriplePattern(Var("s"), RDF_TYPE, ce("Interface")))
        assert [t.subject.value for t in hits] == [
            "http://terms.test/a", "http://terms.test/b", "http://terms.test/c",
        ]

    def test_repeated_variable_must_unify(self):
        g = Graph([
            Triple(IRIS[0], IRIS[1], IRIS[0]),
            Triple(IRIS[0], IRIS[1], IRIS[2]),
        ])
        hits = g.match(TriplePattern(Var("x"), IRIS[1], Var("x")))
        assert hits == [Triple(IRIS[0], IRIS[1], IRIS[0])]

    @given(st.lists(triples_st, max_size=40))
    def test_index_consistency_after_interleaved_inserts(self, triples):
        g = Graph()
        for t in triples:
            g.add(t)
        stored = set(g)
        for index in (g._by_subject, g._by_predicate, g._by_object):
            indexed = set().union(*index.values()) if index else set()
            assert indexed == stored
        for t in stored:
            assert t in g._by_subject[t.subject]
            assert t in g._by_predicate[t.predicate]
            assert t in g._by_object[t.object]

    def test_data_interface_instances_in_model(self, model_doc):
        hits = model_doc.graph.match(TriplePattern(Var("s"), RDF_TYPE, ce("DataInterface")))
        assert {t.subject.value for t in hits} == {
            "https://aws.amazon.com/architecture/well-architected#S3",
            CLOUDENG + "Swift",
        }


class TestPrefixMap:
    def test_expand_examples(self):
        pm = PrefixMap({"sec": SEC, "iso27001": ISO})
        assert pm.expand("sec:RBAC") == Iri("http://example.org/security#RBAC")
        assert pm.expand("iso27001:A.9.4.1") == Iri(
            "https://www.iso.org/standard/27001#A.9.4.1"
        )

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefixError):
            PrefixMap().expand("nosuch:x")

    def test_rebinding_is_last_write_wins(self):
        pm = PrefixMap()
        pm.bind("p", "http://one.test/")
        pm.bind("p", "http://two.test/")
        assert pm.expand("p:x") == Iri("http://two.test/x")

    def test_compact_prefers_longest_namespace(self):
        pm = PrefixMap({"short": "http://x.test/", "long": "http://x.test/deep#"})
        assert pm.compact(Iri("http://x.test/deep#leaf")) == "long:leaf"

    def test_render_terms(self):
        pm = PrefixMap({"p": "http://x.test/"})
        assert pm.render(Iri("http://x.test/a")) == "p:a"
        assert pm.render(Iri("http://x.test/a/b")) == "<http://x.test/a/b>"
        assert pm.render(Literal("v")) == '"v"'
        assert pm.render(BlankNode("b1")) == "_:b1"

    def test_compact_refuses_unwritable_locals(self):
        pm = PrefixMap({"p": "http://x.test/"})
        assert pm.compact(Iri("http://x.test/a/b")) is None
        assert pm.compact(Iri("http://x.test/trailing.")) is None

    def test_expand_compact_round_trip_over_model(self, model_doc):
        pm = model_doc.prefixes
        seen = 0
        for t in model_doc.graph:
            for term in (t.subject, t.predicate, t.object):
                if not isinstance(term, Iri):
                    continue
                compact = pm.compact(term)
                if compact is not None:
                    assert pm.expand(compact) == term
                    seen += 1
        assert seen > 0


class TestIsomorphism:
    def test_graph_vs_itself(self, model_doc):
        assert isomorphic(model_doc.graph, model_doc.graph)

    def test_model_with_relabeled_blank_node(self, model_doc):
        relabeled = Graph()
        for t in model_doc.graph:
            s = BlankNode("renamed") if isinstance(t.subject, BlankNode) else t.subject
            o = BlankNode("renamed") if isinstance(t.object, BlankNode) else t.object
            relabeled.add(Triple(s, t.predicate, o))
        assert isomorphic(model_doc.graph, relabeled)

    def test_missing_triple_breaks_isomorphism(self, model_doc):
        smaller = Graph()
        skipped = False
        for t in model_doc.graph:
            if not skipped and isinstance(t.subject, Iri):
                skipped = True
                continue
            smaller.add(t)
        assert not isomorphic(model_doc.graph, smaller)

    def test_relabeling_must_be_bijective(self):
        p = IRIS[0]
        a = Graph([
            Triple(BlankNode("x"), p, Literal("1")),
            Triple(BlankNode("y"), p, Literal("2")),
        ])
        b = Graph([
            Triple(BlankNode("z"), p, Literal("1")),
            Triple(BlankNode("z"), p, Literal("2")),
        ])
        assert not isomorphic(a, b)

    def test_cross_wired_bnodes(self):
        p, q = IRIS[0], IRIS[1]
        a = Graph([
            Triple(BlankNode("m"), p, Literal("1")),
            Triple(BlankNode("n"), q, Literal("2")),
        ])
        b = Graph([
            Triple(BlankNode("m"), q, Literal("2")),
            Triple(BlankNode("n"), p, Literal("1")),
        ])
        assert isomorphic(a, b)
