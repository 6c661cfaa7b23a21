"""Term model, graph set semantics, pattern matching, and the isomorphism
oracle the round-trip tests use."""

import os
import subprocess
import sys
import threading
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import cloudaudit
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
    XSD_INTEGER,
    one_line,
    term_sort_key,
)
from cloudaudit.reasoner import materialize
from cloudaudit.openstack import ingest, parse_cli_json
from cloudaudit.turtle import parse_turtle, serialize_turtle
from cloudaudit.vocab import RDF_TYPE, RDFS_SUBCLASS_OF

from oracles import (CLOUDENG, ISO, LINE_BREAKS, SEC, ce, isomorphic, scan_compact,
                     scan_match, sec)


IRIS = [Iri(f"http://terms.test/{name}") for name in "abcdefg"]
BNODES = [BlankNode(f"n{i}") for i in range(3)]

subjects_st = st.sampled_from(IRIS + BNODES)
predicates_st = st.sampled_from(IRIS)
objects_st = st.one_of(
    st.sampled_from(IRIS + BNODES),
    st.builds(Literal, st.text(alphabet="xyz", max_size=2)),
)
triples_st = st.builds(Triple, subjects_st, predicates_st, objects_st)
# triples the reasoner's rules read, among others
class_triples_st = st.builds(
    Triple, subjects_st, st.sampled_from([RDF_TYPE, RDFS_SUBCLASS_OF, IRIS[0]]), objects_st
)

# terms of every kind whose strings collide on purpose
COLLIDING = ["x", "_:x", "http://x/a"]
colliding_st = st.one_of(
    st.builds(Iri, st.sampled_from(COLLIDING)),
    st.builds(BlankNode, st.sampled_from(COLLIDING)),
    st.builds(Literal, st.sampled_from(COLLIDING)),
    st.builds(Literal, st.sampled_from(COLLIDING), st.builds(Iri, st.sampled_from(COLLIDING))),
)


def assert_lookups_equal_scan(g: Graph, pattern: TriplePattern) -> None:
    """Every lookup of `g` the pattern's given terms allow answers as a
    linear scan does, in the same order."""
    assert g.match(pattern) == scan_match(g, pattern)
    # the lookup under match, with a fresh variable in every free position
    given = [None if isinstance(slot, Var) else slot
             for slot in (pattern.subject, pattern.predicate, pattern.object)]
    fresh = [Var(f"v{k}") if term is None else term for k, term in enumerate(given)]
    assert list(g.triples(*given)) == scan_match(g, TriplePattern(*fresh))
    s, p, o = given
    if s is not None and p is not None:
        scanned = scan_match(g, TriplePattern(s, p, Var("o")))
        assert g.objects(s, p) == [t.object for t in scanned]
    if p is not None and o is not None:
        scanned = scan_match(g, TriplePattern(Var("s"), p, o))
        assert g.subjects(p, o) == [t.subject for t in scanned]
    for position, term in enumerate(given):
        if term is not None:
            alone = [Var(f"v{k}") for k in range(3)]
            alone[position] = term
            assert g.pool_size(position, term) == len(scan_match(g, TriplePattern(*alone)))


def index_pools(g: Graph) -> list:
    """The three indexes of `g`, built by a lookup at each position, as
    (term, triples) lists in their order."""
    for position in range(3):
        g.pool_size(position)
    return [[(term, list(pool)) for term, pool in index.items()] for index in g._index]


def assert_pools_equal_scan(g: Graph) -> None:
    """Each pool of each index, built by a lookup, is the list a scan finds:
    the same triples, in insertion order, none twice."""
    for position in range(3):
        g.pool_size(position)
        index = g._index[position]
        assert list(index) == list(dict.fromkeys(t[position] for t in g))
        for key, pool in index.items():
            assert type(pool) is list
            assert pool == [t for t in g if t[position] == key]


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
        integer = Iri("http://www.w3.org/2001/XMLSchema#integer")
        assert Literal("1") == Literal("1")
        assert Literal("1") != Literal("1", integer)
        assert len({Literal("1", integer), Literal("1")}) == 2
        assert Literal("1", Iri(integer.value)) == Literal("1", integer)

    def test_literal_repr_names_a_datatype_other_than_string(self):
        assert repr(Literal("1")) == "Literal('1')"
        assert repr(Literal("1", XSD_INTEGER)) == f"Literal('1', {XSD_INTEGER.value!r})"

    def test_empty_blank_node_label_rejected(self):
        with pytest.raises(ValueError, match="^blank node label must be non-empty$"):
            BlankNode("")

    def test_triple_wellformedness(self):
        with pytest.raises(TypeError):
            Triple(Literal("x"), IRIS[0], IRIS[1])
        with pytest.raises(TypeError):
            Triple(IRIS[0], BlankNode("b"), IRIS[1])

    @pytest.mark.parametrize(
        "kind, args, message",
        [
            (Literal, ("x", "http://www.w3.org/2001/XMLSchema#string"), "datatype must be an IRI"),
            (Literal, ("x", BlankNode("b")), "datatype must be an IRI"),
            (Literal, (5,), "lexical form must be a string"),
            (Literal, (None, Iri("http://x/t")), "lexical form must be a string"),
            (BlankNode, (5,), "label must be a string"),
            (BlankNode, (Iri("x"),), "label must be a string"),
            (Triple, (Iri("http://x/s"), Iri("http://x/p"), "text"), "object must be a term"),
        ],
        ids=["str-datatype", "bnode-datatype", "int-lexical", "none-lexical", "int-label",
             "iri-label", "str-object"],
    )
    def test_malformed_term_parts_raise_type_error(self, kind, args, message):
        with pytest.raises(TypeError, match=message):
            kind(*args)

    @given(st.lists(st.one_of(subjects_st, objects_st), min_size=2, max_size=2))
    def test_equal_terms_hash_equal(self, pair):
        a, b = pair
        if isinstance(a, Iri):
            rebuilt = Iri(a.value)
        elif isinstance(a, BlankNode):
            rebuilt = BlankNode(a.label)
        else:
            rebuilt = Literal(a.lexical, a.datatype)
        assert rebuilt == a and hash(rebuilt) == hash(a)
        if a == b:
            assert hash(a) == hash(b)

    @given(triples_st)
    def test_equal_triples_hash_equal(self, t):
        rebuilt = Triple(t.subject, t.predicate, t.object)
        assert rebuilt == t and hash(rebuilt) == hash(t)
        assert rebuilt in {t} and t in Graph([rebuilt])

    def test_terms_of_different_kinds_are_unequal(self):
        assert Iri("x") != BlankNode("x") and BlankNode("x") != Iri("x")
        assert Literal("x") != Iri("x") and Literal("x") != BlankNode("x")
        assert len({Iri("x"), BlankNode("x"), Literal("x")}) == 3
        assert Iri("x") != "x"
        assert Triple(Iri("s"), Iri("p"), Iri("x")) != Triple(Iri("s"), Iri("p"), BlankNode("x"))

    @given(st.lists(colliding_st, min_size=2, max_size=8))
    def test_terms_are_equal_iff_kind_and_sort_key_are(self, terms):
        def identity(term):
            return type(term), term_sort_key(term)

        for a in terms:
            for b in terms:
                assert (a == b) == (identity(a) == identity(b)), (a, b)
                if a == b:
                    assert hash(a) == hash(b)
        keyed = {term: identity(term) for term in terms}
        assert len(keyed) == len({identity(term) for term in terms})
        assert all(identity(term) == key for term, key in keyed.items())

    @given(colliding_st, colliding_st, colliding_st)
    def test_a_triple_never_equals_a_term_or_pattern(self, s, p, o):
        s = s if isinstance(s, (Iri, BlankNode)) else Iri("http://x/s")
        p = p if isinstance(p, Iri) else Iri("http://x/p")
        t = Triple(s, p, o)
        for other in (s, p, o, TriplePattern(s, p, o)):
            assert t != other and other != t
        assert len({t, s, p, o, TriplePattern(s, p, o)}) == len({s, p, o}) + 2

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
        assert_lookups_equal_scan(Graph(triples), pattern)

    def test_match_on_empty_graph(self):
        assert Graph().match(TriplePattern(Var("s"), Var("p"), Var("o"))) == []

    def test_match_follows_insertion_order(self):
        g = Graph()
        for name in ("c", "a", "b"):
            g.add(Triple(Iri(f"http://terms.test/{name}"), RDF_TYPE, ce("Interface")))
        hits = g.match(TriplePattern(Var("s"), RDF_TYPE, ce("Interface")))
        assert [t.subject.value for t in hits] == [
            "http://terms.test/c", "http://terms.test/a", "http://terms.test/b",
        ]

    def test_repeated_variable_must_unify(self):
        g = Graph([
            Triple(IRIS[0], IRIS[1], IRIS[0]),
            Triple(IRIS[0], IRIS[1], IRIS[2]),
        ])
        hits = g.match(TriplePattern(Var("x"), IRIS[1], Var("x")))
        assert hits == [Triple(IRIS[0], IRIS[1], IRIS[0])]

    @given(st.lists(st.one_of(triples_st, st.lists(triples_st, max_size=8)), max_size=20))
    def test_index_consistency_after_interleaved_inserts(self, writes):
        """A write after lookups drops every index iff it adds a triple; the
        next lookups build what a fresh graph of the same triples would."""
        g = Graph()
        for write in writes:
            built = index_pools(g)
            before = len(g)
            if isinstance(write, Triple):
                g.add(write)
            else:
                g.update(write)
            assert (g._index is None) is (len(g) > before)
            if g._index is not None:
                assert index_pools(g) == built
        assert index_pools(g) == index_pools(Graph(list(g)))

    # static: pytest runs each parameter on its own instance, and Hypothesis
    # fails a @given method called from two (its differing_executors check)
    @staticmethod
    @pytest.mark.parametrize("indexed", [False, True], ids=["unindexed", "indexed"])
    @given(batches=st.lists(st.lists(triples_st, max_size=8), max_size=6))
    def test_update_inserts_as_add_does(indexed, batches):
        """Batches with duplicates within and across them: the same order,
        the same counts, and indexes dropped alike."""
        updated, added = Graph(), Graph()
        for batch in batches:
            if indexed:
                index_pools(updated)
                index_pools(added)
            new = updated.update(batch)
            assert new == sum(added.add(t) for t in batch)
            assert list(updated) == list(added)
            assert (updated._index is None) is (added._index is None) is (new > 0 or not indexed)
        assert index_pools(updated) == index_pools(added) == index_pools(Graph(list(added)))

    @given(st.lists(st.one_of(triples_st, patterns_st), max_size=40))
    def test_lookups_equal_scan_as_inserts_and_lookups_interleave(self, steps):
        g = Graph()
        for step in steps:
            if isinstance(step, Triple):
                g.add(step)
            else:
                assert_lookups_equal_scan(g, step)

    def test_concurrent_first_lookups_see_complete_indexes(self):
        """Readers racing to build the pools of a fresh graph each answer
        as a scan does; a reader that saw half-built pools would not."""
        triples = [Triple(IRIS[i % 7], IRIS[i % 3], Literal(str(i))) for i in range(3000)]
        pattern = TriplePattern(IRIS[4], IRIS[1], Var("o"))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                g = Graph(triples)
                want = scan_match(g, pattern)
                answers = []
                readers = [threading.Thread(target=lambda: answers.append(g.match(pattern)))
                           for _ in range(4)]
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(timeout=30)
                    assert not reader.is_alive()
                assert answers == [want] * 4
        finally:
            sys.setswitchinterval(switch)

    def test_copy_has_independent_indexes(self):
        t1 = Triple(IRIS[0], IRIS[1], IRIS[2])
        t2 = Triple(IRIS[0], IRIS[1], IRIS[3])
        t3 = Triple(IRIS[4], IRIS[1], IRIS[2])
        for look_first in (False, True):
            original = Graph([t1])
            if look_first:
                assert original.objects(IRIS[0], IRIS[1]) == [IRIS[2]]
            clone = original.copy()
            # a copy starts unindexed, whether or not its original was indexed
            assert clone._index is None and (original._index is None) != look_first
            clone.add(t2)
            original.add(t3)
            assert list(original) == [t1, t3] and list(clone) == [t1, t2]
            pattern = TriplePattern(IRIS[0], Var("p"), Var("o"))
            assert original.match(pattern) == [t1]
            assert clone.match(pattern) == [t1, t2]
            assert original.subjects(IRIS[1], IRIS[2]) == [IRIS[0], IRIS[4]]
            assert clone.subjects(IRIS[1], IRIS[2]) == [IRIS[0]]
            for graph in (original, clone):
                assert_lookups_equal_scan(graph, TriplePattern(Var("s"), IRIS[1], Var("o")))

    @given(st.lists(st.one_of(class_triples_st, st.lists(class_triples_st, max_size=8)),
                    max_size=12))
    def test_pools_equal_a_scan(self, writes):
        """After each write by `add` or `update` the pools are rebuilt as a
        scan finds them; so are those of a copy, of a copy written to, and
        of the closure that `materialize` indexes."""
        g = Graph()
        for write in writes:
            if isinstance(write, Triple):
                g.add(write)
            else:
                g.update(write)
            assert_pools_equal_scan(g)
        clone = g.copy()
        assert_pools_equal_scan(clone)
        clone.update(Triple(t.object, t.predicate, t.subject) for t in g
                     if not isinstance(t.object, Literal))
        assert_pools_equal_scan(clone)
        closure = materialize(g).graph
        assert closure._index is not None and None not in closure._index
        assert_pools_equal_scan(closure)

    def test_pools_of_the_fixture_closure_equal_a_scan(self, model_doc):
        assert_pools_equal_scan(model_doc.graph.copy())
        assert_pools_equal_scan(materialize(model_doc.graph).graph)

    def test_parse_builds_no_index_and_materialize_builds_one(self, fixtures_dir):
        asserted = parse_turtle((fixtures_dir / "cloudengine.ttl").read_text(encoding="utf-8")).graph
        assert asserted._index is None
        closure = materialize(asserted).graph
        assert asserted._index is None
        by_subject, by_predicate, by_object = closure._index
        for pools in (by_subject, by_predicate, by_object):
            assert sum(map(len, pools.values())) == len(closure)

    def test_infer_builds_no_index(self, fixtures_dir, tmp_path, monkeypatch):
        """`infer` only writes the closure, so it builds no index pools."""
        from cloudaudit import cli, reasoner

        closures = []
        unindexed = reasoner._closure

        def closure(graph):
            closures.append(unindexed(graph))
            return closures[-1]

        monkeypatch.setattr(reasoner, "_closure", closure)
        model = fixtures_dir / "cloudengine.ttl"
        assert cli.main(["infer", str(model), "-o", str(tmp_path / "closure.ttl")]) == 0
        (result,) = closures
        assert result.graph._index is None
        asserted = parse_turtle(model.read_text(encoding="utf-8")).graph
        assert list(result.graph) == list(materialize(asserted).graph)

    def test_writing_builds_no_index(self, fixtures_dir):
        """The writer reads the triples once and makes no lookup."""
        base = fixtures_dir / "openstack_sample"
        docs = [
            parse_turtle((fixtures_dir / "cloudengine.ttl").read_text(encoding="utf-8")),
            ingest(
                endpoints=parse_cli_json((base / "endpoints.json").read_text(), "endpoints"),
                assignments=parse_cli_json((base / "assignments.json").read_text(), "assignments"),
            ),
        ]
        for doc in docs:
            assert serialize_turtle(doc)
            assert doc.graph._index is None

    def test_pickled_graph_answers_under_another_hash_seed(self, tmp_path):
        """Hashes of str-based terms change with the hash seed, so a graph
        unpickled in another process must rebuild them, never reuse them."""
        src = str(Path(cloudaudit.__file__).resolve().parent.parent)
        model = Path(__file__).resolve().parent.parent / "fixtures" / "cloudengine.ttl"
        pickled = tmp_path / "graph.pickle"
        indexed = tmp_path / "indexed.pickle"
        # one graph pickled before its first lookup, one after
        dump = (
            "import pickle, sys\n"
            "from cloudaudit.turtle import parse_turtle\n"
            "g = parse_turtle(open(sys.argv[1], encoding='utf-8').read()).graph\n"
            "pickle.dump(g, open(sys.argv[2], 'wb'))\n"
            "assert g.pool_size(1) > 1\n"
            "pickle.dump(g, open(sys.argv[3], 'wb'))\n"
        )
        load = (
            "import pickle, sys\n"
            "from cloudaudit.rdf import BlankNode, Literal, TriplePattern, Var\n"
            "from cloudaudit.turtle import parse_turtle\n"
            "fresh = parse_turtle(open(sys.argv[1], encoding='utf-8').read()).graph\n"
            "assert any(isinstance(t.subject, BlankNode) for t in fresh)\n"
            "assert any(isinstance(t.object, Literal) for t in fresh)\n"
            "for path, was_indexed in ((sys.argv[2], False), (sys.argv[3], True)):\n"
            "    g = pickle.load(open(path, 'rb'))\n"
            "    assert (g._index is not None) == was_indexed\n"
            "    assert len(g) == len(fresh) == 282\n"
            "    assert all(t in g for t in fresh)\n"
            "    for t in fresh:\n"
            "        for p in (TriplePattern(t.subject, Var('p'), Var('o')),\n"
            "                  TriplePattern(Var('s'), t.predicate, t.object),\n"
            "                  TriplePattern(Var('s'), Var('p'), t.object)):\n"
            "            assert g.match(p) == fresh.match(p), p\n"
            "        assert g.objects(t.subject, t.predicate) == fresh.objects(t.subject, t.predicate)\n"
            "print('ok')\n"
        )
        for seed, script in ((1, dump), (2, load)):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            proc = subprocess.run(
                [sys.executable, "-c", script, str(model), str(pickled), str(indexed)],
                capture_output=True, encoding="utf-8", env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

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

    def test_a_name_without_a_colon_is_no_prefixed_name(self):
        with pytest.raises(ValueError) as refusal:
            PrefixMap({"e": "http://e.test/"}).expand("ea")
        assert str(refusal.value) == "not a prefixed name (missing ':'): 'ea'"
        assert not isinstance(refusal.value, UnknownPrefixError)

    def test_repr_lists_bindings_in_binding_order(self):
        pm = PrefixMap({"z": "http://z.test/", "a": "http://a.test/"})
        pm.bind("z", "http://zz.test/")
        assert repr(pm) == "PrefixMap({'z': 'http://zz.test/', 'a': 'http://a.test/'})"
        assert repr(PrefixMap()) == "PrefixMap({})"

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
        assert pm.render(Literal('a"b\\c\td\ne\rf')) == '"a\\"b\\\\c\\td\\ne\\u000Df"'
        assert pm.render(BlankNode("b1")) == "_:b1"

    def test_bind_refuses_a_label_with_a_trailing_newline(self):
        with pytest.raises(ValueError, match="invalid prefix label"):
            PrefixMap().bind("p\n", "http://x.test/")

    def test_compact_refuses_unwritable_locals(self):
        pm = PrefixMap({"p": "http://x.test/"})
        assert pm.compact(Iri("http://x.test/a/b")) is None
        assert pm.compact(Iri("http://x.test/trailing.")) is None

    def test_bind_after_compact_changes_the_answer(self):
        pm = PrefixMap({"p": "http://x.test/"})
        deep = Iri("http://x.test/a/b")
        assert pm.compact(deep) is None
        pm.bind("a", "http://x.test/a/")
        assert pm.compact(deep) == "a:b"
        assert pm.compact(Iri("http://x.test/c")) == "p:c"
        pm.bind("p", "http://y.test/")
        assert pm.compact(Iri("http://x.test/c")) is None

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


# nested namespaces, one of them the start of the others' IRIs, and locals
# that are writable or not ("/", a "." first or last, "-" first)
COMPACT_NAMESPACES = ["http://x.test/", "http://x.test/a/", "http://x.test/a", "http://x.test/a#",
                      "urn:y:"]
COMPACT_LOCALS = ["", "b", "a", "a/b", "b.", ".b", "-b", "b-", "b.c", "A_9", "é", "a#b"]
compact_ops_st = st.lists(st.one_of(
    st.tuples(st.just("bind"), st.sampled_from(["p", "q", "a", "", "_z"]),
              st.sampled_from(COMPACT_NAMESPACES)),
    st.tuples(st.just("compact"), st.sampled_from(COMPACT_NAMESPACES),
              st.sampled_from(COMPACT_LOCALS)),
), max_size=30)


@given(compact_ops_st)
def test_compact_matches_a_scan_of_the_bindings(ops):
    """Binds and compacts in any order, so that a memoized answer meets a
    rebind, two labels share a namespace and namespaces nest."""
    pm, bindings = PrefixMap(), {}
    for op, first, second in ops:
        if op == "bind":
            pm.bind(first, second)
            bindings[first] = second
        else:
            iri = Iri(first + second)
            assert pm.compact(iri) == scan_compact(bindings, iri)
            assert pm.compact(iri) == scan_compact(bindings, iri)  # and when remembered


def test_compact_takes_the_smallest_label_of_a_namespace_and_falls_back_to_a_shorter_one():
    bindings = {"q": "http://x.test/a/", "p": "http://x.test/a/", "s": "http://x.test/",
                "t": "http://x.test/a."}
    pm = PrefixMap(bindings)
    for value, want in [("http://x.test/a/b", "p:b"), ("http://x.test/a/b.", None),
                        ("http://x.test/a/", "p:"), ("http://x.test/ab", "s:ab"),
                        ("http://x.test/a.-b", "s:a.-b"), ("http://x.test/a/b/c", None)]:
        assert pm.compact(Iri(value)) == scan_compact(bindings, Iri(value)) == want


@st.composite
def forests(draw) -> Graph:
    """A blank-node forest over at most five nodes from a small vocabulary:
    node i hangs below an IRI, below a node before it, or nowhere, and any
    node or IRI may carry further IRI or literal objects."""
    nodes = [BlankNode(f"b{i}") for i in range(draw(st.integers(0, 5)))]
    iris, literals = IRIS[:2], [Literal("1"), Literal("2")]
    graph = Graph()
    for i, node in enumerate(nodes):
        parent = draw(st.sampled_from([None, *iris, *nodes[:i]]))
        if parent is not None:
            graph.add(Triple(parent, draw(st.sampled_from(iris)), node))
    leaves = st.tuples(
        st.sampled_from(iris + nodes), st.sampled_from(iris), st.sampled_from(iris + literals)
    )
    graph.update(Triple(*leaf) for leaf in draw(st.lists(leaves, max_size=6)))
    return graph


def renamed(triples, rename: dict) -> list[Triple]:
    return [Triple(*(rename.get(term, term) for term in t)) for t in triples]


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Try every bijection between the two graphs' blank nodes."""
    a_nodes = list({term for t in a for term in t if isinstance(term, BlankNode)})
    b_nodes = list({term for t in b for term in t if isinstance(term, BlankNode)})
    if len(a) != len(b) or len(a_nodes) != len(b_nodes):
        return False
    b_set = set(b)
    for image in permutations(b_nodes):
        if set(renamed(a, dict(zip(a_nodes, image)))) == b_set:
            return True
    return False


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

    def test_shared_blank_node_is_refused(self):
        shared = Graph([Triple(IRIS[0], IRIS[1], BNODES[0]), Triple(IRIS[2], IRIS[1], BNODES[0])])
        with pytest.raises(AssertionError, match="shared"):
            isomorphic(shared, shared)

    def test_two_node_cycle_is_refused(self):
        cycle = Graph([Triple(BNODES[0], IRIS[0], BNODES[1]), Triple(BNODES[1], IRIS[0], BNODES[0])])
        with pytest.raises(AssertionError, match="cycle"):
            isomorphic(cycle, cycle)

    @given(forests(), st.permutations(range(5)))
    def test_relabelled_copy_is_isomorphic(self, graph, order):
        rename = {BlankNode(f"b{i}"): BlankNode(f"r{k}") for i, k in enumerate(order)}
        copy = Graph(renamed(reversed(list(graph)), rename))
        assert brute_isomorphic(graph, copy)
        assert isomorphic(graph, copy)

    @given(forests(), st.data())
    def test_copy_with_one_triple_changed_is_not(self, graph, data):
        assume(len(graph) > 0)
        changed = data.draw(st.sampled_from(list(graph)))
        fresh = Iri("http://terms.test/changed")
        copy = Graph(Triple(t[0], fresh, t[2]) if t == changed else t for t in graph)
        assert not brute_isomorphic(graph, copy)
        assert not isomorphic(graph, copy)

    @given(forests(), forests())
    def test_agrees_with_brute_force(self, a, b):
        assert isomorphic(a, b) == brute_isomorphic(a, b)



def test_one_line_text_holds_no_line_break():
    """Every character at which str.splitlines() breaks a line is in
    LINE_BREAKS, and one_line escapes each: the Turtle writer's own escapes
    first, \\uXXXX for the rest."""
    breaks = "".join(c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2)
    assert breaks == "".join(sorted(LINE_BREAKS))
    for c in LINE_BREAKS:
        escaped = one_line(f"a{c}b")
        assert escaped.splitlines() == [escaped]
        assert escaped == ("a\\nb" if c == "\n" else f"a\\u{ord(c):04X}b")
    assert one_line('\\"\t') == '\\\\\\"\\t'
