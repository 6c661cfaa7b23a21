"""Parser/serializer behavior: supported subset, rejections, round-trips."""

import gc
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudaudit.rdf import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    PrefixMap,
    Triple,
    XSD_INTEGER,
)
from cloudaudit import turtle
from cloudaudit.turtle import (
    MAX_NESTING,
    Document,
    ErrorKind,
    ParseError,
    parse_turtle,
    serialize_turtle,
)
from cloudaudit.vocab import RDF_TYPE, RDFS_DOMAIN, RDFS_RESOURCE, RDFS_SUBCLASS_OF

from oracles import CLOUDENG, SEC, ce, first_lexical_error, gen, isomorphic, sec
from oracles import read_turtle as oracle_read_turtle

# triple counts confirmed once against an independent statement counter
MODEL_TRIPLES = 282
GAP_TRIPLES = 281
SHAPES_TRIPLES = 6

HEADER = f"@prefix cloudeng: <{CLOUDENG}> .\n@prefix sec: <{SEC}> .\n"


class TestParse:
    def test_single_statement_uses_rdf_type(self):
        doc = parse_turtle(HEADER + "cloudeng:OCCI a cloudeng:ControlInterface .\n")
        assert set(doc.graph) == {Triple(ce("OCCI"), RDF_TYPE, ce("ControlInterface"))}

    def test_empty_and_comment_only_input(self):
        for text in ("", "   \n\t\n", "# nothing here\n# at all\n"):
            doc = parse_turtle(text)
            assert len(doc.graph) == 0
            assert len(doc.prefixes) == 0

    def test_model_fixture_reference_counts(self, model_doc, gap_doc, shapes_doc):
        assert len(model_doc.graph) == MODEL_TRIPLES
        assert len(gap_doc.graph) == GAP_TRIPLES
        assert len(shapes_doc.graph) == SHAPES_TRIPLES

    def test_model_fixture_prefixes(self, model_doc):
        assert len(model_doc.prefixes) == 11
        assert model_doc.prefixes.expand("csa:IVS-02") == Iri(
            "https://cloudsecurityalliance.org/artifacts/cloud-controls-matrix/#IVS-02"
        )

    def test_comment_inside_object_list(self):
        text = HEADER + (
            "@prefix iso27001: <https://www.iso.org/standard/27001#> .\n"
            "sec:OAuth2 sec:implementsStandard iso27001:A.9.2.2,    # comment\n"
            "  iso27001:A.9.4.2 .\n"
        )
        doc = parse_turtle(text)
        assert len(doc.graph) == 2
        objects = {t.object.value for t in doc.graph}
        assert objects == {
            "https://www.iso.org/standard/27001#A.9.2.2",
            "https://www.iso.org/standard/27001#A.9.4.2",
        }

    def test_statement_dot_directly_after_local_name(self):
        doc = parse_turtle(HEADER + "sec:A a sec:B.\nsec:C a sec:D .")
        assert len(doc.graph) == 2

    def test_local_names_with_interior_dots_and_dashes(self):
        text = (
            "@prefix iso27001: <https://www.iso.org/standard/27001#> .\n"
            "@prefix nist80053: <https://csrc.nist.gov/sp800-53#> .\n"
            "iso27001:A.9.4.1 nist80053:AC-3 iso27001:A.12.4.1 .\n"
        )
        doc = parse_turtle(text)
        (t,) = list(doc.graph)
        assert t.subject.value.endswith("#A.9.4.1")
        assert t.predicate.value.endswith("#AC-3")
        assert t.object.value.endswith("#A.12.4.1")

    def test_predicate_list_and_trailing_semicolon(self):
        doc = parse_turtle(HEADER + "sec:X a sec:C ;\n  sec:p sec:Y ;\n.")
        assert len(doc.graph) == 2

    def test_anonymous_property_list_object(self):
        text = HEADER + (
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "sec:implementsStandard rdfs:domain [ rdfs:subClassOf rdfs:Resource ] .\n"
        )
        doc = parse_turtle(text)
        assert len(doc.graph) == 2
        (domain,) = [t for t in doc.graph if t.predicate == RDFS_DOMAIN]
        node = domain.object
        assert isinstance(node, BlankNode) and node.label == "b1"
        assert Triple(node, RDFS_SUBCLASS_OF, RDFS_RESOURCE) in doc.graph

    def test_anonymous_property_list_subject(self):
        doc = parse_turtle(HEADER + "[ sec:p sec:X ] sec:q sec:Y .")
        assert len(doc.graph) == 2
        doc2 = parse_turtle(HEADER + "[ sec:p sec:X ] .")
        assert len(doc2.graph) == 1

    def test_empty_anonymous_node(self):
        doc = parse_turtle(HEADER + "sec:X sec:p [] .")
        (t,) = list(doc.graph)
        assert isinstance(t.object, BlankNode)

    def test_integer_literal(self):
        doc = parse_turtle("@prefix sh: <http://www.w3.org/ns/shacl#> .\n[ sh:minCount 1 ] .")
        (t,) = list(doc.graph)
        assert t.object == Literal("1", XSD_INTEGER)

    def test_string_escapes_decode(self):
        doc = parse_turtle(HEADER + 'sec:X sec:p "a\\"b\\\\c\\nd\\te" .')
        (t,) = list(doc.graph)
        assert t.object == Literal('a"b\\c\nd\te')

    def test_iri_unicode_escapes(self):
        doc = parse_turtle("<http://x.test/\\u0041\\U00000042> a <http://x.test/C> .")
        (t,) = list(doc.graph)
        assert t.subject == Iri("http://x.test/AB")

    def test_prefixes_can_be_rebound_mid_document(self):
        doc = parse_turtle(
            "@prefix p: <http://one.test/> .\n"
            "p:x a p:C .\n"
            "@prefix p: <http://two.test/> .\n"
            "p:x a p:C .\n"
        )
        subjects = {t.subject.value for t in doc.graph}
        assert subjects == {"http://one.test/x", "http://two.test/x"}
        assert doc.prefixes.expand("p:x") == Iri("http://two.test/x")

    def test_blank_node_labels_are_deterministic(self):
        text = HEADER + "sec:X sec:p [ sec:q [ sec:r sec:Y ] ], [ sec:s sec:Z ] ."
        first = parse_turtle(text)
        second = parse_turtle(text)
        assert set(first.graph) == set(second.graph)
        labels = sorted(
            t.subject.label for t in first.graph if isinstance(t.subject, BlankNode)
        )
        assert labels == ["b1", "b2", "b3"]


def error_for(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_turtle(text)
    return info.value


def position(err: ParseError) -> tuple:
    return err.kind, err.line, err.column, err.detail


UNEXPECTED = ErrorKind.UNEXPECTED_TOKEN
NOT_CLOSED = 'string not closed with \'"\''


def _case(text: str, kind: ErrorKind, line: int, column: int, detail: str):
    return pytest.param(text, (kind, line, column, detail), id=repr(text.removeprefix(HEADER)))


class TestRejections:
    def test_base_directive(self):
        err = error_for("@base <http://x.test/> .\n")
        assert position(err) == (UNEXPECTED, 1, 1, "unsupported directive '@base'")

    def test_language_tag(self):
        err = error_for(HEADER + 'sec:X sec:p "hi"@en .')
        assert position(err) == (UNEXPECTED, 3, 17, "unsupported directive '@en'")

    def test_datatype_annotation(self):
        err = error_for(HEADER + 'sec:X sec:p "1"^^sec:t .')
        assert position(err) == (UNEXPECTED, 3, 16, "unexpected character '^'")

    def test_collection_syntax(self):
        err = error_for(HEADER + "sec:X sec:p (sec:Y) .")
        assert position(err) == (UNEXPECTED, 3, 13, "unexpected character '('")

    def test_decimal_number(self):
        err = error_for(HEADER + "sec:X sec:p 1.5 .")
        assert position(err) == (UNEXPECTED, 3, 15, "expected a subject, found integer '5'")

    def test_boolean_keyword(self):
        err = error_for(HEADER + "sec:X sec:p true .")
        assert position(err) == (UNEXPECTED, 3, 13, "unexpected word 'true'")

    def test_unknown_prefix_with_position(self):
        err = error_for(HEADER + "nosuch:x a sec:C .")
        assert position(err) == (ErrorKind.UNKNOWN_PREFIX, 3, 1, "prefix 'nosuch' is not bound")

    def test_unterminated_string(self):
        err = error_for(HEADER + 'sec:X sec:p "no end')
        assert position(err) == (ErrorKind.UNTERMINATED_STRING, 3, 20, NOT_CLOSED)

    def test_unterminated_iri(self):
        err = error_for("<http://x.test/never\n")
        assert position(err) == (ErrorKind.UNTERMINATED_IRI, 1, 21, "IRI not closed with '>'")

    def test_bad_string_escape(self):
        err = error_for(HEADER + 'sec:X sec:p "a\\qb" .')
        assert position(err) == (ErrorKind.BAD_ESCAPE, 3, 15, "unsupported string escape \\q")

    def test_bad_iri_escape(self):
        err = error_for("<http://x.test/\\n> a <http://x.test/C> .")
        assert position(err) == (ErrorKind.BAD_ESCAPE, 1, 16, "unsupported IRI escape \\n")

    def test_bad_local_name(self):
        err = error_for(HEADER + "sec:.leading a sec:C .")
        assert position(err) == (ErrorKind.BAD_LOCAL_NAME, 3, 5, "invalid local name '.leading'")

    def test_missing_final_dot(self):
        err = error_for(HEADER + "sec:X a sec:C")
        assert position(err) == (UNEXPECTED, 3, 14, "expected '.', found end of input")

    @pytest.mark.parametrize(
        "text, expected",
        [
            # query-only tokens are lexical errors in Turtle
            _case(HEADER + "sec:X sec:p {", UNEXPECTED, 3, 13, "unexpected character '{'"),
            _case(HEADER + "sec:X sec:p } .", UNEXPECTED, 3, 13, "unexpected character '}'"),
            _case(HEADER + "sec:X sec:p * .", UNEXPECTED, 3, 13, "unexpected character '*'"),
            _case(HEADER + "sec:X sec:p ?x .", UNEXPECTED, 3, 13, "unexpected character '?'"),
            _case("SELECT ?x WHERE { ?x a ?y }", UNEXPECTED, 1, 1, "unexpected word 'SELECT'"),
            # the first lexical error wins over later ones
            _case(HEADER + 'sec:X sec:p { "open', UNEXPECTED, 3, 13, "unexpected character '{'"),
            # IRI escapes and forbidden characters
            _case(HEADER + "sec:X sec:p <http://x.test/\\u00g0> .",
                  ErrorKind.BAD_ESCAPE, 3, 28, "truncated \\u escape"),
            _case(HEADER + "sec:X sec:p <http://x.test/\\U0000004> .",
                  ErrorKind.BAD_ESCAPE, 3, 28, "truncated \\u escape"),
            _case(HEADER + "sec:X sec:p <http://x.test/\\",
                  ErrorKind.BAD_ESCAPE, 3, 28, "unsupported IRI escape \\"),
            _case(HEADER + "sec:X sec:p <http://x .test/> .",
                  UNEXPECTED, 3, 22, "character ' ' not allowed inside IRI"),
            _case(HEADER + "sec:X sec:p <http://x\t.test/> .",
                  UNEXPECTED, 3, 22, "character '\\t' not allowed inside IRI"),
            _case(HEADER + 'sec:X sec:p <http://x".test/> .',
                  UNEXPECTED, 3, 22, "character '\"' not allowed inside IRI"),
            _case(HEADER + "sec:X sec:p <http://x<.test/> .",
                  UNEXPECTED, 3, 22, "character '<' not allowed inside IRI"),
            _case("<http://x.test/never", ErrorKind.UNTERMINATED_IRI, 1, 21, "IRI not closed with '>'"),
            # string ends and escapes
            _case(HEADER + 'sec:X sec:p "abc\\', ErrorKind.UNTERMINATED_STRING, 3, 18, NOT_CLOSED),
            _case(HEADER + 'sec:X sec:p "abc\n" .', ErrorKind.UNTERMINATED_STRING, 3, 17, NOT_CLOSED),
            _case(HEADER + 'sec:X sec:p "a\\\nb" .',
                  ErrorKind.BAD_ESCAPE, 3, 15, "unsupported string escape \\\n"),
            # local names
            _case(HEADER + "sec:-x a sec:C .", ErrorKind.BAD_LOCAL_NAME, 3, 5, "invalid local name '-x'"),
            _case(HEADER + "sec:X sec:p sec:..x .",
                  ErrorKind.BAD_LOCAL_NAME, 3, 17, "invalid local name '..x'"),
            _case(HEADER + ":.x a sec:C .", ErrorKind.BAD_LOCAL_NAME, 3, 2, "invalid local name '.x'"),
            # directives
            _case(HEADER + "@prefix sec <http://x.test/> .", UNEXPECTED, 3, 9, "unexpected word 'sec'"),
            _case(HEADER + "@prefixes sec: <http://x.test/> .",
                  UNEXPECTED, 3, 1, "unsupported directive '@prefixes'"),
            _case(HEADER + "@ .", UNEXPECTED, 3, 1, "unsupported directive '@'"),
            _case("# comment\n  @", UNEXPECTED, 2, 3, "unsupported directive '@'"),
            _case("@prefix ex:a <http://e.test/> .",
                  UNEXPECTED, 1, 9, "expected a prefix label ending in ':'"),
            _case("@prefix ex: ex:a .", UNEXPECTED, 1, 13, "expected 'iriref', found pname 'ex'"),
            _case("@prefix ex: <http://ex.test/> ex:a ex:b ex:c .",
                  UNEXPECTED, 1, 31, "expected '.', found pname 'ex'"),
            # '\u00b2' is a digit to str.isdigit(), but no token starts with it
            _case("\u00b2a:b sec:p sec:o .", UNEXPECTED, 1, 1, "unexpected character '\u00b2'"),
            _case("@prefix\u00b2 ex: <http://e.test/> .",
                  UNEXPECTED, 1, 8, "unexpected character '\u00b2'"),
            # grammar errors name what they found
            _case(HEADER + "a sec:p sec:Y .", UNEXPECTED, 3, 1, "expected a subject, found 'a'"),
            _case(HEADER + 'sec:X "p" sec:Y .',
                  UNEXPECTED, 3, 7, "expected a predicate, found string 'p'"),
            _case(HEADER + "sec:X sec:p , .", UNEXPECTED, 3, 13, "expected an object, found ','"),
            _case(HEADER + "sec:X, sec:Y .", UNEXPECTED, 3, 6, "expected a predicate, found ','"),
            _case(HEADER + "sec:X sec:p sec:Y ;; , .",
                  UNEXPECTED, 3, 22, "expected a predicate, found ','"),
            _case(HEADER + "sec:X sec:p [ sec:q sec:Y .", UNEXPECTED, 3, 27, "expected ']', found '.'"),
            _case(HEADER + "sec:X sec:p sec:Y ] .", UNEXPECTED, 3, 19, "expected '.', found ']'"),
            _case(HEADER + "[ sec:q sec:Y ] sec:p .",
                  UNEXPECTED, 3, 23, "expected an object, found '.'"),
            _case(HEADER + "sec:X sec:p 12abc .", UNEXPECTED, 3, 15, "unexpected word 'abc'"),
            _case(".", UNEXPECTED, 1, 1, "expected a subject, found '.'"),
            _case(HEADER + "_:b1 a sec:C .",
                  ErrorKind.UNKNOWN_PREFIX, 3, 1, "prefix '_' is not bound"),
            # non-ASCII letters are word characters; local parts stay ASCII
            _case(HEADER + "\u00e9:x a sec:C .",
                  ErrorKind.UNKNOWN_PREFIX, 3, 1, "prefix '\u00e9' is not bound"),
            _case(HEADER + "sec:X sec:p \u00e9 .", UNEXPECTED, 3, 13, "unexpected word '\u00e9'"),
            _case(HEADER + "sec:X sec:a\u00e9 .", UNEXPECTED, 3, 12, "unexpected word '\u00e9'"),
            # IRIs and labels the RDF terms refuse
            _case("<> a <http://x.test/C> .", UNEXPECTED, 1, 1, "IRI must be non-empty"),
            _case("<http://x.test/\\u0020> a <http://x.test/C> .", UNEXPECTED, 1, 1,
                  "IRI contains forbidden character ' ': 'http://x.test/ '"),
            _case("<http://x.test/\\U00110000> a <http://x.test/C> .", ErrorKind.BAD_ESCAPE, 1, 16,
                  "\\U00110000 is not a Unicode scalar value"),
            _case("<http://x.test/a\\uDC00> a <http://x.test/C> .", ErrorKind.BAD_ESCAPE, 1, 17,
                  "\\uDC00 is not a Unicode scalar value"),
            _case("@prefix \u00e9: <http://x.test/> .", UNEXPECTED, 1, 9, "invalid prefix label '\u00e9'"),
            # columns count characters; every str.isspace() character separates tokens
            _case("\tnosuch:x a <http://x.test/C> .",
                  ErrorKind.UNKNOWN_PREFIX, 1, 2, "prefix 'nosuch' is not bound"),
            _case("<http://x.test/X> a <http://x.test/C> .\r\nnosuch:x a <http://x.test/C> .",
                  ErrorKind.UNKNOWN_PREFIX, 2, 1, "prefix 'nosuch' is not bound"),
            _case("\u00a0\u001c\u2003 nosuch:x a <http://x.test/C> .",
                  ErrorKind.UNKNOWN_PREFIX, 1, 5, "prefix 'nosuch' is not bound"),
            _case("\u0085\u3000\u000b\u000c\u001f nosuch:x .",
                  ErrorKind.UNKNOWN_PREFIX, 1, 7, "prefix 'nosuch' is not bound"),
        ],
    )
    def test_positioned_errors(self, text, expected):
        assert position(error_for(text)) == expected

    def test_nesting_bound(self):
        def nested(depth: int) -> str:
            return HEADER + "sec:X sec:p " + "[ sec:p " * depth + "sec:Y" + " ]" * depth + " ."

        deepest = parse_turtle(nested(MAX_NESTING))
        assert len(deepest.graph) == MAX_NESTING + 1
        written = serialize_turtle(deepest)
        assert serialize_turtle(parse_turtle(written)) == written
        err = error_for(nested(3000))
        column = len("sec:X sec:p ") + len("[ sec:p ") * MAX_NESTING + 1
        assert position(err) == (
            ErrorKind.TOO_DEEP, 3, column, f"groups nested deeper than {MAX_NESTING}"
        )

    def test_non_ascii_digits_are_not_integers(self):
        for digit in ("\u00b2", "\u0661"):
            err = error_for(HEADER + f"sec:X sec:p 1{digit} .")
            assert position(err) == (UNEXPECTED, 3, 14, f"unexpected character {digit!r}")

    def test_unicode_whitespace_separates_tokens(self):
        doc = parse_turtle(HEADER + "sec:X\u00a0a\u001csec:C\u2003.\u0085")
        assert set(doc.graph) == {Triple(sec("X"), RDF_TYPE, sec("C"))}


SHARED = (
    "blank node(s) {} are referenced more than once; "
    "not expressible with anonymous property lists"
)
CYCLE = "graph contains blank node cycles that cannot be written as anonymous property lists"
UNWRITABLE = "literal datatype {} is not writable in this subset"


def refusal(triples: list) -> str:
    """The message serialize_turtle refuses a graph of `triples` with."""
    with pytest.raises(ValueError) as info:
        serialize_turtle(Document(Graph(triples), PrefixMap({"sec": SEC})))
    return str(info.value)


class TestSerialize:
    def test_empty_document(self):
        assert serialize_turtle(Document()) == ""
        only_prefixes = serialize_turtle(Document(prefixes=PrefixMap({"sec": SEC})))
        assert only_prefixes == f"@prefix sec: <{SEC}> .\n"

    def test_single_triple_statement(self):
        doc = Document(Graph([Triple(sec("X"), RDF_TYPE, sec("C"))]), PrefixMap({"sec": SEC}))
        assert serialize_turtle(doc) == f"@prefix sec: <{SEC}> .\n\nsec:X a sec:C .\n"

    def test_model_round_trip_isomorphic(self, model_doc):
        text = serialize_turtle(model_doc)
        again = parse_turtle(text)
        assert isomorphic(model_doc.graph, again.graph)
        assert len(again.graph) == MODEL_TRIPLES

    def test_serialization_is_a_fixpoint(self, model_doc, shapes_doc):
        for doc in (model_doc, shapes_doc):
            once = serialize_turtle(doc)
            assert serialize_turtle(parse_turtle(once)) == once

    def test_sibling_blank_nodes_keep_their_order_when_read_back(self):
        """Re-read, the nine-deep node and its sibling are b2 and b11, and
        `_:b11` sorts before `_:b2`: the writer must not order them by label."""
        e = PrefixMap({"e": "http://e.test/"}).expand
        chain = [BlankNode(f"a{k}") for k in range(9)]
        triples = [
            Triple(e("e:S"), e("e:p0"), BlankNode("c")),
            Triple(e("e:S"), e("e:p1"), chain[0]),
            Triple(e("e:S"), e("e:p1"), BlankNode("b")),
            Triple(BlankNode("b"), e("e:r"), e("e:Y")),
        ]
        triples += [Triple(x, e("e:q"), y) for x, y in zip(chain, chain[1:])]
        once = serialize_turtle(Document(Graph(triples), PrefixMap({"e": "http://e.test/"})))
        assert once.endswith(
            "e:S e:p0 [] ;\n  e:p1 " + "[ e:q " * 8 + "[]" + " ]" * 8 + ", [ e:r e:Y ] .\n"
        )
        again = parse_turtle(once)
        assert BlankNode("b11") in again.graph.subjects(e("e:r"), e("e:Y"))
        assert serialize_turtle(again) == once

    def test_shared_blank_node_rejected(self):
        node = BlankNode("shared")
        triples = [Triple(sec("X"), sec("p"), node), Triple(sec("Y"), sec("p"), node)]
        assert refusal(triples) == SHARED.format("['shared']")

    def test_blank_node_cycle_rejected(self):
        a, b = BlankNode("a"), BlankNode("b")
        assert refusal([Triple(a, sec("p"), b), Triple(b, sec("p"), a)]) == CYCLE
        assert refusal([Triple(a, sec("p"), a)]) == CYCLE  # a self-loop
        # a cycle beside a statement that is written whole
        assert refusal([Triple(sec("X"), sec("p"), sec("Y")),
                        Triple(a, sec("p"), b), Triple(b, sec("p"), a)]) == CYCLE

    def test_unwritable_datatype_rejected(self):
        custom = Literal("x", Iri("http://x.test/custom"))
        assert refusal([Triple(sec("X"), sec("p"), custom)]) == UNWRITABLE.format(
            "http://x.test/custom"
        )
        # integers are written bare only when the reader takes them back
        digit_like = Literal("\u00b2", XSD_INTEGER)
        assert refusal([Triple(sec("X"), sec("p"), digit_like)]) == UNWRITABLE.format(
            XSD_INTEGER.value
        )

    def test_refusal_precedence(self):
        """A shared blank node is reported before an unwritable literal, and
        an unwritable literal before a blank-node cycle."""
        a, b = BlankNode("a"), BlankNode("b")
        shared = [Triple(sec("X"), sec("p"), a), Triple(sec("Y"), sec("p"), a)]
        custom = Iri("http://x.test/custom")
        unwritable = [Triple(sec("Z"), sec("p"), Literal("x", custom))]
        cycle = [Triple(a, sec("q"), b), Triple(b, sec("q"), a)]
        assert refusal(shared + unwritable) == SHARED.format("['a']")
        assert refusal(unwritable + cycle) == UNWRITABLE.format(custom.value)

    def test_writing_leaves_no_cyclic_garbage(self, model_doc):
        """A written or refused graph leaves nothing for the cyclic
        collector, so the writer's memo and groups go when it returns."""
        a, b = BlankNode("a"), BlankNode("b")
        refused = [
            [Triple(sec("X"), sec("p"), a), Triple(sec("Y"), sec("p"), a)],
            [Triple(sec("Z"), sec("p"), Literal("x", Iri("http://x.test/custom")))],
            [Triple(sec("X"), sec("p"), sec("Y")), Triple(a, sec("q"), b), Triple(b, sec("q"), a)],
        ]
        gc.collect()
        gc.disable()
        try:
            serialize_turtle(model_doc)
            assert gc.collect() == 0
            for triples in refused:
                # unlike refusal(), bind no name: a frame holding its own traceback is a cycle
                with pytest.raises(ValueError):
                    serialize_turtle(Document(Graph(triples), PrefixMap({"sec": SEC})))
                assert gc.collect() == 0
        finally:
            gc.enable()


# --- generated-document round trip ------------------------------------------

_NS = {"a": "http://gen.test/a#", "b": "http://gen.test/b#"}
_locals = st.sampled_from(["x", "y1", "A.9.4.1", "AC-3", "z_z"])
_gen_iris = st.one_of(
    st.builds(lambda ns, local: Iri(_NS[ns] + local), st.sampled_from(sorted(_NS)), _locals),
    # no bound prefix compacts these, so they are written as <...>
    st.sampled_from([
        RDF_TYPE,
        Iri("http://other.test/x"),
        Iri(_NS["a"] + "x/y"),
        Iri("http://other.test/a\\b"),
    ]),
)
_gen_literals = st.one_of(
    st.builds(Literal, st.text(alphabet='ab"\\\n\t ', max_size=4)),
    st.builds(lambda n: Literal(str(n), XSD_INTEGER), st.integers(0, 99)),
)
_gen_objects = st.one_of(_gen_iris, _gen_literals)
_ground_triples = st.builds(Triple, _gen_iris, _gen_iris, _gen_objects)


@st.composite
def documents(draw):
    graph = Graph(draw(st.lists(_ground_triples, max_size=8)))
    made: list[BlankNode] = []

    def node(depth: int) -> BlankNode:
        """A fresh blank node with up to two properties, whose objects may
        be blank nodes nested up to three deep; one with none reads []."""
        made.append(BlankNode(f"gen{len(made)}"))
        subject = made[-1]
        for _ in range(draw(st.integers(0, 2))):
            nest = depth < 3 and draw(st.booleans())
            obj = node(depth + 1) if nest else draw(_gen_objects)
            graph.add(Triple(subject, draw(_gen_iris), obj))
        return subject

    # a few anonymous trees: each used once as an object, or as a root
    for _ in range(draw(st.integers(0, 2))):
        root = node(1)
        if draw(st.booleans()):
            graph.add(Triple(draw(_gen_iris), draw(_gen_iris), root))
    return Document(graph, PrefixMap(_NS))


@given(documents())
@settings(max_examples=60)
def test_round_trip_of_generated_documents(doc):
    text = serialize_turtle(doc)
    again = parse_turtle(text)
    assert isomorphic(doc.graph, again.graph)
    assert serialize_turtle(again) == text


# --- error position accuracy -------------------------------------------------


def _between_token_offsets(text: str) -> list[int]:
    """Offsets with whitespace on both sides, outside strings/comments/IRIs."""
    points = []
    in_str = in_comment = in_iri = escape = False
    for k, c in enumerate(text):
        if (
            0 < k
            and not (in_str or in_comment or in_iri)
            and text[k - 1].isspace()
            and c.isspace()
        ):
            points.append(k)
        if in_comment:
            in_comment = c != "\n"
        elif in_str:
            if escape:
                escape = False
            elif c == "\\":
                escape = True
            elif c == '"':
                in_str = False
        elif in_iri:
            in_iri = c != ">"
        elif c == '"':
            in_str = True
        elif c == "<":
            in_iri = True
        elif c == "#":
            in_comment = True
    return points


@given(st.data())
@settings(max_examples=60)
def test_injected_stray_character_positions(fixtures_text, data):
    text = fixtures_text
    points = _between_token_offsets(text)
    k = data.draw(st.sampled_from(points))
    mutated = text[:k] + "@" + text[k:]
    expected_line = text.count("\n", 0, k) + 1
    last_newline = text.rfind("\n", 0, k)
    expected_col = k - last_newline if last_newline >= 0 else k + 1
    with pytest.raises(ParseError) as info:
        parse_turtle(mutated)
    assert (info.value.line, info.value.column) == (expected_line, expected_col)
    assert info.value.kind is ErrorKind.UNEXPECTED_TOKEN


@pytest.fixture(scope="module")
def fixtures_text(fixtures_dir):
    return (fixtures_dir / "cloudengine.ttl").read_text(encoding="utf-8")


# --- generated texts against the oracles ------------------------------------
#
# A valid text reads as perfbench/gen.py's reader reads it, and a text with a
# lexical error fails with the first one, as oracles.first_lexical_error
# finds it, whatever grammar error comes before it.


def _as_oracle_triples(doc: Document) -> list[tuple]:
    """The graph in the terms of oracles.read_turtle, which reads integers
    by value, without duplicates."""

    def term(t):
        if isinstance(t, Iri):
            return t.value
        if isinstance(t, BlankNode):
            return ("B", int(t.label[1:]) - 1)
        if t.datatype == XSD_INTEGER:
            return ("I", str(int(t.lexical)))
        return ("L", t.lexical)

    triples = ((term(t.subject), term(t.predicate), term(t.object)) for t in doc.graph)
    return list(dict.fromkeys(triples))


_LABELS = ["ex", "a", "b_2", "n-s", ""]
_NAMESPACES = ["http://ex.test/a#", "http://ex.test/b/", "urn:x:"]
_LOCAL_NAMES = ["x", "y1", "A.9.4.1", "AC-3", "z_z", "", "1st"]
_PLAIN_SEPARATORS = [" ", "\n", "\t", "  \n    ", "\u00a0", "\r\n"]
_COMMENTS = ["# note\n", " # a ; b , c . [ ] \" < @ #\n", "\n# one\n# two\n  "]


@st.composite
def _turtle_texts(draw):
    """Token lists of the supported subset, joined by random spacing and
    comments: prefixed names, IRIREFs, 'a', strings with and without
    escapes, integers, nested blank-node lists, object and predicate lists
    with repeated and trailing ';', and @prefix directives anywhere,
    rebinding labels."""
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=3, unique=True))
    tokens: list[str] = []

    def directive(label):
        tokens.extend(["@prefix", f"{label}:", f"<{draw(st.sampled_from(_NAMESPACES))}>", "."])

    def iri():
        if draw(st.integers(0, 3)) == 0:
            return f"<{draw(st.sampled_from(_NAMESPACES))}{draw(st.sampled_from(_LOCAL_NAMES))}>"
        return f"{draw(st.sampled_from(labels))}:{draw(st.sampled_from(_LOCAL_NAMES))}"

    def node(depth):
        tokens.append("[")
        if draw(st.booleans()):
            predicate_objects(depth + 1)
        tokens.append("]")

    def obj(depth):
        kind = draw(st.integers(0, 9))
        if kind <= 4:
            tokens.append(iri())
        elif kind <= 6:
            body = draw(st.text(alphabet='ab #.;,"\\\n\t<', max_size=5))
            if draw(st.booleans()) or any(c in body for c in '"\\\n'):
                body = body.replace("\\", "\\\\").replace('"', '\\"')
                body = body.replace("\n", "\\n").replace("\t", "\\t")
            tokens.append(f'"{body}"')
        elif kind == 7:
            tokens.append(draw(st.sampled_from(["0", "7", "42", "007"])))
        elif depth < 3:
            node(depth)
        else:
            tokens.append(iri())

    def predicate_objects(depth):
        for k in range(draw(st.integers(1, 3))):
            if k:
                tokens.extend([";"] * draw(st.sampled_from([1, 1, 1, 2])))
            tokens.append("a" if draw(st.integers(0, 3)) == 0 else iri())
            for j in range(draw(st.integers(1, 3))):
                if j:
                    tokens.append(",")
                obj(depth)
        tokens.extend([";"] * draw(st.sampled_from([0, 0, 0, 1, 2])))

    for label in labels:
        directive(label)
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            directive(draw(st.sampled_from(labels)))
            continue
        if draw(st.integers(0, 4)) == 0:
            node(0)
            if draw(st.booleans()):
                predicate_objects(0)
        else:
            tokens.append(iri())
            predicate_objects(0)
        tokens.append(".")

    text = ""
    for before, token in zip([None] + tokens, tokens):
        tight = before is not None and before != "." and (
            before in ";,[]" or token in ".;,[]" or '"' in (before[0], token[0])
        )
        choice = draw(st.integers(0, 9))
        if tight and choice < 4:
            sep = ""
        elif choice < 8:
            sep = draw(st.sampled_from(_PLAIN_SEPARATORS))
        else:
            sep = draw(st.sampled_from(_COMMENTS))
        text += sep + token
    return text + draw(st.sampled_from(["", "\n", " # end", "\n# end\n"]))


@given(documents())
@settings(max_examples=60, deadline=None)
def test_serialized_graphs_read_like_the_oracle(doc):
    text = serialize_turtle(doc)
    again = parse_turtle(text)
    # the oracle keeps an IRIREF's text as written; the writer writes a backslash as \u005C
    expected = [
        tuple(t.replace("\\u005C", "\\") if isinstance(t, str) else t for t in triple)
        for triple in oracle_read_turtle(text)
    ]
    assert _as_oracle_triples(again) == list(dict.fromkeys(expected))


def assert_checked_terms(doc: Document) -> None:
    """Every triple and term is exactly of its class and equal to what the
    checked public constructors build from its parts."""
    for t in doc.graph:
        assert type(t) is Triple and t == Triple(*t)
        for x in t:
            if type(x) is Iri:
                assert type(x.value) is str and x == Iri(x.value)
            elif type(x) is Literal:
                assert type(x.lexical) is str and type(x.datatype) is Iri
                assert x == Literal(x.lexical, Iri(x.datatype.value))
            else:
                assert type(x) is BlankNode and x == BlankNode(x.label)


@given(_turtle_texts())
@settings(max_examples=200, deadline=None)
def test_statement_steps_build_checked_terms(text):
    assert_checked_terms(parse_turtle(text))


@pytest.mark.parametrize("engines, depth", [(20, 0), (6, 16), (4, 24)])
def test_generated_models_parse_to_checked_terms(fixtures_dir, engines, depth):
    fixture = (fixtures_dir / "cloudengine.ttl").read_text(encoding="utf-8")
    model = gen.make_model(random.Random(engines), fixture, gen.read_turtle(fixture), engines,
                           depth=depth)
    doc = parse_turtle(model.text)
    assert len(doc.graph) == len(set(gen.read_turtle(model.text)))
    assert_checked_terms(doc)


_MUTATION_CHARACTERS = list('.;,[]<>"\\#@:a0_- \n') + ["\u00b2", "\u00e9", "{", "%", "\\u", ":x"]


def _outcome(text: str) -> tuple:
    try:
        doc = parse_turtle(text)
    except ParseError as err:
        return ("error", *position(err))
    return ("document", list(doc.graph), doc.prefixes.items())


def assert_fails_like_the_oracle(text: str) -> None:
    """parse_turtle raises the oracle's first lexical error if the text has
    one, and else reads it or raises a ParseError positioned in the text."""
    expected = first_lexical_error(text)
    try:
        parse_turtle(text)
    except ParseError as err:
        assert expected is None or position(err) == expected
        assert 1 <= err.line <= text.count("\n") + 1 and err.column >= 1
        line_start = sum(len(line) for line in text.split("\n")[:err.line - 1]) + err.line - 1
        assert line_start + err.column - 1 <= len(text)
    else:
        assert expected is None


@given(_turtle_texts(), st.data())
@settings(max_examples=200, deadline=None)
def test_statement_steps_match_the_token_parser(text, data):
    """A valid text reads to the same Document whether its tokens come from
    one window or from windows of a few characters, and to the triples that
    perfbench/gen.py's reader finds."""
    expected = _outcome(text)
    assert expected[0] == "document", expected
    with mock.patch.object(turtle, "_WINDOW", data.draw(st.integers(1, 64))):
        assert _outcome(text) == expected
    assert _as_oracle_triples(parse_turtle(text)) == list(dict.fromkeys(oracle_read_turtle(text)))


@given(_turtle_texts(), st.data())
@settings(max_examples=200, deadline=None)
def test_statement_steps_fail_like_the_token_parser(text, data):
    k = data.draw(st.integers(0, len(text)))
    how = data.draw(st.sampled_from(["insert", "delete", "replace", "truncate", "repeat"]))
    if how == "insert":
        text = text[:k] + data.draw(st.sampled_from(_MUTATION_CHARACTERS)) + text[k:]
    elif how == "delete":
        text = text[:k] + text[k + 1:]
    elif how == "replace":
        text = text[:k] + data.draw(st.sampled_from(_MUTATION_CHARACTERS)) + text[k + 1:]
    elif how == "truncate":
        text = text[:k]
    else:
        j = data.draw(st.integers(k, len(text)))
        text = text[:j] + text[k:]
    assert_fails_like_the_oracle(text)
    # windows of a few characters cut statements and carry their tokens
    expected = _outcome(text)
    with mock.patch.object(turtle, "_WINDOW", data.draw(st.integers(1, 64))):
        assert _outcome(text) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        # a grammar error, then a lexical error in a later statement
        _case(HEADER + "sec:a sec:b .\nsec:c sec:d $ .\n",
              UNEXPECTED, 4, 13, "unexpected character '$'"),
        # a lexical error inside the statement that fails
        _case(HEADER + "sec:a ; sec:b sec:c $ .\nsec:c sec:d sec:e .\n",
              UNEXPECTED, 3, 21, "unexpected character '$'"),
        # a grammar error with only valid text after it
        _case(HEADER + "sec:a sec:b .\nsec:c sec:d sec:e .\nsec:f a sec:g .\n",
              UNEXPECTED, 3, 13, "expected an object, found '.'"),
        # an unbound prefix, then a lexical error
        _case(HEADER + "x:a sec:b sec:c .\nsec:c sec:d sec:e .\nsec:f sec:g %.\n",
              UNEXPECTED, 5, 13, "unexpected character '%'"),
        _case(HEADER + "sec:a sec:b sec:c .\nx:a sec:b sec:c .\nsec:c sec:d \"x .\n",
              ErrorKind.UNTERMINATED_STRING, 5, 17, NOT_CLOSED),
    ],
)
def test_a_lexical_error_beats_an_earlier_grammar_error(text, expected):
    assert position(error_for(text)) == expected
    assert_fails_like_the_oracle(text)


class _CountingLexer:
    """Stands in for turtle._TOKEN_RE and counts the characters that its
    findall and finditer calls cover: a finditer covers up to the end of the
    last match taken from it."""

    def __init__(self, regex):
        self.regex = regex
        self.covered = 0

    def findall(self, text, pos=0, endpos=None):
        self.covered += (len(text) if endpos is None else endpos) - pos
        return self.regex.findall(text, pos, len(text) if endpos is None else endpos)

    def finditer(self, text, pos=0):
        for m in self.regex.finditer(text, pos):
            self.covered += m.end() - pos
            pos = m.end()
            yield m


def test_a_failing_model_is_lexed_at_most_twice(fixtures_dir, monkeypatch):
    """A valid model is lexed once, and one with a grammar error in the
    middle and a lexical error at the end at most twice."""
    fixture = (fixtures_dir / "cloudengine.ttl").read_text(encoding="utf-8")
    model = gen.make_model(random.Random(160), fixture, gen.read_turtle(fixture), 160)
    middle = model.text.index(" .\n", len(model.text) // 2) + 3
    text = model.text[:middle] + "cloudeng:X cloudeng:y .\n" + model.text[middle:] + "e:z %\n"
    lexer = _CountingLexer(turtle._TOKEN_RE)
    monkeypatch.setattr(turtle, "_TOKEN_RE", lexer)
    parse_turtle(model.text)
    assert lexer.covered == len(model.text)
    lexer.covered = 0
    err = error_for(text)
    assert position(err) == first_lexical_error(text) == (
        UNEXPECTED, text.count("\n"), 5, "unexpected character '%'"
    )
    assert lexer.covered <= 2 * len(text)


@pytest.mark.parametrize(
    "gap",
    [" " * 100_000, "# a comment line\n" * 20_000, "\t\n" * 50_000],
    ids=["spaces", "comment-lines", "line-breaks"],
)
@pytest.mark.parametrize(
    "template, bad",
    [
        ("sec:S{gap}sec:p{gap}sec:O{gap}%", "%"),
        ("sec:S sec:p sec:O ,{gap}%", "%"),
        ("sec:S sec:p sec:O ;{gap}sec:q{gap}sec:O{gap}sec:X .", "sec:X"),
        ("sec:S sec:p sec:O .{gap}sec:T{gap}a{gap}\"x\"{gap}\"y\" .", '"y"'),
    ],
    ids=["lexical", "after-comma", "grammar", "next-statement"],
)
def test_long_gaps_fail_in_linear_time(gap, template, bad):
    text = HEADER + template.replace("{gap}", gap)
    offset = text.rindex(bad)
    start = time.perf_counter()
    err = error_for(text)
    assert time.perf_counter() - start < 1.0
    assert (err.line, err.column) == (
        text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    )
