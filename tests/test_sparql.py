"""Query parsing, BGP evaluation, EXISTS filters, oracle equivalence."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudaudit.compliance import coverage_queries
from cloudaudit.rdf import Graph, Iri, Literal, Triple, TriplePattern, Var, term_sort_key
from cloudaudit.sparql import (
    FilterExistence,
    GraphPattern,
    Polarity,
    Query,
    SolutionTable,
    _QueryParser,
    _step_query,
    evaluate,
    parse_query,
)
from cloudaudit.rdf import PrefixMap
from cloudaudit.turtle import MAX_NESTING, ErrorKind, ParseError
from cloudaudit.vocab import CLOUD_ENGINE, COMPLIES_WITH, IMPLEMENTS_STANDARD, RDF_TYPE

from oracles import CLOUDENG, LINE_BREAKS, SEC, brute_rows, ce, sec, table_rows

B1_QUERY = """\
PREFIX cloudeng: <http://example.org/cloudengine#>
PREFIX sec: <http://example.org/security#>

SELECT ?data
WHERE {
  ?data a cloudeng:DataInterface .
  FILTER NOT EXISTS { ?data sec:encryptsData ?enc }
}
"""


UNEXPECTED = ErrorKind.UNEXPECTED_TOKEN


def nested(depth: int, polarity: str = "EXISTS", siblings: int = 0) -> str:
    """`depth` groups, each but the innermost holding the next in a FILTER,
    after `siblings` one-pattern FILTER EXISTS groups."""
    inner = "FILTER EXISTS { ?s ?p ?o } " * siblings + f"FILTER {polarity} {{ ?s ?p ?o "
    return "SELECT * WHERE { ?s ?p ?o " + inner * (depth - 1) + "}" * depth


def error_for(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_query(text)
    return info.value


def position(err: ParseError) -> tuple:
    return err.kind, err.line, err.column, err.detail


def _case(text: str, line: int, column: int, detail: str, kind: ErrorKind = UNEXPECTED):
    return pytest.param(text, (kind, line, column, detail), id=text)


class TestParse:
    def test_encryption_gap_query_shape(self):
        q = parse_query(B1_QUERY)
        assert q.projection == ["data"]
        assert len(q.where.triples) == 1
        assert q.where.triples[0] == TriplePattern(Var("data"), RDF_TYPE, ce("DataInterface"))
        (flt,) = q.where.filters
        assert flt.polarity is Polarity.NOT_EXISTS
        assert flt.inner.triples == [
            TriplePattern(Var("data"), sec("encryptsData"), Var("enc"))
        ]
        assert not flt.inner.filters

    def test_select_star_empty_group(self):
        q = parse_query("SELECT * WHERE { }")
        assert q.projection is None
        assert q.where.triples == [] and q.where.filters == []

    @pytest.mark.parametrize(
        "text, expected",
        [
            _case("SELECT ?s WHERE { ?s a ?t OPTIONAL { ?s ?p ?o } }",
                  1, 27, "unsupported construct 'OPTIONAL'"),
            _case("SELECT ?s WHERE { { ?s ?p ?o } UNION { ?s ?p ?o } }",
                  1, 32, "unsupported construct 'UNION'"),
            _case("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s", 1, 30, "unsupported construct 'ORDER'"),
            _case("ASK { ?s ?p ?o }", 1, 1, "unsupported construct 'ASK'"),
        ],
    )
    def test_out_of_subset_constructs_rejected(self, text, expected):
        assert position(error_for(text)) == expected

    def test_unknown_prefix(self):
        err = error_for("SELECT ?s WHERE { ?s a nosuch:C }")
        assert position(err) == (ErrorKind.UNKNOWN_PREFIX, 1, 24, "prefix 'nosuch' is not bound")

    def test_projection_must_appear_in_where(self):
        err = error_for("SELECT ?ghost WHERE { ?s ?p ?o }")
        assert position(err) == (
            UNEXPECTED, 1, 33, "projected variable ?ghost never appears in WHERE"
        )

    @pytest.mark.parametrize(
        "text, expected",
        [
            _case("SELECT ? WHERE { }", 1, 8, "empty variable name"),
            _case("SELECT WHERE { }", 1, 8, "expected '*' or at least one ?variable"),
            _case("SELECT ?s { ?s ?p ?o }", 1, 11, "expected WHERE"),
            _case("SELECT ?s WHERE ?s", 1, 17, "expected '{', found 'var'"),
            _case("SELECT * WHERE { ?s ?p ?o FILTER NOT { } }", 1, 38, "expected EXISTS"),
            _case("SELECT * WHERE { ?s ?p ?o FILTER { } }", 1, 34, "expected EXISTS"),
            _case("SELECT * WHERE { } ?x", 1, 20, "trailing content after WHERE group: 'var'"),
            _case("SELECT * WHERE { ?s ?p ?o . }\n# trailing\n;",
                  3, 1, "trailing content after WHERE group: ';'"),
            _case("SELECT * WHERE { ?s ?p ?o } @prefix",
                  1, 29, "trailing content after WHERE group: '@prefix'"),
            _case("SELECT * WHERE { ?s A ?o }", 1, 21, "unsupported construct 'A'"),
            _case("SELECT * WHERE { ?s ?p 5 }", 1, 24, "unsupported term here: 'integer'"),
            _case("SELECT * WHERE { ?s ?p [ ] }", 1, 24, "unsupported term here: '['"),
            _case('SELECT * WHERE { ?s "p" ?o }', 1, 21, "unsupported term here: 'string'"),
            _case("SELECT * WHERE { ?s a ?o", 1, 25, "unsupported term here: 'eof'"),
            _case("PREFIX ex <http://x.test/>\nSELECT * WHERE { }", 1, 8, "unsupported construct 'ex'"),
            _case("@base <http://x.test/> SELECT * WHERE { }", 1, 1, "unsupported directive '@base'"),
            _case("SELECT * WHERE {\u00a0?s\u001c?p ?o\u2003} ORDER",
                  1, 29, "unsupported construct 'ORDER'"),
            _case("SELECT * WHERE { <> ?p ?o }", 1, 18, "IRI must be non-empty"),
            _case("PREFIX \u00e9: <http://x.test/> SELECT * WHERE { }",
                  1, 8, "invalid prefix label '\u00e9'"),
            # lexical errors are the Turtle ones, at the same positions
            _case('SELECT * WHERE { ?s ?p "x }', 1, 28, 'string not closed with \'"\'',
                  ErrorKind.UNTERMINATED_STRING),
            _case("SELECT * WHERE { ?s ?p <http://x", 1, 33, "IRI not closed with '>'",
                  ErrorKind.UNTERMINATED_IRI),
            _case("SELECT * WHERE { ?s ?p <http://x }", 1, 33, "character ' ' not allowed inside IRI"),
            _case('SELECT * WHERE { ?s ?p "\\q" }', 1, 25, "unsupported string escape \\q",
                  ErrorKind.BAD_ESCAPE),
            _case("PREFIX ex: <http://x.test/>\nSELECT * WHERE { ?s ?p ex:.x }",
                  2, 27, "invalid local name '.x'", ErrorKind.BAD_LOCAL_NAME),
        ],
    )
    def test_positioned_errors(self, text, expected):
        assert position(error_for(text)) == expected

    def test_nesting_bound(self):
        q = parse_query(nested(MAX_NESTING))
        assert len(q.where.filters) == 1
        err = error_for(nested(3000))
        column = len("SELECT * WHERE { ?s ?p ?o ") + len("FILTER EXISTS { ?s ?p ?o ") * (MAX_NESTING - 1)
        column += len("FILTER EXISTS ") + 1
        assert position(err) == (
            ErrorKind.TOO_DEEP, 1, column, f"groups nested deeper than {MAX_NESTING}"
        )

    def test_non_ascii_variable_and_whitespace(self):
        q = parse_query("select\u00a0?\u00e9 where {\u2003?\u00e9 ?p ?o }")
        assert q.projection == ["\u00e9"]

    def test_keywords_are_case_insensitive(self):
        q = parse_query("select ?s where { ?s ?p ?o . filter not exists { ?s ?p ?s } }")
        assert q.projection == ["s"]
        assert q.where.filters[0].polarity is Polarity.NOT_EXISTS

    def test_filters_nest(self):
        q = parse_query(
            "SELECT ?s WHERE { ?s ?p ?o . "
            "FILTER EXISTS { ?s ?q ?r . FILTER NOT EXISTS { ?r ?q ?s } } }"
        )
        (outer,) = q.where.filters
        (inner,) = outer.inner.filters
        assert outer.polarity is Polarity.EXISTS
        assert inner.polarity is Polarity.NOT_EXISTS


class TestEvaluate:
    def test_no_gaps_in_full_model(self, model_graph):
        table = evaluate(parse_query(B1_QUERY), model_graph)
        assert table.variables == ["data"]
        assert table.rows == []

    def test_swift_gap_detected(self, gap_graph):
        table = evaluate(parse_query(B1_QUERY), gap_graph)
        assert table.rows == [(ce("Swift"),)]

    def test_audit_interface_listing(self, model_graph):
        q = parse_query(
            f"PREFIX cloudeng: <{CLOUDENG}>\nSELECT ?s WHERE {{ ?s a cloudeng:AuditInterface }}"
        )
        values = {row[0].value for row in evaluate(q, model_graph).rows}
        assert values == {
            "https://docs.openstack.org/#Ceilometer",
            "https://aws.amazon.com/architecture/well-architected#CloudTrail",
            CLOUDENG + "Syslog",
        }

    def test_empty_bgp_has_one_empty_row(self):
        table = evaluate(parse_query("SELECT * WHERE { }"), Graph())
        assert table.variables == []
        assert table.rows == [()]

    def test_join_on_shared_variable(self, model_graph):
        q = parse_query(
            f"PREFIX cloudeng: <{CLOUDENG}>\nPREFIX sec: <{SEC}>\n"
            "SELECT ?i ?m WHERE { ?i a cloudeng:DataInterface . ?i sec:encryptsData ?m }"
        )
        table = evaluate(q, model_graph)
        assert table_rows(table) == brute_rows(model_graph, q)
        assert len(table.rows) == 2

    def test_correlated_exists_keeps_matching_rows(self, model_graph):
        q = parse_query(
            f"PREFIX cloudeng: <{CLOUDENG}>\nPREFIX sec: <{SEC}>\n"
            "SELECT ?i WHERE { ?i a cloudeng:AuditInterface . "
            "FILTER EXISTS { ?i sec:encryptsData ?e } }"
        )
        # only Syslog among the audit interfaces declares encryption
        assert [row[0] for row in evaluate(q, model_graph).rows] == [ce("Syslog")]

    def test_rows_are_deduplicated(self):
        g = Graph([
            Triple(ce("X"), sec("p"), Literal("1")),
            Triple(ce("X"), sec("q"), Literal("2")),
        ])
        q = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        assert evaluate(q, g).rows == [(ce("X"),)]

    def test_evaluation_is_deterministic(self, model_graph):
        q = parse_query(B1_QUERY)
        first = evaluate(q, model_graph)
        second = evaluate(q, model_graph)
        assert first.rows == second.rows and first.variables == second.variables

    def test_deepest_filter_chains(self, model_graph):
        every_triple = sorted(
            tuple(term_sort_key(term) for term in (t.subject, t.predicate, t.object))
            for t in model_graph
        )

        def rows(depth, polarity):
            return table_rows(evaluate(parse_query(nested(depth, polarity)), model_graph))

        assert rows(MAX_NESTING, "EXISTS") == every_triple
        # the innermost group holds for every triple, so NOT EXISTS alternates
        assert rows(MAX_NESTING, "NOT EXISTS") == []
        assert rows(MAX_NESTING - 1, "NOT EXISTS") == every_triple

    def test_long_groups_do_not_deepen_the_stack(self, model_graph):
        def rows(text):
            return table_rows(evaluate(parse_query(text), model_graph))

        one = rows("SELECT * WHERE { ?s ?p ?o }")
        assert rows("SELECT * WHERE { " + "?s ?p ?o . " * 2000 + "}") == one
        assert rows("SELECT * WHERE { ?s ?p ?o " + "FILTER EXISTS { ?s ?p ?o } " * 2000 + "}") == one
        assert rows(nested(MAX_NESTING, siblings=4)) == one

    def test_a_long_chain_is_planned_in_seconds(self, model_graph):
        # each pattern binds one new variable, so the layout grows at every step
        chain = " ".join(f"?v{i} <http://e.test/p> ?v{i + 1} ." for i in range(1000))
        query = parse_query("SELECT * WHERE { " + chain + " }")
        start = time.perf_counter()
        assert evaluate(query, model_graph).rows == []
        assert time.perf_counter() - start < 4.0

    def test_json_rendering(self, gap_graph):
        payload = evaluate(parse_query(B1_QUERY), gap_graph).to_json_dict()
        assert payload == {
            "head": {"vars": ["data"]},
            "results": {
                "bindings": [
                    {"data": {"type": "iri", "value": CLOUDENG + "Swift"}}
                ]
            },
        }


# --- randomized equivalence against exhaustive enumeration -------------------

_IRIS = [Iri(f"http://q.test/{c}") for c in "abcd"]
_OBJECTS = _IRIS + [Literal("1"), Literal("2")]
_triples_st = st.builds(
    Triple,
    st.sampled_from(_IRIS),
    st.sampled_from(_IRIS),
    st.sampled_from(_OBJECTS),
)
_VARS = [Var("x"), Var("y"), Var("z")]


def _slot_st(concrete):
    return st.one_of(st.sampled_from(_VARS), st.sampled_from(_VARS), st.sampled_from(concrete))


# three variables in three slots, so repeats such as ?x ?p ?x are common
_pattern_st = st.builds(
    TriplePattern, _slot_st(_IRIS), _slot_st(_IRIS), _slot_st(_OBJECTS)
)


@st.composite
def _group_st(draw, depth=0):
    """Up to four patterns, and FILTER groups nested two deep whose
    patterns share the variables of the groups around them."""
    triples = draw(st.lists(_pattern_st, min_size=1, max_size=4 if depth == 0 else 2))
    filters = []
    for _ in range(draw(st.integers(0, 2 - depth))):
        polarity = draw(st.sampled_from([Polarity.EXISTS, Polarity.NOT_EXISTS]))
        filters.append(FilterExistence(polarity=polarity, inner=draw(_group_st(depth + 1))))
    return GraphPattern(triples=triples, filters=filters)


_query_st = st.builds(Query, st.builds(PrefixMap), st.none(), _group_st())


@given(st.lists(_triples_st, max_size=30), _query_st)
@settings(max_examples=300, deadline=None)
def test_matches_brute_force_enumeration(triples, query):
    g = Graph(triples)
    assert table_rows(evaluate(query, g)) == brute_rows(g, query)


@given(st.lists(_triples_st, max_size=25), st.lists(_pattern_st, min_size=1, max_size=2),
       st.lists(_pattern_st, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_exists_and_not_exists_partition_the_rows(triples, outer, inner):
    g = Graph(triples)

    def run(filters):
        q = Query(PrefixMap(), None, GraphPattern(triples=list(outer), filters=filters))
        return set(table_rows(evaluate(q, g)))

    unfiltered = run([])
    exists = run([FilterExistence(Polarity.EXISTS, GraphPattern(triples=list(inner)))])
    not_exists = run([FilterExistence(Polarity.NOT_EXISTS, GraphPattern(triples=list(inner)))])
    assert exists | not_exists == unfiltered
    assert not (exists & not_exists)


# --- work done: triples the evaluator reads through Graph.triples -----------


def count_reads(graph: Graph, monkeypatch) -> list[int]:
    """Wrap the graph's lookup; the returned cell counts triples read."""
    reads = [0]
    lookup = graph.triples

    def counting(*given):
        for t in lookup(*given):
            reads[0] += 1
            yield t

    monkeypatch.setattr(graph, "triples", counting)
    return reads


def _ex(name: str) -> Iri:
    return Iri(f"http://w.test/{name}")


@pytest.mark.parametrize("selective", [
    "?m <http://w.test/scope> <http://w.test/AtRest>",  # more given positions
    "?m <http://w.test/atRest> ?t",  # as many, but the smallest pool
])
def test_join_reads_the_same_triples_in_either_text_order(monkeypatch, selective):
    # 20 engines with 10 data interfaces each; one method in ten is at rest
    g = Graph()
    for e in range(20):
        for d in range(10):
            g.add(Triple(_ex(f"e{e}"), _ex("has"), _ex(f"d{e}.{d}")))
            g.add(Triple(_ex(f"d{e}.{d}"), _ex("enc"), _ex(f"m{e}.{d}")))
            g.add(Triple(_ex(f"m{e}.{d}"), _ex("scope"), _ex("AtRest" if d == 0 else "InTransit")))
            if d == 0:
                g.add(Triple(_ex(f"m{e}.{d}"), _ex("atRest"), Literal("true")))
    patterns = ["?e <http://w.test/has> ?d", "?d <http://w.test/enc> ?m", selective]
    reads = count_reads(g, monkeypatch)

    def run(order):
        before = reads[0]
        table = evaluate(parse_query(f"SELECT ?e ?d WHERE {{ {' . '.join(order)} }}"), g)
        return table.rows, reads[0] - before

    (rows_a, reads_a), (rows_b, reads_b) = run(patterns), run(patterns[::-1])
    assert rows_a == rows_b and len(rows_a) == 20
    assert reads_a == reads_b
    assert reads_a < 200  # fewer than the attachments alone: the plan starts at rest


def test_exists_stops_at_the_first_witness(monkeypatch):
    g = Graph([Triple(_ex("s"), RDF_TYPE, _ex("T"))])
    g.update(Triple(_ex("s"), _ex("p"), _ex(f"w{k}")) for k in range(1000))
    reads = count_reads(g, monkeypatch)
    q = parse_query(
        "SELECT ?s WHERE { ?s a <http://w.test/T> . FILTER EXISTS { ?s <http://w.test/p> ?w } }"
    )
    assert evaluate(q, g).rows == [(_ex("s"),)]
    assert reads[0] <= 2  # the type triple and one witness of the thousand


def record_lookups(graph: Graph, monkeypatch) -> list[tuple]:
    """Wrap the graph's lookup; the returned list gets each call's arguments."""
    calls = []
    lookup = graph.triples

    def recording(*given):
        calls.append(given)
        return lookup(*given)

    monkeypatch.setattr(graph, "triples", recording)
    return calls


H, E, S, K = _ex("has"), _ex("enc"), _ex("scope"), _ex("knows")


@pytest.mark.parametrize("where, lookups, rows", [
    pytest.param(  # starts at the most given pattern, then follows the join back
        "?e <http://w.test/has> ?d . ?d <http://w.test/enc> ?m . "
        "?m <http://w.test/scope> <http://w.test/AtRest>",
        [(None, S, _ex("AtRest")), (None, E, _ex("m1")), (None, H, _ex("d1")),
         (None, E, _ex("m3")), (None, H, _ex("d3"))],
        [("a", "d1", "m1"), ("b", "d3", "m3")],
        id="text order unlike plan order"),
    pytest.param(  # one lookup for ?x twice; only c knows itself
        "?x <http://w.test/knows> ?x . ?x <http://w.test/knows> ?y",
        [(None, K, None), (_ex("c"), K, None)],
        [("c", "a"), ("c", "c")],
        id="repeated new variable"),
    pytest.param(  # the first pattern binds positions 0 and 2, read in ties' text order
        "?s <http://w.test/has> ?o . ?o <http://w.test/enc> ?m . ?s <http://w.test/knows> ?k",
        [(None, H, None), (_ex("d1"), E, None), (_ex("a"), K, None), (_ex("d2"), E, None),
         (_ex("a"), K, None), (_ex("d3"), E, None), (_ex("b"), K, None)],
        [("a", "d1", "m1", "b"), ("a", "d2", "m2", "b")],
        id="new subject and object"),
    pytest.param(  # the filter reads only ?e, so a's two rows share one answer
        "?e <http://w.test/has> ?d . FILTER NOT EXISTS { ?e <http://w.test/knows> ?f }",
        [(None, H, None), (_ex("a"), K, None), (_ex("b"), K, None)],
        [("b", "d3")],
        id="filter reads part of the row"),
])
def test_each_plan_makes_its_lookups_in_order(monkeypatch, where, lookups, rows):
    g = Graph()
    for s, p, o in [("a", "has", "d1"), ("a", "has", "d2"), ("b", "has", "d3"),
                    ("d1", "enc", "m1"), ("d2", "enc", "m2"), ("d3", "enc", "m3"),
                    ("m1", "scope", "AtRest"), ("m2", "scope", "InTransit"),
                    ("m3", "scope", "AtRest"),
                    ("c", "knows", "c"), ("c", "knows", "a"), ("a", "knows", "b")]:
        g.add(Triple(_ex(s), _ex(p), _ex(o)))
    calls = record_lookups(g, monkeypatch)
    table = evaluate(parse_query(f"SELECT * WHERE {{ {where} }}"), g)
    assert calls == lookups
    assert table.rows == [tuple(_ex(name) for name in row) for row in rows]


def _not_exists_chain(depth: int) -> str:
    """SELECT over `depth` nested NOT EXISTS groups that share no variable."""
    opened = "".join(f"FILTER NOT EXISTS {{ ?s{k} ?p{k} ?o{k} " for k in range(1, depth + 1))
    return f"SELECT * WHERE {{ ?s0 ?p0 ?o0 {opened}" + "}" * (depth + 1)


def test_uncorrelated_filter_chains_read_linearly_in_depth(monkeypatch):
    g = Graph(Triple(_ex(f"s{k}"), _ex("p"), _ex(f"o{k}")) for k in range(20))
    reads = count_reads(g, monkeypatch)
    counts = []
    for depth in range(1, 9):
        before = reads[0]
        rows = evaluate(parse_query(_not_exists_chain(depth)), g).rows
        assert len(rows) == (20 if depth % 2 == 0 else 0)
        counts.append(reads[0] - before)
    # each group is solved once, whatever the number of outer rows: per
    # level, at most one pass over the 20 triples and one witness
    assert all(n <= 21 * depth for depth, n in enumerate(counts, 1)), counts
    assert counts[-1] - counts[-3] == counts[-3] - counts[-5], counts


# --- query steps against the whole-text token parser -------------------------
#
# parse_query reads the queries it can with its step regexes and hands any
# other text to the token parser.  Either way, the Query or the error must
# be the one the token parser gives for the whole text.


def _groups(pattern: GraphPattern) -> list[tuple]:
    """A WHERE tree's groups in preorder as (depth, polarity, triples),
    walked without recursion, so 256-deep trees compare too."""
    out, stack = [], [(0, None, pattern)]
    while stack:
        depth, polarity, group = stack.pop()
        out.append((depth, polarity, group.triples))
        stack.extend((depth + 1, f.polarity, f.inner) for f in reversed(group.filters))
    return out


def _outcome(parse, text: str) -> tuple:
    try:
        query = parse(text)
    except ParseError as err:
        return ("error", *position(err))
    return ("query", query.projection, _groups(query.where), query.prefixes.items())


def _token_parse(text: str) -> Query:
    return _QueryParser(text).parse()


_Q_LABELS = ["ex", "a", "b_2", "n-s", "", "select", "filter"]
_Q_NAMESPACES = ["http://ex.test/a#", "http://ex.test/b/", "urn:x:"]
_Q_LOCALS = ["x", "y1", "A.9.4.1", "AC-3", "z_z", "", "1st"]
_Q_VARS = ["s", "o", "x_1", "\u00e9", "where", "a"]
# prefixed names with this label are never bound, so they are errors
_UNBOUND_LABEL = "\u00f1"
_Q_SEPARATORS = [" ", "\n", "\t", "  \n    ", "\u00a0", "\r\n", "\u2003"]
_Q_COMMENTS = ["# note\n", " # ?x { } . * \" < # WHERE\n", "\n# one\n# two\n  "]


@st.composite
def _query_texts(draw, plain: bool | None = None):
    """Token lists of the supported subset, joined by random spacing and
    comments: PREFIX lines (the empty label, rebinding), SELECT of variables
    or '*' with keywords in random case, variables (non-ASCII too), prefixed
    names (dotted locals, an unbound non-ASCII label), IRIREFs and strings
    with and without escapes, 'a', optional '.', and FILTER [NOT] EXISTS
    groups nested up to three deep.

    A plain text is written as programs write queries: no PREFIX lines or
    comments, and only variables and IRIREFs (with and without escapes) as
    terms.  `plain` None draws which kind."""
    if plain is None:
        plain = draw(st.booleans())
    labels = [] if plain else draw(
        st.lists(st.sampled_from(_Q_LABELS), min_size=1, max_size=3, unique=True)
    )
    tokens: list[str] = []
    used: list[str] = []

    def keyword(word):
        style = draw(st.integers(0, 3))
        if style == 3:
            word = "".join(c.upper() if draw(st.booleans()) else c for c in word)
        tokens.append([word.upper(), word, word.capitalize(), word][style])

    def prefix(label):
        keyword("prefix")
        tokens.extend([f"{label}:", f"<{draw(st.sampled_from(_Q_NAMESPACES))}>"])

    def iri():
        kind = draw(st.integers(0, 9))
        local = draw(st.sampled_from(_Q_LOCALS))
        if kind == 1:
            return f"<{draw(st.sampled_from(_Q_NAMESPACES))}\\u0041{local}>"
        if kind == 0 or plain:
            return f"<{draw(st.sampled_from(_Q_NAMESPACES))}{local}>"
        if kind == 2 and draw(st.integers(0, 3)) == 0:
            return f"{_UNBOUND_LABEL}:{local}"
        return f"{draw(st.sampled_from(labels))}:{local}"

    def var():
        name = draw(st.sampled_from(_Q_VARS))
        used.append(name)
        return "?" + name

    def term(position):
        kind = draw(st.integers(0, 5))
        if kind <= 1:
            return var()
        if plain:
            return iri()
        if position == "p" and kind == 2:
            return "a"
        if position == "o" and kind == 2:
            body = draw(st.text(alphabet='ab #.{}"\\\n\t<?', max_size=5))
            if draw(st.booleans()) or any(c in body for c in '"\\\n'):
                body = body.replace("\\", "\\\\").replace('"', '\\"')
                body = body.replace("\n", "\\n").replace("\t", "\\t")
            return f'"{body}"'
        return iri()

    def group(depth):
        tokens.append("{")
        for _ in range(draw(st.integers(0, 3))):
            if depth < 3 and draw(st.integers(0, 3)) == 0:
                keyword("filter")
                if draw(st.booleans()):
                    keyword("not")
                keyword("exists")
                group(depth + 1)
                continue
            tokens.extend([term("s"), term("p"), term("o")])
            if draw(st.booleans()):
                tokens.append(".")
        tokens.append("}")

    for label in labels:
        prefix(label)
    if labels and draw(st.integers(0, 3)) == 0:
        prefix(draw(st.sampled_from(labels)))  # rebinding: the last one wins
    keyword("select")
    select_at = len(tokens)
    keyword("where")
    group(1)
    if used and draw(st.integers(0, 3)):
        projection = draw(st.lists(st.sampled_from(used), min_size=1, max_size=3))
        tokens[select_at:select_at] = ["?" + name for name in projection]
    else:
        tokens.insert(select_at, "*")

    text = ""
    for before, token in zip([None] + tokens, tokens):
        # a '.' runs into a local name when a word follows it
        tight = before is not None and (
            before in "{}*" or token in "{}." or before[-1] in '">' or token[0] in '"<?'
        )
        choice = draw(st.integers(0, 9))
        if tight and choice < 4:
            sep = ""
        elif choice < 8 or plain:
            sep = draw(st.sampled_from(_Q_SEPARATORS))
        else:
            sep = draw(st.sampled_from(_Q_COMMENTS))
        text += sep + token
    ends = ["", "\n", " "] if plain else ["", "\n", " # end", "\n# end\n", "#"]
    return text + draw(st.sampled_from(ends))


@given(st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_query_steps_match_the_token_parser(plain, data):
    text = data.draw(_query_texts(plain))
    expected = _outcome(_token_parse, text)
    assert _outcome(parse_query, text) == expected
    assert expected[0] == "query" or _UNBOUND_LABEL in text, expected
    if plain and "\\" not in text:
        assert _step_query(text) is not None  # not left to the token parser


_Q_MUTATIONS = list('{}.*?<>"\\#:a_- \n') + [
    "\u00e9", "\u00b2", "\u017f", "ex:", "select", "WHERE", "FILTER", "not", "EXISTS",
    "PREFIX", "\\u0041", "{ ?s ?p ?o }", "@prefix",
]


@given(_query_texts(), st.data())
@settings(max_examples=300, deadline=None)
def test_query_steps_fail_like_the_token_parser(text, data):
    k = data.draw(st.integers(0, len(text)))
    how = data.draw(st.sampled_from(["insert", "delete", "replace", "truncate", "repeat"]))
    if how == "insert":
        text = text[:k] + data.draw(st.sampled_from(_Q_MUTATIONS)) + text[k:]
    elif how == "delete":
        text = text[:k] + text[k + 1:]
    elif how == "replace":
        text = text[:k] + data.draw(st.sampled_from(_Q_MUTATIONS)) + text[k + 1:]
    elif how == "truncate":
        text = text[:k]
    else:
        j = data.draw(st.integers(k, len(text)))
        text = text[:j] + text[k:]
    assert _outcome(parse_query, text) == _outcome(_token_parse, text)


_EX = "PREFIX ex: <http://ex.test/>\n"


@pytest.mark.parametrize(
    "text, kind",
    [
        pytest.param("select ?xwhere{ ?xwhere ?p ?o }", "error", id="variable runs into WHERE"),
        pytest.param("select ?x where{?x?p?o}", "step", id="tight variables"),
        pytest.param("select ?xwhere{ ?x ?p ?o }", "error", id="projected variable runs into WHERE"),
        pytest.param("SELECT * WHERE { ?s ?p ?o FILTER NOTEXISTS { ?s ?p ?o } }", "error",
                     id="NOT runs into EXISTS"),
        pytest.param("PREFIX filter: <http://f.test/>\nSELECT * WHERE { ?s filter:x ?o "
                     "FILTER EXISTS { filter:x ?p ?s } }", "query", id="filter as a label"),
        pytest.param("PREFIX select: <http://f.test/>\nSELECT ?s WHERE { ?s ?p select:x }",
                     "query", id="select as a label"),
        pytest.param("SELECT * WHERE { a ?p ?o }", "error", id="a as subject"),
        pytest.param("SELECT * WHERE { ?s A ?o }", "error", id="A as predicate"),
        pytest.param('SELECT * WHERE { "x" ?p ?o }', "error", id="literal subject"),
        pytest.param("\u017fELECT * WHERE { }", "error", id="long s in SELECT"),
        pytest.param("SELECT ?ghost WHERE { ?s ?p <http://ex.test/o> }", "error", id="ghost projection"),
        pytest.param(_EX + "SELECT * WHERE { ?s ?p no:o }", "error", id="unknown prefix"),
        pytest.param("SELECT * WHERE { ?s ?p <> }", "error", id="empty IRI"),
        pytest.param("SELECT * WHERE { ?s ?p <http://x\r> }", "error", id="IRI with CR"),
        pytest.param("SELECT * WHERE { ?s ?p ?o } # end", "query", id="comment at end"),
        pytest.param("SELECT * WHERE { ?s ?p ?o } .", "error", id="trailing dot"),
        pytest.param("SELECT * WHERE { ?s ?p ?o . . }", "error", id="two dots"),
        pytest.param("PREFIX ex:a <http://ex.test/> SELECT * WHERE { }", "error", id="label with local"),
        pytest.param(nested(MAX_NESTING), "step", id="deepest nesting"),
        pytest.param(nested(MAX_NESTING + 1), "error", id="one group too deep"),
        pytest.param("SELECT * WHERE { # note\n?s ?p ?o }", "query", id="comment"),
        pytest.param("SELECT * WHERE { ?s ?p ex:o }", "error", id="prefixed name"),
        pytest.param("SELECT * WHERE { ?s a <http://ex.test/C> }", "query", id="a for rdf:type"),
        pytest.param('SELECT * WHERE { ?s ?p "x" }', "query", id="string"),
        pytest.param("SELECT * WHERE { ?s ?p <http://ex.test/\\u0041> }", "query", id="IRI escape"),
    ],
)
def test_query_step_rows(text, kind):
    """`step` rows are read by the step regexes; `query` rows are valid
    queries that only the token parser reads."""
    expected = _outcome(_token_parse, text)
    assert expected[0] == ("error" if kind == "error" else "query")
    assert _outcome(parse_query, text) == expected
    assert (_step_query(text) is not None) == (kind == "step")


def _coverage_queries(graph: Graph) -> list[str]:
    engines = sorted(t.subject for t in graph.triples(None, RDF_TYPE, CLOUD_ENGINE))
    standards = sorted({t.object for p in (IMPLEMENTS_STANDARD, COMPLIES_WITH)
                        for t in graph.triples(None, p, None)})
    return [text for engine in engines for standard in standards
            for text in coverage_queries(engine, standard)]


def test_query_steps_read_every_fixture_query(fixtures_dir, model_graph, gap_graph):
    fixture = (fixtures_dir / "q_missing_encryption.rq").read_text(encoding="utf-8")
    expected = _outcome(_token_parse, fixture)
    assert expected[0] == "query"
    assert _outcome(parse_query, fixture) == expected
    texts = _coverage_queries(model_graph) + _coverage_queries(gap_graph)
    assert len(texts) > 100
    for text in texts:
        expected = _outcome(_token_parse, text)
        assert expected[0] == "query"
        assert _outcome(parse_query, text) == expected
        assert _step_query(text) is not None  # not left to the token parser


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_literal_cell_stays_on_its_row(brk):
    """A literal's line break is escaped in the text table, which so has as
    many lines as with a plain literal; JSON keeps the literal as it is."""
    def table(lexical):
        return SolutionTable(["x", "y"], [(Literal(lexical), ce("A")), (Literal("b"), ce("B"))])

    forged = table(f"a{brk}(2 rows)")
    assert len(forged.to_text().splitlines()) == len(table("a (2 rows)").to_text().splitlines())
    assert forged.to_json_dict()["results"]["bindings"][0]["x"]["value"] == f"a{brk}(2 rows)"
