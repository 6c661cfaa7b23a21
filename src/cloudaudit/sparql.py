"""SPARQL subset: SELECT over a basic graph pattern with EXISTS filters.

Grammar (everything else is rejected with a positioned ParseError):

    PREFIX label: <iri>            -- any number, before SELECT
    SELECT ?a ?b ... | *
    WHERE { pattern }

where a pattern is triple patterns separated by optional dots plus any
number of FILTER EXISTS { ... } / FILTER NOT EXISTS { ... } groups, which
may nest (at most turtle.MAX_NESTING groups deep, WHERE's included) and may
reference outer variables (correlated semantics).  Terms are variables,
prefixed names, IRIREFs, the `a` keyword (predicate) and double-quoted
string literals (objects).  IRIs are resolved at parse time.

`parse_query` first reads the text with step regexes, one for
`SELECT ... WHERE {` and one per group item (a triple pattern with its
optional '.', `FILTER [NOT] EXISTS {`, or '}'), and builds the Query from
the match groups with no Token objects.  They read only what programs
write, the texts of compliance.coverage_queries among them: keywords,
variables and IRIREFs without escapes, with whitespace between tokens,
each token ending where the Turtle module's `tokenize` would end it.  Any
other text (PREFIX lines, prefixed names, `a`, strings, comments), an
invalid IRI, nesting deeper than the limit or a projected variable that
WHERE lacks sends the whole text to the token parser, which splits it with
`tokenize`: that parser is the only one that reports errors, so they are
the Turtle module's lexical errors and the token parser's grammar errors.

Evaluation plans each group once per query: its triple patterns are
joined greedily, most bound positions first (constants and variables bound
by earlier patterns), then fewest estimated candidates (the index pool of a
constant, the average pool of a bound variable), ties in text order.  A
plan is plain tuples.  Each step reads `Graph.triples` lazily per row and
binds only its new variables, one slice of each triple it reads; a group's
FILTERs run after its patterns, and EXISTS / NOT EXISTS stop at the first
inner solution.  A FILTER group that reads only some of the row's
variables remembers its answer for each combination of their terms, so an
uncorrelated group is solved once per query, and a chain of them costs
time linear in its depth.  Solution rows are deduplicated and sorted, so
repeated evaluation of one query is byte-stable.
"""

from __future__ import annotations

import enum
import re
from operator import itemgetter
from typing import Iterator

from .rdf import (
    Graph,
    Iri,
    Literal,
    PatternTerm,
    PrefixMap,
    Record,
    Term,
    Triple,
    TriplePattern,
    Var,
    term_json,
    term_sort_key,
)
from .turtle import MAX_NESTING, Token, TokenStream, tokenize
from .vocab import RDF_TYPE


class Polarity(enum.Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"


class FilterExistence(Record):
    __slots__ = ("polarity", "inner")
    __hash__ = None

    def __init__(self, polarity: Polarity, inner: GraphPattern):
        self.polarity, self.inner = polarity, inner


class GraphPattern(Record):
    __slots__ = ("triples", "filters")
    __hash__ = None

    def __init__(self, triples: list[TriplePattern] | None = None,
                 filters: list[FilterExistence] | None = None):
        self.triples = [] if triples is None else triples
        self.filters = [] if filters is None else filters


class Query(Record):
    __slots__ = ("prefixes", "projection", "where")
    __hash__ = None

    def __init__(self, prefixes: PrefixMap, projection: list[str] | None, where: GraphPattern):
        self.prefixes = prefixes
        self.projection = projection  # None means SELECT *
        self.where = where


class SolutionTable(Record):
    """Projected query solutions: deduplicated, deterministically ordered rows.

    Each row is a tuple aligned with `variables`; a None entry means the
    variable was not bound in that solution.
    """

    __slots__ = ("variables", "rows")
    __hash__ = None

    def __init__(self, variables: list[str], rows: list[tuple[Term | None, ...]]):
        self.variables, self.rows = variables, rows

    def to_json_dict(self) -> dict:
        bindings = []
        for row in self.rows:
            bindings.append(
                {v: term_json(t) for v, t in zip(self.variables, row) if t is not None}
            )
        return {"head": {"vars": list(self.variables)}, "results": {"bindings": bindings}}

    def to_text(self, prefixes: PrefixMap | None = None) -> str:
        show = (PrefixMap() if prefixes is None else prefixes).render
        headers = [f"?{v}" for v in self.variables]
        table = [headers] + [["" if t is None else show(t) for t in row] for row in self.rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(headers))] if headers else []
        lines = []
        if headers:
            lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
            lines.append("  ".join("-" * w for w in widths))
            for row in table[1:]:
                lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        lines.append(f"({len(self.rows)} row{'s' if len(self.rows) != 1 else ''})")
        return "\n".join(lines)


class _QueryParser(TokenStream):
    """Recursive-descent parser over the shared tokenizer's query tokens:
    keywords arrive as 'keyword' tokens with lower-cased values, variables
    as 'var' and '*' as 'star'."""

    def __init__(self, text: str):
        super().__init__(text, tokenize(text, query=True))
        self.prefixes = PrefixMap()
        self.variables: set[str] = set()  # every variable the WHERE group reads

    def _expect(self, kind: str) -> Token:
        tok = self._cur()
        if tok.kind != kind:
            self._fail(tok, f"expected {kind!r}, found {tok.kind!r}")
        return self._take()

    def _keyword(self, word: str) -> Token:
        tok = self._cur()
        if tok.kind != "keyword" or tok.value != word:
            self._fail(tok, f"expected {word.upper()}")
        return self._take()

    def parse(self) -> Query:
        while self._cur().kind == "keyword" and self._cur().value == "prefix":
            self._take()
            label = self._cur()
            if label.kind != "pname" or label.local:
                self._fail(label, "expected a prefix label ending in ':'")
            self._take()
            ns = self._expect("iriref")
            self._bind(self.prefixes, label, ns)
        self._keyword("select")
        projection = self._projection()
        self._keyword("where")
        where = self._group()
        tok = self._cur()
        if tok.kind != "eof":
            self._fail(tok, f"trailing content after WHERE group: {tok.kind!r}")
        if projection is not None:
            for name in projection:
                if name not in self.variables:
                    self._fail(tok, f"projected variable ?{name} never appears in WHERE")
        return Query(prefixes=self.prefixes, projection=projection, where=where)

    def _projection(self) -> list[str] | None:
        tok = self._cur()
        if tok.kind == "star":
            self._take()
            return None
        names = []
        while self._cur().kind == "var":
            names.append(self._take().value)
        if not names:
            self._fail(self._cur(), "expected '*' or at least one ?variable")
        return names

    def _group(self) -> GraphPattern:
        self._enter(self._expect("{"))
        pattern = GraphPattern()
        while True:
            tok = self._cur()
            if tok.kind == "}":
                self._take()
                self.depth -= 1
                return pattern
            if tok.kind == "keyword" and tok.value == "filter":
                self._take()
                negated = False
                if self._cur().kind == "keyword" and self._cur().value == "not":
                    self._take()
                    negated = True
                self._keyword("exists")
                inner = self._group()
                pattern.filters.append(
                    FilterExistence(
                        polarity=Polarity.NOT_EXISTS if negated else Polarity.EXISTS,
                        inner=inner,
                    )
                )
                continue
            pattern.triples.append(self._triple_pattern())
            if self._cur().kind == ".":
                self._take()

    def _triple_pattern(self) -> TriplePattern:
        subject = self._pattern_term(allow_literal=False, allow_a=False)
        predicate = self._pattern_term(allow_literal=False, allow_a=True)
        obj = self._pattern_term(allow_literal=True, allow_a=False)
        return TriplePattern(subject, predicate, obj)

    def _pattern_term(self, allow_literal: bool, allow_a: bool) -> PatternTerm:
        tok = self._take()
        if tok.kind == "var":
            self.variables.add(tok.value)
            return Var(tok.value)
        if tok.kind in ("iriref", "pname"):
            return self._iri(tok, self.prefixes)
        if tok.kind == "a" and allow_a:
            return RDF_TYPE
        if tok.kind == "string" and allow_literal:
            return Literal(tok.value)
        self._fail(tok, f"unsupported term here: {tok.kind!r}")


def _keyword(word: str) -> str:
    # tokenize lower-cases a word to find a keyword, which for these words
    # is ASCII case folding: 'ſ' does not read as 's'
    return rf"(?ai:{word})(?![\w:-])"


# The steps parse_query tries first.  Each token they read is the one
# tokenize reads there: a variable takes every word character after '?', so
# `?xwhere` is one variable; a keyword ends before a word character, ':' or
# '-', so `notexists` is one word.
_VAR = r"\?\w+(?!\w)"
_NODE = rf'{_VAR}|<[^<>"\\ \t\n]*>'
_SELECT_STEP_RE = re.compile(
    rf"\s*{_keyword('select')}\s*(?:\*\s*|((?:{_VAR}\s*)+))"
    rf"{_keyword('where')}\s*\{{"
)
# groups: subject, predicate, object | NOT of a FILTER | '}'
_ITEM_STEP_RE = re.compile(
    rf"\s*(?:({_NODE})\s*({_NODE})\s*({_NODE})\s*\.?"
    rf"|{_keyword('filter')}\s*({_keyword('not')}\s*)?{_keyword('exists')}\s*\{{"
    rf"|(\}}))"
)


def _step_query(text: str) -> Query | None:
    """The query, if the step regexes read all of the text and it is valid;
    else None, with nothing kept."""
    m = _SELECT_STEP_RE.match(text)
    if m is None:
        return None
    # \s is str.isspace, so split() ends each name where the regexes did
    projection = None if m[1] is None else m[1].replace("?", " ").split()
    terms: dict[str, PatternTerm] = {}  # by token text

    def term(token: str) -> PatternTerm:
        made = Var(token[1:]) if token[0] == "?" else Iri(token[1:-1])
        terms[token] = made
        return made

    where = group = GraphPattern()
    groups = [where]  # open groups, innermost last
    match, get = _ITEM_STEP_RE.match, terms.get
    pos = m.end()
    try:
        while True:
            m = match(text, pos)
            if m is None:
                return None
            pos = m.end()
            s, p, o, negated, close = m.groups()
            if s is not None:
                group.triples.append(TriplePattern(
                    get(s) or term(s), get(p) or term(p), get(o) or term(o)
                ))
            elif close is None:
                if len(groups) == MAX_NESTING:
                    return None
                inner = GraphPattern()
                polarity = Polarity.EXISTS if negated is None else Polarity.NOT_EXISTS
                group.filters.append(FilterExistence(polarity, inner))
                groups.append(inner)
                group = inner
            else:
                groups.pop()
                if not groups:
                    break
                group = groups[-1]
    except ValueError:  # an invalid IRI
        return None
    if text[pos:].strip():
        return None
    if projection is not None and any("?" + name not in terms for name in projection):
        return None
    return Query(PrefixMap(), projection, where)


def parse_query(text: str) -> Query:
    """Parse a SELECT query in the supported subset; IRIs resolve at parse time.

    Raises ParseError with a 1-based position for anything outside it.
    """
    query = _step_query(text)
    return _QueryParser(text).parse() if query is None else query


def _rank(graph: Graph, tp: TriplePattern, layout: dict[str, int]) -> tuple[int, float]:
    """Order key for the next pattern to join: most given positions first
    (constants and variables bound so far), then fewest estimated candidates."""
    given = 0
    estimate: float = len(graph)
    for position, slot in enumerate((tp.subject, tp.predicate, tp.object)):
        if not isinstance(slot, Var):
            given += 1
            estimate = min(estimate, graph.pool_size(position, slot))
        elif slot.name in layout:
            given += 1
            estimate = min(estimate, graph.pool_size(position))
    return -given, estimate


def _step(tp: TriplePattern, layout: dict[str, int]) -> tuple:
    """Compile a pattern against the variables bound so far into
    (given, from_row, take, same); adds its new variables to `layout` at the
    next row indices.  A row is a tuple of terms aligned with the layout,
    and a hit `t` of the lookup extends it by `t[take]`."""
    given: list[Term | None] = [None, None, None]  # constants by position
    from_row = []  # (position, row index) of bound variables
    first: dict[str, int] = {}  # new variable -> position that binds it
    same = []  # (first, later) positions of a repeated new variable
    for position, slot in enumerate((tp.subject, tp.predicate, tp.object)):
        if not isinstance(slot, Var):
            given[position] = slot
        elif slot.name in layout:
            from_row.append((position, layout[slot.name]))
        elif slot.name in first:
            same.append((first[slot.name], position))
        else:
            first[slot.name] = position
    for name in first:
        layout[name] = len(layout)
    take = None
    if first:
        # ascending subsets of (0, 1, 2) are evenly spaced, so one slice
        # of the triple is the new variables' terms as a plain tuple
        at = list(first.values())
        take = slice(at[0], at[-1] + 1, at[1] - at[0] if len(at) > 1 else 1)
    return given, tuple(from_row), take, tuple(same)


def _plan(graph: Graph, pattern: GraphPattern, bound: dict[str, int]) -> tuple:
    """Order a group's patterns greedily by `_rank`, ties in text order, and
    plan its filters against every variable the group binds.  The plan is
    (steps, filters, layout, reads): `layout` maps each variable to its row
    index after the steps, and `reads` holds the indices of the seed row
    that the steps and filters read."""
    layout = dict(bound)
    remaining = list(pattern.triples)
    ranks = None  # of `remaining`, until the layout grows
    steps = []
    while remaining:
        best = 0
        if len(remaining) > 1:
            if ranks is None:
                ranks = [_rank(graph, tp, layout) for tp in remaining]
            best = min(range(len(remaining)), key=ranks.__getitem__)
            ranks.pop(best)
        width = len(layout)
        steps.append(_step(remaining.pop(best), layout))
        if len(layout) > width:  # new variables give more positions
            ranks = None
    seed = len(bound)
    reads = {index for _, from_row, _, _ in steps for _, index in from_row if index < seed}
    # A filter that reads only part of the row remembers its answer for
    # each combination of the terms it reads, so rows that agree on them,
    # or all rows when it reads none, share one evaluation.  A filter that
    # reads the whole row keeps no answers: no row reaches it twice.
    filters = []
    for flt in pattern.filters:
        inner = _plan(graph, flt.inner, layout)
        _, _, _, inner_reads = inner
        key = None
        if len(inner_reads) < len(layout):
            key = itemgetter(*inner_reads) if inner_reads else _no_terms
        filters.append((flt.polarity is Polarity.EXISTS, inner, key, {}))
        reads.update(index for index in inner_reads if index < seed)
    return steps, filters, layout, reads


def _no_terms(row: tuple) -> tuple:
    return ()


def _passes(lookup, filters: list[tuple], row: tuple) -> bool:
    """Whether a row satisfies every filter of its group; the first inner
    solution decides each one."""
    for want, inner, key, answers in filters:
        if key is None:
            found = next(_solve(lookup, inner, row), None) is not None
        else:
            terms = key(row)
            found = answers.get(terms)
            if found is None:
                found = answers[terms] = next(_solve(lookup, inner, row), None) is not None
        if found is not want:
            return False
    return True


def _solve(lookup, plan: tuple, seed: tuple) -> Iterator[tuple]:
    """Lazy solutions of a plan extending one row: the steps depth first,
    one live lookup per step, then the correlated filters.  The stack does
    not grow with the number of patterns or filters in a group."""
    steps, filters, _, _ = plan
    last = len(steps) - 1
    if last < 0:
        if not filters or _passes(lookup, filters, seed):
            yield seed
        return
    rows = [seed] * len(steps)  # rows[k]: the row step k extends
    live: list[Iterator[Triple]] = [iter(())] * len(steps)  # step k's lookup
    k = 0
    opening: tuple | None = seed  # a row for step k to start a lookup on
    while k >= 0:
        given, from_row, take, same = steps[k]
        if opening is not None:
            args = given
            if from_row:
                args = given.copy()
                for position, index in from_row:
                    args[position] = opening[index]
            rows[k], live[k], opening = opening, iter(lookup(*args)), None
        for t in live[k]:
            if same and any(t[a] != t[b] for a, b in same):
                continue
            row = rows[k] if take is None else rows[k] + t[take]
            if k < last:
                k, opening = k + 1, row
                break
            if not filters or _passes(lookup, filters, row):
                yield row
        else:
            k -= 1


def evaluate(query: Query, graph: Graph) -> SolutionTable:
    """Evaluate a query against a graph, or anything that answers its
    `triples`, `pool_size` and `len` as reasoner.EntailmentView does, and
    return the projected, deduplicated, sorted table.  The rows do not
    depend on the order in which a lookup yields its triples.

    An empty WHERE group yields a single empty solution, so `SELECT *
    WHERE { }` has one row of no columns.
    """
    plan = _plan(graph, query.where, {})
    _, _, layout, _ = plan
    if query.projection is None:
        variables = []
        for tp in query.where.triples:
            for name in tp.variables():
                if name not in variables:
                    variables.append(name)
    else:
        variables = list(query.projection)
    # a variable that occurs only inside filters is never bound
    columns = [layout.get(v) for v in variables]
    unique = dict.fromkeys(
        tuple(None if c is None else solution[c] for c in columns)
        for solution in _solve(graph.triples, plan, ())
    )
    rows = sorted(unique, key=lambda row: tuple("" if t is None else term_sort_key(t) for t in row))
    return SolutionTable(variables=variables, rows=rows)
