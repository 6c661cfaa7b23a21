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
string literals (objects).  IRIs are resolved at parse time.  The text is
split by the Turtle module's `tokenize`, so lexical errors are the Turtle
ones.

Evaluation is a left-to-right nested-loop join seeded by the graph's
indexed matcher; there is no optimizer.  Solution rows are deduplicated and
sorted, so repeated evaluation of one query is byte-stable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .rdf import (
    Graph,
    Literal,
    PatternTerm,
    PrefixMap,
    Term,
    TriplePattern,
    Var,
    term_json,
    term_sort_key,
)
from .turtle import Token, TokenStream
from .vocab import RDF_TYPE


class Polarity(enum.Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"


@dataclass
class FilterExistence:
    polarity: Polarity
    inner: "GraphPattern"


@dataclass
class GraphPattern:
    triples: list[TriplePattern] = field(default_factory=list)
    filters: list[FilterExistence] = field(default_factory=list)

    def variable_names(self) -> list[str]:
        """Variables of the pattern in first-appearance order, filters included."""
        names: list[str] = []

        def walk(pattern: "GraphPattern"):
            for tp in pattern.triples:
                for name in tp.variables():
                    if name not in names:
                        names.append(name)
            for flt in pattern.filters:
                walk(flt.inner)

        walk(self)
        return names


@dataclass
class Query:
    prefixes: PrefixMap
    projection: list[str] | None  # None means SELECT *
    where: GraphPattern


@dataclass
class SolutionTable:
    """Projected query solutions: deduplicated, deterministically ordered rows.

    Each row is a tuple aligned with `variables`; a None entry means the
    variable was not bound in that solution.
    """

    variables: list[str]
    rows: list[tuple[Term | None, ...]]

    def as_dicts(self) -> list[dict[str, Term]]:
        return [
            {v: t for v, t in zip(self.variables, row) if t is not None}
            for row in self.rows
        ]

    def column(self, variable: str) -> list[Term | None]:
        idx = self.variables.index(variable)
        return [row[idx] for row in self.rows]

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
        super().__init__(text, query=True)
        self.prefixes = PrefixMap()

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
            in_scope = set(where.variable_names())
            for name in projection:
                if name not in in_scope:
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
            return Var(tok.value)
        if tok.kind in ("iriref", "pname"):
            return self._iri(tok, self.prefixes)
        if tok.kind == "a" and allow_a:
            return RDF_TYPE
        if tok.kind == "string" and allow_literal:
            return Literal(tok.value)
        self._fail(tok, f"unsupported term here: {tok.kind!r}")
        raise AssertionError("unreachable")


def parse_query(text: str) -> Query:
    """Parse a SELECT query in the supported subset; IRIs resolve at parse time."""
    return _QueryParser(text).parse()


def _eval_pattern(graph: Graph, pattern: GraphPattern, seed: dict[str, Term]) -> list[dict[str, Term]]:
    solutions = [dict(seed)]
    for tp in pattern.triples:
        extended: list[dict[str, Term]] = []
        for binding in solutions:
            concrete = tp.substitute(binding)
            for triple in graph.match(concrete):
                merged = dict(binding)
                merged.update(concrete.binding(triple))
                extended.append(merged)
        solutions = extended
        if not solutions:
            break
    for flt in pattern.filters:
        kept = []
        for binding in solutions:
            matched = bool(_eval_pattern(graph, flt.inner, binding))
            if matched == (flt.polarity is Polarity.EXISTS):
                kept.append(binding)
        solutions = kept
    return solutions


def evaluate(query: Query, graph: Graph) -> SolutionTable:
    """Evaluate a query against a graph (the caller picks asserted or
    materialized) and return the projected, deduplicated, sorted table.

    An empty WHERE group yields a single empty solution, so `SELECT *
    WHERE { }` has one row of no columns.
    """
    solutions = _eval_pattern(graph, query.where, {})
    if query.projection is None:
        variables = []
        for tp in query.where.triples:
            for name in tp.variables():
                if name not in variables:
                    variables.append(name)
    else:
        variables = list(query.projection)
    seen = set()
    rows: list[tuple[Term | None, ...]] = []
    for binding in solutions:
        row = tuple(binding.get(v) for v in variables)
        key = tuple("" if t is None else term_sort_key(t) for t in row)
        if key not in seen:
            seen.add(key)
            rows.append(row)
    rows.sort(key=lambda row: tuple("" if t is None else term_sort_key(t) for t in row))
    return SolutionTable(variables=variables, rows=rows)
