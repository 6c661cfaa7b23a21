"""Independent reference computations the tests check the engines against.

Each oracle deliberately uses a different algorithm than the code under
test: plain linear scans instead of indexes, exhaustive enumeration instead
of joins, a per-node walk without distances and the naive fixpoint instead
of the reasoner's shortest distances and their closed-form round count, and
a standard-by-standard scan instead of coverage's one read per node.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from itertools import product
from pathlib import Path

from cloudaudit.compliance import ComplianceReport, CoverageEvidence, CoverageState, StandardStatus
from cloudaudit.rdf import (BlankNode, Graph, Iri, Literal, PrefixMap, Term, Triple,
                            TriplePattern, Var, term_sort_key)
from cloudaudit.sparql import GraphPattern, Polarity, Query
from cloudaudit.turtle import ErrorKind
from cloudaudit.vocab import (ATTACHMENT_PROPERTIES, COMPLIES_WITH, HAS_SECURITY_POLICY,
                              IMPLEMENTS_STANDARD, MECHANISM_PROPERTIES, RDF_TYPE, RDFS_LABEL,
                              RDFS_SUBCLASS_OF)

CLOUDENG = "http://example.org/cloudengine#"
SEC = "http://example.org/security#"
ISO = "https://www.iso.org/standard/27001#"
NIST = "https://csrc.nist.gov/publications/detail/sp/800-53/rev-5/final#"
AWS = "https://aws.amazon.com/architecture/well-architected#"
OPENSTACK = "https://docs.openstack.org/#"
CSA = "https://cloudsecurityalliance.org/artifacts/cloud-controls-matrix/#"
GDPR = "https://eur-lex.europa.eu/legal-content/EN/TXT/?uri=CELEX:32016R0679#"


def ce(local: str) -> Iri:
    return Iri(CLOUDENG + local)


def sec(local: str) -> Iri:
    return Iri(SEC + local)


def scan_match(graph: Graph, pattern: TriplePattern) -> list[Triple]:
    """Match by unification over a full linear scan (no indexes), in
    insertion order."""
    slots = (pattern.subject, pattern.predicate, pattern.object)
    found = []
    for triple in graph:
        bound: dict[str, Term] = {}
        if all(bound.setdefault(slot.name, term) == term if isinstance(slot, Var) else slot == term
               for slot, term in zip(slots, triple)):
            found.append(triple)
    return found


def isomorphic(a: Graph, b: Graph) -> bool:
    """True iff a one-to-one renaming of blank nodes maps `a` onto `b`.

    Decided for blank-node forests only (each blank node is the object of at
    most one triple, none on a cycle) by canonical tree forms (Aho, Hopcroft
    & Ullman 1974); any other graph raises AssertionError."""
    return _forest_form(a) == _forest_form(b)


def _forest_form(graph: Graph) -> tuple[list, list]:
    """The triples with a non-blank subject and the blank nodes that are no
    triple's object, each sorted, with every blank node replaced by its form:
    the sorted (predicate, object form) pairs of its triples, children first.
    Other terms stand for themselves, tagged with their kind."""
    pairs: dict[BlankNode, list] = {}
    parented: set[BlankNode] = set()
    for s, p, o in graph:
        if isinstance(s, BlankNode):
            pairs.setdefault(s, []).append((p, o))
        if isinstance(o, BlankNode):
            if o in parented:
                raise AssertionError(f"shared blank node {o}: not a forest")
            parented.add(o)
            pairs.setdefault(o, [])
    formed: set[BlankNode] = set()

    def form(term) -> tuple:
        if not isinstance(term, BlankNode):
            return type(term).__name__, term
        formed.add(term)
        return "_", sorted((p, form(o)) for p, o in pairs[term])

    top = sorted((s, p, form(o)) for s, p, o in graph if not isinstance(s, BlankNode))
    roots = sorted(form(node) for node in pairs if node not in parented)
    if len(formed) < len(pairs):
        raise AssertionError("blank nodes on a cycle: not a forest")
    return top, roots


def type_closure(graph: Graph) -> set[Triple]:
    """Expected materialized graph, computed by per-node reachability."""
    supers: dict[Term, set[Term]] = {}
    for t in graph:
        if t.predicate == RDFS_SUBCLASS_OF:
            supers.setdefault(t.subject, set()).add(t.object)

    def reachable(start: Term) -> set[Term]:
        seen: set[Term] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for parent in supers.get(node, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen

    expected = {t for t in graph}
    for cls in list(supers):
        for ancestor in reachable(cls):
            expected.add(Triple(cls, RDFS_SUBCLASS_OF, ancestor))
    for t in graph:
        if t.predicate == RDF_TYPE:
            for ancestor in reachable(t.object):
                expected.add(Triple(t.subject, RDF_TYPE, ancestor))
    return expected


def naive_rounds(g: Graph) -> tuple[int, int]:
    """Rounds and inferred count of the naive fixpoint, which applies R1 and
    R2 to the whole graph every round.

    The reasoner computes the closure by reachability and its round count
    from path lengths, so this loop is the independent check of that
    count."""
    facts = set(g)
    rounds = 0
    while True:
        rounds += 1
        supers: dict = {}
        for t in facts:
            if t.predicate == RDFS_SUBCLASS_OF:
                supers.setdefault(t.subject, []).append(t.object)
        fresh = {
            Triple(t.subject, t.predicate, z)
            for t in facts
            if t.predicate in (RDFS_SUBCLASS_OF, RDF_TYPE)
            for z in supers.get(t.object, ())
        } - facts
        if not fresh:
            return rounds, len(facts) - len(g)
        facts |= fresh


# what a local name may hold: these characters, with none of ".-" first
# and no "." last (the Turtle subset's PN_LOCAL)
_LOCAL_NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")


def _writable_local(local: str) -> bool:
    return local == "" or (set(local) <= _LOCAL_NAME_CHARS and local[0] not in ".-"
                           and not local.endswith("."))


def scan_compact(bindings: dict[str, str], iri: Iri) -> str | None:
    """The prefixed form `PrefixMap.compact` should give for `iri` under the
    label -> namespace `bindings`, by a scan of every binding: of those whose
    namespace starts the IRI and leaves a writable local name, the longest
    namespace, and the smallest label on ties; None when there is none."""
    fits = [(len(ns), label) for label, ns in bindings.items()
            if iri.value.startswith(ns) and _writable_local(iri.value[len(ns):])]
    if not fits:
        return None
    longest = max(length for length, _ in fits)
    label = min(label for length, label in fits if length == longest)
    return f"{label}:{iri.value[longest:]}"


def _scan_objects(graph: Graph, subject: Term, predicates) -> list[Term]:
    """Objects of `subject` under any of `predicates` that are nodes (no
    literal), by a full scan."""
    return [o for s, p, o in graph if s == subject and p in predicates and not isinstance(o, Literal)]


def _node_order(node: Term) -> tuple:
    # IRIs by value, then blank nodes by label
    return (isinstance(node, BlankNode), node.label if isinstance(node, BlankNode) else node.value)


def _node_text(node: Term) -> str:
    return f"_:{node.label}" if isinstance(node, BlankNode) else node.value


def scan_coverage(graph: Graph, engine: Iri) -> ComplianceReport | None:
    """The report `compliance.coverage` should give, or None where it should
    raise NoPolicyError, worked out one standard at a time by full scans:
    for each declared standard, each attached interface in order and then
    each of its mechanisms, property by property."""
    policies = sorted(set(_scan_objects(graph, engine, (HAS_SECURITY_POLICY,))), key=_node_order)
    if not policies:
        return None
    declared = {o for policy in policies for o in _scan_objects(graph, policy, (COMPLIES_WITH,))
                if isinstance(o, Iri)}
    interfaces = sorted(set(_scan_objects(graph, engine, ATTACHMENT_PROPERTIES)), key=_node_order)
    statuses = []
    for standard in sorted(declared, key=lambda s: s.value):
        evidence = []
        for interface in interfaces:
            if _contains(graph, interface, IMPLEMENTS_STANDARD, standard):
                evidence.append(CoverageEvidence(standard, interface))
            for prop in MECHANISM_PROPERTIES:
                for mechanism in sorted(set(_scan_objects(graph, interface, (prop,))),
                                        key=term_sort_key):
                    if _contains(graph, mechanism, IMPLEMENTS_STANDARD, standard):
                        evidence.append(CoverageEvidence(standard, interface, mechanism, prop))
        labels = [o for s, p, o in graph if s == standard and p == RDFS_LABEL and isinstance(o, Literal)]
        label = sorted(labels, key=term_sort_key)[0].lexical if labels else None
        statuses.append(StandardStatus(standard, label, tuple(evidence)))
    warnings = []
    if len(policies) > 1:
        listed = ", ".join(map(_node_text, policies))
        warnings.append(f"engine declares multiple security policies ({listed}); "
                        "using the union of their standards")
    return ComplianceReport(engine, policies[0], statuses, warnings)


def scan_hints(report: ComplianceReport, graph: Graph, prefixes: PrefixMap) -> list[str]:
    """The hints `compliance.remediation_hints` should give, by full scans:
    the IRI subjects implementing each gap, by IRI value, or else whether
    blank nodes implement it."""
    show = prefixes.render
    hints = []
    for status in report.statuses:
        if status.state is not CoverageState.GAP:
            continue
        standard = status.standard
        subjects = [s for s, p, o in graph if p == IMPLEMENTS_STANDARD and o == standard]
        implementers = sorted({s.value for s in subjects if isinstance(s, Iri)})
        if implementers:
            names = ", ".join(show(Iri(i)) for i in implementers)
            hints.append(f"{show(standard)}: implemented in the model by {names}; "
                         f"attach one of them to {show(report.engine)}")
        elif any(isinstance(s, BlankNode) for s in subjects):
            hints.append(f"{show(standard)}: implemented in the model only by blank nodes; "
                         f"give one an IRI to attach it to {show(report.engine)}")
        else:
            hints.append(f"{show(standard)}: no node in the model implements this standard")
    return hints


# The characters at which str.splitlines() breaks a line; test_rdf checks
# the list against every code point.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _contains(graph: Graph, s, p, o) -> bool:
    return any(t.subject == s and t.predicate == p and t.object == o for t in graph)


def _assignments(triples, binding, terms):
    """All total variable assignments making every pattern a graph fact."""
    names = []
    for tp in triples:
        for name in tp.variables():
            if name not in binding and name not in names:
                names.append(name)
    for choice in product(terms, repeat=len(names)):
        yield {**binding, **dict(zip(names, choice))}


def _slot(slot, binding):
    from cloudaudit.rdf import Var

    if isinstance(slot, Var):
        return binding[slot.name]
    return slot


def brute_solutions(graph: Graph, pattern: GraphPattern, binding: dict, terms) -> list[dict]:
    out = []
    for assignment in _assignments(pattern.triples, binding, terms):
        if not all(
            _contains(
                graph,
                _slot(tp.subject, assignment),
                _slot(tp.predicate, assignment),
                _slot(tp.object, assignment),
            )
            for tp in pattern.triples
        ):
            continue
        keep = True
        for flt in pattern.filters:
            matched = bool(brute_solutions(graph, flt.inner, assignment, terms))
            if matched != (flt.polarity is Polarity.EXISTS):
                keep = False
                break
        if keep:
            out.append(assignment)
    return out


def brute_rows(graph: Graph, query: Query) -> list[tuple[str, ...]]:
    """Projected, deduplicated, sorted rows by exhaustive enumeration,
    rendered through term_sort_key for comparison."""
    terms: set[Term] = set()
    for t in graph:
        terms.update((t.subject, t.predicate, t.object))
    if query.projection is None:
        variables = []
        for tp in query.where.triples:
            for name in tp.variables():
                if name not in variables:
                    variables.append(name)
    else:
        variables = list(query.projection)
    rows = set()
    for solution in brute_solutions(graph, query.where, {}, sorted(terms, key=term_sort_key)):
        rows.add(
            tuple(
                term_sort_key(solution[v]) if v in solution else "" for v in variables
            )
        )
    return sorted(rows)


def table_rows(table) -> list[tuple[str, ...]]:
    """Render a SolutionTable the same way brute_rows renders its rows."""
    return sorted(
        tuple("" if t is None else term_sort_key(t) for t in row) for row in table.rows
    )


# The lexical rules of Turtle and query texts, restated from the reference
# lexer, one named group per token kind matched at a moving offset.
_O_WORD = r"(?!\d)\w[\w-]*"
_O_LOCAL = r"(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?(?!\.*[A-Za-z0-9_-])"
_O_IRI = r'<[^<>"\\ \t\n]*(?:\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^<>"\\ \t\n]*)*'
_O_STRING = r'"[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*'
_O_TOKEN = re.compile(
    rf"""(?:\s+|\#[^\n]*)*
    (?:(?P<pname>(?P<label>{_O_WORD})?:{_O_LOCAL})
      |(?P<punct>[.;,\[\]{{}}*])
      |(?P<iri>{_O_IRI}>)
      |(?P<string>{_O_STRING}")
      |(?P<word>{_O_WORD})(?![\w:-])
      |(?P<integer>[0-9]+)
      |(?P<var>\?\w+)
      |(?P<directive>@prefix)(?![^\W\d_])
      |(?P<end>\Z)
      |(?P<none>))""",
    re.VERBOSE,
)
_O_KEYWORDS = {"select", "where", "filter", "not", "exists", "prefix"}


def first_lexical_error(text: str, query: bool = False) -> tuple | None:
    """The first lexical error of a Turtle text, or of a query text when
    `query` is set, as (ErrorKind, line, column, message); None if it has
    none.  In Turtle the query-only tokens are lexical errors."""

    def at(offset: int, kind: ErrorKind, message: str) -> tuple:
        line_start = text.rfind("\n", 0, offset) + 1
        return kind, text.count("\n", 0, offset) + 1, offset - line_start + 1, message

    def unexpected(offset: int) -> tuple:
        return at(offset, ErrorKind.UNEXPECTED_TOKEN, f"unexpected character {text[offset]!r}")

    def starts_word(word: str) -> bool:
        return word[0].isalpha() or word[0] == "_"

    pos = 0
    while True:
        m = _O_TOKEN.match(text, pos)
        kind, start, pos = m.lastgroup, m.start(m.lastgroup), m.end()
        if kind == "end":
            return None
        if kind == "pname":
            if m["label"] and not starts_word(m["label"]):
                return unexpected(start)
        elif kind == "punct":
            if text[start] in "{}*" and not query:
                return unexpected(start)
        elif kind == "iri":
            for u in re.finditer(r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})", m[kind]):
                code = int(u[1] or u[2], 16)
                if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                    return at(start + u.start(), ErrorKind.BAD_ESCAPE,
                              f"{u[0]} is not a Unicode scalar value")
        elif kind == "word":
            word = m[kind]
            if not starts_word(word):
                return unexpected(start)
            if query and word.lower() not in _O_KEYWORDS and word != "a":
                return at(start, ErrorKind.UNEXPECTED_TOKEN, f"unsupported construct {word!r}")
            if not query and word != "a":
                return at(start, ErrorKind.UNEXPECTED_TOKEN, f"unexpected word {word!r}")
        elif kind == "var":
            if not query:
                return unexpected(start)
        elif kind == "none":
            return _no_token_at(text, start, query, at, unexpected, starts_word)


def _no_token_at(text, offset, query, at, unexpected, starts_word) -> tuple:
    """The lexical error at an offset where no token starts."""
    c = text[offset]
    if c == "<":
        end = re.compile(_O_IRI).match(text, offset).end()
        stop = text[end:end + 1]
        if stop in ("", "\n"):
            return at(end, ErrorKind.UNTERMINATED_IRI, "IRI not closed with '>'")
        if stop != "\\":
            return at(end, ErrorKind.UNEXPECTED_TOKEN, f"character {stop!r} not allowed inside IRI")
        escape = text[end + 1:end + 2]
        if escape in ("u", "U"):
            return at(end, ErrorKind.BAD_ESCAPE, "truncated \\u escape")
        return at(end, ErrorKind.BAD_ESCAPE, f"unsupported IRI escape \\{escape}")
    if c == '"':
        end = re.compile(_O_STRING).match(text, offset).end()
        if text[end:end + 1] == "\\":
            if end + 1 < len(text):
                return at(end, ErrorKind.BAD_ESCAPE, f"unsupported string escape \\{text[end + 1]}")
            end += 1
        return at(end, ErrorKind.UNTERMINATED_STRING, "string not closed with '\"'")
    if c == "@":
        end = offset + 1
        while end < len(text) and text[end].isalpha():
            end += 1
        if text[offset + 1:end] != "prefix":
            return at(offset, ErrorKind.UNEXPECTED_TOKEN,
                      f"unsupported directive '@{text[offset + 1:end]}'")
        return unexpected(end)  # '@prefix' runs into a digit-like letter such as '²'
    if c == "?" and query:
        return at(offset, ErrorKind.UNEXPECTED_TOKEN, "empty variable name")
    if c == ":" or starts_word(c):
        local = text.index(":", offset) + 1
        run = re.match(r"[A-Za-z0-9_.-]*", text[local:])[0].rstrip(".")
        return at(local, ErrorKind.BAD_LOCAL_NAME, f"invalid local name {run!r}")
    return unexpected(offset)


def _load_generator():
    """The benchmark's model generator, whose Turtle reader shares no code
    with cloudaudit's."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_generator()
read_turtle = gen.read_turtle
"""Triples of a Turtle text by perfbench/gen.py's token-list reader: IRIs
as strings, ("L", text) strings, ("I", digits) integers and ("B", n) blank
nodes numbered from 0 in document order, duplicates kept."""
