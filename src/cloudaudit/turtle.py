"""Turtle subset reader and writer.

The supported grammar is deliberately small: exactly what the bundled model
and shapes files use, rejected loudly everywhere else.

  - ``#`` comments anywhere between tokens
  - ``@prefix`` directives (last binding wins)
  - IRIREF ``<...>`` with ``\\uXXXX`` / ``\\UXXXXXXXX`` escapes only
  - prefixed names whose local part may contain interior ``.`` (never
    terminal) plus ``-``, ``_`` and digits, e.g. ``iso27001:A.9.4.1``
  - the ``a`` keyword for rdf:type
  - ``;`` predicate lists (trailing ``;`` tolerated) and ``,`` object lists
  - ``[ ... ]`` anonymous blank node property lists, nested at most
    MAX_NESTING deep
  - double-quoted string literals with ``\\"``, ``\\\\``, ``\\n``, ``\\t``
  - non-negative integer literals of ASCII digits (typed xsd:integer), used
    by shape counts

No ``@base``, relative IRIs, collections, ``^^`` datatypes, language tags,
decimals or booleans: those raise a positioned ParseError instead of being
silently misread.

A ``.`` terminates a statement only when followed by whitespace, ``#`` or
end of input; that is what lets ``iso27001:A.9.4.1 .`` lex correctly.

`tokenize` serves this parser and the query parser: one compiled regular
expression with a named group per token kind, matched at a moving offset.
The query-only tokens (``{``, ``}``, ``*``, ``?var`` and keywords) are groups
of the same expression, and Turtle rejects them at lex time, so the first
lexical error in a file is the one reported.  Tokens carry their character
offset; line and column are worked out only when a ParseError is raised.
When no token matches, `_lex_error` reads the offending construct again to
name the error and its position.

`parse_turtle` reads a statement at a time.  A statement of prefixed names,
``a`` and strings without escapes, in ``,`` and ``;`` lists, is read by the
step regexes (subject, predicate and object steps, each ending at its
``[;,.]``), which build its triples from the match groups with no Token
objects, through `rdf`'s unchecked constructors, and add them in one
`Graph.update`.  The checks skipped could not fail: a step IRI is a
namespace `PrefixMap.bind` validated plus an ASCII local name, a step
literal is a plain string, and the subject and verb are IRIs.  Any other
statement (``[ ... ]``, ``<iri>``, integers, escapes, ``@prefix``, a
trailing ``;``) is tokenized on its own, up to its ``.``, and parsed by the
token parser; the two paths share the IRI table, the prefix map and the
blank node counter.

An error is raised from the statement that meets it, with one rule kept
from lexing the whole text first: a lexical error anywhere beats a
grammar error.  So when a statement fails, the rest of the text, from that
statement on, is lexed a statement at a time, and its first lexical error,
if any, is raised instead.  That is exact: every statement before was
lexed whole, and the token parser fails at a statement's first ``.`` at
the latest, so a grammar error is the same whether its tokens stop there
or not.

Parsing is pure: the same input always yields the same Document, with blank
node labels minted as b1, b2, ... in encounter order.

`serialize_turtle` writes the subset back: prefix directives by label, one
statement per IRI subject in `term_sort_key` order, then a ``[ ... ] .``
statement per blank node that is no triple's object, in text order, with
predicates by IRI (rdf:type as ``a``) and objects by `term_sort_key`, blank
nodes last and by their text.  A blank node object is written inline where
it is used, ``[]`` when empty.  No blank node label reaches the output, so
writing what was read back gives the same bytes.
It refuses, in this order, a blank node that is the object of two triples,
a literal the reader would not take back, and blank nodes in a cycle.
It reads the graph in one pass, grouping each subject's objects by
predicate, and makes no `Graph` lookup, so writing a graph builds no index.
Each distinct IRI and literal, and the text of each predicate, is rendered
once per call.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple, NoReturn

from .rdf import (
    BlankNode,
    Graph,
    Iri,
    LOCAL_NAME,
    Literal,
    PREFIX_LABEL,
    PrefixMap,
    Record,
    Term,
    Triple,
    UnknownPrefixError,
    XSD_INTEGER,
    XSD_STRING,
    _LITERAL_ESCAPES,
    _iri,
    _literal,
    _triple,
    iriref,
    is_prefix_label,
    term_sort_key,
)
from .vocab import RDF_TYPE

# Deepest nesting of '[' (Turtle) or '{' (query) groups either parser accepts.
MAX_NESTING = 256


class ErrorKind(enum.Enum):
    UNEXPECTED_TOKEN = "UnexpectedToken"
    UNKNOWN_PREFIX = "UnknownPrefix"
    UNTERMINATED_STRING = "UnterminatedString"
    UNTERMINATED_IRI = "UnterminatedIri"
    BAD_ESCAPE = "BadEscape"
    BAD_LOCAL_NAME = "BadLocalName"
    TOO_DEEP = "TooDeep"


class ParseError(Exception):
    """Syntax error with a 1-based (line, column) of the first offending character."""

    def __init__(self, line: int, column: int, kind: ErrorKind, detail: str):
        super().__init__(f"{line}:{column}: {detail}")
        self.line = line
        self.column = column
        self.kind = kind
        self.detail = detail

    @classmethod
    def at(cls, text: str, offset: int, kind: ErrorKind, detail: str) -> "ParseError":
        """The error at a character offset of `text`."""
        line = text.count("\n", 0, offset) + 1
        return cls(line, offset - text.rfind("\n", 0, offset), kind, detail)


class Document(Record):
    """A parsed Turtle file: its graph plus the prefix map it declared."""

    __slots__ = ("graph", "prefixes")
    __hash__ = None

    def __init__(self, graph: Graph | None = None, prefixes: PrefixMap | None = None):
        self.graph = Graph() if graph is None else graph
        self.prefixes = PrefixMap() if prefixes is None else prefixes


class Token(NamedTuple):
    # iriref pname a string integer . ; , [ ] @prefix eof, and in queries
    # also { } star var keyword
    kind: str
    offset: int
    value: str = ""
    local: str = ""  # pname only


# The text an IRIREF or a string may hold before its closing delimiter.
_IRI_BODY = r'<[^<>"\\ \t\n]*(?:\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^<>"\\ \t\n]*)*'
_STRING_BODY = r'"[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*'
# \w is str.isalnum() or '_'; the first character must also be a letter or
# '_', which tokenize checks, because some digit-like letters such as '²'
# are neither \d nor str.isalpha().
_WORD = r"(?!\d)\w[\w-]*"
# ASCII only, interior dots, never starting with '.' or '-': trailing dots
# stay in the stream to end the statement.
_LOCAL = rf"{LOCAL_NAME}(?!\.*[A-Za-z0-9_-])"

_TOKEN_RE = re.compile(
    rf"""(?:\s+|\#[^\n]*)*
    (?:(?P<pname>(?P<label>{_WORD})?:(?P<local>{_LOCAL}))
      |(?P<punct>[.;,\[\]{{}}*])
      |(?P<iriref>{_IRI_BODY}>)
      |(?P<string>{_STRING_BODY}")
      |(?P<word>{_WORD})(?![\w:-])
      |(?P<integer>[0-9]+)
      |(?P<var>\?\w+)
      |(?P<directive>@prefix)(?![^\W\d_])
      |(?P<eof>\Z)
      |(?P<error>))""",
    re.VERBOSE,
)

# The statement steps parse_turtle tries first.  A gap is whitespace and
# whole comment lines, so a step that fails backtracks through it once
# instead of in every way its whitespace could be split.  Each token they
# read is the one tokenize would read there: ASCII prefix labels only, and
# the 'a' keyword and plain strings (no escapes) end where the words and
# strings of _TOKEN_RE end.
_GAP = r"\s*(?:#[^\n]*\n\s*)*"
_PNAME = rf"{PREFIX_LABEL}:{_LOCAL}"
_OBJECT_STEP_RE = re.compile(rf'{_GAP}({_PNAME}|"[^"\\\n]*"){_GAP}([;,.])')
_PREDICATE_STEP_RE = re.compile(rf"{_GAP}({_PNAME}|a(?![\w:-])){_OBJECT_STEP_RE.pattern}")
_SUBJECT_STEP_RE = re.compile(rf"{_GAP}({_PNAME}){_PREDICATE_STEP_RE.pattern}")

# Only errors and escapes need these, so they are compiled on first use,
# through re's cache, not at import.
_LOCAL_RUN = r"[A-Za-z0-9_.-]*"
_UCHAR = r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})"
_ECHAR = r"\\(.)"
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_KEYWORDS = {"select", "where", "filter", "not", "exists", "prefix"}


def _is_word_start(word: str) -> bool:
    return word[0].isalpha() or word[0] == "_"


def _unexpected_character(text: str, offset: int) -> ParseError:
    return ParseError.at(
        text, offset, ErrorKind.UNEXPECTED_TOKEN, f"unexpected character {text[offset]!r}"
    )


def tokenize(text: str, query: bool = False, pos: int = 0, statement: bool = False) -> list[Token]:
    """Split Turtle text, or query text when `query` is set, from offset
    `pos` into tokens ending with an 'eof' token.  With `statement`, the
    tokens stop after the first '.' as if the input ended there.

    Raises ParseError at the first lexical error; in Turtle the query-only
    tokens are lexical errors.
    """
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        pos = m.end()
        if kind == "pname":
            label = m["label"] or ""
            if label and not _is_word_start(label):
                raise _unexpected_character(text, start)
            append(Token(kind, start, label, m["local"]))
        elif kind == "punct":
            c = text[start]
            if c in "{}*":
                if not query:
                    raise _unexpected_character(text, start)
                if c == "*":
                    c = "star"
            append(Token(c, start))
            if statement and c == ".":
                append(Token("eof", pos))
                return tokens
        elif kind == "iriref":
            value = m[kind][1:-1]
            if "\\" in value:
                value = _unescape_iri(text, start + 1, value)
            append(Token(kind, start, value))
        elif kind == "string":
            value = m[kind][1:-1]
            if "\\" in value:
                value = re.sub(_ECHAR, lambda e: _ESCAPES[e[1]], value)
            append(Token(kind, start, value))
        elif kind == "word":
            word = m[kind]
            if not _is_word_start(word):
                raise _unexpected_character(text, start)
            if query and word.lower() in _KEYWORDS:
                append(Token("keyword", start, word.lower()))
            elif word == "a":
                append(Token("a", start))
            else:
                what = "unsupported construct" if query else "unexpected word"
                raise ParseError.at(text, start, ErrorKind.UNEXPECTED_TOKEN, f"{what} {word!r}")
        elif kind == "integer":
            append(Token(kind, start, m[kind]))
        elif kind == "var":
            if not query:
                raise _unexpected_character(text, start)
            append(Token(kind, start, m[kind][1:]))
        elif kind == "directive":
            append(Token("@prefix", start))
        elif kind == "eof":
            append(Token(kind, start))
            return tokens
        else:
            raise _lex_error(text, start, query)


def _unescape_iri(text: str, offset: int, value: str) -> str:
    """Decode the \\u and \\U escapes of an IRIREF body found at `offset`."""

    def uchar(u: re.Match) -> str:
        code = int(u[1] or u[2], 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            detail = f"{u[0]} is not a Unicode scalar value"
            raise ParseError.at(text, offset + u.start(), ErrorKind.BAD_ESCAPE, detail)
        return chr(code)

    return re.sub(_UCHAR, uchar, value)


def _lex_error(text: str, offset: int, query: bool) -> ParseError:
    """The error at `offset`, where no token matches."""
    c = text[offset]
    if c == "<":
        end = re.compile(_IRI_BODY).match(text, offset).end()
        bad = text[end:end + 1]
        if bad in ("", "\n"):
            return ParseError.at(text, end, ErrorKind.UNTERMINATED_IRI, "IRI not closed with '>'")
        if bad == "\\":
            escape = text[end + 1:end + 2]
            if escape in ("u", "U"):
                return ParseError.at(text, end, ErrorKind.BAD_ESCAPE, "truncated \\u escape")
            detail = f"unsupported IRI escape \\{escape}"
            return ParseError.at(text, end, ErrorKind.BAD_ESCAPE, detail)
        return ParseError.at(
            text, end, ErrorKind.UNEXPECTED_TOKEN, f"character {bad!r} not allowed inside IRI"
        )
    if c == '"':
        end = re.compile(_STRING_BODY).match(text, offset).end()
        if text[end:end + 1] == "\\" and end + 1 < len(text):
            return ParseError.at(
                text, end, ErrorKind.BAD_ESCAPE, f"unsupported string escape \\{text[end + 1]}"
            )
        if text[end:end + 1] == "\\":
            end += 1
        detail = "string not closed with '\"'"
        return ParseError.at(text, end, ErrorKind.UNTERMINATED_STRING, detail)
    if c == "@":
        end = offset + 1
        while end < len(text) and text[end].isalpha():
            end += 1
        if text[offset + 1:end] != "prefix":
            return ParseError.at(
                text, offset, ErrorKind.UNEXPECTED_TOKEN,
                f"unsupported directive '@{text[offset + 1:end]}'",
            )
        offset = end  # '@prefix' runs into a digit-like letter such as '²'
    elif c == "?" and query:
        return ParseError.at(text, offset, ErrorKind.UNEXPECTED_TOKEN, "empty variable name")
    elif c == ":" or _is_word_start(c):
        # a prefixed name whose local part starts with '.' or '-'
        start = text.index(":", offset) + 1
        chunk = re.compile(_LOCAL_RUN).match(text, start)[0].rstrip(".")
        return ParseError.at(text, start, ErrorKind.BAD_LOCAL_NAME, f"invalid local name {chunk!r}")
    return _unexpected_character(text, offset)


class TokenStream:
    """A cursor over the tokens of one text, shared by the Turtle and query parsers."""

    def __init__(self, text: str, tokens: list[Token]):
        self.text = text
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.iris: dict[str, Iri] = {}  # one Iri object per distinct IRI of the text

    def _cur(self) -> Token:
        return self.tokens[self.i]

    def _take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _error(self, tok: Token, kind: ErrorKind, detail: str) -> ParseError:
        return ParseError.at(self.text, tok.offset, kind, detail)

    def _fail(self, tok: Token, detail: str) -> NoReturn:
        raise self._error(tok, ErrorKind.UNEXPECTED_TOKEN, detail)

    def _iri(self, tok: Token, prefixes: PrefixMap) -> Iri:
        """The IRI an 'iriref' or 'pname' token names."""
        if tok.kind == "iriref":
            value = tok.value
        else:
            try:
                value = prefixes.namespace(tok.value) + tok.local
            except UnknownPrefixError:
                raise self._error(
                    tok, ErrorKind.UNKNOWN_PREFIX, f"prefix {tok.value!r} is not bound"
                ) from None
        iri = self.iris.get(value)
        if iri is None:
            try:
                iri = self.iris[value] = Iri(value)
            except ValueError as exc:  # empty, or a space or '<', '>', '"' by escape
                raise self._error(tok, ErrorKind.UNEXPECTED_TOKEN, str(exc)) from None
        return iri

    def _bind(self, prefixes: PrefixMap, label: Token, namespace: Token):
        """Bind the label of a 'pname' token to the IRI of an 'iriref' token."""
        if not is_prefix_label(label.value):
            self._fail(label, f"invalid prefix label {label.value!r}")
        prefixes.bind(label.value, self._iri(namespace, prefixes))

    def _enter(self, tok: Token):
        """Open the '[' or '{' group that `tok` starts."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(tok, ErrorKind.TOO_DEEP, f"groups nested deeper than {MAX_NESTING}")


class _Parser(TokenStream):
    def __init__(self, text: str, tokens: list[Token]):
        super().__init__(text, tokens)
        self.doc = Document()
        self._bnodes = 0
        # step token -> term, until the next @prefix: prefixed names, 'a'
        # and plain strings as the step regexes read them
        self._terms: dict[str, Term] = {"a": RDF_TYPE}

    def _expect(self, kind: str) -> Token:
        tok = self._cur()
        if tok.kind != kind:
            self._fail(tok, f"expected {kind!r}, found {self._describe(tok)}")
        return self._take()

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        return f"{tok.kind!r}" if not tok.value else f"{tok.kind} {tok.value!r}"

    def _fresh_bnode(self) -> BlankNode:
        self._bnodes += 1
        return BlankNode(f"b{self._bnodes}")

    def parse(self) -> Document:
        """Parse the whole token list: the reference the tests hold
        `parse_by_statement` to, documents and errors alike."""
        while self._cur().kind != "eof":
            if self._cur().kind == "@prefix":
                self._directive()
            else:
                self._statement()
        return self.doc

    def parse_by_statement(self) -> Document:
        """Parse the text one statement at a time: by the step regexes when
        they match it, else through the token parser on its own tokens.

        On an error, the first lexical error from the failing statement on
        is raised in its place, as lexing the whole text first would."""
        pos = 0
        try:
            while pos is not None:
                end = self._step_statement(pos)
                pos = self._token_statement(pos) if end is None else end
        except ParseError:
            while pos < len(self.text):
                pos = tokenize(self.text, pos=pos, statement=True)[-1].offset
            raise
        return self.doc

    def _step_statement(self, pos: int) -> int | None:
        """Add the statement at `pos` if the step regexes read all of it:
        prefixed names, 'a' and plain strings, with ',' and ';' lists.
        Returns the offset after its '.', or None having added nothing."""
        text, terms = self.text, self._terms
        m = _SUBJECT_STEP_RE.match(text, pos)
        if m is None:
            return None
        s, v, o, punct = m.groups()
        subject = terms.get(s) or self._step_term(s)
        verb = terms.get(v) or self._step_term(v)
        triples = []
        while True:
            obj = terms.get(o) or self._step_term(o)
            if subject is None or verb is None or obj is None:
                return None
            triples.append(_triple((subject, verb, obj)))
            if punct == ".":
                break
            if punct == ",":
                m = _OBJECT_STEP_RE.match(text, m.end())
                if m is None:
                    return None
                o, punct = m.groups()
            else:
                m = _PREDICATE_STEP_RE.match(text, m.end())
                if m is None:
                    return None
                v, o, punct = m.groups()
                verb = terms.get(v) or self._step_term(v)
        self.doc.graph.update(triples)
        return m.end()

    def _step_term(self, token: str) -> Term | None:
        """The term of a prefixed name or plain string a step read, or None
        when its prefix is not bound."""
        if token[0] == '"':
            term: Term = _literal((token[1:-1], XSD_STRING))
        else:
            label, _, local = token.partition(":")
            try:
                value = self.doc.prefixes.namespace(label) + local
            except UnknownPrefixError:
                return None
            term = self.iris.get(value) or self.iris.setdefault(value, _iri((value,)))
        self._terms[token] = term
        return term

    def _token_statement(self, pos: int) -> int | None:
        """Parse the directive or statement at `pos` from its tokens; the
        offset after its '.', or None at the end of the input."""
        self.tokens = tokenize(self.text, pos=pos, statement=True)
        self.i = 0
        kind = self._cur().kind
        if kind == "eof":
            return None
        if kind == "@prefix":
            self._directive()
            self._terms = {"a": RDF_TYPE}
        else:
            self._statement()
        return self.tokens[self.i - 1].offset + 1

    def _directive(self):
        self._take()  # @prefix
        label_tok = self._cur()
        if label_tok.kind != "pname" or label_tok.local:
            self._fail(label_tok, "expected a prefix label ending in ':'")
        self._take()
        ns = self._expect("iriref")
        self._expect(".")
        self._bind(self.doc.prefixes, label_tok, ns)

    def _statement(self):
        tok = self._cur()
        if tok.kind == "[":
            subject = self._bnode_property_list()
            if self._cur().kind != ".":
                self._predicate_object_list(subject)
        else:
            subject = self._subject()
            self._predicate_object_list(subject)
        self._expect(".")

    def _subject(self) -> Term:
        tok = self._take()
        if tok.kind in ("iriref", "pname"):
            return self._iri(tok, self.doc.prefixes)
        self._fail(tok, f"expected a subject, found {self._describe(tok)}")

    def _verb(self) -> Iri:
        tok = self._take()
        if tok.kind == "a":
            return RDF_TYPE
        if tok.kind in ("iriref", "pname"):
            return self._iri(tok, self.doc.prefixes)
        self._fail(tok, f"expected a predicate, found {self._describe(tok)}")

    def _object(self) -> Term:
        tok = self._cur()
        if tok.kind == "[":
            return self._bnode_property_list()
        self._take()
        if tok.kind in ("iriref", "pname"):
            return self._iri(tok, self.doc.prefixes)
        if tok.kind == "string":
            return Literal(tok.value)
        if tok.kind == "integer":
            return Literal(tok.value, XSD_INTEGER)
        self._fail(tok, f"expected an object, found {self._describe(tok)}")

    def _predicate_object_list(self, subject: Term):
        while True:
            verb = self._verb()
            while True:
                obj = self._object()
                self.doc.graph.add(Triple(subject, verb, obj))
                if self._cur().kind != ",":
                    break
                self._take()
            if self._cur().kind != ";":
                return
            while self._cur().kind == ";":
                self._take()
            if self._cur().kind in (".", "]", "eof"):
                return  # trailing ';'

    def _bnode_property_list(self) -> BlankNode:
        self._enter(self._expect("["))
        node = self._fresh_bnode()
        if self._cur().kind != "]":
            self._predicate_object_list(node)
        self._expect("]")
        self.depth -= 1
        return node


def parse_turtle(text: str) -> Document:
    """Parse Turtle text into a Document (graph + prefix map).

    Raises ParseError with a 1-based position for anything outside the
    supported subset.
    """
    return _Parser(text, []).parse_by_statement()


def serialize_turtle(doc: Document) -> str:
    """Write a Document as deterministic Turtle in the module docstring's
    order: identical documents give byte-identical output, which re-parses
    to the same graph up to blank-node labels.  Raises ValueError for the
    first of the module docstring's three refusals that the graph meets.
    """
    compact = doc.prefixes.compact
    # each subject's objects by predicate, in insertion order; `body`
    # pops the group it writes, so a group left at the end is one that no
    # statement reaches: blank nodes in a cycle
    groups: dict[Term, dict[Iri, list[Term]]] = {}
    referenced: set[BlankNode] = set()  # blank nodes used as an object
    shared: set[str] = set()
    for s, p, o in doc.graph:
        groups.setdefault(s, {}).setdefault(p, []).append(o)
        if isinstance(o, BlankNode):
            if o in referenced:
                shared.add(o.label)
            referenced.add(o)
    if shared:
        raise ValueError(
            f"blank node(s) {sorted(shared)} are referenced more than once; "
            "not expressible with anonymous property lists"
        )

    rendered: dict[Term, str] = {}  # IRI or literal -> its text, made once
    verbs: dict[Iri, str] = {}  # predicate -> its text and a space, made once

    def term(t: Term) -> str:
        """The text of a term that `rendered` does not hold yet."""
        if isinstance(t, Iri):
            text = compact(t) or iriref(t)
        elif isinstance(t, BlankNode):  # written inline where it is used
            inner = body(t, " ; ")
            return f"[ {inner} ]" if inner else "[]"
        elif t.datatype == XSD_STRING:
            text = '"' + t.lexical.translate(_LITERAL_ESCAPES) + '"'
        elif t.datatype == XSD_INTEGER and t.lexical.isascii() and t.lexical.isdigit():
            text = t.lexical
        else:
            raise ValueError(f"literal datatype {t.datatype.value} is not writable in this subset")
        rendered[t] = text
        return text

    def body(subject: Term, separator: str) -> str:
        """The subject's predicate-object list, one predicate per `separator`."""
        group = groups.pop(subject, {})
        parts = []
        for predicate in sorted(group):  # by IRI value
            verb = verbs.get(predicate)
            if verb is None:
                verb = verbs[predicate] = "a " if predicate == RDF_TYPE else term(predicate) + " "
            objects = group[predicate]
            if len(objects) == 1:
                o = objects[0]
                parts.append(verb + (rendered.get(o) or term(o)))
            else:
                # a blank node sorts by its text, which no label is part of
                keyed = []
                for o in objects:
                    text = rendered.get(o) or term(o)
                    keyed.append((text if isinstance(o, BlankNode) else term_sort_key(o), text))
                parts.append(verb + ", ".join(text for _, text in sorted(keyed)))
        return separator.join(parts)

    iri_subjects = sorted((s for s in groups if isinstance(s, Iri)), key=term_sort_key)
    # blank nodes never used as an object become their own statements
    roots = sorted(s for s in groups if isinstance(s, BlankNode) and s not in referenced)
    try:
        blocks = [(rendered.get(s) or term(s)) + " " + body(s, " ;\n  ") + " ."
                  for s in iri_subjects]
        blocks.extend(sorted(term(s) + " ." for s in roots))
    finally:
        # `term` and `body` refer to each other; breaking that cycle frees
        # the memo and the groups now, not at the next collection
        del term, body
    if groups:
        raise ValueError(
            "graph contains blank node cycles that cannot be written "
            "as anonymous property lists"
        )
    header = [f"@prefix {label}: {iriref(Iri(ns))} ." for label, ns in doc.prefixes.items()]
    parts = ["\n".join(header)] + blocks if header else blocks
    return "\n\n".join(parts) + "\n" if parts else ""
