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

One lexer serves this parser and the query parser: `_TOKEN_RE`, read with
`findall`, splits a text into token strings.  A token's kind comes from its
first character (``<`` IRIREF, ``"`` string, ``?`` variable, a digit an
integer, punctuation itself, and a letter, ``_`` or ``:`` a prefixed name
if it holds a ``:`` and a word if not), and the list ends with ``''`` or,
at the first character that starts no token, with the rest of the text.
The query-only tokens (``{``, ``}``, ``*``, ``?var`` and keywords) lex in
Turtle too and are lexical errors there.  Tokens carry no offset: line and
column are worked out only when a ParseError is raised, by lexing again
with `finditer` up to the offending token.

`parse_turtle` lexes the text in windows of about 64 KiB, each ending
after a line break, which no token holds, and reads their tokens in runs
that end after a ``.`` token.  The parser passes a ``.`` only at the end of
a statement, so no statement spans two runs, and only a window's tokens
are held at a time.  One recursive-descent reader reads the token
strings.  It keeps the term of each IRIREF, prefixed name, string and
integer token by the token's text until the next ``@prefix``, and adds a
run's triples to the graph in one `Graph.update`.  It builds prefixed-name
IRIs, literals and triples with `rdf`'s unchecked constructors, whose
checks could not fail: a prefixed name is a namespace `PrefixMap.bind`
validated plus an ASCII local name, a literal's text is a string, and the
grammar puts only IRIs and blank nodes in the subject and only IRIs in the
predicate.  Only IRIREF text is checked, by `Iri`, which refuses one that
is empty or holds a space, ``<``, ``>`` or ``"`` by escape.

A lexical error anywhere beats a grammar error, as if the whole text were
lexed first.  So when the reader fails, the lexical rules are checked over
the tokens from the failing one to the end of the text, in text order, and
the first lexical error found is raised in place of the grammar error.
That is exact: the reader took every token before the failing one as
valid.  A valid text is lexed once, and a failing one at most twice.

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
from itertools import chain, islice
from typing import Iterable, Iterator, NoReturn

from .rdf import (
    BlankNode,
    Graph,
    Iri,
    LOCAL_NAME,
    PrefixMap,
    Record,
    Term,
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


# The text an IRIREF or a string may hold before its closing delimiter.
_IRI_BODY = r'<[^<>"\\ \t\n]*(?:\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^<>"\\ \t\n]*)*'
_STRING_BODY = r'"[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*'
# \w is str.isalnum() or '_'; the first character must also be a letter or
# '_', which _token_problem checks, because some digit-like letters such as
# '²' are neither \d nor str.isalpha().
_WORD = r"(?!\d)\w[\w-]*"
# ASCII only, interior dots, never starting with '.' or '-': trailing dots
# stay in the stream to end the statement.
_LOCAL = rf"{LOCAL_NAME}(?!\.*[A-Za-z0-9_-])"

# The one lexer of both grammars, read with findall: a match skips
# whitespace and comments (a match with no '#' enters no repeat), and its
# one group is a token's text: a prefixed name, a word ('a' or a query
# keyword), punctuation, an IRIREF, a variable, a string, an integer or
# '@prefix'.  The last two alternatives give '' at the end of the input
# and, at the first character that starts no token, the rest of the input.
# No token holds a line break.  No two token alternatives match at one
# offset, so they are ordered by how often they occur, ASCII prefixed names
# and words first.  Query-only tokens and words other than 'a' and the
# keywords lex here and are refused by `_token_problem`.
_TOKEN_RE = re.compile(
    rf"""\s*(?:\#(?:[^\n]*\s*\#)*[^\n]*\s*|)
    ([A-Za-z_][A-Za-z0-9_-]*(?::{_LOCAL}|(?![\w:-]))
    |[.;,\[\]{{}}*]
    |{_IRI_BODY}>
    |\?\w+
    |{_STRING_BODY}"
    |(?:{_WORD})?:{_LOCAL}
    |{_WORD}(?![\w:-])
    |[0-9]+
    |@prefix(?![^\W\d_])
    |\Z
    |[\s\S]+)""",
    re.VERBOSE,
)
# Turtle is lexed in windows of about this many characters, each ending
# after a line break, so that only a window's tokens are held at a time.
_WINDOW = 1 << 16

# Only errors and escapes need these, so they are compiled on first use,
# through re's cache, not at import.
_LOCAL_RUN = r"[A-Za-z0-9_.-]*"
_UCHAR = r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})"
_ECHAR = r"\\(.)"
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_KEYWORDS = {"select", "where", "filter", "not", "exists", "prefix"}
# a token's kind, as error messages name it, by its first character;
# words and prefixed names are told apart by `_kind`
_KINDS = {"": "eof", "<": "iriref", '"': "string", "?": "var", "@": "@prefix", "*": "star"}
_KINDS.update({c: c for c in ".;,[]{}"})
_KINDS.update(dict.fromkeys("0123456789", "integer"))


def _kind(tok: str) -> str:
    """The kind of a token the lexer matched and `_token_problem` passes."""
    kind = _KINDS.get(tok[:1])
    if kind is None:
        return "pname" if ":" in tok else "a" if tok == "a" else "keyword"
    return kind


def _is_word_start(word: str) -> bool:
    return word[0].isalpha() or word[0] == "_"


def _unexpected_character(text: str, offset: int) -> ParseError:
    return ParseError.at(
        text, offset, ErrorKind.UNEXPECTED_TOKEN, f"unexpected character {text[offset]!r}"
    )


def _tokens(text: str, pos: int, end: int) -> list[str]:
    """The tokens of text[pos:end], which ends after a line break or at the
    end of the text: a list that ends with '', or with the rest of the
    input from the first character that starts no token."""
    if text[end - 1:end] == "\n":
        tokens = _TOKEN_RE.findall(text, pos, end)
    else:
        tokens = _TOKEN_RE.findall(text[pos:end] + "\n")
    # input that ends with a line break ends with a non-empty match, after
    # which findall adds an empty one at the end
    tokens.pop()
    return tokens


def _runs(text: str) -> Iterator[tuple[int, int, list[str]]]:
    """The tokens of a Turtle text, lexed a window at a time, in runs that
    each end with a '.' token and then '', but the last, which ends with the
    lexer's last token.  A run is (origin, skip, tokens): its tokens are the
    lexer's matches from offset `origin` on, after the first `skip`.  The
    parser passes a '.' only at the end of a statement, so no statement
    spans two runs.  A window with a lexical error ends the runs."""
    size = len(text)
    origin = skip = pos = 0
    carry: list[str] = []  # the tokens after the last '.'
    while True:
        end = text.find("\n", pos + _WINDOW) + 1 or size
        tokens = _tokens(text, pos, end)
        if end == size or tokens[-1]:
            yield origin, skip, carry + tokens
            return
        tokens.pop()  # the '' at the window's end
        if "." in tokens:
            cut = len(tokens) - tokens[::-1].index(".")
            carry.extend(tokens[:cut])
            carry.append("")
            yield origin, skip, carry
            carry, origin, skip = tokens[cut:], pos, cut
        else:
            carry += tokens
        pos = end


def _offset(text: str, origin: int, n: int) -> int:
    """The offset of the token of lexer match `n` from offset `origin`."""
    return next(islice(_TOKEN_RE.finditer(text, origin), n, None)).start(1)


def _bad_escape(body: str) -> re.Match | None:
    """The first \\u or \\U escape of an IRIREF body that is no Unicode
    scalar value, if any."""
    for u in re.finditer(_UCHAR, body):
        code = int(u[1] or u[2], 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            return u
    return None


def _decode(tok: str) -> str:
    """The text of an IRIREF or string token, escapes decoded; an IRIREF's
    must have passed `_bad_escape`."""
    body = tok[1:-1]
    if "\\" not in body:
        return body
    if tok[0] == "<":
        return re.sub(_UCHAR, lambda u: chr(int(u[1] or u[2], 16)), body)
    return re.sub(_ECHAR, lambda e: _ESCAPES[e[1]], body)


def _token_problem(tok: str, query: bool) -> tuple[int, ErrorKind, str] | None:
    """Why a token the lexer matched is a lexical error, as (its offset in
    the token, kind, detail), or None when it is none: query-only tokens in
    Turtle, words other than 'a' and the query keywords, prefix labels and
    words that do not start with a letter or '_', and IRIREF escapes that
    are no Unicode scalar value."""
    c = tok[:1]
    if c in '.;,[]"@0123456789':  # or '', which is in every string
        return None
    if c == "<":
        u = _bad_escape(tok[1:-1]) if "\\" in tok else None
        return u and (1 + u.start(), ErrorKind.BAD_ESCAPE, f"{u[0]} is not a Unicode scalar value")
    if c in "{}*?" and query:
        return None
    if not (c == ":" or _is_word_start(c)):
        return 0, ErrorKind.UNEXPECTED_TOKEN, f"unexpected character {c!r}"
    if ":" in tok or tok == "a" or query and tok.lower() in _KEYWORDS:
        return None
    what = "unsupported construct" if query else "unexpected word"
    return 0, ErrorKind.UNEXPECTED_TOKEN, f"{what} {tok!r}"


def _lexical_error(
    text: str, query: bool, runs: Iterable[tuple[int, int, list[str]]]
) -> ParseError | None:
    """The first lexical error among the tokens of `runs`, runs as `_runs`
    yields them, in text order; None if there is none."""
    for origin, skip, tokens in runs:
        *lexed, rest = tokens
        for k, tok in enumerate(lexed):
            problem = _token_problem(tok, query)
            if problem is not None:
                delta, kind, detail = problem
                return ParseError.at(text, _offset(text, origin, skip + k) + delta, kind, detail)
        if rest:
            return _lex_error(text, _offset(text, origin, skip + len(lexed)), query)
    return None


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
    """The tokens of one text, read by index, and the rules that the Turtle
    and query parsers share.  `run` holds the tokens being read, as a run
    of `_runs`, and `runs` yields the later ones.  Each parser names a
    token its errors found with its own `_describe`."""

    query = False  # whether the text is a query, for its lexical rules

    def __init__(self, text: str, runs: Iterator[tuple[int, int, list[str]]]):
        self.text = text
        self.runs = runs
        self.origin, self.skip, self.run = next(runs)

    def _lexical_error(self, i: int) -> ParseError | None:
        """The first lexical error from token `i` of the run on.  The
        parser read every token before it as valid, so none is earlier."""
        runs = chain([(self.origin, self.skip + i, self.run[i:])], self.runs)
        return _lexical_error(self.text, self.query, runs)

    def _error(self, i: int, kind: ErrorKind, detail: str) -> ParseError:
        """The error at token `i`, unless the text has a lexical error:
        one anywhere beats a grammar error."""
        error = self._lexical_error(i)
        if error is None:
            offset = _offset(self.text, self.origin, self.skip + i)
            error = ParseError.at(self.text, offset, kind, detail)
        return error

    def _fail(self, i: int, detail: str) -> NoReturn:
        raise self._error(i, ErrorKind.UNEXPECTED_TOKEN, detail)

    def _iri(self, i: int, prefixes: PrefixMap) -> Iri:
        """The IRI that the IRIREF or prefixed name at token `i` names.  A
        prefixed name's is built unchecked: a namespace that
        `PrefixMap.bind` validated plus an ASCII local name is a valid IRI.
        IRIREF text is checked by `Iri`."""
        tok = self.run[i]
        if tok[0] != "<":
            label, _, local = tok.partition(":")
            try:
                value = prefixes.namespace(label) + local
            except UnknownPrefixError:
                raise self._error(
                    i, ErrorKind.UNKNOWN_PREFIX, f"prefix {label!r} is not bound"
                ) from None
            return _iri((value,))
        if "\\" in tok and _bad_escape(tok[1:-1]):
            raise self._lexical_error(i)
        try:
            return Iri(_decode(tok))
        except ValueError as exc:  # empty, or a space or '<', '>', '"' by escape
            raise self._error(i, ErrorKind.UNEXPECTED_TOKEN, str(exc)) from None

    def _prefix(self, i: int):
        """Fail unless token `i` is a prefix label and the token after it an
        IRIREF, as `@prefix` and PREFIX declare them."""
        if self.run[i][-1:] != ":":  # only a prefixed name with no local part ends so
            self._fail(i, "expected a prefix label ending in ':'")
        if self.run[i + 1][:1] != "<":
            self._fail(i + 1, f"expected 'iriref', found {self._describe(self.run[i + 1])}")

    def _bind(self, prefixes: PrefixMap, i: int):
        """Bind the label token `i` declares to the IRIREF token after it."""
        label = self.run[i][:-1]
        if not is_prefix_label(label):
            self._fail(i, f"invalid prefix label {label!r}")
        prefixes.bind(label, self._iri(i + 1, prefixes))


class _Parser(TokenStream):
    def __init__(self, text: str):
        super().__init__(text, _runs(text))
        self.doc = Document()
        self.triples: list = []  # the run's triples, in text order
        self.depth = 0
        self.bnodes = 0
        # token -> term until the next @prefix: `names` holds 'a', IRIREFs
        # and prefixed names, `objects` the last two, strings and integers
        self.names: dict[str, Iri] = {"a": RDF_TYPE}
        self.objects: dict[str, Term] = {}

    @staticmethod
    def _describe(tok: str) -> str:
        kind = _kind(tok)
        if kind == "eof":
            return "end of input"
        if kind in ("iriref", "string"):
            value = _decode(tok)
        else:
            value = tok if kind == "integer" else tok.partition(":")[0] if kind == "pname" else ""
        return f"{kind!r}" if not value else f"{kind} {value!r}"

    def parse(self) -> Document:
        """Read the runs in turn, each into the graph in one update."""
        graph = self.doc.graph
        while True:
            if self.run[-1]:
                raise self._lexical_error(0)
            self._statements()
            graph.update(self.triples)
            self.triples.clear()
            run = next(self.runs, None)
            if run is None:
                return self.doc
            self.origin, self.skip, self.run = run

    def _statements(self):
        run = self.run
        name_of = self.names.get
        i = 0
        while True:
            tok = run[i]
            subject = name_of(tok)
            if subject is None or tok == "a":
                if not tok:
                    return
                if tok == "@prefix":
                    i = self._directive(i)
                    name_of = self.names.get
                    continue
                if tok == "[":
                    subject, i = self._bnode(i)
                    if run[i + 1] == ".":
                        i += 2
                        continue
                else:
                    subject = self._name(i, "a subject")
            i = self._pairs(i + 1, subject)
            if run[i] != ".":
                self._fail(i, f"expected '.', found {self._describe(run[i])}")
            i += 1

    def _directive(self, i: int) -> int:
        """Read the '@prefix' directive at token `i`; the index after it."""
        self._prefix(i + 1)
        if self.run[i + 3] != ".":
            self._fail(i + 3, f"expected '.', found {self._describe(self.run[i + 3])}")
        self._bind(self.doc.prefixes, i + 1)
        self.names, self.objects = {"a": RDF_TYPE}, {}
        return i + 4

    def _pairs(self, i: int, subject: Term) -> int:
        """Read the predicate-object list at token `i` into triples of
        `subject`; the index of the first token after it."""
        run = self.run
        name_of, object_of, add = self.names.get, self.objects.get, self.triples.append
        verb = name_of(run[i]) or self._name(i, "a predicate")
        while True:
            i += 1
            obj = object_of(run[i])
            if obj is None:
                obj, i = self._object(i)
            add(_triple((subject, verb, obj)))
            i += 1
            tok = run[i]
            if tok == ",":
                continue
            if tok != ";":
                return i
            i += 1
            verb = name_of(run[i])
            if verb is None:
                while run[i] == ";":
                    i += 1
                if run[i] in (".", "]", ""):
                    return i  # trailing ';'
                verb = name_of(run[i]) or self._name(i, "a predicate")

    def _bnode(self, i: int) -> tuple[BlankNode, int]:
        """Read the '[ ... ]' list at token `i`; its node and the index of
        its ']'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(i, ErrorKind.TOO_DEEP, f"groups nested deeper than {MAX_NESTING}")
        self.bnodes += 1
        node = BlankNode(f"b{self.bnodes}")
        i += 1
        if self.run[i] != "]":
            i = self._pairs(i, node)
        if self.run[i] != "]":
            self._fail(i, f"expected ']', found {self._describe(self.run[i])}")
        self.depth -= 1
        return node, i

    def _name(self, i: int, what: str) -> Iri:
        """The IRI of the IRIREF or prefixed name at token `i`, where
        `what` is expected; caches it by the token's text."""
        tok = self.run[i]
        if tok[:1] != "<" and (tok[:1] == '"' or ":" not in tok):
            self._fail(i, f"expected {what}, found {self._describe(tok)}")
        iri = self.names[tok] = self.objects[tok] = self._iri(i, self.doc.prefixes)
        return iri

    def _object(self, i: int) -> tuple[Term, int]:
        """The object at token `i` and the index of its last token; caches
        a term that is one token by the token's text."""
        tok = self.run[i]
        if tok == "[":
            return self._bnode(i)
        if tok[:1] == '"':
            term: Term = _literal((_decode(tok), XSD_STRING))
        elif "0" <= tok[:1] <= "9":
            term = _literal((tok, XSD_INTEGER))
        else:
            return self._name(i, "an object"), i
        self.objects[tok] = term
        return term, i


def parse_turtle(text: str) -> Document:
    """Parse Turtle text into a Document (graph + prefix map).

    Raises ParseError with a 1-based position for anything outside the
    supported subset.
    """
    return _Parser(text).parse()


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
