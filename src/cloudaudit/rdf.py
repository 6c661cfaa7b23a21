"""In-memory RDF substrate: terms, triples, indexed graphs, prefix maps.

Terms compare by byte equality of their string parts; IRIs are opaque keys
(no normalization, no dereferencing).  Graphs have set semantics.  Their
subject/predicate/object indexes are a cache of the triple set: each is
built by the first lookup that reads its position, and a write that adds a
triple drops them all, so parsing and copying a graph pay for no index.  A
graph is single-writer during construction and safe for concurrent reads
afterwards: a lookup publishes each index complete, in one assignment, so a
concurrent reader never sees half of one.

Terms and triples are tuples: `Iri` is ``(value,)``, `BlankNode`
``(label, None)``, `Literal` ``(lexical, datatype)`` and `Triple`
``(subject, predicate, object)``.  The public constructors validate them;
the Turtle reader builds them with the unchecked `_iri`, `_literal` and
`_triple` where its grammar has already validated the parts.  Hashing and
equality are the tuple's own, run natively; no hash is stored.  No two kinds
compare equal, though a term equals the plain tuple of its items.  Pickling
goes through `__getnewargs__`, so the loading process validates and hashes
again, under its own hash seed.
"""

from __future__ import annotations

import re
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

try:  # namedtuple's field descriptor: reads the item with no call in between
    from _collections import _tuplegetter
except ImportError:
    _tuplegetter = lambda index, doc: property(itemgetter(index), doc=doc)  # noqa: E731

# str.isspace() characters and the delimiters '<', '>' and '"'
_IRI_FORBIDDEN_RE = re.compile(r'[\s<>"]')


class UnknownPrefixError(KeyError):
    """A prefixed name used a label with no namespace binding."""

    def __init__(self, label: str):
        super().__init__(label)
        self.label = label

    def __str__(self) -> str:
        return f"unknown prefix: {self.label!r}"


class Iri(tuple):
    """An absolute IRI, compared byte-for-byte: the tuple ``(value,)``."""

    __slots__ = ()
    value = _tuplegetter(0, "The IRI string.")

    def __new__(cls, value: str):
        if not value:
            raise ValueError("IRI must be non-empty")
        bad = _IRI_FORBIDDEN_RE.search(value)
        if bad:
            raise ValueError(f"IRI contains forbidden character {bad[0]!r}: {value!r}")
        return tuple.__new__(cls, (value,))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"Iri({self.value!r})"


class BlankNode(tuple):
    """Graph-local anonymous node; identity is meaningful only within one
    graph.  The tuple ``(label, None)``."""

    __slots__ = ()
    label = _tuplegetter(0, "The label, unique within its graph.")

    def __new__(cls, label: str):
        if not isinstance(label, str):
            raise TypeError(f"blank node label must be a string, got {label!r}")
        if not label:
            raise ValueError("blank node label must be non-empty")
        return tuple.__new__(cls, (label, None))

    def __getnewargs__(self):
        return self[:1]

    def __repr__(self) -> str:
        return f"BlankNode({self.label!r})"


XSD_STRING = Iri("http://www.w3.org/2001/XMLSchema#string")
XSD_INTEGER = Iri("http://www.w3.org/2001/XMLSchema#integer")


class Literal(tuple):
    """A literal ``(lexical, datatype)``, a plain string by default.  Equal by
    the bytes of both parts; no datatype-aware value comparison is made."""

    __slots__ = ()
    lexical = _tuplegetter(0, "The lexical form.")
    datatype = _tuplegetter(1, "The datatype IRI.")

    def __new__(cls, lexical: str, datatype: Iri = XSD_STRING):
        if not isinstance(lexical, str):
            raise TypeError(f"literal lexical form must be a string, got {lexical!r}")
        if not isinstance(datatype, Iri):
            raise TypeError(f"literal datatype must be an IRI, got {datatype!r}")
        return tuple.__new__(cls, (lexical, datatype))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        if self.datatype == XSD_STRING:
            return f"Literal({self.lexical!r})"
        return f"Literal({self.lexical!r}, {self.datatype.value!r})"


Term = Union[Iri, BlankNode, Literal]


def term_sort_key(term: Term) -> str:
    """Canonical string form used for deterministic ordering of terms.

    Literals sort before IRIs, IRIs before blank nodes ('"' < '<' < '_').
    """
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    return f'"{term.lexical}"^^<{term.datatype.value}>'


def term_json(term: Term) -> dict:
    """Render a term as a {type, value} mapping for JSON output."""
    if isinstance(term, Iri):
        return {"type": "iri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    return {"type": "literal", "value": term.lexical}


def iriref(iri: Iri) -> str:
    """An IRI as Turtle and SPARQL text write it, `<...>`, so that it reads
    back as the same IRI: a backslash becomes the escape \\u005C."""
    return "<" + iri.value.replace("\\", "\\u005C") + ">"


# The string escapes the Turtle reader decodes, as one str.translate table.
_LITERAL_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"})
# and \uXXXX for the other characters at which str.splitlines() breaks a line
_ONE_LINE_ESCAPES = {
    **_LITERAL_ESCAPES,
    **{ord(c): f"\\u{ord(c):04X}" for c in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"},
}


def one_line(text: str) -> str:
    """Literal text as text reports print it: with the Turtle writer's string
    escapes, and any other line break as \\uXXXX, so that it stays on its
    line and cannot pass for a line of the report."""
    return text.translate(_ONE_LINE_ESCAPES)


class Triple(tuple):
    """An RDF triple ``(subject, predicate, object)``, well-formed when built."""

    __slots__ = ()
    subject = _tuplegetter(0, "An IRI or blank node.")
    predicate = _tuplegetter(1, "An IRI.")
    object = _tuplegetter(2, "Any term.")

    def __new__(cls, subject: Term, predicate: Iri, object: Term):
        if not isinstance(subject, (Iri, BlankNode)):
            raise TypeError(f"subject must be an IRI or blank node, got {subject!r}")
        if not isinstance(predicate, Iri):
            raise TypeError(f"predicate must be an IRI, got {predicate!r}")
        if not isinstance(object, (Iri, BlankNode, Literal)):
            raise TypeError(f"object must be a term, got {object!r}")
        return tuple.__new__(cls, (subject, predicate, object))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"Triple(subject={self[0]!r}, predicate={self[1]!r}, object={self[2]!r})"


# Unchecked constructors for a caller whose parts are valid by construction;
# each takes the tuple of items, such as _triple((s, p, o)).
_iri = partial(tuple.__new__, Iri)
_literal = partial(tuple.__new__, Literal)
_triple = partial(tuple.__new__, Triple)


class Record:
    """Equality, hashing and repr by the fields named in `__slots__`, as a
    dataclass has them; an instance equals only one of its own class.  Only
    the class's own `__slots__` count, so each class names all its fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Var(Record):
    """A named variable slot in a triple pattern."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("variable name must be non-empty")
        self.name = name


PatternTerm = Union[Term, Var]


class TriplePattern(Record):
    """A triple with variables allowed in any position."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: PatternTerm, predicate: PatternTerm, object: PatternTerm):
        self.subject, self.predicate, self.object = subject, predicate, object

    def variables(self) -> list[str]:
        """Variable names in subject, predicate, object order, deduplicated."""
        names: list[str] = []
        for slot in (self.subject, self.predicate, self.object):
            if isinstance(slot, Var) and slot.name not in names:
                names.append(slot.name)
        return names


class Graph:
    """A set of triples with subject/predicate/object lookup indexes.

    Insertion is idempotent (set semantics).  Iteration and every lookup
    answer in insertion order, whatever the hash seed; the graph never
    sorts.  Reports that must not depend on load order sort what they read.

    The index at each position (subject, predicate, object) maps a term to
    its pool, the list of the triples that hold it there, in insertion
    order.  It is built from the triple set by the first lookup that reads
    that position; a write that adds a triple drops all three, and a copy
    starts without them.  Loading or writing a graph builds none.  Each
    index is published whole in one assignment, so concurrent first readers
    each see either none, and build their own, or a complete one.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: dict[Triple, None] = {}
        # pools by subject, predicate and object: lists, each index None
        # until read; the list of the three is None until a lookup
        self._index: Optional[list[Optional[dict]]] = None
        self.update(triples)

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns True iff it was not already present."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._index = None
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Insert many triples, as `add` would one by one, in one dict
        update; returns how many were new."""
        before = len(self._triples)
        self._triples.update(dict.fromkeys(triples))
        added = len(self._triples) - before
        if added:
            self._index = None
        return added

    def _pools(self, position: int) -> dict:
        """The index at `position` (0 subject, 1 predicate, 2 object), built
        in one pass over the triples at its first read, which keeps its pools
        near each other in memory, and published whole.  A pool is a list:
        the triples are a set and a write drops the index, so it holds no
        duplicate."""
        index = self._index
        if index is None:
            index = self._index = [None, None, None]
        pools = index[position]
        if pools is None:
            pools = {}
            for t in self._triples:
                pools.setdefault(t[position], []).append(t)
            index[position] = pools
        return pools

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def copy(self) -> "Graph":
        """The same triples in a new graph, which has no index yet."""
        clone = Graph()
        clone._triples = self._triples.copy()
        return clone

    def match(self, pattern: TriplePattern) -> list[Triple]:
        """All triples unifying with the pattern, in insertion order."""
        slots = (pattern.subject, pattern.predicate, pattern.object)
        hits = self.triples(*(None if isinstance(slot, Var) else slot for slot in slots))
        names = [slot.name if isinstance(slot, Var) else None for slot in slots]
        # a repeated variable binds one term: (first, later) positions it holds
        same = [(names.index(name), i) for i, name in enumerate(names)
                if name is not None and names.index(name) < i]
        if same:
            return [t for t in hits if all(t[a] == t[b] for a, b in same)]
        return list(hits)

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Triples with the given subject, predicate and object (None matches
        any), lazily and in insertion order.

        Reads the smallest index pool of the given terms (the subject's on
        ties, then the predicate's) and compares the other given terms with
        ==.  The graph must not change while the iterator is in use.
        """
        keys = [subject, predicate, obj]
        pool: Iterable[Triple] = self._triples
        picked = -1
        for k in range(3):
            if keys[k] is not None:
                candidate = self._pools(k).get(keys[k], ())
                if picked < 0 or len(candidate) < len(pool):
                    pool, picked = candidate, k
        if picked >= 0:
            keys[picked] = None
        s, p, o = keys
        if s is None and p is None and o is None:
            return iter(pool)
        return (
            t
            for t in pool
            if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)
        )

    def pool_size(self, position: int, term: Optional[Term] = None) -> float:
        """Size of the index pool `triples` would read for `term` at
        `position` (0 subject, 1 predicate, 2 object); with no term, the
        average pool size of that index."""
        index = self._pools(position)
        if term is None:
            return len(self._triples) / len(index) if index else 0.0
        return len(index.get(term, ()))

    def about(self, subject: Term) -> Sequence[Triple]:
        """The triples whose subject is `subject`, in insertion order: the
        subject index's pool itself, which the caller must not change, or
        an empty tuple."""
        return self._pools(0).get(subject, ())

    def objects(self, subject: Term, predicate: Iri) -> list[Term]:
        """Objects of (subject, predicate, ?) in insertion order."""
        return [t.object for t in self._pools(0).get(subject, ()) if t.predicate == predicate]

    def subjects(self, predicate: Iri, obj: Term) -> list[Term]:
        """Subjects of (?, predicate, obj) in insertion order."""
        return [t.subject for t in self._pools(2).get(obj, ()) if t.predicate == predicate]

    def __repr__(self) -> str:
        return f"Graph({len(self)} triples)"


# Prefix labels and local names our Turtle subset writes, as pattern text the
# readers build on.  A label starts with a letter or '_'; a local name starts
# with alnum or '_', never ends with '.', and may be empty, as may a label.
PREFIX_LABEL = r"(?:[A-Za-z_][A-Za-z0-9_-]*)?"
LOCAL_NAME = r"(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?"
_PREFIX_LABEL_RE = re.compile(PREFIX_LABEL)
# the characters a local name may hold: the middle class of LOCAL_NAME
_LOCAL_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-"
_LOCAL_RE = re.compile(LOCAL_NAME)


def is_local_name(text: str) -> bool:
    return _LOCAL_RE.fullmatch(text) is not None


def is_prefix_label(text: str) -> bool:
    return _PREFIX_LABEL_RE.fullmatch(text) is not None


class PrefixMap:
    """Prefix label -> namespace IRI bindings with Turtle last-write-wins."""

    def __init__(self, bindings: Optional[dict[str, str]] = None):
        self._bindings: dict[str, str] = {}
        self._compacted: dict[str, Optional[str]] = {}  # IRI string -> compact()
        # (label, namespace) pairs, longest namespace first and then by
        # label, as `compact` tries them; None until a compact reads them
        self._by_length: Optional[list[tuple[str, str]]] = None
        for label, ns in (bindings or {}).items():
            self.bind(label, ns)

    def bind(self, label: str, namespace: Union[str, Iri]) -> None:
        if not is_prefix_label(label):
            raise ValueError(f"invalid prefix label: {label!r}")
        ns = namespace.value if isinstance(namespace, Iri) else namespace
        Iri(ns)  # validate
        self._bindings[label] = ns
        self._compacted.clear()
        self._by_length = None

    def namespace(self, label: str) -> str:
        try:
            return self._bindings[label]
        except KeyError:
            raise UnknownPrefixError(label) from None

    def expand(self, qname: str) -> Iri:
        """Expand 'label:local' to a full IRI; raises UnknownPrefixError."""
        label, sep, local = qname.partition(":")
        if not sep:
            raise ValueError(f"not a prefixed name (missing ':'): {qname!r}")
        return Iri(self.namespace(label) + local)

    def compact(self, iri: Iri) -> Optional[str]:
        """Shortest prefixed form of an IRI, or None when not expressible.

        Picks the longest bound namespace that prefixes the IRI (smallest
        label on ties) and requires the remainder to be a writable local
        name, so expand(compact(iri)) round-trips exactly.  Answers are
        remembered per IRI until the next bind.
        """
        value = iri.value
        answer = self._compacted.get(value, False)
        if answer is not False:
            return answer
        answer = None
        by_length = self._by_length
        if by_length is None:
            by_length = self._by_length = sorted(
                self._bindings.items(), key=lambda item: (-len(item[1]), item[0]))
        # a namespace ends at or after the last character no local name holds
        shortest = len(value.rstrip(_LOCAL_CHARS))
        for label, ns in by_length:  # the first writable one is the answer
            if len(ns) < shortest:
                break
            if value.startswith(ns):
                local = value[len(ns):]
                if is_local_name(local):
                    answer = f"{label}:{local}"
                    break
        self._compacted[value] = answer
        return answer

    def render(self, term: Term) -> str:
        """A term as the text reports show it: an IRI in its prefixed form
        when it has one, else as <iri>; a literal as its quoted lexical
        form; a blank node as _:label."""
        if isinstance(term, Iri):
            return self.compact(term) or f"<{term.value}>"
        if isinstance(term, Literal):
            return f'"{one_line(term.lexical)}"'
        return f"_:{term.label}"

    def items(self) -> list[tuple[str, str]]:
        return sorted(self._bindings.items())

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        return f"PrefixMap({self._bindings!r})"
