"""Standards-coverage reports for cloud engine instances.

A standard declared by an engine's security policy counts as covered when
an interface attached to the engine either implements it directly or links
(one hop, via an authentication / authorization / encryption / transport /
identity-provider property) to a security mechanism that implements it.
Coverage is engine-scoped on purpose: facts about services the engine does
not attach never cover it.  Standards match by exact IRI; no hierarchy
among them is assumed.

Policies, interfaces and mechanisms may be IRIs or blank nodes, as for the
`coverage_queries` cross-check, which binds ?i and ?m to any node; JSON
reports and warnings write a blank node as _:label.  Standards are IRIs,
and so are the implementers a remediation hint names: attaching a blank
node would make it the object of two triples, which the Turtle writer
refuses, so a gap that only blank nodes implement gets a hint saying so.
Reports do not depend on load order: policies and interfaces go by IRI
value, blank nodes after the IRIs by label; standards and hint
implementers by IRI value; a standard's evidence by interface, its direct
evidence first, then its mechanisms in MECHANISM_PROPERTIES order and,
under each property, in `term_sort_key` order (which differs from
IRI-value order: `ex:a-b` before `ex:a`).

Every covered standard carries its full evidence chain so reports can be
replayed against the graph, and every gap can be paired with remediation
hints naming the model nodes that do implement the missing standard.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Union

from .rdf import (BlankNode, Graph, Iri, Literal, PrefixMap, Record, Triple, iriref, one_line,
                  term_sort_key)
from .vocab import (
    ATTACHMENT_PROPERTIES,
    COMPLIES_WITH,
    HAS_SECURITY_POLICY,
    IMPLEMENTS_STANDARD,
    MECHANISM_PROPERTIES,
    RDFS_LABEL,
)


Node = Union[Iri, BlankNode]


class NoPolicyError(ValueError):
    """The engine has no sec:hasSecurityPolicy triple."""

    def __init__(self, engine: Iri):
        super().__init__(f"engine {engine.value} declares no security policy")
        self.engine = engine


class CoverageState(enum.Enum):
    COVERED = "Covered"
    GAP = "Gap"


class EvidenceKind(enum.Enum):
    DIRECT = "Direct"
    MECHANISM = "Mechanism"


class CoverageEvidence(Record):
    """One replayable reason a standard is covered.

    Direct evidence cites (interface, implementsStandard, standard);
    mechanism evidence adds the linking hop (interface, linking_property,
    mechanism) followed by (mechanism, implementsStandard, standard).
    """

    __slots__ = ("standard", "interface", "via", "mechanism", "linking_property")

    def __init__(self, standard: Iri, interface: Node, via: EvidenceKind,
                 mechanism: Node | None = None, linking_property: Iri | None = None):
        mediated = via is EvidenceKind.MECHANISM
        if mediated != (mechanism is not None and linking_property is not None):
            raise ValueError("mechanism evidence requires mechanism and linking property")
        self.standard, self.interface, self.via = standard, interface, via
        self.mechanism, self.linking_property = mechanism, linking_property

    def cited_triples(self) -> list[Triple]:
        if self.via is EvidenceKind.DIRECT:
            return [Triple(self.interface, IMPLEMENTS_STANDARD, self.standard)]
        return [
            Triple(self.interface, self.linking_property, self.mechanism),
            Triple(self.mechanism, IMPLEMENTS_STANDARD, self.standard),
        ]

    def to_json_dict(self) -> dict:
        out = {"interface": _node_text(self.interface), "via": self.via.value}
        if self.via is EvidenceKind.MECHANISM:
            out["linkingProperty"] = self.linking_property.value
            out["mechanism"] = _node_text(self.mechanism)
        return out


class StandardStatus(Record):
    __slots__ = ("standard", "label", "state", "evidence")

    def __init__(self, standard: Iri, label: str | None, state: CoverageState,
                 evidence: tuple[CoverageEvidence, ...]):
        self.standard, self.label, self.state, self.evidence = standard, label, state, evidence


class ComplianceReport(Record):
    __slots__ = ("engine", "policy", "statuses", "gap_count", "warnings")
    __hash__ = None

    def __init__(self, engine: Iri, policy: Node, statuses: list[StandardStatus], gap_count: int,
                 warnings: list[str] | None = None):
        self.engine, self.policy, self.statuses = engine, policy, statuses
        self.gap_count = gap_count
        self.warnings = [] if warnings is None else warnings

    @property
    def gaps(self) -> list[Iri]:
        return [s.standard for s in self.statuses if s.state is CoverageState.GAP]

    def to_json_dict(self) -> dict:
        return {
            "engine": self.engine.value,
            "policy": _node_text(self.policy),
            "standards": [
                {
                    "iri": s.standard.value,
                    "label": s.label,
                    "state": s.state.value,
                    "evidence": [e.to_json_dict() for e in s.evidence],
                }
                for s in self.statuses
            ],
            "gaps": [g.value for g in self.gaps],
            "warnings": list(self.warnings),
        }

    def to_text(self, prefixes: PrefixMap | None = None) -> str:
        show = (PrefixMap() if prefixes is None else prefixes).render
        covered = len(self.statuses) - self.gap_count
        lines = [
            f"engine: {show(self.engine)}",
            f"policy: {show(self.policy)}",
            f"standards: {len(self.statuses)} declared, {covered} covered, {self.gap_count} gap(s)",
        ]
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        lines.append("")
        for status in self.statuses:
            tag = "COVERED" if status.state is CoverageState.COVERED else "GAP    "
            label = f"  ({one_line(status.label)})" if status.label else ""
            lines.append(f"{tag}  {show(status.standard)}{label}")
            for ev in status.evidence:
                if ev.via is EvidenceKind.DIRECT:
                    lines.append(f"         via {show(ev.interface)} (direct)")
                else:
                    lines.append(
                        f"         via {show(ev.interface)} -> "
                        f"{show(ev.linking_property)} -> {show(ev.mechanism)}"
                    )
        return "\n".join(lines)


_ATTACHMENTS = frozenset(ATTACHMENT_PROPERTIES)
# linking property -> its place in MECHANISM_PROPERTIES, the order evidence follows
_MECHANISM_POSITION = {prop: position for position, prop in enumerate(MECHANISM_PROPERTIES)}
# an Iri is the tuple (value,): its first item sorts IRIs by value, read in C
_VALUE = itemgetter(0)


def _node_key(node: Node) -> tuple[bool, str]:
    """IRIs by value, then blank nodes by label."""
    return isinstance(node, BlankNode), node[0]


def _link_key(link: tuple) -> tuple[int, str]:
    """A link (position, mechanism, property) by position, then mechanism."""
    return link[0], term_sort_key(link[1])


def _node_text(node: Node) -> str:
    """A node as JSON reports and warnings write it: an IRI's value, or _:label."""
    return f"_:{node.label}" if isinstance(node, BlankNode) else node.value


def coverage(graph: Graph, engine: Iri) -> ComplianceReport:
    """Compute the coverage report for one engine over a graph.

    The asserted graph is enough, and is what the CLI passes: the closure
    adds only rdf:type and rdfs:subClassOf triples, and coverage reads
    neither.

    Raises NoPolicyError when the engine has no security policy.  Multiple
    policies produce a warning and the union of their declared standards;
    the report names the first in the module docstring's order.  A
    standard's label is its first literal label in `term_sort_key` order.

    Reads the triples of each node it visits through `Graph.about`, once:
    the engine, each policy, each interface or mechanism (a node that is
    both is read once), and each declared standard; each triple is
    dispatched on its predicate.
    """
    about = graph.about
    policies: list[Node] = []
    attached: set[Node] = set()
    for _, predicate, obj in about(engine):
        if isinstance(obj, Literal):
            continue
        if predicate == HAS_SECURITY_POLICY:
            policies.append(obj)
        elif predicate in _ATTACHMENTS:
            attached.add(obj)
    if not policies:
        raise NoPolicyError(engine)
    policies.sort(key=_node_key)
    warnings = []
    if len(policies) > 1:
        listed = ", ".join(map(_node_text, policies))
        warnings.append(f"engine declares multiple security policies ({listed}); using the union of their standards")

    declared: set[Iri] = set()
    for policy in policies:
        declared.update(obj for _, predicate, obj in about(policy)
                        if predicate == COMPLIES_WITH and isinstance(obj, Iri))

    # each interface or mechanism's one read, by the first role to meet it: the declared
    # standards it implements and its links (position, mechanism, property), sorted
    memo: dict[Node, tuple[list[Iri], list]] = {}

    def read(node: Node) -> tuple[list[Iri], list]:
        entry = memo.get(node)
        if entry is None:
            implemented, linked = entry = memo[node] = [], []
            for _, predicate, obj in about(node):
                if predicate == IMPLEMENTS_STANDARD:
                    if obj in declared:
                        implemented.append(obj)
                else:
                    position = _MECHANISM_POSITION.get(predicate)
                    if position is not None and not isinstance(obj, Literal):
                        linked.append((position, obj, predicate))
            if len(linked) > 1:
                linked.sort(key=_link_key)
        return entry

    evidence: dict[Iri, list[CoverageEvidence]] = {standard: [] for standard in declared}
    for interface in sorted(attached, key=_node_key):
        implemented, linked = read(interface)
        for standard in implemented:
            evidence[standard].append(CoverageEvidence(standard, interface, EvidenceKind.DIRECT))
        for _, mechanism, prop in linked:
            for standard in read(mechanism)[0]:
                evidence[standard].append(
                    CoverageEvidence(standard, interface, EvidenceKind.MECHANISM, mechanism, prop)
                )
    statuses = []
    for standard in sorted(declared):  # an Iri is the tuple (value,): by value
        labels = [obj for _, predicate, obj in about(standard)
                  if predicate == RDFS_LABEL and isinstance(obj, Literal)]
        if len(labels) > 1:
            labels.sort(key=term_sort_key)
        found = evidence[standard]
        statuses.append(StandardStatus(
            standard=standard,
            label=labels[0].lexical if labels else None,
            state=CoverageState.COVERED if found else CoverageState.GAP,
            evidence=tuple(found),
        ))
    return ComplianceReport(
        engine=engine,
        policy=policies[0],
        statuses=statuses,
        gap_count=sum(s.state is CoverageState.GAP for s in statuses),
        warnings=warnings,
    )


def remediation_hints(
    report: ComplianceReport, graph: Graph, prefixes: PrefixMap | None = None
) -> list[str]:
    """One actionable line per gap: which IRIs in the model implement the
    missing standard, that only blank nodes do, or that nothing does."""
    compact = (PrefixMap() if prefixes is None else prefixes).compact

    def show(iri: Iri) -> str:  # PrefixMap.render's rule for an IRI
        return compact(iri) or f"<{iri.value}>"

    engine = show(report.engine)
    hints = []
    for standard in report.gaps:
        # a pool holds each triple once, so each implementer appears once
        implementers = graph.subjects(IMPLEMENTS_STANDARD, standard)
        named = [s for s in implementers if isinstance(s, Iri)]
        if named:
            named.sort(key=_VALUE)
            # show's rule inline, as a gap names dozens of implementers
            names = ", ".join([compact(s) or f"<{s.value}>" for s in named])
            hints.append(f"{show(standard)}: implemented in the model by {names}; "
                         f"attach one of them to {engine}")
        elif implementers:
            hints.append(f"{show(standard)}: implemented in the model only by blank nodes; "
                         f"give one an IRI to attach it to {engine}")
        else:
            hints.append(f"{show(standard)}: no node in the model implements this standard")
    return hints


def coverage_queries(engine: Iri, standard: Iri) -> list[str]:
    """Query texts whose union of results decides coverage of one standard.

    Each query is in the supported SELECT subset (BGP + FILTER EXISTS);
    the standard is covered exactly when at least one query returns a row.
    Used as an independent cross-check of `coverage`.
    """
    engine_ref, standard_ref = iriref(engine), iriref(standard)
    implements = iriref(IMPLEMENTS_STANDARD)
    queries = []
    for attach in map(iriref, ATTACHMENT_PROPERTIES):
        queries.append(
            "SELECT ?i WHERE { "
            f"{engine_ref} {attach} ?i . "
            f"FILTER EXISTS {{ ?i {implements} {standard_ref} }} "
            "}"
        )
        for link in map(iriref, MECHANISM_PROPERTIES):
            queries.append(
                "SELECT ?i WHERE { "
                f"{engine_ref} {attach} ?i . "
                f"FILTER EXISTS {{ ?i {link} ?m . "
                f"?m {implements} {standard_ref} }} "
                "}"
            )
    return queries
