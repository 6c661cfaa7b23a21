"""Standards-coverage reports for cloud engine instances.

A standard declared by an engine's security policy counts as covered when
an interface attached to the engine either implements it directly or links
(one hop, via an authentication / authorization / encryption / transport /
identity-provider property) to a security mechanism that implements it.
Coverage is engine-scoped on purpose: facts about services the engine does
not attach never cover it.  Standards match by exact IRI; no hierarchy
among them is assumed.

Every covered standard carries its full evidence chain so reports can be
replayed against the graph, and every gap can be paired with remediation
hints naming the model nodes that do implement the missing standard.
"""

from __future__ import annotations

import enum

from .rdf import Graph, Iri, Literal, PrefixMap, Record, Triple, iriref, term_sort_key
from .vocab import (
    ATTACHMENT_PROPERTIES,
    COMPLIES_WITH,
    HAS_SECURITY_POLICY,
    IMPLEMENTS_STANDARD,
    MECHANISM_PROPERTIES,
    RDFS_LABEL,
)


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

    def __init__(self, standard: Iri, interface: Iri, via: EvidenceKind,
                 mechanism: Iri | None = None, linking_property: Iri | None = None):
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
        out = {"interface": self.interface.value, "via": self.via.value}
        if self.via is EvidenceKind.MECHANISM:
            out["linkingProperty"] = self.linking_property.value
            out["mechanism"] = self.mechanism.value
        return out


class StandardStatus(Record):
    __slots__ = ("standard", "label", "state", "evidence")

    def __init__(self, standard: Iri, label: str | None, state: CoverageState,
                 evidence: tuple[CoverageEvidence, ...]):
        self.standard, self.label, self.state, self.evidence = standard, label, state, evidence


class ComplianceReport(Record):
    __slots__ = ("engine", "policy", "statuses", "gap_count", "warnings")
    __hash__ = None

    def __init__(self, engine: Iri, policy: Iri, statuses: list[StandardStatus], gap_count: int,
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
            "policy": self.policy.value,
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
            label = f"  ({status.label})" if status.label else ""
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


def attached_interfaces(graph: Graph, engine: Iri) -> set[Iri]:
    """Objects of the four interface attachment properties on the engine."""
    found: set[Iri] = set()
    for prop in ATTACHMENT_PROPERTIES:
        for obj in graph.objects(engine, prop):
            if isinstance(obj, Iri):
                found.add(obj)
    return found


def standards_of(graph: Graph, node: Iri) -> set[Iri]:
    """Standards a node claims to implement (exact-IRI objects)."""
    return {o for o in graph.objects(node, IMPLEMENTS_STANDARD) if isinstance(o, Iri)}


def _label_of(graph: Graph, node: Iri) -> str | None:
    # the first literal label in term order, whatever the load order
    labels = [o for o in graph.objects(node, RDFS_LABEL) if isinstance(o, Literal)]
    return min(labels, key=term_sort_key).lexical if labels else None


def coverage(graph: Graph, engine: Iri) -> ComplianceReport:
    """Compute the coverage report for one engine over a graph.

    The asserted graph is enough, and is what the CLI passes: the closure
    adds only rdf:type and rdfs:subClassOf triples, and coverage reads
    neither.

    Raises NoPolicyError when the engine has no security policy.  Multiple
    policies produce a warning and the union of their declared standards.
    """
    policies = sorted(
        (p for p in graph.objects(engine, HAS_SECURITY_POLICY) if isinstance(p, Iri)),
        key=lambda p: p.value,
    )
    if not policies:
        raise NoPolicyError(engine)
    warnings = []
    if len(policies) > 1:
        listed = ", ".join(p.value for p in policies)
        warnings.append(f"engine declares multiple security policies ({listed}); using the union of their standards")

    declared: set[Iri] = set()
    for policy in policies:
        declared.update(o for o in graph.objects(policy, COMPLIES_WITH) if isinstance(o, Iri))

    # one walk over the interfaces and their mechanisms, bucketing evidence by
    # standard; mechanisms go in term order so evidence ignores load order
    evidence: dict[Iri, list[CoverageEvidence]] = {standard: [] for standard in declared}
    for interface in sorted(attached_interfaces(graph, engine), key=lambda i: i.value):
        for standard in standards_of(graph, interface) & declared:
            evidence[standard].append(
                CoverageEvidence(standard=standard, interface=interface, via=EvidenceKind.DIRECT)
            )
        for prop in MECHANISM_PROPERTIES:
            mechanisms = (m for m in graph.objects(interface, prop) if isinstance(m, Iri))
            for mechanism in sorted(mechanisms, key=term_sort_key):
                for standard in standards_of(graph, mechanism) & declared:
                    evidence[standard].append(
                        CoverageEvidence(
                            standard=standard,
                            interface=interface,
                            via=EvidenceKind.MECHANISM,
                            mechanism=mechanism,
                            linking_property=prop,
                        )
                    )
    statuses = [
        StandardStatus(
            standard=standard,
            label=_label_of(graph, standard),
            state=CoverageState.COVERED if evidence[standard] else CoverageState.GAP,
            evidence=tuple(evidence[standard]),
        )
        for standard in sorted(declared, key=lambda s: s.value)
    ]
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
    """One actionable line per gap: who in the model implements the missing
    standard, or a statement that nobody does."""
    show = (PrefixMap() if prefixes is None else prefixes).render
    hints = []
    for standard in report.gaps:
        implementers = sorted(
            {s for s in graph.subjects(IMPLEMENTS_STANDARD, standard) if isinstance(s, Iri)},
            key=lambda s: s.value,
        )
        if implementers:
            names = ", ".join(show(i) for i in implementers)
            hints.append(
                f"{show(standard)}: implemented in the model by {names}; "
                f"attach one of them to {show(report.engine)}"
            )
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
