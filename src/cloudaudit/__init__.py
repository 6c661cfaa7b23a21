"""cloudaudit: semantic compliance toolchain for cloud engine models.

Parses RDF/Turtle models of cloud engines, materializes RDFS subclass
entailments, answers SELECT queries, validates node shapes, computes
standards-coverage gap reports and ingests OpenStack inventory exports.

The names below are imported from their layer on first use (PEP 562), so
importing the package, or running one CLI command, loads only the layers
that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

_LAYER_EXPORTS = {
    "rdf": (
        "BlankNode",
        "Graph",
        "Iri",
        "Literal",
        "PrefixMap",
        "Term",
        "Triple",
        "TriplePattern",
        "Var",
    ),
    "turtle": ("Document", "ParseError", "parse_turtle", "serialize_turtle"),
    "reasoner": ("ClosureResult", "materialize", "subclasses_of"),
    "sparql": ("Query", "SolutionTable", "evaluate", "parse_query"),
    "shacl": (
        "NodeShape",
        "PropertyConstraint",
        "ShapeError",
        "ValidationReport",
        "parse_shapes",
        "validate",
    ),
    "compliance": (
        "ComplianceReport",
        "CoverageEvidence",
        "NoPolicyError",
        "coverage",
        "coverage_queries",
        "remediation_hints",
    ),
    "openstack": (
        "EndpointRecord",
        "IngestConfig",
        "IngestError",
        "JsonShapeError",
        "ProjectRecord",
        "RoleAssignmentRecord",
        "UserRecord",
        "ingest",
        "parse_cli_json",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_EXPORTS.items() for name in names}


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})
