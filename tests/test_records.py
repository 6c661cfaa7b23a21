"""Every record class of the package, on the one `rdf.Record` base: equality,
hashing and repr read all of a class's fields, and only its own instances."""

import pytest

from cloudaudit import compliance, openstack, reasoner, shacl, sparql, turtle
from cloudaudit.rdf import Graph, Iri, PrefixMap, Record, TriplePattern, Var

S, P, O = Iri("urn:x:s"), Iri("urn:x:p"), Iri("urn:x:o")
PATTERN = TriplePattern(Var("s"), P, Var("o"))
EVIDENCE = compliance.CoverageEvidence(S, O, compliance.EvidenceKind.DIRECT)
RESULT = shacl.ValidationResult(S, P, O, shacl.ConstraintKind.MIN_COUNT, "m", 0)

# class -> (arguments of one instance, another value for its last field)
SAMPLES = {
    Var: (["x"], "y"),
    TriplePattern: ([Var("s"), P, Var("o")], O),
    turtle.Document: ([Graph(), PrefixMap()], PrefixMap({"x": "urn:x:"})),
    reasoner.ClosureResult: ([Graph(), 0, 1], 2),
    sparql.FilterExistence: ([sparql.Polarity.EXISTS, sparql.GraphPattern()],
                             sparql.GraphPattern([PATTERN])),
    sparql.GraphPattern: ([[PATTERN], []],
                          [sparql.FilterExistence(sparql.Polarity.EXISTS, sparql.GraphPattern())]),
    sparql.Query: ([PrefixMap(), None, sparql.GraphPattern()], sparql.GraphPattern([PATTERN])),
    sparql.SolutionTable: ([["x"], []], [(S,)]),
    shacl.PropertyConstraint: ([P, 1, 2, O, "m"], "n"),
    shacl.NodeShape: ([S, frozenset({O}), ()], (shacl.PropertyConstraint(P),)),
    shacl.ValidationResult: ([S, P, O, shacl.ConstraintKind.MIN_COUNT, "m", 0], 1),
    shacl.ValidationReport: ([False, []], [RESULT]),
    compliance.CoverageEvidence: ([S, O, compliance.EvidenceKind.MECHANISM, O, P], S),
    compliance.StandardStatus: ([S, "label", compliance.CoverageState.GAP, ()], (EVIDENCE,)),
    compliance.ComplianceReport: ([S, O, [], 0, []], ["warning"]),
    openstack.EndpointRecord: (["e", "nova", "compute", "public", "http://x", "r", True], False),
    openstack.ProjectRecord: (["p", "demo", "default", True], False),
    openstack.UserRecord: (["u", "alice", "default", True], False),
    openstack.RoleAssignmentRecord: (["admin", "u", None, "p"], "q"),
    openstack.IngestConfig: (["urn:x:", {}, {}], {"keystone": "policy.yaml"}),
}

# the classes that compare by value but are mutable, so unhashable
MUTABLE = {
    turtle.Document, reasoner.ClosureResult, sparql.FilterExistence, sparql.GraphPattern,
    sparql.Query, sparql.SolutionTable, shacl.ValidationReport, compliance.ComplianceReport,
    openstack.IngestConfig,
}


def _record_classes(base=Record) -> set:
    found = set()
    for cls in base.__subclasses__():
        if cls.__module__.startswith("cloudaudit."):
            found.add(cls)
        found |= _record_classes(cls)
    return found


def _fields(record: Record) -> list:
    return [getattr(record, name) for name in type(record).__slots__]


def test_every_record_class_has_a_sample():
    assert _record_classes() == set(SAMPLES)


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_the_last_field_takes_part_in_equality_and_repr(cls):
    args, last = SAMPLES[cls]
    one, other = cls(*args), cls(*args[:-1], last)
    assert one != other and not one == other
    assert repr(one) != repr(other)
    assert repr(one).startswith(f"{cls.__name__}(")


def test_an_instance_equals_its_rebuilt_fields(cls):
    one = cls(*SAMPLES[cls][0])
    assert not hasattr(one, "__dict__")  # every field is a slot that `_values` reads
    by_position = cls(*_fields(one))
    by_name = cls(**{name: getattr(one, name) for name in cls.__slots__})
    assert one == by_position == by_name
    assert repr(one) == repr(by_position) == repr(by_name)


def test_an_instance_equals_no_other_record_class(cls):
    one = cls(*SAMPLES[cls][0])
    twin_class = type(cls.__name__, (Record,), {"__slots__": cls.__slots__})
    twin = twin_class.__new__(twin_class)
    for name, value in zip(cls.__slots__, _fields(one)):
        setattr(twin, name, value)
    assert twin._values() == one._values()
    assert one != twin and twin != one
    for other in SAMPLES:
        if other is not cls:
            assert one != other(*SAMPLES[other][0])


def test_projects_and_users_with_the_same_fields_differ():
    args = SAMPLES[openstack.ProjectRecord][0]
    assert openstack.ProjectRecord(*args) != openstack.UserRecord(*args)


def test_mutable_records_are_unhashable_and_the_rest_hash_by_value(cls):
    args = SAMPLES[cls][0]
    one = cls(*args)
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(one)
    else:
        assert hash(one) == hash(cls(*args))
        assert len({one, cls(*args)}) == 1
