"""CLI-export decoding and the inventory-to-Turtle mapping."""

import hashlib
import json
from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudaudit.openstack import (
    DEFAULT_SERVICE_TYPE_MAP,
    EndpointRecord,
    IngestConfig,
    IngestError,
    JsonShapeError,
    ProjectRecord,
    RoleAssignmentRecord,
    UserRecord,
    ingest,
    load_json,
    parse_cli_json,
)
from cloudaudit.rdf import Iri, Literal, Triple, TriplePattern, Var
from cloudaudit.turtle import parse_turtle, serialize_turtle
from cloudaudit import vocab

# sha256 of b"rule: admin_required\n", computed independently once
POLICY_DIGEST = "ec31dfa516982574c40bad5fbc94b695500495920c123716f23a834b348e9a7e"


# the record field an IngestError names -> ingest arguments with a lone
# surrogate in that field's literal text
LONE_SURROGATES = {
    "users[1].name": {"users": [UserRecord("u", "fine"), UserRecord("v", "\ud800")]},
    "projects[0].name": {"projects": [ProjectRecord("p", "a\ud800b")]},
    "endpoints[0].url": {
        "endpoints": [EndpointRecord("e", "nova", "compute", "public", "https://x/\ud800")]},
    "endpoints[0].interface": {
        "endpoints": [EndpointRecord("e", "nova", "compute", "\ud800", "https://x")]},
    "endpoints[0].region": {
        "endpoints": [EndpointRecord("e", "nova", "compute", "public", "https://x", "\ud800")]},
    "assignments[0].role": {"assignments": [RoleAssignmentRecord("\ud800", user_id="u")]},
    "version_metadata['nova'].version": {
        "config": IngestConfig(version_metadata={"nova": "\ud800"})},
}


class TestParseCliJson:
    def test_empty_array(self):
        assert parse_cli_json("[]", "endpoints") == []

    def test_cli_style_title_case_keys(self):
        records = parse_cli_json(
            json.dumps(
                [
                    {
                        "ID": "e1",
                        "Service Name": "keystone",
                        "Service Type": "identity",
                        "Interface": "public",
                        "URL": "https://kc:5000/v3",
                        "Enabled": True,
                    }
                ]
            ),
            "endpoints",
        )
        assert records == [
            EndpointRecord(
                id="e1",
                service_name="keystone",
                service_type="identity",
                interface="public",
                url="https://kc:5000/v3",
                region=None,
                enabled=True,
            )
        ]

    def test_snake_case_keys(self):
        (record,) = parse_cli_json(
            json.dumps(
                [
                    {
                        "id": "e1",
                        "service_name": "swift",
                        "service_type": "object-store",
                        "interface": "internal",
                        "url": "https://sw:8080/v1",
                        "region": "RegionOne",
                    }
                ]
            ),
            "endpoints",
        )
        assert record.service_type == "object-store"
        assert record.region == "RegionOne"
        assert record.enabled is True

    def test_missing_url_under_both_namings(self):
        with pytest.raises(JsonShapeError, match="URL"):
            parse_cli_json('[{"ID": "e1", "Service Name": "x", "Service Type": "t", "Interface": "public"}]', "endpoints")

    def test_not_an_array(self):
        with pytest.raises(JsonShapeError):
            parse_cli_json('{"ID": "e1"}', "endpoints")

    def test_element_not_an_object(self):
        with pytest.raises(JsonShapeError):
            parse_cli_json('["oops"]', "projects")

    @pytest.mark.parametrize("text", ["[]", '{"ID": "e1"}'])
    def test_unknown_kind_is_refused_for_any_payload(self, text):
        with pytest.raises(ValueError) as info:
            parse_cli_json(text, "bogus")
        assert str(info.value) == "unknown record kind: 'bogus'"

    def test_a_lone_surrogate_escape_is_not_json(self):
        with pytest.raises(JsonShapeError, match=r"^not valid JSON: lone surrogate '\\ud800'$"):
            load_json('"\\ud800"')

    def test_assignment_blank_group_becomes_none(self):
        (record,) = parse_cli_json(
            '[{"Role": "admin", "User": "u1", "Group": "", "Project": "p1"}]',
            "assignments",
        )
        assert record == RoleAssignmentRecord(role="admin", user_id="u1", group_id=None, project_id="p1")

    @pytest.mark.parametrize(
        "kind, obj, want",
        [
            ("endpoints",
             {"ID": "7", "Service Name": "nova", "Service Type": "compute", "Interface": "admin",
              "URL": "https://nv:8774", "Region": "RegionOne", "Enabled": False},
             EndpointRecord("7", "nova", "compute", "admin", "https://nv:8774", "RegionOne", False)),
            ("endpoints",
             {"id": "e2", "service_name": "swift", "service_type": "object-store",
              "interface": "internal", "url": "https://sw:8080", "region": "R2", "enabled": "FALSE"},
             EndpointRecord("e2", "swift", "object-store", "internal", "https://sw:8080", "R2", False)),
            ("endpoints",
             {"ID": "e3", "Service Name": "x", "Service Type": "t", "Interface": "public", "URL": "u"},
             EndpointRecord("e3", "x", "t", "public", "u", None, True)),
            ("endpoints",
             {"ID": "e4", "Service Name": "x", "Service Type": "t", "Interface": "public", "URL": "u",
              "Region": "", "Enabled": None},
             EndpointRecord("e4", "x", "t", "public", "u", None, True)),
            ("projects",
             {"ID": "p1", "Name": "demo", "Domain ID": "default", "Enabled": True},
             ProjectRecord("p1", "demo", "default", True)),
            ("projects",
             {"id": "p2", "name": "ops", "domain_id": "5", "enabled": "False"},
             ProjectRecord("p2", "ops", "5", False)),
            ("projects", {"ID": "p3", "Name": "bare"}, ProjectRecord("p3", "bare", None, None)),
            ("projects", {"ID": "p4", "Name": "b", "Domain ID": "", "Enabled": None},
             ProjectRecord("p4", "b", None, None)),
            ("users",
             {"ID": "u1", "Name": "alice", "Domain ID": "default", "Enabled": False},
             UserRecord("u1", "alice", "default", False)),
            ("users",
             {"id": "u2", "name": "bob", "domain_id": "d2", "enabled": "true"},
             UserRecord("u2", "bob", "d2", True)),
            ("users", {"ID": "u3", "Name": "carol"}, UserRecord("u3", "carol", None, None)),
            ("users", {"ID": "u4", "Name": "dan", "Domain ID": "", "Enabled": None},
             UserRecord("u4", "dan", None, None)),
            ("assignments",
             {"Role": "admin", "User": "u1", "Group": "g1", "Project": "p1"},
             RoleAssignmentRecord("admin", "u1", "g1", "p1")),
            ("assignments",
             {"role": "reader", "user_id": "u2", "group_id": "g2", "project_id": "p2"},
             RoleAssignmentRecord("reader", "u2", "g2", "p2")),
            ("assignments",
             {"role": "member", "user": "u3", "group": "g3", "project": "p3"},
             RoleAssignmentRecord("member", "u3", "g3", "p3")),
            ("assignments", {"Role": "admin"}, RoleAssignmentRecord("admin", None, None, None)),
            ("assignments", {"Role": "admin", "User": "", "Group": None, "Project": ""},
             RoleAssignmentRecord("admin", None, None, None)),
        ],
    )
    def test_each_kind_decodes_every_field(self, kind, obj, want):
        assert parse_cli_json(json.dumps([obj]), kind) == [want]

    @pytest.mark.parametrize(
        "kind, full, key, message",
        [
            (kind, full, key, f"record 1: missing key {key!r} (or {last!r})")
            for kind, full, keys in [
                ("endpoints",
                 {"ID": "e1", "Service Name": "s", "Service Type": "t", "Interface": "public",
                  "URL": "u", "Region": "r", "Enabled": True},
                 [("ID", "id"), ("Service Name", "service_name"),
                  ("Service Type", "service_type"), ("Interface", "interface"), ("URL", "url")]),
                ("projects", {"ID": "p1", "Name": "n", "Domain ID": "d", "Enabled": True},
                 [("ID", "id"), ("Name", "name")]),
                ("users", {"ID": "u1", "Name": "n", "Domain ID": "d", "Enabled": True},
                 [("ID", "id"), ("Name", "name")]),
                ("assignments", {"Role": "admin", "User": "u1", "Project": "p1"},
                 [("Role", "role")]),
            ]
            for key, last in keys
        ],
    )
    def test_each_missing_required_key_is_named(self, kind, full, key, message):
        partial = {k: v for k, v in full.items() if k != key}
        with pytest.raises(JsonShapeError) as info:
            parse_cli_json(json.dumps([full, partial]), kind)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "kind, key, value, message",
        [
            ("endpoints", "ID", 7, "key 'ID': expected a string, got int"),
            ("endpoints", "id", True, "key 'id': expected a string, got bool"),
            ("endpoints", "URL", ["u"], "key 'URL': expected a string, got list"),
            ("endpoints", "Region", {"r": 1}, "key 'Region': expected a string or null, got dict"),
            ("endpoints", "Enabled", [True], "key 'Enabled': expected a boolean, string or null, "
             "got list"),
            ("projects", "Name", None, "key 'Name': expected a string, got NoneType"),
            ("projects", "domain_id", [], "key 'domain_id': expected a string or null, got list"),
            ("users", "ID", 1.5, "key 'ID': expected a string, got float"),
            ("users", "Enabled", {}, "key 'Enabled': expected a boolean, string or null, "
             "got dict"),
            ("assignments", "Role", ["admin"], "key 'Role': expected a string, got list"),
            ("assignments", "User", {"id": "u1"}, "key 'User': expected a string or null, "
             "got dict"),
            # a number or boolean in a text key, a number in `enabled`
            ("endpoints", "Region", True, "key 'Region': expected a string or null, got bool"),
            ("endpoints", "region", 1e400, "key 'region': expected a string or null, got float"),
            ("endpoints", "Enabled", 1, "key 'Enabled': expected a boolean, string or null, "
             "got int"),
        ],
    )
    def test_a_value_of_the_wrong_kind_is_named(self, kind, key, value, message):
        """A required key holds a string, an optional text key a string or
        null, and `enabled` a boolean, a string or null."""
        full = {"endpoints": {"ID": "e1", "Service Name": "s", "Service Type": "t",
                              "Interface": "public", "URL": "u"},
                "projects": {"ID": "p1", "Name": "n"},
                "users": {"ID": "u1", "Name": "n"},
                "assignments": {"Role": "admin", "Project": "p1"}}[kind]
        spelled = {k: v for k, v in full.items() if k.lower().replace(" ", "_") != key.lower()}
        with pytest.raises(JsonShapeError) as info:
            parse_cli_json(json.dumps([full, {**spelled, key: value}]), kind)
        assert str(info.value) == f"record 1: {message}"


class TestIngest:
    def test_empty_inputs(self):
        assert len(ingest().graph) == 0

    def test_identity_endpoint_maps_to_control_interface(self):
        doc = ingest(endpoints=[
            EndpointRecord("e1", "keystone", "identity", "public", "https://kc:5000/v3")
        ])
        service = Iri("urn:cloudeng:inst:service/keystone")
        endpoint = Iri("urn:cloudeng:inst:endpoint/e1")
        assert Triple(service, vocab.RDF_TYPE, vocab.CONTROL_INTERFACE) in doc.graph
        assert Triple(service, vocab.HAS_ENDPOINT, endpoint) in doc.graph
        assert Triple(endpoint, vocab.ENDPOINT_URL, Literal("https://kc:5000/v3")) in doc.graph

    def test_key_manager_and_unmapped_types(self):
        doc = ingest(endpoints=[
            EndpointRecord("e1", "barbican", "key-manager", "public", "https://km:9311"),
            EndpointRecord("e2", "mystery", "weird-type", "public", "https://my:1234"),
        ])
        assert Triple(
            Iri("urn:cloudeng:inst:service/barbican"), vocab.RDF_TYPE, vocab.KEY_MANAGEMENT
        ) in doc.graph
        assert Triple(
            Iri("urn:cloudeng:inst:service/mystery"), vocab.RDF_TYPE, vocab.INTERFACE
        ) in doc.graph

    def test_ids_and_names_are_percent_encoded(self):
        doc = ingest(endpoints=[
            EndpointRecord("e 1", "object store", "object-store", "public", "https://x")
        ])
        subjects = {t.subject.value for t in doc.graph}
        assert "urn:cloudeng:inst:service/object%20store" in subjects
        assert "urn:cloudeng:inst:endpoint/e%201" in subjects

    @pytest.mark.parametrize("raw", ["A-z_0.9~", "a b", "a/b", "%41", "é", "x y"])
    def test_an_id_is_minted_as_quote_writes_it(self, raw):
        doc = ingest(projects=[ProjectRecord(raw, "p")])
        (node,) = {t.subject for t in doc.graph}
        assert node == Iri("urn:cloudeng:inst:project/" + quote(raw, safe=""))

    def test_a_service_is_typed_and_labelled_once_per_class(self):
        """Endpoints of one service add its type and label at the first
        endpoint of each class, in record order."""
        doc = ingest(endpoints=[
            EndpointRecord("e1", "nova", "identity", "public", "https://n:1"),
            EndpointRecord("e2", "nova", "network", "admin", "https://n:2"),
            EndpointRecord("e3", "nova", "object-store", "public", "https://n:3"),
            EndpointRecord("e4", "nova", "identity", "internal", "https://n:4"),
        ])
        service = Iri("urn:cloudeng:inst:service/nova")
        about = [(t.predicate, t.object) for t in doc.graph if t.subject == service]
        endpoint = [Iri(f"urn:cloudeng:inst:endpoint/e{i}") for i in range(5)]
        assert about == [
            (vocab.RDF_TYPE, vocab.CONTROL_INTERFACE), (vocab.RDFS_LABEL, Literal("nova")),
            (vocab.HAS_ENDPOINT, endpoint[1]), (vocab.HAS_ENDPOINT, endpoint[2]),
            (vocab.RDF_TYPE, vocab.DATA_INTERFACE), (vocab.HAS_ENDPOINT, endpoint[3]),
            (vocab.HAS_ENDPOINT, endpoint[4]),
        ]

    def test_one_raw_id_in_two_categories_gives_two_iris(self):
        doc = ingest(
            projects=[ProjectRecord("shared", "a project")],
            users=[UserRecord("shared", "a user")],
        )
        project = Iri("urn:cloudeng:inst:project/shared")
        user = Iri("urn:cloudeng:inst:user/shared")
        assert Triple(project, vocab.RDF_TYPE, vocab.PROJECT) in doc.graph
        assert Triple(user, vocab.RDF_TYPE, vocab.USER) in doc.graph
        assert Triple(user, vocab.RDF_TYPE, vocab.PROJECT) not in doc.graph

    def test_a_repeated_id_gives_one_iri(self):
        doc = ingest(
            users=[UserRecord("a b/c", "spaced")],
            assignments=[RoleAssignmentRecord("reader", user_id="a b/c"),
                         RoleAssignmentRecord("admin", user_id="a b/c")],
        )
        minted = {t.subject for t in doc.graph if t.predicate == vocab.RDF_TYPE
                  and t.object == vocab.USER}
        minted |= {t.object for t in doc.graph if t.predicate == vocab.ASSIGNMENT_USER}
        assert minted == {Iri("urn:cloudeng:inst:user/a%20b%2Fc")}

    def test_lone_surrogate_id_is_refused_at_its_first_use(self):
        message = r"^cannot mint a user IRI from '\\udc80': surrogates not allowed$"
        for _ in range(2):
            with pytest.raises(IngestError, match=message):
                ingest(
                    projects=[ProjectRecord("p", "fine")],
                    users=[UserRecord("u", "fine"), UserRecord("\udc80", "bad")],
                    assignments=[RoleAssignmentRecord("reader", user_id="\udc80")],
                )

    @pytest.mark.parametrize("where", list(LONE_SURROGATES))
    def test_lone_surrogate_literal_text_is_refused(self, where):
        with pytest.raises(IngestError) as refusal:
            ingest(**LONE_SURROGATES[where])
        assert str(refusal.value) == f"{where}: lone surrogate '\\ud800'"

    def test_literal_text_beyond_ascii_is_written(self):
        doc = ingest(users=[UserRecord("u", "Zoë \U0001F600")])
        assert Triple(Iri("urn:cloudeng:inst:user/u"), vocab.RDFS_LABEL,
                      Literal("Zoë \U0001F600")) in doc.graph
        serialize_turtle(doc).encode("utf-8")

    def test_group_assignment(self):
        doc = ingest(assignments=[RoleAssignmentRecord(role="auditor", group_id="g1")])
        node = Iri("urn:cloudeng:inst:assignment/1")
        assert Triple(node, vocab.ASSIGNMENT_GROUP, Iri("urn:cloudeng:inst:group/g1")) in doc.graph

    @pytest.mark.parametrize(
        "record",
        [
            RoleAssignmentRecord(role="admin"),
            RoleAssignmentRecord(role="admin", user_id="u", group_id="g"),
        ],
    )
    def test_assignment_needs_exactly_one_subject(self, record):
        with pytest.raises(IngestError, match=r"assignments\[0\]"):
            ingest(assignments=[record])

    def test_empty_endpoint_id_rejected(self):
        with pytest.raises(IngestError, match=r"endpoints\[0\]\.id"):
            ingest(endpoints=[EndpointRecord("", "keystone", "identity", "public", "https://x")])

    @pytest.mark.parametrize(
        "category, record",
        [("projects", ProjectRecord("", "demo")), ("users", UserRecord("", "alice"))],
    )
    def test_empty_project_or_user_id_rejected(self, category, record):
        with pytest.raises(IngestError, match=rf"^{category}\[0\]\.id: must be non-empty$"):
            ingest(**{category: [record]})

    def test_an_invalid_instance_namespace_is_refused(self):
        with pytest.raises(IngestError, match="^instance namespace: IRI contains forbidden "
                                              "character ' ': 'not an iri'$"):
            ingest(config=IngestConfig("not an iri"))

    def test_empty_endpoint_url_rejected(self):
        with pytest.raises(IngestError, match=r"^endpoints\[0\]\.url: must be non-empty$"):
            ingest(endpoints=[EndpointRecord("e1", "keystone", "identity", "public", "")])

    def test_version_metadata(self):
        doc = ingest(config=IngestConfig(version_metadata={"keystone": "v3.14"}))
        assert Triple(
            Iri("urn:cloudeng:inst:service/keystone"),
            vocab.SERVICE_VERSION,
            Literal("v3.14"),
        ) in doc.graph

    def test_policy_file_hash(self, tmp_path):
        policy = tmp_path / "keystone_policy.yaml"
        policy.write_bytes(b"rule: admin_required\n")
        doc = ingest(config=IngestConfig(policy_files={"keystone": policy}))
        (t,) = [x for x in doc.graph if x.predicate == vocab.POLICY_FILE_HASH]
        assert t.object == Literal(POLICY_DIGEST)
        assert t.object.lexical == hashlib.sha256(policy.read_bytes()).hexdigest()

    def test_missing_policy_file(self, tmp_path):
        with pytest.raises(IngestError, match="keystone"):
            ingest(config=IngestConfig(policy_files={"keystone": tmp_path / "absent.yaml"}))

    def test_golden_sample(self, fixtures_dir):
        base = fixtures_dir / "openstack_sample"
        doc = ingest(
            endpoints=parse_cli_json((base / "endpoints.json").read_text(), "endpoints"),
            projects=parse_cli_json((base / "projects.json").read_text(), "projects"),
            users=parse_cli_json((base / "users.json").read_text(), "users"),
            assignments=parse_cli_json((base / "assignments.json").read_text(), "assignments"),
        )
        assert serialize_turtle(doc) == (base / "golden.ttl").read_text(encoding="utf-8")

    def test_output_parses_back(self, fixtures_dir):
        base = fixtures_dir / "openstack_sample"
        text = (base / "golden.ttl").read_text(encoding="utf-8")
        assert len(parse_turtle(text).graph) == 37


_ident = st.text(alphabet="abcdef0123456789", min_size=1, max_size=6)
_endpoints = st.lists(
    st.builds(
        EndpointRecord,
        id=_ident,
        service_name=_ident,
        service_type=st.sampled_from(["identity", "object-store", "metering", "other"]),
        interface=st.sampled_from(["public", "internal", "admin"]),
        url=st.just("https://svc.example/v1"),
    ),
    max_size=5,
    unique_by=lambda e: e.id,
)
_projects = st.lists(
    st.builds(ProjectRecord, id=_ident, name=_ident), max_size=4, unique_by=lambda p: p.id
)
_users = st.lists(
    st.builds(UserRecord, id=_ident, name=_ident), max_size=4, unique_by=lambda u: u.id
)
_assignments = st.lists(
    st.builds(RoleAssignmentRecord, role=_ident, user_id=_ident, project_id=_ident),
    max_size=4,
)


@given(_endpoints, _projects, _users, _assignments)
@settings(max_examples=40)
def test_node_counts_match_record_counts(endpoints, projects, users, assignments):
    doc = ingest(endpoints=endpoints, projects=projects, users=users, assignments=assignments)

    def typed(cls):
        return doc.graph.match(TriplePattern(Var("s"), vocab.RDF_TYPE, cls))

    assert len(typed(vocab.ENDPOINT)) == len(endpoints)
    assert len(typed(vocab.PROJECT)) == len(projects)
    assert len(typed(vocab.USER)) == len(users)
    assert len(typed(vocab.ROLE_ASSIGNMENT)) == len(assignments)


@given(_endpoints, _projects, _users, _assignments)
@settings(max_examples=40)
def test_triples_are_well_formed_and_in_record_order(endpoints, projects, users, assignments):
    """`ingest` builds its triples unchecked; each passes the checked
    constructor, none repeats, and each record's node is first typed in
    record order."""
    doc = ingest(endpoints=endpoints, projects=projects, users=users, assignments=assignments)
    triples = list(doc.graph)
    assert all(type(t) is Triple and t == Triple(*t) for t in triples)
    assert len(set(triples)) == len(triples) == len(doc.graph)

    def node(category, raw):
        return Iri(f"urn:cloudeng:inst:{category}/{raw}")  # ids of the strategies need no quoting

    nodes = [n for ep in endpoints for n in (node("service", ep.service_name), node("endpoint", ep.id))]
    nodes += [node("project", p.id) for p in projects] + [node("user", u.id) for u in users]
    nodes += [node("assignment", i + 1) for i in range(len(assignments))]
    typed = [t.subject for t in triples if t.predicate == vocab.RDF_TYPE]
    assert list(dict.fromkeys(typed)) == list(dict.fromkeys(nodes))


@given(_endpoints, _projects, _users, _assignments)
@settings(max_examples=40)
def test_only_vocabulary_and_instance_terms_are_emitted(endpoints, projects, users, assignments):
    config = IngestConfig()
    doc = ingest(endpoints=endpoints, projects=projects, users=users,
                 assignments=assignments, config=config)
    known_classes = set(DEFAULT_SERVICE_TYPE_MAP.values()) | {vocab.INTERFACE}
    for t in doc.graph:
        for term in (t.subject, t.predicate, t.object):
            if not isinstance(term, Iri):
                continue
            assert (
                term in vocab.EMITTED_TERMS
                or term in known_classes
                or term.value.startswith(config.instance_namespace)
            ), term


@given(_endpoints, _projects, _users, _assignments)
@settings(max_examples=25)
def test_serialization_is_reproducible(endpoints, projects, users, assignments):
    first = serialize_turtle(
        ingest(endpoints=endpoints, projects=projects, users=users, assignments=assignments)
    )
    second = serialize_turtle(
        ingest(endpoints=endpoints, projects=projects, users=users, assignments=assignments)
    )
    assert first == second
