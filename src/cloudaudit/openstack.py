"""Turn OpenStack CLI JSON exports into model-aligned instance Turtle.

Consumes the files produced by `openstack endpoint list -f json`,
`openstack project list -f json`, `openstack user list -f json` and
`openstack role assignment list -f json`; it never talks to a cloud
itself.  Key naming is tolerant: both the CLI's title-case headers
("Service Name") and snake_case ("service_name") are accepted.

Mapping rules:

  * one service node per endpoint's service name, typed from the service
    type (identity/network -> control interface, object-store -> data
    interface, metering/telemetry -> audit interface, key-manager -> key
    management, anything else -> plain interface)
  * one endpoint node per record, attached to its service and carrying
    url / interface / region literals
  * projects and users become typed nodes labelled with their names
  * role assignments are reified (one node each) so the role name stays
    queryable alongside the subject and project
  * optional version metadata and policy files attach to the service node
    as version literals and lowercase-hex SHA-256 content hashes

Node IRIs are minted inside a configurable instance namespace with
percent-encoded ids/names, so identical inputs always produce identical
Turtle.  Each distinct (category, id) is minted once per call, and each
distinct record text becomes one literal per call.

Every IRI and literal is built by its checked constructor, and record text
with a lone surrogate, which no UTF-8 output can hold, is refused there.
So each triple is valid by construction: `ingest` builds it with `rdf`'s
unchecked `_triple` and puts it straight into the new graph's triple set,
as the Turtle reader's statement steps do.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Sequence
from urllib.parse import quote

from .rdf import Graph, Iri, Literal, PrefixMap, Record, _triple
from .turtle import Document
from . import vocab


class JsonShapeError(ValueError):
    """The CLI export is not shaped like a list of flat records."""


class IngestError(ValueError):
    """A record breaks an invariant; names the record index and field."""


class EndpointRecord(Record):
    __slots__ = ("id", "service_name", "service_type", "interface", "url", "region", "enabled")

    def __init__(self, id: str, service_name: str, service_type: str, interface: str, url: str,
                 region: str | None = None, enabled: bool = True):
        self.id, self.service_name, self.service_type = id, service_name, service_type
        self.interface, self.url, self.region, self.enabled = interface, url, region, enabled


class ProjectRecord(Record):
    __slots__ = ("id", "name", "domain_id", "enabled")

    def __init__(self, id: str, name: str, domain_id: str | None = None,
                 enabled: bool | None = None):
        self.id, self.name, self.domain_id, self.enabled = id, name, domain_id, enabled


class UserRecord(Record):
    __slots__ = ("id", "name", "domain_id", "enabled")

    def __init__(self, id: str, name: str, domain_id: str | None = None,
                 enabled: bool | None = None):
        self.id, self.name, self.domain_id, self.enabled = id, name, domain_id, enabled


class RoleAssignmentRecord(Record):
    __slots__ = ("role", "user_id", "group_id", "project_id")

    def __init__(self, role: str, user_id: str | None = None, group_id: str | None = None,
                 project_id: str | None = None):
        self.role, self.user_id = role, user_id
        self.group_id, self.project_id = group_id, project_id


DEFAULT_SERVICE_TYPE_MAP: dict[str, Iri] = {
    "identity": vocab.CONTROL_INTERFACE,
    "object-store": vocab.DATA_INTERFACE,
    "metering": vocab.AUDIT_INTERFACE,
    "telemetry": vocab.AUDIT_INTERFACE,
    "network": vocab.CONTROL_INTERFACE,
    "key-manager": vocab.KEY_MANAGEMENT,
}


class IngestConfig(Record):
    __slots__ = ("instance_namespace", "version_metadata", "policy_files")
    __hash__ = None

    def __init__(self, instance_namespace: str = "urn:cloudeng:inst:",
                 version_metadata: dict[str, str] | None = None,
                 policy_files: dict[str, str | Path] | None = None):
        self.instance_namespace = instance_namespace
        self.version_metadata = {} if version_metadata is None else version_metadata
        self.policy_files = {} if policy_files is None else policy_files


# the characters quote() never escapes
_UNRESERVED = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~"

# the JSON escape of a UTF-16 surrogate, lone or one of a pair
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")

# per export kind: the record class, its required then its optional fields
# in constructor order, and the value of a missing `enabled`
_KINDS = {
    "endpoints": (EndpointRecord, ("id", "service_name", "service_type", "interface", "url"),
                  ("region", "enabled"), True),
    "projects": (ProjectRecord, ("id", "name"), ("domain_id", "enabled"), None),
    "users": (UserRecord, ("id", "name"), ("domain_id", "enabled"), None),
    "assignments": (RoleAssignmentRecord, ("role",), ("user_id", "group_id", "project_id"), None),
}

# accepted key spellings, CLI header first
_KEYS = {
    "id": ("ID", "id"),
    "name": ("Name", "name"),
    "service_name": ("Service Name", "service_name"),
    "service_type": ("Service Type", "service_type"),
    "interface": ("Interface", "interface"),
    "url": ("URL", "url"),
    "region": ("Region", "region"),
    "enabled": ("Enabled", "enabled"),
    "domain_id": ("Domain ID", "domain_id"),
    "role": ("Role", "role"),
    "user_id": ("User", "user", "user_id"),
    "group_id": ("Group", "group", "group_id"),
    "project_id": ("Project", "project", "project_id"),
}


def _wrong_kind(obj: dict, index: int, name: str, expected: str, value) -> JsonShapeError:
    key = next(key for key in _KEYS[name] if key in obj)
    return JsonShapeError(
        f"record {index}: key {key!r}: expected {expected}, got {type(value).__name__}"
    )


def _as_bool(value: bool | str | None, default: bool | None):
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    return value.lower() == "true"


def load_json(text: str):
    """Decode JSON text; raises JsonShapeError when it is not valid JSON or
    an escape in it decodes to a lone surrogate, which is no Unicode text
    and cannot be written."""
    try:
        payload = json.loads(text)
        if _SURROGATE_ESCAPE_RE.search(text):  # a pair decodes to one character
            json.dumps(payload, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        surrogate = exc.object[exc.start]
        raise JsonShapeError(f"not valid JSON: lone surrogate {surrogate!r}") from exc
    # ValueError: also an integer past int()'s digit limit; RecursionError:
    # arrays or objects nested past the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise JsonShapeError(f"not valid JSON: {exc}") from exc
    return payload


def parse_cli_json(text: str, kind: str) -> list:
    """Decode one CLI export of `kind` ("endpoints", "projects", "users" or
    "assignments") into typed records.

    Raises ValueError for any other kind, and JsonShapeError when the
    payload is not a JSON array of objects, a required key is absent under
    every accepted spelling or holds anything but a string, an optional
    text key holds anything but a string or null, or `enabled` holds
    anything but a boolean, a string or null.  An optional null counts as
    absent.
    """
    try:
        cls, required, optional, enabled = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown record kind: {kind!r}") from None
    payload = load_json(text)
    if not isinstance(payload, list):
        raise JsonShapeError(f"expected a JSON array, got {type(payload).__name__}")
    records = []
    required = [(name, _KEYS[name]) for name in required]
    optional = [(name, _KEYS[name]) for name in optional]
    for index, obj in enumerate(payload):
        if not isinstance(obj, dict):
            raise JsonShapeError(f"record {index}: expected an object, got {type(obj).__name__}")
        values = []
        for name, keys in required:
            for key in keys:  # the first accepted spelling present
                if key in obj:
                    value = obj[key]
                    break
            else:
                raise JsonShapeError(f"record {index}: missing key {keys[0]!r} (or {keys[-1]!r})")
            if not isinstance(value, str):
                raise _wrong_kind(obj, index, name, "a string", value)
            values.append(value)
        for name, keys in optional:
            value = None
            for key in keys:
                if key in obj:
                    value = obj[key]
                    break
            if name == "enabled":
                if not isinstance(value, (bool, str, type(None))):
                    raise _wrong_kind(obj, index, name, "a boolean, string or null", value)
                values.append(_as_bool(value, enabled))
            elif isinstance(value, (str, type(None))):
                values.append(value or None)  # an empty string counts as absent
            else:
                raise _wrong_kind(obj, index, name, "a string or null", value)
        records.append(cls(*values))
    return records


def ingest(
    endpoints: Sequence[EndpointRecord] = (),
    projects: Sequence[ProjectRecord] = (),
    users: Sequence[UserRecord] = (),
    assignments: Sequence[RoleAssignmentRecord] = (),
    config: IngestConfig | None = None,
) -> Document:
    """Build the instance Document for a set of inventory records.

    Raises IngestError (naming record index and field) for invariant
    breaches, for policy files that cannot be read, for an instance
    namespace that is not an IRI of UTF-8 text, and for an id or a text
    written as a literal (name, URL, interface, region, role or version)
    that holds a lone surrogate.
    """
    config = config or IngestConfig()
    ns = config.instance_namespace
    try:
        Iri(ns)
        ns.encode("utf-8")
    except ValueError as exc:  # UnicodeEncodeError is a ValueError
        raise IngestError(f"instance namespace: {exc}") from exc
    graph = Graph()
    # the triple set itself (see the module docstring): setdefault keeps
    # the first insertion of a repeated triple, and a new graph has no
    # index to drop
    add = graph._triples.setdefault
    minted: dict[tuple[str, str], Iri] = {}  # (category, raw id) -> its IRI
    literals: dict[str, Literal] = {}  # record text -> its literal

    def mint(category: str, raw: str) -> Iri:
        iri = minted.get((category, raw))
        if iri is None:
            try:
                # quote returns an id of unreserved characters unchanged (it also takes bytes)
                if raw.__class__ is not str or raw.rstrip(_UNRESERVED):
                    part = quote(raw, safe="")
                else:
                    part = raw
                iri = minted[category, raw] = Iri(f"{ns}{category}/{part}")
            except UnicodeEncodeError as exc:
                raise IngestError(
                    f"cannot mint a {category} IRI from {raw!r}: {exc.reason}"
                ) from exc
        return iri

    def literal(text: str, kind: str, i: int, field: str) -> Literal:
        """The literal of the text of `kind`[i].`field`, made once per
        distinct text; refuses a lone surrogate, which is no Unicode text
        and cannot be written."""
        # anything but a str goes to Literal, whose TypeError names it
        lit = literals.get(text) if text.__class__ is str else None
        if lit is None:
            lit = Literal(text)
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise IngestError(
                        f"{kind}[{i!r}].{field}: lone surrogate {text[exc.start]!r}"
                    ) from None
            literals[text] = lit
        return lit

    typed: set[tuple[Iri, Iri]] = set()  # (service, class) pairs already written
    for i, ep in enumerate(endpoints):
        if not ep.id:
            raise IngestError(f"endpoints[{i}].id: must be non-empty")
        if not ep.url:
            raise IngestError(f"endpoints[{i}].url: must be non-empty")
        service = mint("service", ep.service_name)
        cls = DEFAULT_SERVICE_TYPE_MAP.get(ep.service_type, vocab.INTERFACE)
        # a service's IRI is minted from its name, so a repeated pair repeats both triples
        if (service, cls) not in typed:
            typed.add((service, cls))
            add(_triple((service, vocab.RDF_TYPE, cls)))
            add(_triple((service, vocab.RDFS_LABEL,
                         literal(ep.service_name, "endpoints", i, "service_name"))))
        endpoint = mint("endpoint", ep.id)
        add(_triple((service, vocab.HAS_ENDPOINT, endpoint)))
        add(_triple((endpoint, vocab.RDF_TYPE, vocab.ENDPOINT)))
        add(_triple((endpoint, vocab.ENDPOINT_URL, literal(ep.url, "endpoints", i, "url"))))
        add(_triple((endpoint, vocab.ENDPOINT_INTERFACE,
                     literal(ep.interface, "endpoints", i, "interface"))))
        if ep.region is not None:
            add(_triple((endpoint, vocab.ENDPOINT_REGION,
                         literal(ep.region, "endpoints", i, "region"))))

    for category, records, cls in (("project", projects, vocab.PROJECT),
                                   ("user", users, vocab.USER)):
        for i, record in enumerate(records):
            if not record.id:
                raise IngestError(f"{category}s[{i}].id: must be non-empty")
            node = mint(category, record.id)
            add(_triple((node, vocab.RDF_TYPE, cls)))
            add(_triple((node, vocab.RDFS_LABEL, literal(record.name, f"{category}s", i, "name"))))

    for i, ra in enumerate(assignments):
        if bool(ra.user_id) == bool(ra.group_id):
            raise IngestError(
                f"assignments[{i}].user_id/group_id: exactly one subject must be present"
            )
        node = Iri(f"{ns}assignment/{i + 1}")
        add(_triple((node, vocab.RDF_TYPE, vocab.ROLE_ASSIGNMENT)))
        add(_triple((node, vocab.ASSIGNMENT_ROLE, literal(ra.role, "assignments", i, "role"))))
        if ra.user_id:
            add(_triple((node, vocab.ASSIGNMENT_USER, mint("user", ra.user_id))))
        else:
            add(_triple((node, vocab.ASSIGNMENT_GROUP, mint("group", ra.group_id))))
        if ra.project_id:
            add(_triple((node, vocab.ASSIGNMENT_PROJECT, mint("project", ra.project_id))))

    for name in sorted(config.version_metadata):
        service = mint("service", name)
        version = literal(config.version_metadata[name], "version_metadata", name, "version")
        add(_triple((service, vocab.SERVICE_VERSION, version)))

    for name in sorted(config.policy_files):
        path = Path(config.policy_files[name])
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            raise IngestError(f"policy file for {name!r} unreadable: {exc}") from exc
        add(_triple((mint("service", name), vocab.POLICY_FILE_HASH, Literal(digest))))

    prefixes = PrefixMap(
        {
            "cloudeng": vocab.CLOUDENG_NS,
            "sec": vocab.SEC_NS,
            "rdf": vocab.RDF_NS,
            "rdfs": vocab.RDFS_NS,
            "inst": config.instance_namespace,
        }
    )
    return Document(graph=graph, prefixes=prefixes)
