"""IRI constants for the cloud engine ontology and the core RDF vocabularies.

The rdf, rdfs, cloudeng and sec namespaces are those the prefix block of
the bundled model file (fixtures/cloudengine.ttl) binds; the sh namespace
is bound only by the bundled shapes file (fixtures/shapes_data_encryption.ttl).
"""

from __future__ import annotations

from .rdf import Iri

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
SH_NS = "http://www.w3.org/ns/shacl#"
CLOUDENG_NS = "http://example.org/cloudengine#"
SEC_NS = "http://example.org/security#"

RDF_TYPE = Iri(RDF_NS + "type")

RDFS_SUBCLASS_OF = Iri(RDFS_NS + "subClassOf")
RDFS_LABEL = Iri(RDFS_NS + "label")
RDFS_RESOURCE = Iri(RDFS_NS + "Resource")
RDFS_DOMAIN = Iri(RDFS_NS + "domain")

# SHACL shape vocabulary (the validated subset)
SH_NODE_SHAPE = Iri(SH_NS + "NodeShape")
SH_TARGET_CLASS = Iri(SH_NS + "targetClass")
SH_PROPERTY = Iri(SH_NS + "property")
SH_PATH = Iri(SH_NS + "path")
SH_MIN_COUNT = Iri(SH_NS + "minCount")
SH_MAX_COUNT = Iri(SH_NS + "maxCount")
SH_CLASS = Iri(SH_NS + "class")
SH_MESSAGE = Iri(SH_NS + "message")

# Cloud engine core
CLOUD_ENGINE = Iri(CLOUDENG_NS + "CloudEngine")
INTERFACE = Iri(CLOUDENG_NS + "Interface")
CONTROL_INTERFACE = Iri(CLOUDENG_NS + "ControlInterface")
BUSINESS_INTERFACE = Iri(CLOUDENG_NS + "BusinessInterface")
AUDIT_INTERFACE = Iri(CLOUDENG_NS + "AuditInterface")
DATA_INTERFACE = Iri(CLOUDENG_NS + "DataInterface")
HAS_CONTROL_INTERFACE = Iri(CLOUDENG_NS + "hasControlInterface")
HAS_BUSINESS_INTERFACE = Iri(CLOUDENG_NS + "hasBusinessInterface")
HAS_AUDIT_INTERFACE = Iri(CLOUDENG_NS + "hasAuditInterface")
HAS_DATA_INTERFACE = Iri(CLOUDENG_NS + "hasDataInterface")
SERVICE_VERSION = Iri(CLOUDENG_NS + "serviceVersion")
POLICY_FILE_HASH = Iri(CLOUDENG_NS + "policyFileHash")

# Security layer
KEY_MANAGEMENT = Iri(SEC_NS + "KeyManagement")
HAS_SECURITY_POLICY = Iri(SEC_NS + "hasSecurityPolicy")
USES_IDENTITY_PROVIDER = Iri(SEC_NS + "usesIdentityProvider")
SUPPORTS_AUTHENTICATION = Iri(SEC_NS + "supportsAuthentication")
ENFORCES_AUTHORIZATION = Iri(SEC_NS + "enforcesAuthorization")
ENCRYPTS_DATA = Iri(SEC_NS + "encryptsData")
USES_TRANSPORT_SECURITY = Iri(SEC_NS + "usesTransportSecurity")
COMPLIES_WITH = Iri(SEC_NS + "compliesWith")
IMPLEMENTS_STANDARD = Iri(SEC_NS + "implementsStandard")

# Inventory terms minted for ingested OpenStack facts
ENDPOINT = Iri(CLOUDENG_NS + "Endpoint")
PROJECT = Iri(CLOUDENG_NS + "Project")
USER = Iri(CLOUDENG_NS + "User")
ROLE_ASSIGNMENT = Iri(CLOUDENG_NS + "RoleAssignment")
HAS_ENDPOINT = Iri(CLOUDENG_NS + "hasEndpoint")
ENDPOINT_URL = Iri(CLOUDENG_NS + "endpointURL")
ENDPOINT_INTERFACE = Iri(CLOUDENG_NS + "endpointInterface")
ENDPOINT_REGION = Iri(CLOUDENG_NS + "endpointRegion")
ASSIGNMENT_ROLE = Iri(CLOUDENG_NS + "assignmentRole")
ASSIGNMENT_USER = Iri(CLOUDENG_NS + "assignmentUser")
ASSIGNMENT_GROUP = Iri(CLOUDENG_NS + "assignmentGroup")
ASSIGNMENT_PROJECT = Iri(CLOUDENG_NS + "assignmentProject")

# Engine -> interface attachment properties, in declaration order
ATTACHMENT_PROPERTIES: tuple[Iri, ...] = (
    HAS_CONTROL_INTERFACE,
    HAS_BUSINESS_INTERFACE,
    HAS_AUDIT_INTERFACE,
    HAS_DATA_INTERFACE,
)

# Interface -> security mechanism linking properties considered as
# one-hop evidence when checking standards coverage
MECHANISM_PROPERTIES: tuple[Iri, ...] = (
    SUPPORTS_AUTHENTICATION,
    ENFORCES_AUTHORIZATION,
    ENCRYPTS_DATA,
    USES_TRANSPORT_SECURITY,
    USES_IDENTITY_PROVIDER,
)

# The four concrete interface categories a cloud engine aggregates
INTERFACE_SUBCLASSES: tuple[Iri, ...] = (
    CONTROL_INTERFACE,
    BUSINESS_INTERFACE,
    AUDIT_INTERFACE,
    DATA_INTERFACE,
)

# Everything the toolchain itself may emit into instance documents
EMITTED_TERMS: frozenset[Iri] = frozenset(
    {
        RDF_TYPE,
        RDFS_LABEL,
        INTERFACE,
        CONTROL_INTERFACE,
        AUDIT_INTERFACE,
        DATA_INTERFACE,
        SERVICE_VERSION,
        POLICY_FILE_HASH,
        KEY_MANAGEMENT,
        ENDPOINT,
        PROJECT,
        USER,
        ROLE_ASSIGNMENT,
        HAS_ENDPOINT,
        ENDPOINT_URL,
        ENDPOINT_INTERFACE,
        ENDPOINT_REGION,
        ASSIGNMENT_ROLE,
        ASSIGNMENT_USER,
        ASSIGNMENT_GROUP,
        ASSIGNMENT_PROJECT,
    }
)
