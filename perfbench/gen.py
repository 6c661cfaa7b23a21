"""Seeded input generator for the benchmark, with its own ground truth.

Models graft N synthetic cloud engines onto the bundled
`fixtures/cloudengine.ttl`: a catalog of standards, security mechanisms and
policies, then per engine a control, business, audit and one or two data
interfaces linked to mechanisms.  Some data interfaces are planted without
`sec:encryptsData`, some point it at a transport protocol (an `sh:class`
violation), some engines carry two policies (an `sh:maxCount` violation),
some standards are implemented by nothing, and some engines get a policy
tailored to what they cover, so they have no gaps.  Optional subclass
chains of depth D under each interface kind make the RDFS fixpoint deep.

The seed picks names, links and which nodes are planted; how many of each
there are is fixed by position, so every seed asks for about the same work
and run-to-run spread comes from the machine, not from the inputs.

Every expected answer is computed here from the generated triples with
plain scans and BFS, never by cloudaudit: the closure, the data interfaces
lacking encryption, violation focus nodes, each engine's gaps, evidence
count and remediation hints, and the triple count of each OpenStack ingest.
`read_turtle` is a small independent reader for the Turtle subset the
fixture and cloudaudit's serializer use; it reads the fixture and checks
what `infer` and `ingest` write.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
SH = "http://www.w3.org/ns/shacl#"
CE = "http://example.org/cloudengine#"
SEC = "http://example.org/security#"
BENCH = "http://example.org/bench#"

TYPE = RDF + "type"
SUBCLASS = RDFS + "subClassOf"
LABEL = RDFS + "label"
DATA_INTERFACE = CE + "DataInterface"
ENGINE = CE + "CloudEngine"
POLICY = SEC + "SecurityPolicy"
STANDARD = SEC + "ComplianceStandard"
ENCRYPTION_METHOD = SEC + "EncryptionMethod"
HAS_POLICY = SEC + "hasSecurityPolicy"
COMPLIES = SEC + "compliesWith"
IMPLEMENTS = SEC + "implementsStandard"
ENCRYPTS = SEC + "encryptsData"
SCOPE = SEC + "encryptionScope"

# (attachment property, interface class, local-name tag) in the order the
# coverage code walks them
KINDS = (
    (CE + "hasControlInterface", CE + "ControlInterface", "ctl"),
    (CE + "hasBusinessInterface", CE + "BusinessInterface", "biz"),
    (CE + "hasAuditInterface", CE + "AuditInterface", "aud"),
    (CE + "hasDataInterface", DATA_INTERFACE, "data"),
)
ATTACH = tuple(k[0] for k in KINDS)
# mechanism kinds: linking property -> mechanism class
MECHANISMS = {
    SEC + "supportsAuthentication": SEC + "AuthenticationMechanism",
    SEC + "enforcesAuthorization": SEC + "AuthorizationMechanism",
    ENCRYPTS: ENCRYPTION_METHOD,
    SEC + "usesTransportSecurity": SEC + "TransportSecurityProtocol",
    SEC + "usesIdentityProvider": SEC + "IdentityProvider",
}
LINKS = tuple(MECHANISMS)
AUTHN, AUTHZ, _, TLS, IDP = LINKS

PREFIXES = {"rdf": RDF, "rdfs": RDFS, "sh": SH, "cloudeng": CE, "sec": SEC, "bench": BENCH}

N_STANDARDS = 30
N_ORPHANS = 4  # standards no node implements
N_POLICIES = 12
MECH_COUNTS = {AUTHN: 8, AUTHZ: 6, ENCRYPTS: 6, TLS: 4, IDP: 4}

# Planted rates per data interface.
P_UNENCRYPTED = 0.06
P_WRONG_CLASS = 0.03
# Every TAILORED_EVERY-th engine gets a policy it fully covers and every
# TWO_POLICIES_EVERY-th one a second policy; fixed, so each seed has as many.
TWO_POLICIES_EVERY = 33
TAILORED_EVERY = 7


def lit(text: str) -> tuple:
    return ("L", text)


def intlit(n: int) -> tuple:
    return ("I", str(n))


# ---------------------------------------------------------------- Turtle I/O

def _pname(term) -> str:
    if isinstance(term, tuple):
        if term[0] == "I":
            return term[1]
        text = term[1].replace("\\", "\\\\").replace('"', '\\"')
        return f'"{text}"'
    for label, ns in PREFIXES.items():
        if term.startswith(ns):
            return f"{label}:{term[len(ns):]}"
    return f"<{term}>"


def write_turtle(triples: list[tuple]) -> str:
    """Subject-grouped Turtle for triples of IRIs and literals; the caller
    supplies the prefix directives."""
    by_subject: dict[str, list[tuple]] = {}
    for s, p, o in triples:
        by_subject.setdefault(s, []).append((p, o))
    out = []
    for s, pos in by_subject.items():
        body = " ;\n    ".join(("a" if p == TYPE else _pname(p)) + " " + _pname(o) for p, o in pos)
        out.append(f"\n{_pname(s)} {body} .")
    return "\n".join(out) + "\n"


_TOKEN = re.compile(
    r'\s+|#[^\n]*|(<[^>]*>)|("(?:[^"\\]|\\.)*")|([;,\[\]])|([^\s;,\[\]"<#]+)'
)
_ESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n", "\\t": "\t"}


def _tokens(text: str) -> list[str]:
    out = []
    for m in _TOKEN.finditer(text):
        iri, string, punct, word = m.groups()
        if iri or string or punct:
            out.append(iri or string or punct)
        elif word:
            # a statement's final '.' may touch the last term; local names
            # never end in '.', so it is always the terminator
            if len(word) > 1 and word.endswith("."):
                out.extend((word[:-1], "."))
            else:
                out.append(word)
    return out


def read_turtle(text: str) -> list[tuple]:
    """Triples of the Turtle subset cloudaudit reads and writes.

    Blank nodes become ("B", n) with n counted from 0 in document order.
    Raises ValueError on anything outside the subset.
    """
    toks = _tokens(text)
    prefixes: dict[str, str] = {}
    triples: list[tuple] = []
    pos = 0
    bnodes = 0

    def term(tok: str):
        if tok.startswith("<"):
            return tok[1:-1]
        if tok.startswith('"'):
            return lit(re.sub(r'\\[\\"nt]', lambda m: _ESCAPES[m.group()], tok[1:-1]))
        if tok.isdigit():
            return intlit(int(tok))
        label, sep, local = tok.partition(":")
        if not sep or label not in prefixes:
            raise ValueError(f"bad term {tok!r}")
        return prefixes[label] + local

    def node():
        nonlocal pos, bnodes
        tok = toks[pos]
        pos += 1
        if tok != "[":
            return term(tok)
        subject = ("B", bnodes)
        bnodes += 1
        if toks[pos] != "]":
            po_list(subject)
        if toks[pos] != "]":
            raise ValueError("unclosed '['")
        pos += 1
        return subject

    def po_list(subject):
        nonlocal pos
        while True:
            verb = toks[pos]
            pos += 1
            predicate = TYPE if verb == "a" else term(verb)
            while True:
                triples.append((subject, predicate, node()))
                if toks[pos] != ",":
                    break
                pos += 1
            while toks[pos] == ";":
                pos += 1
            if toks[pos] in (".", "]"):
                return

    while pos < len(toks):
        if toks[pos] == "@prefix":
            label, ns, dot = toks[pos + 1:pos + 4]
            if not label.endswith(":") or dot != ".":
                raise ValueError(f"bad @prefix near {label!r}")
            prefixes[label[:-1]] = ns[1:-1]
            pos += 4
            continue
        subject = node()
        if toks[pos] != ".":
            po_list(subject)
        if toks[pos] != ".":
            raise ValueError(f"expected '.', got {toks[pos]!r}")
        pos += 1
    return triples


# ---------------------------------------------------------- ground truth

def closure(triples) -> set[tuple]:
    """RDFS subclass transitivity plus type lifting, by per-class BFS."""
    supers: dict = {}
    for s, p, o in triples:
        if p == SUBCLASS:
            supers.setdefault(s, set()).add(o)
    reach: dict = {}
    for cls in supers:
        seen: set = set()
        stack = [cls]
        while stack:
            for parent in supers.get(stack.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        reach[cls] = seen
    out = set(triples)
    for cls, ancestors in reach.items():
        out.update((cls, SUBCLASS, a) for a in ancestors)
    for s, p, o in list(out):
        if p == TYPE:
            out.update((s, TYPE, a) for a in reach.get(o, ()))
    return out


class Index:
    """Subject and (predicate, object) lookups over a set of triples."""

    def __init__(self, triples):
        self.sp: dict = {}
        self.po: dict = {}
        for s, p, o in triples:
            self.sp.setdefault((s, p), []).append(o)
            self.po.setdefault((p, o), []).append(s)

    def objects(self, s, p) -> list:
        return self.sp.get((s, p), [])

    def subjects(self, p, o) -> list:
        return self.po.get((p, o), [])


@dataclass
class EngineTruth:
    declared: list[str]  # sorted standard IRIs of the engine's policies
    gaps: list[str]  # sorted standard IRIs
    evidence: int
    hints_implementers: list[list[str]]  # per gap, sorted implementer IRIs


@dataclass
class Truth:
    asserted: int
    closure: int
    inferred: int
    unencrypted: list[str]  # data interfaces lacking sec:encryptsData
    wrong_class: list[str]  # data interfaces encrypting with a non-EncryptionMethod
    two_policies: list[str]  # engines with more than one policy
    engines: dict[str, EngineTruth]
    type_counts: dict[str, int]  # closure instances per interface class
    subject_rows: dict[str, int]  # closure triples per engine subject
    joins: list[tuple[str, str]]  # (engine, data interface) encrypted at rest
    exposed: list[str]  # engines with a data interface lacking sec:encryptsData


def truth_of(triples: list[tuple], full: set[tuple], engines: list[str]) -> Truth:
    idx = Index(full)
    data_ifaces = idx.subjects(TYPE, DATA_INTERFACE)
    unencrypted = sorted(d for d in data_ifaces if not idx.objects(d, ENCRYPTS))
    enc_methods = set(idx.subjects(TYPE, ENCRYPTION_METHOD))
    wrong = sorted(
        d for d in data_ifaces
        if any(m not in enc_methods for m in idx.objects(d, ENCRYPTS))
    )
    two = sorted(e for e in idx.subjects(TYPE, ENGINE) if len(idx.objects(e, HAS_POLICY)) > 1)
    per_engine = {}
    for engine in engines:
        declared = set()
        for policy in idx.objects(engine, HAS_POLICY):
            declared.update(idx.objects(policy, COMPLIES))
        interfaces = {i for a in ATTACH for i in idx.objects(engine, a)}
        evidence = 0
        gaps = []
        for std in sorted(declared):
            found = 0
            for iface in interfaces:
                found += std in idx.objects(iface, IMPLEMENTS)
                for link in LINKS:
                    found += sum(std in idx.objects(m, IMPLEMENTS) for m in idx.objects(iface, link))
            evidence += found
            if not found:
                gaps.append(std)
        hints = [sorted(set(idx.subjects(IMPLEMENTS, g))) for g in gaps]
        per_engine[engine] = EngineTruth(sorted(declared), gaps, evidence, hints)
    rows = Counter(s for s, _, _ in full)
    at_rest = set(idx.subjects(SCOPE, SEC + "AtRest"))
    attached = [(s, o) for s, p, o in full if p == CE + "hasDataInterface"]
    joins = sorted(
        (e, d) for e, d in attached if any(m in at_rest for m in idx.objects(d, ENCRYPTS))
    )
    exposed = sorted(
        {e for e, d in attached if not idx.objects(d, ENCRYPTS)} & set(idx.subjects(TYPE, ENGINE))
    )
    return Truth(
        asserted=len(set(triples)),
        closure=len(full),
        inferred=len(full) - len(set(triples)),
        unencrypted=unencrypted,
        wrong_class=wrong,
        two_policies=two,
        engines=per_engine,
        type_counts={c: len(idx.subjects(TYPE, c)) for _, c, _ in KINDS},
        subject_rows={e: rows[e] for e in engines},
        joins=joins,
        exposed=exposed,
    )


# ---------------------------------------------------------------- models

@dataclass
class Model:
    text: str  # full Turtle: fixture plus grafted engines
    engines: list[str]
    truth: Truth
    closure: set[tuple]  # expected materialized triples


@dataclass
class Catalog:
    """Standards, mechanisms and policies that the engines draw on."""

    implementable: list[str]
    mechs: dict[str, list[str]]  # linking property -> mechanisms
    mech_std: dict[str, list[str]]  # mechanism -> standards it implements
    policies: list[str]


def _catalog(rng: random.Random, g: list[tuple], ns: str, tag: str) -> Catalog:
    standards = [f"{ns}std-{i:02d}" for i in range(N_STANDARDS)]
    for i, std in enumerate(standards):
        g += [(std, TYPE, STANDARD), (std, LABEL, lit(f"Bench control {tag} {i}"))]
    # Mechanisms and policies deal standards round-robin from one seeded
    # permutation: every seed gets the same coverage structure under other
    # names, so seeds vary content but not how many gaps engines have.
    implementable = rng.sample(standards[N_ORPHANS:], N_STANDARDS - N_ORPHANS)
    n = len(implementable)
    mechs: dict[str, list[str]] = {}
    mech_std: dict[str, list[str]] = {}
    slot = 0
    for link, cls in MECHANISMS.items():
        mechs[link] = []
        for i in range(MECH_COUNTS[link]):
            m = f"{ns}{cls.rsplit('#', 1)[1]}-{i}"
            mechs[link].append(m)
            mech_std[m] = [implementable[slot % n], implementable[(slot + 1) % n]]
            slot += 2
            g.append((m, TYPE, cls))
            g += [(m, IMPLEMENTS, std) for std in mech_std[m]]
            if link == ENCRYPTS:
                g.append((m, SCOPE, SEC + ("AtRest" if i % 2 == 0 else "InTransit")))
    policies = [f"{ns}policy-{i}" for i in range(N_POLICIES)]
    for p, pol in enumerate(policies):
        g.append((pol, TYPE, POLICY))
        # one orphan per policy: every engine with a catalog policy has a gap
        for std in [standards[p % N_ORPHANS]] + [implementable[(5 * p + t) % n] for t in range(5)]:
            g.append((pol, COMPLIES, std))
    return Catalog(implementable, mechs, mech_std, policies)


def make_model(rng: random.Random, fixture_text: str, fixture_triples: list[tuple],
               engines: int, depth: int = 0, tag: str = "m",
               p_unencrypted: float = P_UNENCRYPTED) -> Model:
    """Graft `engines` engines (and, with depth > 0, a subclass chain of that
    depth under each interface kind) onto the fixture model."""
    g: list[tuple] = []
    ns = BENCH + tag + "-"
    cat = _catalog(rng, g, ns, tag)

    chains: dict[str, list[str]] = {}
    for _, cls, kind in KINDS:
        chain = [cls]
        for level in range(1, depth + 1):
            sub = f"{ns}{kind}-level-{level}"
            g += [(sub, TYPE, RDFS + "Class"), (sub, SUBCLASS, chain[-1])]
            chain.append(sub)
        chains[cls] = chain

    names = []
    ifaces = claims = 0
    for e in range(engines):
        engine = f"{ns}engine-{e}"
        names.append(engine)
        g.append((engine, TYPE, ENGINE))
        covered: set[str] = set()
        for attach, cls, kind in KINDS:
            # counts and chain levels cycle rather than being drawn, so the
            # closure size, and with it the work, is the same for every seed
            for k in range(1 + e % 2 if kind == "data" else 1):
                iface = f"{ns}engine-{e}-{kind}-{k}"
                ifaces += 1
                g.append((engine, attach, iface))
                level = depth - (e + k) % (depth // 2 + 1) if depth else 0
                g.append((iface, TYPE, chains[cls][level]))
                g.append((iface, LABEL, lit(f"Engine {e} {kind} interface {k}")))
                for link, pool in _links_for(kind, rng, p_unencrypted):
                    m = rng.choice(cat.mechs[pool])
                    g.append((iface, link, m))
                    covered.update(cat.mech_std[m])
                # three interfaces in ten claim a standard directly, dealt
                # round-robin so every standard has as many claimants
                if ifaces % 10 < 3:
                    std = cat.implementable[claims % len(cat.implementable)]
                    claims += 1
                    g.append((iface, IMPLEMENTS, std))
                    covered.add(std)
        if e % TAILORED_EVERY == 0 and len(covered) >= 3:
            pol = f"{ns}engine-{e}-policy"
            g.append((pol, TYPE, POLICY))
            for std in rng.sample(sorted(covered), 3):
                g.append((pol, COMPLIES, std))
            g.append((engine, HAS_POLICY, pol))
        else:
            two = e % TWO_POLICIES_EVERY == 1
            for pol in rng.sample(cat.policies, 2 if two else 1):
                g.append((engine, HAS_POLICY, pol))

    text = fixture_text + "\n@prefix bench: <" + BENCH + "> .\n" + write_turtle(g)
    full = closure(fixture_triples + g)
    return Model(text, names, truth_of(fixture_triples + g, full, names), full)


def _links_for(kind: str, rng: random.Random, p_unencrypted: float) -> list[tuple[str, str]]:
    """(linking property, mechanism pool) pairs for one interface."""
    if kind == "ctl":
        links = [AUTHN, AUTHZ, TLS] + [l for l in (IDP, AUTHN) if rng.random() < 0.5]
    elif kind == "biz":
        links = [AUTHN, AUTHZ] + ([IDP] if rng.random() < 0.5 else [])
    elif kind == "aud":
        links = [TLS]
    else:
        links = [TLS] + ([AUTHZ] if rng.random() < 0.5 else [])
        r = rng.random()
        if r < p_unencrypted:
            pass
        elif r < p_unencrypted + P_WRONG_CLASS:
            return [(l, l) for l in links] + [(ENCRYPTS, TLS)]
        else:
            links.append(ENCRYPTS)
    return [(l, l) for l in links]


# ---------------------------------------------------------------- OpenStack

SERVICE_TYPES = ("identity", "object-store", "metering", "telemetry", "network",
                 "key-manager", "compute", "volume")
ROLES = ("admin", "member", "reader", "auditor")


@dataclass
class Inventory:
    exports: dict[str, str]  # endpoints/projects/users/assignments -> JSON text
    versions: str  # JSON object: service name -> version
    triples: int  # expected size of the ingested graph without policy hashes


def make_inventory(rng: random.Random, endpoints: int, users: int, tag: str) -> Inventory:
    """OpenStack CLI exports shaped like `fixtures/openstack_sample/`."""
    services = [(f"{tag}-svc-{i}", SERVICE_TYPES[i % len(SERVICE_TYPES)])
                for i in range(max(1, endpoints // 6))]
    projects = max(1, users // 4)
    eps, used = [], set()
    triples = 0
    for i in range(endpoints):
        name, stype = rng.choice(services)
        used.add(name)
        rec = {"ID": f"{tag}ep{i:06d}", "Service Name": name, "Service Type": stype,
               "Enabled": True, "Interface": rng.choice(("public", "internal", "admin")),
               "URL": f"https://{name}.cloud.example:{8000 + i % 1000}/v{i % 3 + 1}"}
        if rng.random() < 0.8:
            rec["Region"] = f"Region{rng.randint(1, 4)}"
        eps.append(rec)
        triples += 5 if "Region" in rec else 4
    triples += 2 * len(used) + 2 * projects + 2 * users
    prs = [{"ID": f"{tag}pr{i:05d}", "Name": f"project-{i}"} for i in range(projects)]
    urs = [{"ID": f"{tag}us{i:05d}", "Name": f"user-{i}"} for i in range(users)]
    ras = []
    for i in range(users * 2):
        rec = {"Role": rng.choice(ROLES), "User": f"{tag}us{rng.randrange(users):05d}",
               "Group": "", "Project": ""}
        if rng.random() < 0.9:
            rec["Project"] = f"{tag}pr{rng.randrange(projects):05d}"
        ras.append(rec)
        triples += 4 if rec["Project"] else 3
    versions = {name: f"{rng.randint(1, 30)}.{rng.randint(0, 9)}.0" for name, _ in services}
    triples += len(versions)
    exports = {"endpoints": eps, "projects": prs, "users": urs, "assignments": ras}
    return Inventory({k: json.dumps(v, indent=1) for k, v in exports.items()},
                     json.dumps(versions), triples)
