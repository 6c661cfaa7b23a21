"""The import surface: package exports resolve on first use, and a CLI
command loads only the layers it runs.

Each check runs in a fresh interpreter started with -S, so that nothing the
site hooks import can hide a module the package loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cloudaudit

SRC = str(Path(cloudaudit.__file__).resolve().parent.parent)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# every name `from cloudaudit import X` offers, by the layer that defines it
EXPORTS = {
    "rdf": ["BlankNode", "Graph", "Iri", "Literal", "PrefixMap", "Term", "Triple",
            "TriplePattern", "Var"],
    "turtle": ["Document", "ParseError", "parse_turtle", "serialize_turtle"],
    "reasoner": ["ClosureResult", "materialize", "subclasses_of"],
    "sparql": ["Query", "SolutionTable", "evaluate", "parse_query"],
    "shacl": ["NodeShape", "PropertyConstraint", "ShapeError", "ValidationReport",
              "parse_shapes", "validate"],
    "compliance": ["ComplianceReport", "CoverageEvidence", "NoPolicyError", "coverage",
                   "coverage_queries", "remediation_hints"],
    "openstack": ["EndpointRecord", "IngestConfig", "IngestError", "JsonShapeError",
                  "ProjectRecord", "RoleAssignmentRecord", "UserRecord", "ingest",
                  "parse_cli_json"],
}
LAYERS = {f"cloudaudit.{layer}" for layer in EXPORTS}


def run_fresh(code: str) -> dict:
    """Run `code` in a new interpreter; it leaves its answer in `result`,
    which comes back decoded from JSON, on the last line of stderr, together
    with the loaded modules."""
    script = (
        "import json, sys\n"
        f"{code}\n"
        "sys.stderr.write('\\n' + json.dumps({'result': result, 'modules': sorted(sys.modules)}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, encoding="utf-8", timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def test_importing_the_package_loads_no_layer():
    out = run_fresh("import cloudaudit\nresult = cloudaudit.__version__")
    assert out["result"] == cloudaudit.__version__
    assert not LAYERS & set(out["modules"])


def run_cli(argv: list[str]) -> dict:
    """`run_fresh` of `cloudaudit.cli.main(argv)`, with fixture names made
    paths and stdout swallowed."""
    paths = [str(FIXTURES / a) if a.endswith((".ttl", ".rq", ".json")) else a for a in argv]
    return run_fresh(
        "import contextlib, io\n"
        "from cloudaudit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = main({paths!r})\n"
    )


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["parse", "cloudengine.ttl"], {"rdf", "turtle"}),
        (["query", "cloudengine.ttl", "q_missing_encryption.rq"],
         {"rdf", "turtle", "reasoner", "sparql"}),
        (["validate", "cloudengine.ttl", "shapes_data_encryption.ttl"],
         {"rdf", "turtle", "reasoner", "shacl"}),
        (["compliance", "cloudengine.ttl", "--engine", "cloudeng:SecureCloudEngine"],
         {"rdf", "turtle", "compliance"}),  # coverage reads no entailed triple
    ],
    ids=["parse", "query", "validate", "compliance"],
)
def test_a_command_loads_only_its_layers(argv, loads):
    out = run_cli(argv)
    assert out["result"] in (0, 2, 3)
    assert LAYERS & set(out["modules"]) == {f"cloudaudit.{layer}" for layer in loads}
    assert "hashlib" not in out["modules"]


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "cloudengine.ttl"],
        ["infer", "cloudengine.ttl"],
        ["query", "cloudengine.ttl", "q_missing_encryption.rq"],
        ["validate", "cloudengine.ttl", "shapes_data_encryption.ttl"],
        ["compliance", "cloudengine.ttl", "--engine", "cloudeng:SecureCloudEngine"],
        ["ingest", "openstack", "--endpoints", "openstack_sample/endpoints.json",
         "--projects", "openstack_sample/projects.json", "--users", "openstack_sample/users.json",
         "--assignments", "openstack_sample/assignments.json"],
    ],
    ids=["parse", "infer", "query", "validate", "compliance", "ingest"],
)
def test_no_command_loads_dataclasses(argv):
    out = run_cli(argv)
    assert out["result"] in (0, 2, 3)
    assert not {"dataclasses", "inspect"} & set(out["modules"])


def test_every_export_imports_from_the_package():
    names = [name for names in EXPORTS.values() for name in names]
    out = run_fresh(
        "import importlib\n"
        "import cloudaudit\n"
        "result = []\n"
        f"for layer, names in {EXPORTS!r}.items():\n"
        "    module = importlib.import_module('cloudaudit.' + layer)\n"
        "    for name in names:\n"
        "        exec(f'from cloudaudit import {name} as value')\n"
        "        if value is getattr(module, name) and name in dir(cloudaudit):\n"
        "            result.append(name)\n"
    )
    assert out["result"] == names


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cloudaudit.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from cloudaudit import no_such_name  # noqa: F401
