"""End-to-end command behavior: outputs, exit codes, file handling."""

import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cloudaudit
from cloudaudit import cli
from cloudaudit.cli import main
from cloudaudit.rdf import Graph
from cloudaudit.reasoner import EntailmentView, materialize, subclasses_of
from cloudaudit.shacl import parse_shapes, validate
from cloudaudit.sparql import evaluate, parse_query
from cloudaudit.turtle import Document, parse_turtle, serialize_turtle
from cloudaudit.vocab import RDF_TYPE, RDFS_SUBCLASS_OF

from oracles import CLOUDENG, gen, isomorphic, naive_rounds, type_closure


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def model(fixtures_dir):
    return str(fixtures_dir / "cloudengine.ttl")


@pytest.fixture()
def gap_model(fixtures_dir):
    return str(fixtures_dir / "cloudengine_gap.ttl")


@pytest.fixture()
def shapes(fixtures_dir):
    return str(fixtures_dir / "shapes_data_encryption.ttl")


@pytest.fixture()
def gap_query(fixtures_dir):
    return str(fixtures_dir / "q_missing_encryption.rq")


class TestParseCommand:
    def test_counts(self, run, model):
        code, out, _ = run("parse", model)
        assert code == 0
        assert out.strip().endswith("282 triples, 11 prefixes")

    def test_json_format(self, run, model):
        code, out, _ = run("parse", model, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"file": model, "triples": 282, "prefixes": 11}

    def test_parse_error_names_position(self, run, tmp_path):
        bad = tmp_path / "bad.ttl"
        bad.write_text("@prefix x: <http://x.test/> .\nx:a x:b @ .\n")
        code, out, err = run("parse", str(bad))
        assert code == 1
        assert f"{bad}:2:9:" in err
        assert out == ""

    def test_missing_file(self, run):
        code, _, err = run("parse", "no/such/file.ttl")
        assert code == 1
        assert "no/such/file.ttl" in err


class TestExitCodeContract:
    def test_validate_conforming_model(self, run, model, shapes):
        code, out, _ = run("validate", model, shapes)
        assert code == 0
        assert out.splitlines()[0] == "conforms: true"

    def test_validate_gap_model(self, run, gap_model, shapes):
        code, out, _ = run("validate", gap_model, shapes)
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "conforms: false"
        assert len(lines) == 2 and "Swift" in lines[1]

    def test_compliance_gaps(self, run, model):
        code, out, _ = run("compliance", model, "--engine", "cloudeng:SecureCloudEngine")
        assert code == 3
        assert "GAP" in out and "aws:SecurityPillar" in out and "iso27001:A.12.4.1" in out

    def test_query_no_rows(self, run, model, gap_query):
        code, out, _ = run("query", model, gap_query)
        assert code == 0
        assert "(0 rows)" in out

    def test_instance_of_a_blank_node_subclass_is_a_focus_node(self, run, shapes, tmp_path):
        model = tmp_path / "model.ttl"
        model.write_text(
            "@prefix e: <http://e.test/> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            f"e:x a [ rdfs:subClassOf <{CLOUDENG}DataInterface> ] .\n"
        )
        for flags in ((), ("--no-inference",)):
            code, out, _ = run("validate", str(model), shapes, *flags)
            assert code == 2
            assert out.splitlines()[1].startswith("violation [MinCount] focus=<http://e.test/x>")


class TestQueryCommand:
    def test_gap_fixture_names_swift(self, run, gap_model, gap_query):
        code, out, _ = run("query", gap_model, gap_query)
        assert code == 0
        assert "cloudeng:Swift" in out and "(1 row)" in out

    def test_json_output(self, run, gap_model, gap_query):
        _, out, _ = run("query", gap_model, gap_query, "--format", "json")
        assert json.loads(out) == {
            "head": {"vars": ["data"]},
            "results": {"bindings": [{"data": {"type": "iri", "value": CLOUDENG + "Swift"}}]},
        }

    def test_no_inference_flag(self, run, model, tmp_path):
        q = tmp_path / "interfaces.rq"
        q.write_text(
            f"PREFIX cloudeng: <{CLOUDENG}>\nSELECT ?s WHERE {{ ?s a cloudeng:Interface }}\n"
        )
        _, out_inferred, _ = run("query", model, str(q))
        assert "(9 rows)" in out_inferred
        _, out_asserted, _ = run("query", model, str(q), "--no-inference")
        assert "(0 rows)" in out_asserted

    def test_query_parse_error(self, run, model, tmp_path):
        q = tmp_path / "bad.rq"
        q.write_text("SELECT ?s WHERE { ?s a ?t OPTIONAL }")
        code, _, err = run("query", model, str(q))
        assert code == 1
        assert f"{q}:" in err


class TestComplianceCommand:
    def test_engine_accepts_full_and_wrapped_iris(self, run, model):
        full = CLOUDENG + "HybridCompliantEngine"
        for spelling in (full, f"<{full}>"):
            code, out, _ = run("compliance", model, "--engine", spelling)
            assert code == 3
            assert "1 gap(s)" in out

    def test_unknown_prefix_in_engine(self, run, model):
        code, _, err = run("compliance", model, "--engine", "nosuch:Engine")
        assert code == 1 and "nosuch" in err

    def test_no_policy_is_an_error(self, run, model):
        code, _, err = run("compliance", model, "--engine", "cloudeng:OCCI")
        assert code == 1
        assert "no security policy" in err

    def test_a_second_policy_warns_on_stderr_and_in_the_report(self, run, tmp_path):
        model = tmp_path / "two_policies.ttl"
        model.write_text(
            "@prefix ex: <http://e.test/> .\n"
            "@prefix sec: <http://example.org/security#> .\n"
            "ex:E sec:hasSecurityPolicy ex:P1, ex:P2 .\n"
            "ex:P1 sec:compliesWith ex:A1 .\n"
            "ex:P2 sec:compliesWith ex:A2 .\n"
        )
        warning = ("warning: engine declares multiple security policies "
                   "(http://e.test/P1, http://e.test/P2); using the union of their standards")
        code, out, err = run("compliance", str(model), "--engine", "ex:E")
        assert code == 3
        assert err == warning + "\n"
        assert out.splitlines()[:5] == [
            "engine: ex:E", "policy: ex:P1", "standards: 2 declared, 0 covered, 2 gap(s)",
            warning, "",
        ]

    def test_blank_node_interfaces_and_mechanisms_cover(self, run, tmp_path):
        model = tmp_path / "blank.ttl"
        model.write_text(
            "@prefix cloudeng: <http://example.org/cloudengine#> .\n"
            "@prefix sec: <http://example.org/security#> .\n"
            "@prefix ex: <http://e.test/> .\n"
            "ex:E sec:hasSecurityPolicy ex:P ;\n"
            "  cloudeng:hasDataInterface [ sec:implementsStandard ex:S1 ] ;\n"
            "  cloudeng:hasControlInterface ex:C .\n"
            "ex:C sec:supportsAuthentication [ sec:implementsStandard ex:S2 ] .\n"
            "ex:P sec:compliesWith ex:S1, ex:S2 .\n"
        )
        code, out, _ = run("compliance", str(model), "--engine", "ex:E")
        assert code == 0
        assert out.splitlines()[2:] == [
            "standards: 2 declared, 2 covered, 0 gap(s)", "",
            "COVERED  ex:S1", "         via _:b1 (direct)",
            "COVERED  ex:S2", "         via ex:C -> sec:supportsAuthentication -> _:b2",
        ]
        code, out, _ = run("compliance", str(model), "--engine", "ex:E", "--format", "json")
        s1, s2 = (s["evidence"] for s in json.loads(out)["standards"])
        assert s1 == [{"interface": "_:b1", "via": "Direct"}]
        assert s2[0]["interface"] == "http://e.test/C" and s2[0]["mechanism"] == "_:b2"

    def test_blank_node_policies_are_read_and_sort_after_iris(self, run, tmp_path):
        model = tmp_path / "blank_policy.ttl"
        model.write_text(
            "@prefix sec: <http://example.org/security#> .\n"
            "@prefix ex: <http://e.test/> .\n"
            "ex:E sec:hasSecurityPolicy [ sec:compliesWith ex:S1 ], ex:Z .\n"
            "ex:Z sec:compliesWith ex:S2 .\n"
        )
        warning = ("warning: engine declares multiple security policies "
                   "(http://e.test/Z, _:b1); using the union of their standards")
        code, out, err = run("compliance", str(model), "--engine", "ex:E", "--format", "json")
        assert code == 3 and err == warning + "\n"
        payload = json.loads(out)
        assert payload["policy"] == "http://e.test/Z"
        assert payload["gaps"] == ["http://e.test/S1", "http://e.test/S2"]

    def test_a_gap_only_blank_nodes_implement_gets_its_own_hint(self, run, tmp_path):
        """Hints name IRI implementers only; a gap whose implementers are all
        blank nodes says so, and one with any IRI implementer names it."""
        model = tmp_path / "blank_implementers.ttl"
        model.write_text(
            "@prefix cloudeng: <http://example.org/cloudengine#> .\n"
            "@prefix sec: <http://example.org/security#> .\n"
            "@prefix ex: <http://e.test/> .\n"
            "ex:E sec:hasSecurityPolicy ex:P .\n"
            "ex:P sec:compliesWith ex:S1 .\n"
            "ex:F cloudeng:hasDataInterface [ sec:implementsStandard ex:S1 ] .\n"
            "ex:E2 sec:hasSecurityPolicy ex:P2 .\n"
            "ex:P2 sec:compliesWith ex:S1, ex:S2, ex:S3 .\n"
            "ex:G sec:implementsStandard ex:S2 .\n"
            "ex:F cloudeng:hasControlInterface [ sec:implementsStandard ex:S2 ] .\n"
        )
        blank_only = ("ex:S1: implemented in the model only by blank nodes; "
                      "give one an IRI to attach it to ex:E")
        code, out, _ = run("compliance", str(model), "--engine", "ex:E")
        assert code == 3
        assert out.endswith(f"GAP      ex:S1\n\nhints:\n  - {blank_only}\n")
        code, out, _ = run("compliance", str(model), "--engine", "ex:E", "--format", "json")
        assert code == 3 and json.loads(out)["hints"] == [blank_only]
        code, out, _ = run("compliance", str(model), "--engine", "ex:E2", "--format", "json")
        assert code == 3 and json.loads(out)["hints"] == [
            blank_only.replace("ex:E", "ex:E2"),
            "ex:S2: implemented in the model by ex:G; attach one of them to ex:E2",
            "ex:S3: no node in the model implements this standard",
        ]

    def test_json_is_stable_across_runs(self, run, model):
        _, first, _ = run("compliance", model, "--engine", "cloudeng:SecureCloudEngine", "--format", "json")
        _, second, _ = run("compliance", model, "--engine", "cloudeng:SecureCloudEngine", "--format", "json")
        assert first == second
        payload = json.loads(first)
        assert payload["gaps"] == [
            "https://aws.amazon.com/architecture/well-architected#SecurityPillar",
            "https://www.iso.org/standard/27001#A.12.4.1",
        ]
        assert len(payload["hints"]) == 2


class TestEntailment:
    """A command builds the RDFS closure only when its answer can depend on
    one: the closure adds only rdf:type and rdfs:subClassOf triples."""

    @pytest.fixture()
    def closures(self, monkeypatch):
        from cloudaudit import reasoner

        calls = []
        unpatched = reasoner._closure

        def closure(graph):
            calls.append(graph)
            return unpatched(graph)

        monkeypatch.setattr(reasoner, "_closure", closure)
        return calls

    def test_compliance_builds_no_closure(self, run, model, closures):
        for engine in ("cloudeng:SecureCloudEngine", "cloudeng:HybridCompliantEngine"):
            for fmt in ("text", "json"):
                assert run("compliance", model, "--engine", engine, "--format", fmt)[0] == 3
        assert closures == []

    def test_validate_with_the_fixture_shapes_builds_no_closure(self, run, model, gap_model,
                                                               shapes, closures):
        assert run("validate", model, shapes)[0] == 0
        assert run("validate", gap_model, shapes, "--format", "json")[0] == 2
        assert closures == []

    def test_validate_with_a_type_path_reads_the_closure(self, run, model, tmp_path, closures):
        shapes_path = tmp_path / "typed.ttl"
        typed_shape = SHAPE_TEMPLATE.replace("sec:encryptsData", f"<{RDF_TYPE.value}>")
        shapes_path.write_text(typed_shape.replace("COUNT", "3"), encoding="utf-8")
        code, out, _ = run("validate", model, str(shapes_path), "--format", "json")
        assert len(closures) == 1
        asserted = parse_turtle(Path(model).read_text(encoding="utf-8")).graph
        typed = parse_shapes(parse_turtle(shapes_path.read_text(encoding="utf-8")))
        expected = validate(materialize(asserted).graph, typed, subclasses_of)
        assert expected != validate(asserted, typed, subclasses_of)
        assert (code, json.loads(out)) == (2, expected.to_json_dict())

    def test_query_with_the_fixture_query_builds_no_closure(self, run, model, gap_model,
                                                            gap_query, closures):
        """Its type pattern is answered from the asserted subClassOf edges."""
        assert run("query", model, gap_query)[0] == 0
        code, out, _ = run("query", gap_model, gap_query, "--format", "json")
        assert code == 0 and "Swift" in out
        assert closures == []

    @pytest.mark.parametrize("where", [
        "?s ?p ?o",
        f"?c <{RDFS_SUBCLASS_OF.value}> <{CLOUDENG}Interface>",
        "?s a ?c . FILTER EXISTS { ?s ?p ?o . FILTER NOT EXISTS { ?o a ?c } }",
    ], ids=["variable predicate", "subClassOf", "type with a variable object"])
    def test_query_reading_the_closure_builds_it_once(self, run, model, tmp_path, closures,
                                                      where):
        query_path = tmp_path / "closure.rq"
        query_path.write_text(f"SELECT * WHERE {{ {where} }}", encoding="utf-8")
        code, out, _ = run("query", model, str(query_path), "--format", "json")
        (built,) = closures
        asserted = parse_turtle(Path(model).read_text(encoding="utf-8")).graph
        assert list(built) == list(asserted)
        expected = evaluate(parse_query(query_path.read_text(encoding="utf-8")),
                            materialize(asserted).graph)
        assert expected.rows
        assert (code, json.loads(out)) == (0, expected.to_json_dict())


class TestIndexesBuilt:
    """A graph builds the index of a position (subject, predicate, object)
    only when a lookup reads it, so each command builds those it reads."""

    @pytest.fixture()
    def graphs(self, monkeypatch):
        """The graph of each document a command loads, in load order, then
        the graph it queries."""
        from cloudaudit import sparql

        seen = []

        def parse(text):
            doc = parse_turtle(text)
            seen.append(doc.graph)
            return doc

        def evaluate(query, graph):
            seen.append(graph)
            return unpatched(query, graph)

        unpatched = sparql.evaluate
        monkeypatch.setattr(cli, "parse_turtle", parse)
        monkeypatch.setattr(sparql, "evaluate", evaluate)
        return seen

    @staticmethod
    def built(graph: Graph) -> list[str]:
        names = ("subject", "predicate", "object")
        return [name for name, pools in zip(names, graph._index or ()) if pools is not None]

    def test_compliance_reads_the_object_index_only_for_gaps(self, run, model, tmp_path, graphs):
        gap_free = tmp_path / "gap_free.ttl"
        gap_free.write_text(Path(model).read_text(encoding="utf-8") + (
            "cloudeng:GapFreeEngine cloudeng:hasControlInterface cloudeng:OCCI ;\n"
            "  cloudeng:hasAuditInterface cloudeng:Syslog ;\n"
            "  sec:hasSecurityPolicy sec:GapFreePolicy .\n"
            "sec:GapFreePolicy sec:compliesWith csa:IVS-02, nist80053:AU-2 .\n"
        ), encoding="utf-8")
        assert run("compliance", str(gap_free), "--engine", "cloudeng:GapFreeEngine")[0] == 0
        assert run("compliance", model, "--engine", "cloudeng:SecureCloudEngine")[0] == 3
        assert [self.built(g) for g in graphs] == [["subject"], ["subject", "object"]]

    def test_validate_with_the_fixture_shapes_reads_no_predicate_index(self, run, model,
                                                                       shapes, graphs):
        assert run("validate", model, shapes)[0] == 0
        data, _ = graphs
        assert self.built(data) == ["subject", "object"]

    def test_validate_on_the_closure_reads_no_predicate_index(self, run, model, tmp_path,
                                                              graphs, monkeypatch):
        """A shape whose path is rdf:type makes validate build the closure,
        which builds only the indexes the shapes read, as the data does."""
        from cloudaudit import shacl

        unpatched = shacl.validate

        def validate(graph, *rest):
            graphs.append(graph)
            return unpatched(graph, *rest)

        monkeypatch.setattr(shacl, "validate", validate)
        type_shapes = tmp_path / "type_shapes.ttl"
        type_shapes.write_text(
            "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
            "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
            "@prefix cloudeng: <http://example.org/cloudengine#> .\n"
            "cloudeng:TypedShape a sh:NodeShape ; sh:targetClass cloudeng:DataInterface ;\n"
            "  sh:property [ sh:path rdf:type ; sh:minCount 1 ] .\n"
        )
        assert run("validate", model, str(type_shapes))[0] == 0
        data, _, closure = graphs
        assert len(closure) > len(data)
        assert self.built(closure) == ["subject", "object"]

    @pytest.mark.parametrize("options", [[], ["--no-inference"]], ids=["closure", "asserted"])
    def test_query_reads_all_three(self, run, model, gap_query, graphs, options):
        """With inference, the query reads the asserted graph through a view,
        which answers the fixture query without building the closure."""
        assert run("query", model, gap_query, *options)[0] == 0
        asserted, queried = graphs
        if options:
            assert queried is asserted
        else:
            assert isinstance(queried, EntailmentView) and queried.asserted is asserted
            assert queried._closed is None
        assert self.built(asserted) == ["subject", "predicate", "object"]

    def test_parse_builds_none(self, run, model, graphs):
        assert run("parse", model)[0] == 0
        assert [self.built(g) for g in graphs] == [[]]


class TestInferCommand:
    def test_materialized_output_round_trips(self, run, model, tmp_path):
        out_path = tmp_path / "closure.ttl"
        code, _, err = run("infer", model, "-o", str(out_path))
        assert code == 0
        assert "9 inferred triple(s)" in err
        original = parse_turtle(Path(model).read_text(encoding="utf-8"))
        written = parse_turtle(out_path.read_text())
        assert isomorphic(written.graph, materialize(original.graph).graph)

    @pytest.mark.parametrize("engines", [0, 6], ids=["fixture", "depth-24 model"])
    def test_output_and_counts_match_the_oracles(self, run, model, tmp_path, engines):
        """stdout is the written oracle closure, and stderr has the counts of
        the naive fixpoint."""
        if engines:
            fixture = Path(model).read_text(encoding="utf-8")
            generated = gen.make_model(random.Random(24), fixture, gen.read_turtle(fixture),
                                       engines, depth=24)
            model = tmp_path / "deep.ttl"
            model.write_text(generated.text, encoding="utf-8")
        doc = parse_turtle(Path(model).read_text(encoding="utf-8"))
        expected = serialize_turtle(Document(Graph(type_closure(doc.graph)), doc.prefixes))
        rounds, inferred = naive_rounds(doc.graph)
        assert rounds > (5 if engines else 1)
        assert run("infer", str(model)) == (
            0, expected, f"{inferred} inferred triple(s) in {rounds} iteration(s)\n")

    @pytest.mark.parametrize("text", ["", "# no statements\n"])
    def test_empty_graph_writes_the_same_bytes_to_stdout_and_file(self, run, tmp_path, text):
        model = tmp_path / "empty.ttl"
        model.write_text(text, encoding="utf-8")
        out_path = tmp_path / "closure.ttl"
        assert run("infer", str(model), "-o", str(out_path))[:2] == (0, "")
        assert out_path.read_bytes() == b""
        assert run("infer", str(model))[:2] == (0, "")


class TestIngestCommand:
    def test_sample_matches_golden(self, run, fixtures_dir, tmp_path):
        base = fixtures_dir / "openstack_sample"
        out_path = tmp_path / "instances.ttl"
        code, _, err = run(
            "ingest", "openstack",
            "--endpoints", str(base / "endpoints.json"),
            "--projects", str(base / "projects.json"),
            "--users", str(base / "users.json"),
            "--assignments", str(base / "assignments.json"),
            "-o", str(out_path),
        )
        assert code == 0
        assert "3 endpoint(s)" in err
        assert out_path.read_text(encoding="utf-8") == (base / "golden.ttl").read_text(encoding="utf-8")

    def test_versions_and_policy_files(self, run, fixtures_dir, tmp_path):
        base = fixtures_dir / "openstack_sample"
        versions = tmp_path / "versions.json"
        versions.write_text('{"keystone": "v3.14"}')
        policy = tmp_path / "policy.yaml"
        policy.write_bytes(b"rule: admin_required\n")
        code, out, _ = run(
            "ingest", "openstack",
            "--endpoints", str(base / "endpoints.json"),
            "--versions", str(versions),
            "--policy-file", f"keystone={policy}",
        )
        assert code == 0
        doc = parse_turtle(out)
        assert len(doc.graph) == 23  # 21 endpoint triples + version + hash
        assert 'cloudeng:serviceVersion "v3.14"' in out
        assert "ec31dfa516982574c40bad5fbc94b695500495920c123716f23a834b348e9a7e" in out

    def test_bad_policy_file_argument(self, run):
        code, _, err = run("ingest", "openstack", "--policy-file", "justapath")
        assert code == 1 and "SERVICE=PATH" in err

    def test_shape_error_in_export(self, run, tmp_path):
        bad = tmp_path / "endpoints.json"
        bad.write_text('[{"ID": "e1"}]')
        code, _, err = run("ingest", "openstack", "--endpoints", str(bad))
        assert code == 1
        assert "Service Name" in err


class TestUsageErrors:
    def test_unknown_subcommand_exits_one(self, model):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", model])
        assert info.value.code == 1

    def test_missing_required_engine_exits_one(self, model):
        with pytest.raises(SystemExit) as info:
            main(["compliance", model])
        assert info.value.code == 1

    def test_compliance_has_no_inference_option(self, model):
        """Coverage reads no entailed triple, so the option could change nothing."""
        with pytest.raises(SystemExit) as info:
            main(["compliance", model, "--engine", "cloudeng:SecureCloudEngine", "--no-inference"])
        assert info.value.code == 1


SHAPE_TEMPLATE = (
    "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
    "@prefix cloudeng: <http://example.org/cloudengine#> .\n"
    "@prefix sec: <http://example.org/security#> .\n"
    "cloudeng:S a sh:NodeShape ; sh:targetClass cloudeng:DataInterface ;\n"
    "  sh:property [ sh:path sec:encryptsData ; sh:minCount COUNT ] .\n"
)
DEEP_TURTLE = "@prefix e: <http://e.test/> .\ne:s e:p " + "[ e:p " * 3000 + "e:o" + " ]" * 3000 + " .\n"
DEEP_QUERY = "SELECT * WHERE { ?s ?p ?o " + "FILTER EXISTS { ?s ?p ?o " * 3000 + "}" * 3001 + "\n"
HUGE_JSON_INT = '[{"id": ' + "9" * 5000 + "}]"
DEEP_JSON = "[" * 100_000 + "]" * 100_000
# the closure adds ex:W rdfs:subClassOf _:b1, a second reference to the blank node
SHARED_BNODE_CLOSURE = (
    "@prefix ex: <http://e.test/> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "ex:W rdfs:subClassOf ex:X . ex:X rdfs:subClassOf [ ex:p ex:q ] .\n"
)
# JSON escapes of lone surrogates, which decode to no Unicode text
SURROGATE_ID = (
    '[{"ID": "\\ud800", "Service Name": "s", "Service Type": "identity",'
    ' "Interface": "public", "URL": "http://x.test/"}]'
)
SURROGATE_NAME = '[{"ID": "u1", "Name": "\\ud800"}]'


def cyclic_garbage(argv: list[str]) -> int:
    """Objects the cyclic collector finds unreachable after one command."""
    gc.collect()
    gc.disable()
    try:
        main(argv)
        return gc.collect()
    finally:
        gc.enable()


class TestCyclicCollector:
    """main runs a command with the cyclic collector off and restores the
    state it found, on every way out."""

    @pytest.fixture()
    def collector_on(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("collector_on", [True, False], ids=["on", "off"], indirect=True)
    @pytest.mark.parametrize("way_out", ["return", "cli error", "usage error", "version",
                                         "out of memory"])
    def test_the_collector_state_is_restored(self, capsys, monkeypatch, model, collector_on,
                                             way_out):
        seen = []

        def parse(text):
            seen.append(gc.isenabled())
            if way_out == "out of memory":
                raise MemoryError
            return parse_turtle(text)

        monkeypatch.setattr(cli, "parse_turtle", parse)
        argv = {"cli error": ["parse", model + ".missing"], "usage error": ["frobnicate"],
                "version": ["--version"]}.get(way_out, ["parse", model])
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == {"return": 0, "version": 0}.get(way_out, 1)
        assert gc.isenabled() is collector_on
        assert seen == ([False] if way_out in ("return", "out of memory") else [])

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory, fixtures_dir):
        """Each command's arguments on a 20- and a 160-engine input."""
        fixture = (fixtures_dir / "cloudengine.ttl").read_text(encoding="utf-8")
        out = {}
        for engines in (20, 160):
            where = tmp_path_factory.mktemp(f"engines{engines}")
            model = gen.make_model(random.Random(engines), fixture, gen.read_turtle(fixture),
                                   engines)
            path = where / "model.ttl"
            path.write_text(model.text, encoding="utf-8")
            exports = []
            inventory = gen.make_inventory(random.Random(engines), engines, engines, "t")
            for kind, text in inventory.exports.items():
                (where / f"{kind}.json").write_text(text, encoding="utf-8")
                exports += [f"--{kind}", str(where / f"{kind}.json")]
            out[engines] = {
                "parse": ["parse", str(path)],
                "infer": ["infer", str(path)],
                "query": ["query", str(path), str(fixtures_dir / "q_missing_encryption.rq")],
                "validate": ["validate", str(path),
                             str(fixtures_dir / "shapes_data_encryption.ttl")],
                "compliance": ["compliance", str(path), f"--engine=<{model.engines[0]}>"],
                "ingest openstack": ["ingest", "openstack", *exports],
            }
            for argv in out[engines].values():
                argv += ["-o", str(where / "report")]
        return out

    @pytest.mark.parametrize(
        "command", ["parse", "infer", "query", "validate", "compliance", "ingest openstack"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, capsys, inputs, command):
        cyclic_garbage(inputs[20][command])  # first imports and compiled patterns
        assert cyclic_garbage(inputs[20][command]) == cyclic_garbage(inputs[160][command])


class TestBadInputExitsOne:
    """Malformed input ends in exit 1 and a one-line error, never a traceback.

    Runs the real entry point in a child process so that an uncaught
    exception would reach stderr.
    """

    @staticmethod
    def cli(*argv, stdout_encoding="utf-8", **options):
        src = str(Path(cloudaudit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING=stdout_encoding)
        options.setdefault("stdout", subprocess.PIPE)
        proc = subprocess.run(
            [sys.executable, "-m", "cloudaudit.cli", *argv],
            stderr=subprocess.PIPE, encoding="utf-8", env=env, timeout=120, **options,
        )
        return proc.returncode, proc.stderr

    @pytest.mark.parametrize("command", ["infer", "query", "--version", "infer --help"])
    def test_a_gone_stdout_reader_is_an_error_line(self, model, gap_query, command):
        """Writing to a pipe whose read end is closed ends in one error line,
        with no traceback and nothing from the flush at exit; so does the
        text argparse writes for --version and --help."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            argv = {"infer": ["infer", model], "query": ["query", model, gap_query]}
            code, err = self.cli(*argv.get(command, command.split()), stdout=write_end)
        finally:
            os.close(write_end)
        lines = err.splitlines()
        assert code == 1
        assert lines[-1].startswith("error: cannot write to stdout: ")
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("command", ["infer", "query"])
    @pytest.mark.parametrize("encoding, text", [("ascii", "caf\u00e9"), ("latin-1", "\u20ac")],
                             ids=["ascii", "latin-1"])
    def test_a_report_stdout_cannot_encode_is_an_error_line(self, tmp_path, command,
                                                           encoding, text):
        """A report holding a character stdout's encoding lacks ends in one
        error line, with nothing written; with -o it goes to the file as UTF-8."""
        model = tmp_path / "model.ttl"
        model.write_text(f'@prefix e: <http://e.test/> .\ne:a e:label "{text}" .\n',
                         encoding="utf-8")
        query = tmp_path / "all.rq"
        query.write_text("SELECT ?o WHERE { ?s ?p ?o }\n", encoding="utf-8")
        argv = {"infer": ["infer", str(model)], "query": ["query", str(model), str(query)]}[command]
        stdout = tmp_path / "stdout"
        with stdout.open("wb") as sink:
            code, err = self.cli(*argv, stdout_encoding=encoding, stdout=sink)
        lines = err.splitlines()
        assert code == 1 and stdout.read_bytes() == b""
        assert lines[-1].startswith(f"error: cannot write to stdout: '{encoding}' codec can't encode")
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]
        assert "Traceback" not in err
        report = tmp_path / "report"
        assert self.cli(*argv, "-o", str(report), stdout_encoding=encoding)[0] == 0
        assert text in report.read_text(encoding="utf-8")

    def test_out_of_memory_is_an_error_line(self, tmp_path, model):
        resource = pytest.importorskip("resource")
        query = tmp_path / "product.rq"
        # ~291 ** 3 solutions of nine columns, far more than 128 MB holds
        query.write_text("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }\n")
        limit = 128 * 2**20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        code, err = self.cli("query", model, str(query), preexec_fn=cap_address_space)
        assert (code, err) == (1, "error: out of memory\n")

    @pytest.mark.parametrize(
        "name, content, command, expected",
        [
            ("shapes.ttl", SHAPE_TEMPLATE.replace("COUNT", "\u00b2"), "validate",
             "shapes.ttl:5:56: unexpected character '\u00b2'"),
            ("shapes.ttl", SHAPE_TEMPLATE.replace("COUNT", '"\u00b2"'), "validate",
             "sh:minCount of shape http://example.org/cloudengine#S must be a non-negative integer"),
            ("shapes.ttl", SHAPE_TEMPLATE.replace("COUNT", '"5"'), "validate",
             "sh:minCount of shape http://example.org/cloudengine#S must be a non-negative integer"),
            ("shapes.ttl", SHAPE_TEMPLATE.replace("sh:minCount COUNT", 'sh:maxCount "007"'),
             "validate",
             "sh:maxCount of shape http://example.org/cloudengine#S must be a non-negative integer"),
            ("model.ttl", b"@prefix e: <http://e.test/> .\n\xff\n", "parse",
             "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
            ("query.rq", b"SELECT * WHERE { \xff }", "query", "cannot read {path}: 'utf-8' codec"),
            ("model.ttl", DEEP_TURTLE, "parse", "model.ttl:2:1545: groups nested deeper than 256"),
            ("query.rq", DEEP_QUERY, "query", "query.rq:1:6416: groups nested deeper than 256"),
            ("shapes.ttl", SHAPE_TEMPLATE.replace("COUNT", "9" * 5000), "validate",
             "sh:minCount of shape http://example.org/cloudengine#S must be a non-negative integer"),
            ("model.ttl", SHARED_BNODE_CLOSURE, "infer",
             "cannot write the inferred graph of {path}: blank node(s) ['b1'] are referenced more than once"),
            ("arg.txt", "<a b>", "compliance", "'<a b>': IRI contains forbidden character ' '"),
            ("arg.txt", "<>", "compliance", "'<>': IRI must be non-empty"),
            ("arg.txt", "http://x y", "compliance", "'http://x y': IRI contains forbidden character ' '"),
            ("arg.txt", "urn:a b:", "ingest",
             "instance namespace: IRI contains forbidden character ' ': 'urn:a b:'"),
            ("endpoints.json", HUGE_JSON_INT, "ingest --endpoints",
             "{path}: not valid JSON: Exceeds the limit (4300 digits) for integer string"),
            ("versions.json", HUGE_JSON_INT, "ingest --versions",
             "{path}: not valid JSON: Exceeds the limit (4300 digits) for integer string"),
            ("users.json", DEEP_JSON, "ingest --users",
             "{path}: not valid JSON: maximum recursion depth"),
            ("versions.json", DEEP_JSON, "ingest --versions",
             "{path}: not valid JSON: maximum recursion depth"),
            ("endpoints.json", SURROGATE_ID, "ingest --endpoints",
             "{path}: not valid JSON: lone surrogate '\\ud800'"),
            ("users.json", SURROGATE_NAME, "ingest --users",
             "{path}: not valid JSON: lone surrogate '\\ud800'"),
            ("users.json", SURROGATE_NAME, "ingest --users -o",
             "{path}: not valid JSON: lone surrogate '\\ud800'"),
            ("versions.json", '{"s": "\\udc80"}', "ingest --versions",
             "{path}: not valid JSON: lone surrogate '\\udc80'"),
            ("endpoints.json", '[{"ID": true, "Service Name": "s", "Service Type": "t", '
             '"Interface": "public", "URL": "u"}]', "ingest --endpoints",
             "{path}: record 0: key 'ID': expected a string, got bool"),
            ("projects.json", '[{"ID": "p1", "Name": null}]', "ingest --projects",
             "{path}: record 0: key 'Name': expected a string, got NoneType"),
            ("users.json", '[{"ID": "u1", "Name": "n", "Domain ID": {"id": "d"}}]', "ingest --users",
             "{path}: record 0: key 'Domain ID': expected a string or null, got dict"),
            ("assignments.json", '[{"Role": ["admin"]}]', "ingest --assignments",
             "{path}: record 0: key 'Role': expected a string, got list"),
            ("versions.json", '{"keystone": "3.14", "glance": null}', "ingest --versions",
             "{path}: service 'glance': expected a version string, got NoneType"),
            ("versions.json", '{"keystone": {"major": 25}}', "ingest --versions",
             "{path}: service 'keystone': expected a version string, got dict"),
            # bytes go to the command line as they are
            ("arg.txt", b"urn:x\x80:", "ingest -o",
             "instance namespace: 'utf-8' codec can't encode character '\\udc80'"),
            ("arg.txt", b"\x80", "ingest --policy-file",
             "cannot mint a service IRI from '\\udc80': surrogates not allowed"),
        ],
        ids=["digit-like count", "digit-like string count", "string count",
             "zero-padded string count", "non-UTF-8 model",
             "non-UTF-8 query", "deep Turtle", "deep query", "count past int digits",
             "shared blank node after inference", "engine with space", "empty engine IRI",
             "engine URL with space", "namespace with space", "huge integer in records",
             "huge integer in versions", "deep array in records", "deep array in versions",
             "lone surrogate in record id", "lone surrogate in record name",
             "lone surrogate in record name to file", "lone surrogate in version",
             "boolean endpoint id", "null project name", "object user domain",
             "array assignment role", "null version", "object version",
             "non-UTF-8 namespace to file", "non-UTF-8 policy service name"],
    )
    def test_error_line_without_traceback(self, tmp_path, model, name, content, command, expected):
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        out = tmp_path / "out.ttl"
        argv = {
            "parse": ["parse", str(path)],
            "validate": ["validate", model, str(path)],
            "query": ["query", model, str(path)],
            "infer": ["infer", str(path)],
            # these two take the content as an argument, not as a file
            "compliance": ["compliance", model, "--engine", content],
            "ingest": ["ingest", "openstack", "--namespace", content],
            "ingest --endpoints": ["ingest", "openstack", "--endpoints", str(path)],
            "ingest --projects": ["ingest", "openstack", "--projects", str(path)],
            "ingest --users": ["ingest", "openstack", "--users", str(path)],
            "ingest --assignments": ["ingest", "openstack", "--assignments", str(path)],
            "ingest --versions": ["ingest", "openstack", "--versions", str(path)],
            "ingest --users -o": ["ingest", "openstack", "--users", str(path), "-o", str(out)],
            "ingest -o": ["ingest", "openstack", "--namespace", content, "-o", str(out)],
            "ingest --policy-file": ["ingest", "openstack", "--policy-file",
                                     os.fsencode(content) + b"=" + os.fsencode(path)],
        }[command]
        code, err = self.cli(*argv)
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expected.format(path=path) in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["query", "validate", "compliance"])
def test_reports_do_not_depend_on_the_hash_seed(model, gap_model, shapes, gap_query,
                                                command, fmt):
    """Evaluation iterates sets (a plan's seed reads, the subclass sets of
    the entailment view); the report is byte-identical under two hash seeds.
    Runs in child processes, since a process has one hash seed."""
    argv, code = {
        "query": (["query", gap_model, gap_query], 0),
        "validate": (["validate", gap_model, shapes], 2),
        "compliance": (["compliance", model, "--engine", "cloudeng:SecureCloudEngine"], 3),
    }[command]
    src = str(Path(cloudaudit.__file__).resolve().parent.parent)
    reports = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "cloudaudit.cli", *argv, "--format", fmt],
                              capture_output=True, env=env, timeout=120)
        reports.append((proc.returncode, proc.stdout))
    assert reports[0] == reports[1]
    assert reports[0][0] == code and b"cloudeng" in reports[0][1]  # a report with findings


FUZZ_PREAMBLE = (
    "@prefix ex: <http://e.test/> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
    "@prefix sec: <http://example.org/security#> .\n"
    "@prefix cloudeng: <http://example.org/cloudengine#> .\n"
)
SUBJECTS = ("ex:a", "ex:b", "ex:c", "[]", "<http://e.test/d>")
PREDICATES = (
    "a", "rdfs:subClassOf", "rdfs:label", "sec:hasSecurityPolicy", "sec:compliesWith",
    "sec:implementsStandard", "sec:encryptsData", "cloudeng:hasDataInterface",
    "sh:targetClass", "sh:property", "sh:path", "sh:minCount", "sh:maxCount", "sh:class",
    "sh:message",
)
OBJECTS = SUBJECTS + ('"x"', "0", "2", "cloudeng:DataInterface", "sh:NodeShape")
QUERY_WORDS = (
    "SELECT", "*", "?x", "?y", "WHERE", "{", "}", "FILTER", "NOT", "EXISTS", ".",
    "ex:a", "ex:b", "a", "rdfs:subClassOf", "sec:encryptsData", "<http://e.test/a>", '"x"',
    "PREFIX ex: <http://e.test/>", "PREFIX sec: <http://example.org/security#>", "# c\n",
)

objects = st.recursive(
    st.sampled_from(OBJECTS),
    lambda inner: st.tuples(st.sampled_from(PREDICATES), inner).map(lambda po: f"[ {po[0]} {po[1]} ]"),
    max_leaves=4,
)
statements = st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), objects).map(
    " ".join
)
words = st.sampled_from(SUBJECTS + PREDICATES + OBJECTS + ("[", "]", ";", ",", "."))
# raw text almost never parses, so most models are built from the grammar's words:
# whole statements, or statements with stray words between them
turtle_text = st.one_of(
    st.text(max_size=60),
    *(
        st.lists(parts, max_size=12).map(lambda ps: FUZZ_PREAMBLE + " .\n".join(ps) + " .\n")
        for parts in (statements, st.one_of(statements, words))
    ),
)
query_text = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(QUERY_WORDS), max_size=30).map(
        lambda picked: "PREFIX ex: <http://e.test/>\n" + " ".join(picked) + "\n"
    ),
)
engine_text = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["ex:a", "ex:b", "<http://e.test/a>", "urn:x", "<a b>", "<>", "ex:a b"]),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["parse", "infer", "query", "validate", "compliance"]),
    model_text=turtle_text,
    query=query_text,
    shapes_text=turtle_text,
    engine=engine_text,
)
def test_any_input_exits_with_a_contract_code(tmp_path, command, model_text, query, shapes_text, engine):
    """In process, so any exception the CLI lets escape fails the test."""
    paths = {}
    for name, text in (("model.ttl", model_text), ("query.rq", query), ("shapes.ttl", shapes_text)):
        paths[name] = str(tmp_path / name)
        # lone surrogates become bytes that are not UTF-8
        Path(paths[name]).write_text(text, encoding="utf-8", errors="surrogatepass")
    argv = {
        "parse": ["parse", paths["model.ttl"]],
        "infer": ["infer", paths["model.ttl"]],
        "query": ["query", paths["model.ttl"], paths["query.rq"]],
        "validate": ["validate", paths["model.ttl"], paths["shapes.ttl"]],
        # the = form keeps an engine text such as --help from reading as an option
        "compliance": ["compliance", paths["model.ttl"], f"--engine={engine}"],
    }[command]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        assert exc.code == 1
    else:
        assert code in (0, 1, 2, 3)


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=4,
)
not_strings = json_values.filter(lambda value: not isinstance(value, str))
# every required key of every record kind, so that records reach ingest
REQUIRED_KEYS = ("id", "name", "service_name", "service_type", "interface", "url", "role")
OPTIONAL_KEYS = ("Region", "enabled", "domain_id", "user", "group_id", "project")
records = st.lists(
    st.fixed_dictionaries(
        {key: st.text(max_size=8) for key in REQUIRED_KEYS},
        # values the optional fields take, so that records reach ingest too
        optional={key: (st.none() | st.text(max_size=8) | st.booleans()) if key == "enabled"
                  else (st.none() | st.text(max_size=8)) for key in OPTIONAL_KEYS},
    ),
    min_size=1, max_size=3,
)
# the required and optional keys each option's kind reads
READ_KEYS = {
    "--endpoints": (("id", "service_name", "service_type", "interface", "url"),
                    ("Region", "enabled")),
    "--projects": (("id", "name"), ("domain_id", "enabled")),
    "--users": (("id", "name"), ("domain_id", "enabled")),
    "--assignments": (("role",), ("user", "group_id", "project")),
}


def refused(key):
    """Values the optional `key` refuses: all but a string or null, and
    for `enabled` all but a boolean, a string or null."""
    taken = (bool, str, type(None)) if key == "enabled" else (str, type(None))
    return json_values.filter(lambda value: not isinstance(value, taken))


def spoiled(option):
    """A file for `option` holding one value of a kind its field does not
    take: no string for a required key or a version, a number, boolean,
    array or object for an optional text key, and a number, array or
    object for `enabled`."""
    if option == "--versions":
        return st.tuples(
            st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=2),
            st.text(max_size=6), not_strings,
        ).map(lambda drawn: {**drawn[0], drawn[1]: drawn[2]})
    required, optional = READ_KEYS[option]
    return st.tuples(
        records,
        st.tuples(st.sampled_from(required), not_strings)
        | st.sampled_from(optional).flatmap(lambda key: st.tuples(st.just(key), refused(key))),
    ).map(lambda drawn: drawn[0][:-1] + [{**drawn[0][-1], drawn[1][0]: drawn[1][1]}])


ingest_json = st.one_of(
    st.none(), st.text(max_size=40), json_values.map(json.dumps), records.map(json.dumps)
)
INGEST_OPTIONS = ("--endpoints", "--projects", "--users", "--assignments", "--versions")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=st.fixed_dictionaries({option: ingest_json for option in INGEST_OPTIONS}))
def test_any_ingest_input_exits_with_a_contract_code(tmp_path, files):
    """In process, so any exception the CLI lets escape fails the test."""
    argv = ["ingest", "openstack"]
    for option, text in files.items():
        if text is not None:
            path = tmp_path / f"{option.strip('-')}.json"
            path.write_text(text, encoding="utf-8", errors="surrogatepass")
            argv += [option, str(path)]
    assert main(argv) in (0, 1)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=st.sampled_from(INGEST_OPTIONS).flatmap(
    lambda option: st.tuples(st.just(option), spoiled(option))))
def test_a_value_of_the_wrong_kind_is_refused(tmp_path, drawn):
    option, payload = drawn
    path = tmp_path / "export.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["ingest", "openstack", option, str(path)]) == 1
