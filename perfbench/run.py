"""Benchmark for cloudaudit: seeded models through the public surface.

Run it from a checkout; it needs `src/cloudaudit` and `fixtures/` beside
`perfbench/`:

    python3 perfbench/run.py --workload cli_gate --seed 1 --seconds 30 --trace 0

Workloads, each a closed loop with one client:

  cli_gate     `cloudaudit parse|query|validate|compliance` as subprocesses on
               five flat models of 1k to 10k triples: the CI-gate use.
  deep_infer   `cloudaudit infer` on models with 12- to 24-deep subclass
               chains, and `cloudaudit ingest openstack` on large exports:
               the write path.
  batch_audit  one model parsed and materialized during set-up, then query
               and shape checks, index lookups and a fleet audit
               (`coverage` + `remediation_hints`) through the library, in
               five worker processes one after another.

Every answer is checked against ground truth the generator computed
(`gen.py`); a mismatch, traceback or unexpected exit code is a failure and
its time stays in the sample.  Jobs are run in whole rounds until
`--seconds` have passed, so each run measures the same mix.  Commands are
spawned by `spawn.py`, which reads each child's own peak RSS from wait4.
A fixed reference pass (`hostspeed.py`) runs between the timed operations,
and every end-to-end time, set-up included, is scaled by the passes on
either side of it, so the shared host's changing speed cancels out; the
`*_scaled_*` metric names say so.

`--trace 0` prints the end-to-end metrics, measured with tracing off.
`--trace 1` replays the same jobs in process through the functions the CLI
handlers call, once untraced and once with a span around each call, and
prints the per-layer metrics (per round, plus one traced set-up for
batch_audit), self time per layer and the tracing overhead; spans are
written to `.perfbench/trace-<workload>-<seed>.json`.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import hostspeed  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
STARTUP_PROBES = 3  # `--version` runs per traced round

# The median and the tail are order statistics of all commands pooled, and
# a run holds a whole number of rounds, so the rank each lands on moves
# with how many rounds fit in --seconds.  Job sizes put both ranks inside a
# block of commands of about equal cost for every round count a run can
# have, so a faster or slower host does not move them to another job.
# cli_gate: the median falls among query/validate/compliance on the
# 160-engine model, the tail among those on the two 320-engine models (one
# clean, one planted) for two rounds or more.
CLI_GATE_ENGINES = (20, 40, 160, 320, 320)
# deep_infer: two small commands, then three of about equal cost that hold
# both the median and, from four rounds on, the tail.
DEEP_MODELS = ((25, 12), (62, 16), (37, 24))  # (engines, chain depth)
INVENTORIES = ((300, 150), (1900, 950))  # (endpoints, users)
BATCH_ENGINES = 800
FLEET_PER_ROUND = 40
COVERAGE_PAIRS_PER_ROUND = 12
BATCH_WORKERS = 5

QUERY_PREFIX = (
    "PREFIX cloudeng: <http://example.org/cloudengine#>\n"
    "PREFIX sec: <http://example.org/security#>\n"
)
# The same three-pattern join in two textual orders: evaluation follows the
# text, so the first starts from the few at-rest methods and the second
# from every data-interface attachment.
JOIN_SELECTIVE = QUERY_PREFIX + (
    "SELECT ?e ?d WHERE { ?m sec:encryptionScope sec:AtRest . "
    "?d sec:encryptsData ?m . ?e cloudeng:hasDataInterface ?d . }"
)
JOIN_UNSELECTIVE = QUERY_PREFIX + (
    "SELECT ?e ?d WHERE { ?e cloudeng:hasDataInterface ?d . "
    "?d sec:encryptsData ?m . ?m sec:encryptionScope sec:AtRest . }"
)
NESTED_EXISTS = QUERY_PREFIX + (
    "SELECT ?e WHERE { ?e a cloudeng:CloudEngine . "
    "FILTER EXISTS { ?e cloudeng:hasDataInterface ?d . "
    "FILTER NOT EXISTS { ?d sec:encryptsData ?m } } }"
)
CLASS_SHAPE = """@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix cloudeng: <http://example.org/cloudengine#> .
@prefix sec: <http://example.org/security#> .
@prefix bench: <http://example.org/bench#> .
bench:EncryptsWithMethodShape a sh:NodeShape ;
  sh:targetClass cloudeng:DataInterface ;
  sh:property [ sh:path sec:encryptsData ; sh:class sec:EncryptionMethod ] .
"""
MAX_COUNT_SHAPE = """@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix cloudeng: <http://example.org/cloudengine#> .
@prefix sec: <http://example.org/security#> .
@prefix bench: <http://example.org/bench#> .
bench:OnePolicyShape a sh:NodeShape ;
  sh:targetClass cloudeng:CloudEngine ;
  sh:property [ sh:path sec:hasSecurityPolicy ; sh:maxCount 1 ] .
"""


def _layout_ok() -> bool:
    return (SRC / "cloudaudit" / "cli.py").is_file() and (FIXTURES / "cloudengine.ttl").is_file()


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its level."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _compact(iri: str) -> str:
    for label, ns in gen.PREFIXES.items():
        if iri.startswith(ns):
            return f"{label}:{iri[len(ns):]}"
    return f"<{iri}>"


def expected_hints(engine: str, truth: gen.EngineTruth) -> list[str]:
    out = []
    for std, implementers in zip(truth.gaps, truth.hints_implementers):
        if implementers:
            names = ", ".join(_compact(i) for i in implementers)
            out.append(f"{_compact(std)}: implemented in the model by {names}; "
                       f"attach one of them to {_compact(engine)}")
        else:
            out.append(f"{_compact(std)}: no node in the model implements this standard")
    return out


class Bench:
    """Run state: work directory, child environment, failure tally."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 spawner: bool = True):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.out_dir = ROOT / ".perfbench"
        self.work = self.out_dir / f"run-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        # started before this process grows; see spawn.py
        self.spawner = spawner and subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env)
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.tracers: dict[str, Tracer] = {}
        self.fixture_text = (FIXTURES / "cloudengine.ttl").read_text(encoding="utf-8")
        self.fixture_triples = gen.read_turtle(self.fixture_text)

    def outcome(self, what: str, error: str | None) -> None:
        """Count one operation; a non-empty error makes it a failure."""
        self.attempted += 1
        if error:
            self.failed += 1
            if self.failed <= 20:
                sys.stderr.write(f"FAIL {what}: {error}\n")

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def spawn(self, argv: list[str], cwd: Path) -> tuple[int, str, str, float]:
        """Run one child through the spawner: exit code, stdout, stderr, wall seconds."""
        out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        return (reply["code"], out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"), reply["wall"])

    def run_cli(self, argv: list[str], cwd: Path) -> tuple[int, str, str, float]:
        """One `cloudaudit` subprocess: exit code, stdout, stderr, wall seconds."""
        return self.spawn([sys.executable, "-m", "cloudaudit.cli", *argv], cwd)

    def close(self) -> None:
        if self.spawner:
            self.spawner.stdin.close()
            self.spawner.wait()
        shutil.rmtree(self.work, ignore_errors=True)

    def warm_up(self) -> None:
        """Compile the package's bytecode once, as an installed copy would have it."""
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "cloudaudit")],
                       check=True, env=self.env, stdout=subprocess.DEVNULL)
        code, out, _, _ = self.run_cli(["--version"], self.work)
        if code != 0 or not out.startswith("cloudaudit "):
            raise RuntimeError(f"cloudaudit --version failed with exit code {code}")


# ------------------------------------------------------------ CLI workloads

@dataclass
class Job:
    """One CLI command, its in-process replay and its ground-truth check."""

    name: str
    argv: list[str]
    replay: Callable[[Tracer, str], tuple[int, str, str]]
    check: Callable[[int, str, str], str | None]
    triples: int  # triples the command reads (cli_gate) or writes (deep_infer)


def _attempt(fn: Callable[..., str | None], *args) -> str | None:
    """Run a check or an operation; a crash is a failed operation, not a dead run."""
    try:
        return fn(*args)
    except Exception:
        return traceback.format_exc()


def _check_common(code: int, err: str, want_code: int) -> str | None:
    if "Traceback" in err:
        return "traceback on stderr: " + err.strip().splitlines()[-1]
    if code != want_code:
        return f"exit code {code}, expected {want_code}: {err.strip()[:200]}"
    return None


def _checked_output(path: Path, expect: Callable[[list[tuple]], str | None],
                    seen: dict) -> str | None:
    """Check a written Turtle file fully once, then by digest."""
    data = path.read_bytes()
    digest = sha256(data).hexdigest()
    if seen.get(path) == digest:
        return None
    try:
        error = expect(gen.read_turtle(data.decode("utf-8")))
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        error = f"unreadable output: {exc!r}"
    if error is None:
        seen[path] = digest
    return error


def _replay_load(tr: Tracer, job: str, path: Path):
    from cloudaudit import parse_turtle

    text = path.read_text(encoding="utf-8")
    with tr.span("turtle.parse", job):
        doc = parse_turtle(text)
    tr.count("turtle.triples_parsed", len(doc.graph))
    return doc


def _replay_materialize(tr: Tracer, job: str, graph):
    from cloudaudit import materialize

    with tr.span("reasoner.materialize", job):
        result = materialize(graph)
    tr.count("reasoner.iterations", result.iterations)
    tr.count("reasoner.inferred", result.inferred_count)
    return result


def _traced_expander(tr: Tracer, job: str):
    from cloudaudit import subclasses_of

    def expand(graph, cls):
        with tr.span("reasoner.subclasses_of", job):
            return subclasses_of(graph, cls)

    return expand


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def cli_gate_jobs(bench: Bench, rng: random.Random, d: Path) -> list[Job]:
    from cloudaudit import (Iri, coverage, evaluate, parse_query, parse_shapes,
                            remediation_hints, validate)

    query_path, shapes_path = d / "missing_encryption.rq", d / "shapes.ttl"
    shutil.copyfile(FIXTURES / "q_missing_encryption.rq", query_path)
    shutil.copyfile(FIXTURES / "shapes_data_encryption.ttl", shapes_path)
    jobs = []
    for i, engines in enumerate(CLI_GATE_ENGINES):
        # even-numbered models have every data interface encrypted: validate exits 0
        model = gen.make_model(rng, bench.fixture_text, bench.fixture_triples, engines,
                               tag=f"g{i}", p_unencrypted=0.0 if i % 2 == 0 else 0.08)
        path = d / f"model{i}.ttl"
        path.write_text(model.text, encoding="utf-8")
        truth = model.truth
        # even models audit an engine without gaps (exit 0), odd ones one with gaps
        candidates = [e for e in model.engines if bool(truth.engines[e].gaps) == (i % 2 == 1)]
        engine = rng.choice(candidates)
        e_truth = truth.engines[engine]
        n = truth.asserted

        def check_parse(code, out, err, n=n):
            m = re.search(r": (\d+) triples, \d+ prefixes", out)
            return _check_common(code, err, 0) or (
                None if m and int(m.group(1)) == n else f"parse reported {out.strip()!r}, expected {n} triples")

        def replay_parse(tr, job, path=path):
            with tr.span("cli.job", job):
                doc = _replay_load(tr, job, path)
                with tr.span("cli.render", job):
                    out = f"{path.name}: {len(doc.graph)} triples, {len(doc.prefixes)} prefixes\n"
            return 0, out, ""

        def check_query(code, out, err, truth=truth):
            error = _check_common(code, err, 0)
            if error:
                return error
            rows = sorted(b["data"]["value"] for b in json.loads(out)["results"]["bindings"])
            return None if rows == truth.unencrypted else f"query rows {len(rows)} != {len(truth.unencrypted)}"

        def replay_query(tr, job, path=path):
            with tr.span("cli.job", job):
                doc = _replay_load(tr, job, path)
                text = query_path.read_text(encoding="utf-8")
                with tr.span("sparql.parse_query", job):
                    query = parse_query(text)
                graph = _replay_materialize(tr, job, doc.graph).graph
                with tr.span("sparql.evaluate", job, "q_fixture"):
                    table = evaluate(query, graph)
                tr.count("sparql.rows", len(table.rows))
                with tr.span("cli.render", job):
                    out = _json_text(table.to_json_dict())
            return 0, out, ""

        def check_validate(code, out, err, truth=truth):
            error = _check_common(code, err, 2 if truth.unencrypted else 0)
            if error:
                return error
            focus = sorted(r["focusNode"]["value"] for r in json.loads(out)["results"])
            return None if focus == truth.unencrypted else f"violations {len(focus)} != {len(truth.unencrypted)}"

        def replay_validate(tr, job, path=path):
            with tr.span("cli.job", job):
                doc = _replay_load(tr, job, path)
                shapes_doc = _replay_load(tr, job, shapes_path)
                with tr.span("shacl.parse_shapes", job):
                    shapes = parse_shapes(shapes_doc)
                graph = _replay_materialize(tr, job, doc.graph).graph
                with tr.span("shacl.validate", job):
                    report = validate(graph, shapes, _traced_expander(tr, job))
                tr.count("shacl.violations", len(report.results))
                with tr.span("cli.render", job):
                    out = _json_text(report.to_json_dict())
            return (0 if report.conforms else 2), out, ""

        def check_compliance(code, out, err, t=e_truth, engine=engine):
            error = _check_common(code, err, 3 if t.gaps else 0)
            if error:
                return error
            payload = json.loads(out)
            evidence = sum(len(s["evidence"]) for s in payload["standards"])
            if payload["gaps"] != t.gaps or evidence != t.evidence:
                return f"gaps {payload['gaps']} / evidence {evidence}, expected {t.gaps} / {t.evidence}"
            if payload["hints"] != expected_hints(engine, t):
                return "remediation hints differ from the expected ones"
            return None

        def replay_compliance(tr, job, path=path, engine=engine):
            with tr.span("cli.job", job):
                doc = _replay_load(tr, job, path)
                graph = _replay_materialize(tr, job, doc.graph).graph
                with tr.span("compliance.coverage", job):
                    report = coverage(graph, Iri(engine))
                with tr.span("compliance.hints", job):
                    hints = remediation_hints(report, graph, doc.prefixes)
                tr.count("compliance.evidence", sum(len(s.evidence) for s in report.statuses))
                tr.count("compliance.gaps", report.gap_count)
                with tr.span("cli.render", job):
                    payload = report.to_json_dict()
                    payload["hints"] = hints
                    out = _json_text(payload)
            return (3 if report.gap_count else 0), out, ""

        name = path.name
        jobs += [
            Job(f"parse:{name}", ["parse", name], replay_parse, check_parse, n),
            Job(f"query:{name}", ["query", name, query_path.name, "--format", "json"],
                replay_query, check_query, n),
            Job(f"validate:{name}", ["validate", name, shapes_path.name, "--format", "json"],
                replay_validate, check_validate, n),
            Job(f"compliance:{name}",
                ["compliance", name, "--engine", _compact(engine), "--format", "json"],
                replay_compliance, check_compliance, n),
        ]
    return jobs


def deep_infer_jobs(bench: Bench, rng: random.Random, d: Path) -> list[Job]:
    from cloudaudit import (Document, Graph, IngestConfig, ingest, parse_cli_json,
                            serialize_turtle)

    seen: dict = {}
    jobs = []
    for i, (engines, depth) in enumerate(DEEP_MODELS):
        model = gen.make_model(rng, bench.fixture_text, bench.fixture_triples, engines,
                               depth=depth, tag=f"d{i}")
        path, out_path = d / f"deep{i}.ttl", d / f"deep{i}.closure.ttl"
        path.write_text(model.text, encoding="utf-8")
        truth = model.truth

        def expect(triples, model=model):
            if len(triples) != len(model.closure) or set(triples) != model.closure:
                return f"closure has {len(triples)} triples, expected {len(model.closure)}"
            return None

        def check_infer(code, out, err, truth=truth, out_path=out_path, expect=expect):
            error = _check_common(code, err, 0)
            m = re.match(r"(\d+) inferred triple\(s\) in (\d+) iteration", err)
            if error is None and (not m or int(m.group(1)) != truth.inferred):
                error = f"infer reported {err.strip()!r}, expected {truth.inferred} inferred"
            return error or _checked_output(out_path, expect, seen)

        def replay_infer(tr, job, path=path, out_path=out_path):
            with tr.span("cli.job", job):
                doc = _replay_load(tr, job, path)
                closure = _replay_materialize(tr, job, doc.graph)
                with tr.span("turtle.serialize", job):
                    text = serialize_turtle(Document(closure.graph, doc.prefixes))
                tr.count("turtle.triples_serialized", len(closure.graph))
                out_path.write_text(text, encoding="utf-8")
            triples = list(closure.graph)
            with tr.span("rdf.graph_build", job):
                Graph(triples)
            err = f"{closure.inferred_count} inferred triple(s) in {closure.iterations} iteration(s)\n"
            return 0, "", err

        jobs.append(Job(f"infer:{path.name}", ["infer", path.name, "-o", out_path.name],
                        replay_infer, check_infer, truth.closure))

    policy = d / "keystone-policy.yaml"
    policy.write_text('"identity:get_user": "role:reader"\n', encoding="utf-8")
    for i, (endpoints, users) in enumerate(INVENTORIES):
        inv = gen.make_inventory(rng, endpoints, users, tag=f"i{i}")
        files = {}
        for kind, text in inv.exports.items():
            files[kind] = d / f"inv{i}-{kind}.json"
            files[kind].write_text(text, encoding="utf-8")
        versions = d / f"inv{i}-versions.json"
        versions.write_text(inv.versions, encoding="utf-8")
        out_path = d / f"inv{i}.ttl"
        want = inv.triples + 1  # plus the policy-file hash

        def expect(triples, want=want):
            n = len(set(triples))
            return None if n == len(triples) == want else f"ingest wrote {len(triples)} triples, expected {want}"

        def check_ingest(code, out, err, want=want, out_path=out_path, expect=expect):
            error = _check_common(code, err, 0)
            m = re.search(r": (\d+) triples", err)
            if error is None and (not m or int(m.group(1)) != want):
                error = f"ingest reported {err.strip()!r}, expected {want} triples"
            return error or _checked_output(out_path, expect, seen)

        def replay_ingest(tr, job, files=files, versions=versions, out_path=out_path):
            with tr.span("cli.job", job):
                records = {}
                for kind, path in files.items():
                    text = path.read_text(encoding="utf-8")
                    with tr.span("openstack.parse_cli_json", job):
                        records[kind] = parse_cli_json(text, kind)
                    tr.count("openstack.records", len(records[kind]))
                raw = json.loads(versions.read_text(encoding="utf-8"))
                config = IngestConfig(version_metadata={str(k): str(v) for k, v in raw.items()},
                                      policy_files={"keystone": str(policy)})
                with tr.span("openstack.ingest", job):
                    doc = ingest(**records, config=config)
                with tr.span("turtle.serialize", job):
                    text = serialize_turtle(doc)
                tr.count("turtle.triples_serialized", len(doc.graph))
                out_path.write_text(text, encoding="utf-8")
            triples = list(doc.graph)
            with tr.span("rdf.graph_build", job):
                Graph(triples)
            counts = ", ".join(f"{len(records[k])} {k}" for k in records)
            return 0, "", f"ingested {counts}: {len(doc.graph)} triples\n"

        argv = ["ingest", "openstack"]
        for kind, path in files.items():
            argv += [f"--{kind}", path.name]
        argv += ["--versions", versions.name, "--policy-file", f"keystone={policy.name}",
                 "-o", out_path.name]
        jobs.append(Job(f"ingest:inv{i}", argv, replay_ingest, check_ingest, want))
    return jobs


def run_cli_workload(bench: Bench, make_jobs) -> dict:
    setup_times = []
    before = hostspeed.reference_s()
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        d = bench.fresh_dir(f"setup{k}")
        jobs = make_jobs(bench, random.Random(bench.seed), d)
        bench.warm_up()
        wall = time.perf_counter() - start
        after = hostspeed.reference_s()
        setup_times.append(hostspeed.scaled(wall, before, after))
        before = after

    walls: list[float] = []  # scaled by host speed, see hostspeed.py
    raw_walls: list[float] = []
    refs: list[float] = []
    rounds = 0
    tracer, plain = Tracer(enabled=True), Tracer(enabled=False)
    traced_s = untraced_s = 0.0
    job_walls: dict[str, list[float]] = {}
    startup: list[float] = []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < bench.seconds:
        rounds += 1
        before = hostspeed.reference_s()
        for job in jobs:
            code, out, err, wall = bench.run_cli(job.argv, d)
            after = hostspeed.reference_s()
            raw_walls.append(wall)
            refs.append(after)
            wall = hostspeed.scaled(wall, before, after)
            before = after
            walls.append(wall)
            job_walls.setdefault(job.name, []).append(wall)
            bench.outcome(job.name, _attempt(job.check, code, out, err))
        if not bench.trace:
            continue
        for _ in range(STARTUP_PROBES):
            code, _, _, wall = bench.run_cli(["--version"], d)
            startup.append(wall)
        # alternate which replay goes first, so warm-up favours neither
        for tr in (plain, tracer) if rounds % 2 else (tracer, plain):
            t0 = time.perf_counter()
            for job in jobs:
                def replay(job=job):
                    return job.check(*job.replay(tr, f"{job.name}#{rounds}"))
                bench.outcome(job.name + " (in process)", _attempt(replay))
            if tr is tracer:
                traced_s += time.perf_counter() - t0
            else:
                untraced_s += time.perf_counter() - t0

    if bench.trace:
        job_spans = {s.job: s.end - s.start for s in tracer.spans if s.name == "cli.job"}
        wall_sum = sum(raw_walls)
        in_process = sum(job_spans.values())
        extra = {
            "cli.startup_ms": 1000 * _median(startup),
            "cli.overhead_ms": 1000 * (wall_sum - in_process) / len(walls),
            "host.ref_ms": 1000 * _median(refs),
        }
        bench.tracers = {"loop": tracer}
        return layer_metrics(tracer, rounds, traced_s - untraced_s, extra)
    p50 = _median(walls)
    tail, level = _tail(walls)
    # a round of median commands, so a few slow seconds on a shared host
    # move it less than a plain sum would
    round_s = sum(_median(values) for values in job_walls.values())
    print(f"{bench.workload}: {len(walls)} commands in {rounds} round(s), scaled p50 "
          f"{1000 * p50:.1f} ms, p{level:.1f} {1000 * tail:.1f} ms; wall p50 "
          f"{1000 * _median(raw_walls):.1f} ms; reference pass {1000 * _median(refs):.1f} ms")
    for name, values in job_walls.items():
        print(f"  {name:32s} scaled median {1000 * _median(values):8.1f} ms  x{len(values)}")
    return {
        "setup_s": (_median(setup_times), "s"),
        "op_p50_scaled_ms": (1000 * p50, "ms"),
        "op_tail_scaled_ms": (1000 * tail, "ms"),
        "throughput_scaled_per_s": (sum(job.triples for job in jobs) / round_s, "1/s"),
        "peak_rss_mb": (bench.peak_rss_kb / 1024, "MB"),
    }


# ------------------------------------------------------------ batch audit

@dataclass
class Audit:
    model: gen.Model
    graph: object
    prefixes: object
    queries: dict
    shapes: dict


def batch_setup(bench: Bench, d: Path, tr: Tracer) -> Audit:
    from cloudaudit import materialize, parse_query, parse_shapes, parse_turtle

    rng = random.Random(bench.seed)
    model = gen.make_model(rng, bench.fixture_text, bench.fixture_triples, BATCH_ENGINES, tag="b")
    path = d / "fleet.ttl"
    path.write_text(model.text, encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    with tr.span("turtle.parse", "setup"):
        doc = parse_turtle(text)
    tr.count("turtle.triples_parsed", len(doc.graph))
    with tr.span("reasoner.materialize", "setup"):
        closure = materialize(doc.graph)
    tr.count("reasoner.iterations", closure.iterations)
    tr.count("reasoner.inferred", closure.inferred_count)
    queries = {}
    sources = {
        "q_fixture": (FIXTURES / "q_missing_encryption.rq").read_text(encoding="utf-8"),
        "q_join_selective": JOIN_SELECTIVE,
        "q_join_unselective": JOIN_UNSELECTIVE,
        "q_nested_exists": NESTED_EXISTS,
    }
    for name, source in sources.items():
        with tr.span("sparql.parse_query", "setup"):
            queries[name] = parse_query(source)
    shapes = {}
    for name, source in (
        ("fixture", (FIXTURES / "shapes_data_encryption.ttl").read_text(encoding="utf-8")),
        ("class", CLASS_SHAPE),
        ("max_count", MAX_COUNT_SHAPE),
    ):
        with tr.span("turtle.parse", "setup"):
            shapes_doc = parse_turtle(source)
        with tr.span("shacl.parse_shapes", "setup"):
            shapes[name] = parse_shapes(shapes_doc)
    return Audit(model, closure.graph, doc.prefixes, queries, shapes)


def batch_round(bench: Bench, audit: Audit, rng: random.Random, tr: Tracer, job: str,
                checks: dict[str, list[float]], fleet: list[float]) -> None:
    """One round of checks and fleet audit; records check times by kind and
    the time of each engine audit."""
    from cloudaudit import (Iri, TriplePattern, Var, coverage, coverage_queries, evaluate,
                            parse_query, remediation_hints, validate)

    truth = audit.model.truth
    graph = audit.graph
    expander = _traced_expander(tr, job)

    def timed(name: str, fn: Callable[[], str | None], into: list[float]) -> None:
        start = time.perf_counter()
        error = _attempt(fn)
        into.append(time.perf_counter() - start)
        bench.outcome(name, error)

    def check(name: str, fn: Callable[[], str | None]) -> None:
        timed(name, fn, checks.setdefault(name, []))

    want_rows = {
        "q_fixture": [(d,) for d in truth.unencrypted],
        "q_join_selective": truth.joins,
        "q_join_unselective": truth.joins,
        "q_nested_exists": [(e,) for e in truth.exposed],
    }
    for name, query in audit.queries.items():
        def run_query(name=name, query=query):
            with tr.span("sparql.evaluate", job, name):
                table = evaluate(query, graph)
            tr.count("sparql.rows", len(table.rows))
            rows = sorted(tuple(t.value for t in row) for row in table.rows)
            return None if rows == want_rows[name] else f"{len(rows)} rows, expected {len(want_rows[name])}"
        check(name, run_query)

    want_focus = {"fixture": truth.unencrypted, "class": truth.wrong_class,
                  "max_count": truth.two_policies}
    for name, shapes in audit.shapes.items():
        def run_validate(name=name, shapes=shapes):
            with tr.span("shacl.validate", job):
                report = validate(graph, shapes, expander)
            tr.count("shacl.violations", len(report.results))
            focus = sorted(r.focus.value for r in report.results)
            return None if focus == want_focus[name] else f"{len(focus)} violations, expected {len(want_focus[name])}"
        check(f"validate:{name}", run_validate)

    engines = audit.model.engines
    pairs = []
    for engine in rng.sample(engines, COVERAGE_PAIRS_PER_ROUND):
        pairs.append((engine, rng.choice(truth.engines[engine].declared)))

    # one check for all pairs of the round: twelve checks of a few ms each
    # would be half of all checks and put the median at the edge of their spread
    def run_coverage_queries():
        for engine, standard in pairs:
            covered = False
            for text in coverage_queries(Iri(engine), Iri(standard)):
                with tr.span("sparql.parse_query", job):
                    query = parse_query(text)
                with tr.span("sparql.evaluate", job, "q_coverage"):
                    table = evaluate(query, graph)
                tr.count("sparql.rows", len(table.rows))
                covered = covered or bool(table.rows)
            want = standard not in truth.engines[engine].gaps
            if covered != want:
                return f"{engine} {standard} covered={covered}, expected {want}"
        return None
    check("q_coverage", run_coverage_queries)

    sample = rng.sample(engines, FLEET_PER_ROUND)

    def lookup(pattern):
        with tr.span("rdf.match", job):
            rows = graph.match(pattern)
        tr.count("rdf.match_calls")
        tr.count("rdf.match_rows", len(rows))
        return len(rows)

    def by_subject():
        for engine in sample:
            n = lookup(TriplePattern(Iri(engine), Var("p"), Var("o")))
            if n != truth.subject_rows[engine]:
                return f"{engine}: {n} triples, expected {truth.subject_rows[engine]}"
        return None

    def by_predicate_object():
        for _, cls, _ in gen.KINDS:
            n = lookup(TriplePattern(Var("s"), Iri(gen.TYPE), Iri(cls)))
            if n != truth.type_counts[cls]:
                return f"{cls}: {n} instances, expected {truth.type_counts[cls]}"
        return None

    def unbound():
        n = lookup(TriplePattern(Var("s"), Var("p"), Var("o")))
        return None if n == truth.closure else f"{n} triples, expected {truth.closure}"

    check("match:s", by_subject)
    check("match:po", by_predicate_object)
    check("match:all", unbound)

    for engine in sample:
        e_truth = truth.engines[engine]

        def audit_engine(engine=engine, e_truth=e_truth):
            with tr.span("compliance.coverage", job):
                report = coverage(graph, Iri(engine))
            with tr.span("compliance.hints", job):
                hints = remediation_hints(report, graph, audit.prefixes)
            tr.count("compliance.evidence", sum(len(s.evidence) for s in report.statuses))
            tr.count("compliance.gaps", report.gap_count)
            gaps = [g.value for g in report.gaps]
            if gaps != e_truth.gaps:
                return f"gaps {gaps}, expected {e_truth.gaps}"
            if hints != expected_hints(engine, e_truth):
                return "remediation hints differ from the expected ones"
            return None
        timed(f"audit:{engine}", audit_engine, fleet)


def batch_loop(bench: Bench, audit: Audit, seconds: float, worker: int, checks: dict,
               fleet_rounds: list[float], refs: list[float],
               tracer: Tracer | None = None) -> tuple[int, float]:
    """Rounds until `seconds` pass; with a tracer, each round also runs traced.

    Check and fleet times of the untraced pass are scaled by the reference
    passes before and after it (hostspeed.py), which go into `refs`.
    Returns the round count and the traced minus the untraced time.
    """
    off = Tracer(enabled=False)
    rounds = 0
    overhead_s = 0.0
    before = hostspeed.reference_s()
    refs.append(before)
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        seed = f"{bench.seed}/{worker}/{rounds}"
        # alternate which pass goes first, so warm-up favours neither
        passes = [off, tracer] if rounds % 2 else [tracer, off]
        for tr in passes if tracer else [off]:
            round_checks: dict[str, list[float]] = {}
            fleet: list[float] = []
            t0 = time.perf_counter()
            batch_round(bench, audit, random.Random(seed), tr, f"round{rounds}",
                        round_checks, fleet)
            elapsed = time.perf_counter() - t0
            after = hostspeed.reference_s()
            refs.append(after)
            if tr is off:
                factor = hostspeed.scaled(1.0, before, after)
                for name, values in round_checks.items():
                    checks.setdefault(name, []).extend(v * factor for v in values)
                fleet_rounds.append(sum(fleet) * factor)
                overhead_s -= elapsed
            else:
                overhead_s += elapsed
            before = after
    return rounds, overhead_s if tracer else 0.0


def batch_worker(bench: Bench, worker: int) -> dict:
    """One worker process: set up once, then loop for its share of the run."""
    before = hostspeed.reference_s()
    start = time.perf_counter()
    audit = batch_setup(bench, bench.fresh_dir("setup"), Tracer(enabled=False))
    wall = time.perf_counter() - start
    setup_s = hostspeed.scaled(wall, before, hostspeed.reference_s())
    checks: dict[str, list[float]] = {}
    fleet_rounds: list[float] = []
    refs: list[float] = []
    batch_loop(bench, audit, bench.seconds, worker, checks, fleet_rounds, refs)
    return {"setup_s": setup_s, "checks": checks, "fleet_rounds": fleet_rounds,
            "refs": refs, "attempted": bench.attempted, "failed": bench.failed}


def run_batch_audit(bench: Bench) -> dict:
    """Untraced, the run is BATCH_WORKERS worker processes one after another,
    each setting up once and looping for its share of --seconds: how fast one
    Python process runs this heap-heavy loop differs by tens of percent from
    process to process on a shared host, so the figures pool several.  The
    traced run stays in this process."""
    if bench.trace:
        setup_tracer, tracer = Tracer(enabled=True), Tracer(enabled=True)
        audit = batch_setup(bench, bench.fresh_dir("traced-setup"), setup_tracer)
        refs: list[float] = []
        rounds, overhead_s = batch_loop(bench, audit, bench.seconds, 0, {}, [], refs, tracer)
        bench.tracers = {"setup": setup_tracer, "loop": tracer}
        return layer_metrics(tracer, rounds, overhead_s, {"host.ref_ms": 1000 * _median(refs)},
                             setup_tracer)

    checks: dict[str, list[float]] = {}
    fleet_rounds: list[float] = []
    setup_times = []
    refs: list[float] = []
    for worker in range(BATCH_WORKERS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", "batch_audit",
                "--seed", str(bench.seed), "--seconds", str(bench.seconds / BATCH_WORKERS),
                "--worker", str(worker)]
        code, out, err, _ = bench.spawn(argv, bench.fresh_dir(f"worker{worker}"))
        sys.stderr.write(err)
        if code != 0:
            raise RuntimeError(f"batch_audit worker {worker} exited with code {code}")
        part = json.loads(out.strip().splitlines()[-1])
        bench.attempted += part["attempted"]
        bench.failed += part["failed"]
        setup_times.append(part["setup_s"])
        fleet_rounds += part["fleet_rounds"]
        refs += part["refs"]
        for name, values in part["checks"].items():
            checks.setdefault(name, []).extend(values)

    samples = [t for values in checks.values() for t in values]
    p50 = _median(samples)
    tail, level = _tail(samples)
    print(f"batch_audit: {len(samples)} checks and {FLEET_PER_ROUND * len(fleet_rounds)} engine "
          f"audits in {len(fleet_rounds)} round(s) over {BATCH_WORKERS} processes, "
          f"scaled check p50 {1000 * p50:.2f} ms, p{level:.1f} {1000 * tail:.2f} ms; "
          f"reference pass {1000 * _median(refs):.1f} ms")
    for name, values in checks.items():
        print(f"  {name:32s} scaled median {1000 * _median(values):8.2f} ms  x{len(values)}")
    print(f"  {'engine audit':32s} scaled median "
          f"{1000 * _median(fleet_rounds) / FLEET_PER_ROUND:8.2f} ms")
    return {
        "setup_s": (_median(setup_times), "s"),
        "op_p50_scaled_ms": (1000 * p50, "ms"),
        "op_tail_scaled_ms": (1000 * tail, "ms"),
        "throughput_scaled_per_s": (FLEET_PER_ROUND / _median(fleet_rounds), "1/s"),
        "peak_rss_mb": (bench.peak_rss_kb / 1024, "MB"),
    }


# ------------------------------------------------------------ traced output

def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float, extra: dict,
                  setup: Tracer | None = None) -> dict:
    """Per-layer metrics: loop spans per round, plus one traced set-up if given."""
    times: dict = defaultdict(float)
    counts: dict = defaultdict(float)
    selfs: dict = defaultdict(float)
    for tr, weight in [(tracer, 1.0 / rounds)] + ([(setup, 1.0)] if setup else []):
        for key, value in tr.totals().items():
            times[key] += value * weight
        for key, value in tr.totals(lambda s: f"{s.name}.{s.tag}").items():
            times[key] += value * weight
        for key, value in tr.counts.items():
            counts[key] += value * weight
    # self time covers the measured loop only, so batch_audit's one-time
    # parse does not hide which layers its checks spend time in
    for layer, value in tracer.self_times().items():
        selfs[layer] += value / rounds

    def t(name):
        return times[name]

    def c(name):
        return counts[name]

    metrics = {
        "turtle.parse_s": (t("turtle.parse"), "s"),
        "turtle.parse_us_per_triple": (_per(t("turtle.parse"), c("turtle.triples_parsed")), "us/triple"),
        "turtle.serialize_s": (t("turtle.serialize"), "s"),
        "turtle.serialize_us_per_triple": (
            _per(t("turtle.serialize"), c("turtle.triples_serialized")), "us/triple"),
        "rdf.graph_build_s": (t("rdf.graph_build"), "s"),
        "rdf.match_s": (t("rdf.match"), "s"),
        "rdf.match_calls": (c("rdf.match_calls"), "count"),
        "rdf.match_rows": (c("rdf.match_rows"), "count"),
        "reasoner.materialize_s": (t("reasoner.materialize"), "s"),
        "reasoner.iterations": (c("reasoner.iterations"), "count"),
        "reasoner.inferred": (c("reasoner.inferred"), "count"),
        "reasoner.us_per_inferred": (_per(t("reasoner.materialize"), c("reasoner.inferred")), "us/triple"),
        "reasoner.subclasses_of_s": (t("reasoner.subclasses_of"), "s"),
        "sparql.parse_query_s": (t("sparql.parse_query"), "s"),
        "sparql.evaluate_s": (t("sparql.evaluate"), "s"),
        "sparql.rows": (c("sparql.rows"), "count"),
    }
    for q in ("q_fixture", "q_join_selective", "q_join_unselective", "q_nested_exists", "q_coverage"):
        metrics[f"sparql.evaluate_s.{q}"] = (t(f"sparql.evaluate.{q}"), "s")
    metrics.update({
        "shacl.validate_s": (t("shacl.validate"), "s"),
        "shacl.violations": (c("shacl.violations"), "count"),
        "compliance.coverage_s": (t("compliance.coverage"), "s"),
        "compliance.hints_s": (t("compliance.hints"), "s"),
        "compliance.evidence": (c("compliance.evidence"), "count"),
        "compliance.gaps": (c("compliance.gaps"), "count"),
        "openstack.parse_cli_json_s": (t("openstack.parse_cli_json"), "s"),
        "openstack.ingest_s": (t("openstack.ingest"), "s"),
        "openstack.records": (c("openstack.records"), "count"),
        "cli.startup_ms": (extra.get("cli.startup_ms", 0.0), "ms"),
        "cli.overhead_ms": (extra.get("cli.overhead_ms", 0.0), "ms"),
        "cli.render_s": (t("cli.render"), "s"),
    })
    metrics["host.ref_ms"] = (extra["host.ref_ms"], "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (selfs[layer], "s")
    metrics["trace.overhead_s"] = (overhead_s / rounds, "s")
    return metrics


def _per(seconds: float, count: float) -> float:
    return 1e6 * seconds / count if count else 0.0


# Layers a workload does not call report 0; say why instead of hiding them.
NOT_EXERCISED = {
    "cli_gate": ("turtle.serialize", "rdf.", "openstack.", "sparql.evaluate_s.q_join",
                 "sparql.evaluate_s.q_nested", "sparql.evaluate_s.q_coverage"),
    "deep_infer": ("rdf.match", "reasoner.subclasses_of", "sparql.", "shacl.", "compliance.",
                   "cli.render"),
    "batch_audit": ("turtle.serialize", "rdf.graph_build", "openstack.", "cli."),
}
WORKLOADS = {
    "cli_gate": lambda bench: run_cli_workload(bench, cli_gate_jobs),
    "deep_infer": lambda bench: run_cli_workload(bench, deep_infer_jobs),
    "batch_audit": run_batch_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _layout_ok():
        sys.stderr.write("perfbench: src/cloudaudit and fixtures/ must sit beside perfbench/; "
                         "run it from a cloudaudit checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker is not None:  # one batch_audit worker, started by run_batch_audit
        bench = Bench(args.workload, args.seed, args.seconds, False, spawner=False)
        try:
            print(json.dumps(batch_worker(bench, args.worker)))
        finally:
            bench.close()
        return 0
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = WORKLOADS[args.workload](bench)
        if bench.trace:
            report_trace(bench, metrics)
    finally:
        bench.close()
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report_trace(bench: Bench, metrics: dict) -> None:
    skipped = NOT_EXERCISED[bench.workload]
    print(f"{bench.workload} traced run (per round; batch_audit adds one set-up):")
    for name, (value, unit) in metrics.items():
        note = "  (not exercised on this workload)" if name.startswith(skipped) else ""
        print(f"  {name:38s} {value:14.6f} {unit}{note}")
    path = bench.out_dir / f"trace-{bench.workload}-{bench.seed}.json"
    path.write_text(json.dumps({k: tr.to_json() for k, tr in bench.tracers.items()}))
    spans = sum(len(tr.spans) for tr in bench.tracers.values())
    print(f"  {spans} spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
