"""The summary `tools/bench_pairs.py` writes, on synthetic pairs of runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = {
    "op_ms": {"name": "op_ms", "better": "lower", "bound": 0.25},
    "per_s": {"name": "per_s", "better": "higher", "bound": 0.25},
    "layer_s": {"name": "layer_s", "better": "lower"},
}


def run(value: float, failed: int = 0) -> dict:
    return {"attempted": 100, "correct": 100 - failed, "failed": failed,
            "metrics": {name: {"value": value} for name in DECLARED}}


def pairs_of(base: list[float], change: list[float], failed: int = 0) -> list[dict]:
    return [{"seed": k, "first": "base", "base": run(b), "change": run(c, failed)}
            for k, (b, c) in enumerate(zip(base, change))]


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


@pytest.mark.parametrize(
    "change, lower_verdict, higher_verdict",
    [
        ([v * 0.7 for v in STEADY], "gain", "regression"),
        ([v * 1.3 for v in STEADY], "regression", "gain"),
        ([v * 1.1 for v in STEADY], "no change", "gain"),
        (STEADY, "no change", "no change"),
        # wins 8 pairs of 10: not a gain, however far the medians move
        ([v * 0.7 for v in STEADY[:8]] + [v * 1.01 for v in STEADY[8:]], "no change", "regression"),
    ],
    ids=["faster", "slower", "slightly-slower", "same", "eight-wins"],
)
def test_verdicts_follow_the_declared_direction(change, lower_verdict, higher_verdict):
    out = bench_pairs.summary(pairs_of(STEADY, change), DECLARED)
    assert out["op_ms"]["verdict"] == lower_verdict
    assert out["per_s"]["verdict"] == higher_verdict


def test_fewer_than_ten_pairs_make_no_gain():
    faster = [v * 0.7 for v in STEADY]
    assert bench_pairs.summary(pairs_of(STEADY[:9], faster[:9]), DECLARED)["op_ms"]["verdict"] == "no change"


def test_a_base_wider_than_the_bound_is_unresolved():
    base = [60.0, 140.0] * 5
    out = bench_pairs.summary(pairs_of(base, [v * 1.1 for v in base]), DECLARED)
    assert out["op_ms"]["verdict"] == "unresolved"
    # unless every run of the change reads better than every run of the base
    out = bench_pairs.summary(pairs_of(base, [59.0] * 10), DECLARED)
    assert out["op_ms"]["verdict"] == "no change"


def test_a_metric_with_no_bound_is_gain_or_no_change():
    out = bench_pairs.summary(pairs_of(STEADY, [v * 2 for v in STEADY]), DECLARED)
    assert out["layer_s"]["verdict"] == "no change"
    out = bench_pairs.summary(pairs_of(STEADY, [v / 2 for v in STEADY]), DECLARED)
    assert out["layer_s"]["verdict"] == "gain"


def test_outcomes_count_each_side():
    pairs = pairs_of(STEADY, STEADY, failed=2)
    assert bench_pairs.outcomes(pairs) == {
        "base": {"attempted": 1000, "failed": 0},
        "change": {"attempted": 1000, "failed": 20},
    }


def test_a_failed_run_shows_its_stderr_and_exits_one(tmp_path, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('\\n'.join(f'line {k}' for k in range(40)), file=sys.stderr)\n"
        "sys.exit(1)\n"
    )
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--base", str(checkout), "--change", str(checkout),
                             "--workload", "cli_gate", "--pairs", "2", "--first-seed", "7",
                             "--seconds", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "cli_gate seed 7: the base run exited 1; the end of its stderr:"
    assert err[1:] == [f"line {k}" for k in range(40 - bench_pairs.STDERR_LINES, 40)]
    assert not out.exists()


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_is_a_usage_error_before_any_run(tmp_path, capsys, pairs):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    ran = tmp_path / "ran"
    (checkout / "perfbench" / "run.py").write_text(f"open({str(ran)!r}, 'w').close()\n")
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--base", str(checkout), "--change", str(checkout),
                          "--workload", "cli_gate", "--pairs", pairs, "--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: --pairs must be at least 1, got {pairs}")
    assert not ran.exists() and not out.exists()


# What perfbench/run.py prints: a summary line, one line per job (the
# batch_audit fleet line has no count), then the JSON result line.
FAKE_RUN = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
fast = "change" in __file__
print("cli_gate: 40 commands in 2 round(s), scaled p50 130.0 ms")
print(f"  {'query:m320':32s} scaled median {(90 if fast else 100) + seed:8.1f} ms  x8")
print(f"  {'parse:m40':32s} scaled median {50 + seed:8.2f} ms  x12")
print(f"  {'engine audit':32s} scaled median {7.5:8.2f} ms")
print(json.dumps({"correct": True, "attempted": 40, "failed": 0,
                  "metrics": {"op_ms": {"value": 130.0, "unit": "ms"}}}))
"""


def test_each_run_keeps_its_job_lines(tmp_path):
    checkouts = {}
    for side in ("base", "change"):
        checkouts[side] = tmp_path / side
        (checkouts[side] / "perfbench").mkdir(parents=True)
        (checkouts[side] / "perfbench" / "run.py").write_text(FAKE_RUN)
    (checkouts["change"] / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "op_ms", "better": "lower", "bound": 0.25}], "per_layer": []}'
    )
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--base", str(checkouts["base"]), "--change", str(checkouts["change"]),
                             "--workload", "cli_gate", "--pairs", "2", "--first-seed", "3",
                             "--seconds", "1", "--out", str(out)])
    assert code == 0
    entry = json.loads(out.read_text())["cli_gate"]
    first = entry["pairs"][0]
    assert first["base"]["jobs"] == {
        "query:m320": {"value": 103.0, "unit": "ms"},
        "parse:m40": {"value": 53.0, "unit": "ms"},
        "engine audit": {"value": 7.5, "unit": "ms"},
    }
    assert first["change"]["jobs"]["query:m320"] == {"value": 93.0, "unit": "ms"}
    jobs = entry["job_summary"]
    assert sorted(jobs) == ["engine audit", "parse:m40", "query:m320"]
    assert jobs["query:m320"]["change_wins"] == 2 and jobs["parse:m40"]["change_wins"] == 0
    assert jobs["query:m320"]["base_quartiles"] == [103.25, 103.5, 103.75]
    assert entry["summary"]["op_ms"]["pairs"] == 2


def test_records_without_job_lines_have_no_job_summary():
    assert bench_pairs.summary(pairs_of(STEADY, STEADY), DECLARED, "jobs") == {}
