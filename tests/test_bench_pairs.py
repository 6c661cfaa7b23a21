"""The summary `tools/bench_pairs.py` writes, on synthetic pairs of runs."""

import importlib.util
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
