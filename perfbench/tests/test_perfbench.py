"""Self-tests of the benchmark: deterministic decks, oracles that reject
wrong answers, and failure accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracles  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, make_deck  # noqa: E402


def _texts(workload, seed):
    return [op.text for rnd in make_deck(workload, seed, 3) for op in rnd]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_operation_texts(workload):
    assert _texts(workload, 11) == _texts(workload, 11)
    assert _texts(workload, 11) != _texts(workload, 12)


def test_deck_does_not_depend_on_hash_seed():
    code = (
        "import hashlib, sys; sys.path.insert(0, sys.argv[1]);"
        "from workloads import WORKLOADS, make_deck;"
        "print(hashlib.sha256(repr([op.text for w in WORKLOADS "
        "for r in make_deck(w, 5, 2) for op in r]).encode()).hexdigest())"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


# ---------------------------------------------------------------------------
# oracles: the real answer passes, a perturbed one is rejected
# ---------------------------------------------------------------------------

def _first(workload, kind, pick=lambda op: True):
    for seed in range(5):
        for rnd in make_deck(workload, seed, 2):
            for op in rnd:
                if op.kind == kind and pick(op):
                    return op
    raise AssertionError(f"no {kind} operation")


def _data(answer):
    report = json.loads(answer)
    return report, report["results"][0]["data"]


def _edit_statement(answer, edit):
    report, data = _data(answer)
    edit(data)
    return json.dumps(report)


def _edit_library(answer, edit):
    data = json.loads(answer)
    edit(data)
    return json.dumps(data)


def _bump_first_count(data):
    data["sections_per_open"][-1]["count"] += 1


def _shift_coefficient(data):
    data["factors"][0][0][0][0] = str(int(data["factors"][0][0][0][0].split("/")[0]) + 1)


CASES = [
    ("atlas", "describe", lambda op: op.params["bound"] == 3,
     lambda d: d["points"].pop()),
    ("atlas", "closure", lambda op: True,
     lambda d: d["fibers"][0]["points"][0].__setitem__(
         "multiplicity", d["fibers"][0]["points"][0]["multiplicity"] + 1)),
    ("atlas", "fiber", lambda op: True, lambda d: d["points"].pop()),
    ("atlas", "specialize", lambda op: True,
     lambda d: d["table"][0].__setitem__("verdict", {"kind": "zero-ring"})),
    ("atlas", "qi_factor", lambda op: True, _shift_coefficient),
    ("groebner", "ideal", lambda op: "system" not in op.params,
     lambda d: d["groebner_basis"].append("x + 1")),
    ("groebner", "ideal", lambda op: op.params.get("system") == "katsura4",
     lambda d: d["groebner_basis"].pop()),
    ("groebner", "normalize", lambda op: True, lambda d: d.__setitem__("d", d["d"] + 1)),
    ("groebner", "normalize", lambda op: True,
     lambda d: d["steps"][0]["r"].__setitem__(0, d["steps"][0]["r"][0] + 1)),
    ("groebner", "normalize", lambda op: True,
     lambda d: d["y"].__setitem__(0, d["y"][0].replace("^", "^1"))),
    ("groebner", "normalize", lambda op: True,
     lambda d: d["steps"][0].__setitem__("certificate", d["steps"][0]["certificate"] + " + 1")),
    ("groebner", "charts", lambda op: True,
     lambda d: d["charts"][0].__setitem__(
         "ring", d["charts"][0]["ring"].replace("/(", "/(1 + "))),
    ("groebner", "kernel", lambda op: True,
     lambda d: d["generators"].append(d["names"][0])),
    ("sheaf", "sheaf_check", lambda op: True, _bump_first_count),
    ("sheaf", "sheaf_sections", lambda op: True,
     lambda d: d.__setitem__("gamma_size", d["gamma_size"] + 1)),
    ("sheaf", "sheaf_twist", lambda op: True,
     lambda d: d.__setitem__("sections_global", d["sections_global"] * 2)),
]


@pytest.fixture(scope="module")
def runner():
    return worker.Runner()


@pytest.mark.parametrize("workload,kind,pick,edit", CASES,
                         ids=[f"{c[1]}-{i}" for i, c in enumerate(CASES)])
def test_oracle_accepts_answer_and_rejects_perturbation(runner, workload, kind, pick, edit):
    op = _first(workload, kind, pick)
    _, answer = runner.run(op)
    assert oracles.check(op, answer) is None
    wrong = (_edit_statement if op.is_statement else _edit_library)(answer, edit)
    assert wrong != answer
    assert oracles.check(op, wrong) is not None


def test_oracle_rejects_scheme_error_record():
    op = _first("sheaf", "sheaf_check")
    answer = json.dumps({"schema": 1, "results": [
        {"statement": op.text, "ok": False, "error": {"code": "unsupported", "message": "x"}}]})
    assert oracles.check(op, answer).startswith("oracle: SchemeError[unsupported]")


def test_qi_oracle_splits_quadratics_over_gaussian_rationals():
    # (x^2 + 1)(x - 2): x^2 + 1 = (x - i)(x + i) over Q(i)
    want = oracles._qi_expected([[(1, 0), (0, 0), (1, 0)], [(-2, 0), (1, 0)]])
    roots = sorted(tuple(map(float, g[0])) for g, _ in want)
    assert roots == [(-2.0, 0.0), (0.0, -1.0), (0.0, 1.0)]


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

class _Raising:
    """Answers every operation from a real runner, except one that raises."""

    def __init__(self, inner, bad_text):
        self.inner = inner
        self.bad_text = bad_text

    def run(self, op):
        if op.text == self.bad_text:
            raise ValueError("injected")
        return self.inner.run(op)


def test_injected_exception_is_counted_as_failure(runner):
    deck = [[_first("sheaf", "sheaf_twist"), _first("sheaf", "sheaf_sections"),
             _first("groebner", "normalize")]]
    bad = deck[0][1].text
    result = bench.merge([worker.loop(deck, _Raising(runner, bad)) for _ in range(2)])
    assert len(result["ops"]) == 6
    checker = bench.Checker(deck)
    times, failed = checker.verify(result)
    assert failed == 2
    assert sorted(times) == [(0, 0), (0, 2)]
    assert checker.failures == {"ValueError": 2}
    assert "injected" in checker.examples["ValueError"]


def test_wrong_answer_is_counted_as_failure(runner):
    deck = [[_first("sheaf", "sheaf_twist")]]
    result = worker.loop(deck, runner)
    digest = result["ops"][0][3]
    result["answers"][digest] = _edit_statement(
        result["answers"][digest], lambda d: d.__setitem__("is_coboundary", False))
    checker = bench.Checker(deck)
    times, failed = checker.verify(result)
    assert times == {} and failed == 1 and checker.failures == {"oracle": 1}


# ---------------------------------------------------------------------------
# tracing and measurement
# ---------------------------------------------------------------------------

def test_peak_rss_is_the_worker_s_own():
    # a parent holding 200 MB must not raise the worker's reading
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import worker, subprocess;"
            "ballast = bytearray(200 * 2 ** 20);"
            "print(subprocess.run([sys.executable, '-c', 'import sys; sys.path.insert(0, sys.argv[1]);"
            "import worker; print(worker.peak_rss_mb())', sys.argv[1]],"
            " capture_output=True, text=True, check=True).stdout)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert float(out.stdout) < 150


def test_self_time_subtracts_child_spans():
    names = ["outer", "inner"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0)]
    out = tracer.summarize(names, spans)
    assert out["outer"] == {"calls": 1, "self_s": 6.0}
    assert out["inner"] == {"calls": 2, "self_s": 4.0}


def test_reentrant_calls_fold_into_one_span():
    t = tracer.Tracer()

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = t.wrap("fact", fact)
    assert wrapped(5) == 120
    assert len(t.spans) == 1


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    times = {(0, i): [0.001 * (i + 1), 0.002 * (i + 1)] for i in range(20)}
    passes = [{"ops": [None] * 20, "peak_rss_mb": 50.0, "setup_s": s} for s in (0.1, 0.2)]
    e2e = bench.end_to_end(times, 0, passes, [1.0, 2.0])
    assert e2e["setup_s"]["value"] == 0.1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    trace_file = tmp_path / "trace.json"
    tracer.Tracer().dump(trace_file)
    layers = bench.per_layer(trace_file, times, times)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}


def test_calibration_divides_each_pass_by_its_speed_factor():
    fast = {"calibration_s": [bench.CALIBRATION_S] * 3}
    slow = {"calibration_s": [2 * bench.CALIBRATION_S, 2 * bench.CALIBRATION_S, 1.0]}
    factors = [bench.speed_factor(fast), bench.speed_factor(slow)]
    assert factors == [1.0, 2.0]
    assert bench.calibrate({(0, 0): [0.010, 0.020]}, factors) == {(0, 0): [0.010, 0.010]}
    with pytest.raises(ValueError):
        bench.calibrate({(0, 0): [0.010]}, factors)


def test_loop_times_one_calibration_per_operation(runner):
    deck = [[_first("sheaf", "sheaf_twist"), _first("sheaf", "sheaf_sections")]]
    result = worker.loop(deck, runner)
    assert len(result["calibration_s"]) == len(result["ops"]) == 2
    assert all(t > 0 for t in result["calibration_s"])
