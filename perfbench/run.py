"""scheme-explorer benchmark: closed-loop workloads with independent oracles.

    python3 perfbench/run.py --workload atlas|groebner|sheaf --seed N \\
        --seconds T --trace 0|1

One single-threaded client drives the package in a closed loop: the next
operation starts when the previous one returns. An operation is one
statement sent through ``dsl.parse`` -> ``cli.run_script`` ->
``cli.render_json``, or one public library call where the statement
language has no syntax for it (factoring over Q(i), the elimination
kernels of ``proj``). Every answer is checked outside the timed region by
an oracle that does not use scheme-explorer (``oracles.py``).

The deck of a run is sized so that PASSES passes over it take about T
seconds. Each pass runs in a fresh worker process, so no state the package
keeps between operations carries from one pass to the next. Each operation
is thus timed PASSES times, seconds apart, each time in a new process.

On a shared machine the speed at which Python runs drifts by up to 2x in
phases of seconds to minutes, whatever code runs. So every time is
calibrated: after each operation the worker times a fixed routine that uses
nothing from the package (``worker.calibration``), and each latency of a
pass is divided by that pass's speed factor, the median calibration time of
the pass over CALIBRATION_S. Reported latencies are therefore milliseconds
at the speed where the routine takes CALIBRATION_S. An operation's latency
is the median of its calibrated times over the passes. The uncalibrated
throughput and the speed factors are on the info line.

Every worker of a run gets the same ``PYTHONHASHSEED``, derived from
(workload, seed), so the passes do the same work and paired runs of two
commits see the same hash seed; it is printed on the info line.

--trace 0  end-to-end metrics: throughput, p50/p90 latency, set-up time
           (median over the pass processes, each calibrated by the speed
           factor of its pass), peak resident memory, and the share of
           executions that passed their oracle.
--trace 1  the same untraced run, then one traced pass over the deck with
           spans around each layer's entry points (``tracer.py``): per-layer
           calls, self time, useful-work ratios and the tracing overhead.

The last line of standard output is the result object; the line before it
describes the run (hash seed, sample counts, failures by type).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# Every run ends within this many seconds, whatever the workers do.
RUN_BUDGET_S = 170.0

# Nominal time of one ``worker.calibration``: about its time on an idle
# core of the 2-core x86-64 machine (Python 3.11) the benchmark was defined on.
CALIBRATION_S = 0.00075

# span name -> per-layer statistics reported for it
SPAN_METRICS = {
    "arith.factor_dense": ("calls", "self_s"),
    "arith.is_irreducible": ("calls", "self_s"),
    "multipoly.poly_arith": ("calls", "self_s"),
    "algebra.groebner_basis": ("calls", "self_s"),
    "algebra.normal_form": ("calls", "self_s"),
    "spectrum.enumerate_points": ("calls", "self_s"),
    "spectrum.closure_fiber_points": ("calls", "self_s"),
    "morphism.fiber": ("calls", "self_s"),
    "noether.noether_normalize": ("calls", "self_s"),
    "proj.kernel": ("calls", "self_s"),
    "sheaf.structure_sheaf": ("calls", "self_s"),
    "sheaf.localized_ring": ("calls", "self_s"),
    "sheaf.sheafify": ("calls", "self_s"),
    "dsl.parse": ("calls", "self_s"),
    "cli.run_script": ("self_s",),
    "cli.render": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s"}


class BenchError(Exception):
    """The benchmark itself could not run."""


def hash_seed(workload, seed):
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).hexdigest()
    return int(digest, 16) % (2 ** 32)


def spawn(workload, seed, rounds, deadline, trace_out=None):
    """Run one worker process (one pass) to completion; returns its result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(workload, seed))
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rounds", str(rounds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before starting a worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError("worker did not finish in time") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def speed_factor(result):
    """How much slower than nominal the machine ran during one pass."""
    return statistics.median(result["calibration_s"]) / CALIBRATION_S


def calibrate(times, factors):
    """Each latency divided by the speed factor of the pass that measured
    it. ``times`` holds, per operation, one latency per pass in pass order:
    every pass runs the whole deck, and an operation that failed in any
    pass is left out."""
    return {key: [t / f for t, f in zip(lat, factors, strict=True)]
            for key, lat in times.items()}


def merge(passes):
    """The executions of several passes as one result for ``Checker``."""
    ops, answers = [], {}
    for result in passes:
        ops.extend(result["ops"])
        answers.update(result["answers"])
    return {"ops": ops, "answers": answers}


class Checker:
    """Checks each distinct (operation, answer) once and tallies failures."""

    def __init__(self, deck):
        import oracles

        self.deck = deck
        self.oracles = oracles
        self.verdicts = {}
        self.failures = Counter()
        self.examples = {}

    def verify(self, result):
        """({(round, position): [latency of each execution]} for operations
        whose every execution passed, number of failed executions); failures
        are also tallied by kind."""
        times = {}
        failed = set()
        count = 0
        for rnd, pos, latency, digest, error in result["ops"]:
            op = self.deck[rnd][pos]
            if error is None:
                key = (op.text, digest)
                if key not in self.verdicts:
                    self.verdicts[key] = self._check(op, result["answers"][digest])
                error = self.verdicts[key]
            if error is None:
                times.setdefault((rnd, pos), []).append(latency)
            else:
                kind = error.split(":")[0]
                count += 1
                self.failures[kind] += 1
                self.examples.setdefault(kind, f"{op.text} -> {error}")
                failed.add((rnd, pos))
        return {key: lat for key, lat in times.items() if key not in failed}, count

    def _check(self, op, answer):
        try:
            return self.oracles.check(op, answer)
        except Exception as err:  # a malformed answer is a failed operation
            return f"oracle: {type(err).__name__}: {err}"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def op_ms(times):
    """Each operation's latency in ms: the median of its times over the
    passes, sorted."""
    return sorted(statistics.median(lat) * 1000.0 for lat in times.values())


def throughput(times):
    """Passing operations per second of their latencies."""
    ms = op_ms(times)
    return len(ms) / (sum(ms) / 1000.0)


def end_to_end(times, failed, passes, factors):
    """``times`` are calibrated latencies per operation, one per pass;
    ``factors`` are the speed factors of the passes."""
    ms = op_ms(times)
    if len(ms) < 10:
        raise BenchError("too few passing operations for percentiles")
    return {
        "throughput_ops_s": _metric(throughput(times), "1/s"),
        "op_p50_ms": _metric(statistics.median(ms), "ms"),
        "op_p90_ms": _metric(statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": _metric(statistics.median(
            p["setup_s"] / f for p, f in zip(passes, factors)), "s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "pass_ratio": _metric(1.0 - failed / sum(len(p["ops"]) for p in passes), "ratio"),
    }


def _ms_by_kind(deck, times):
    """Median latency (ms) of each operation kind: shows where a change in
    the end-to-end figures comes from."""
    kinds = {}
    for (rnd, pos), lat in times.items():
        kinds.setdefault(deck[rnd][pos].kind, []).append(statistics.median(lat) * 1000.0)
    return {kind: round(statistics.median(v), 3) for kind, v in sorted(kinds.items())}


def per_layer(trace_file, traced_times, untraced_times):
    import tracer

    with open(trace_file, encoding="utf-8") as handle:
        dump = json.load(handle)
    spans = tracer.summarize(dump["names"], dump["spans"])
    counters = dump["counters"]
    metrics = {}
    for span, stats in SPAN_METRICS.items():
        rec = spans.get(span, {"calls": 0, "self_s": 0.0})
        for stat in stats:
            metrics[f"{span}.{stat}"] = _metric(rec[stat], UNITS[stat])

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    metrics["arith.cz_draws.calls"] = _metric(counters.get("arith.cz_draws.calls", 0), "count")
    metrics["algebra.normal_form.nonzero_ratio"] = _metric(
        ratio("algebra.normal_form.in_gb_nonzero", "algebra.normal_form.in_gb"), "ratio")
    metrics["sheaf.sheafify.kept_ratio"] = _metric(
        ratio("sheaf.sheafify.kept", "sheaf.sheafify.families"), "ratio")
    metrics["cli.render.bytes"] = _metric(counters.get("cli.render.bytes", 0), "B")
    # Overhead: the traced pass against the median untraced pass, over the
    # operations that passed in both; both are calibrated.
    keys = traced_times.keys() & untraced_times.keys()
    traced_s = sum(traced_times[k][0] for k in keys)
    untraced_s = sum(statistics.median(untraced_times[k]) for k in keys)
    metrics["trace.traced_throughput_ops_s"] = _metric(len(keys) / traced_s, "1/s")
    metrics["trace.untraced_throughput_ops_s"] = _metric(len(keys) / untraced_s, "1/s")
    metrics["trace.overhead_ratio"] = _metric(traced_s / untraced_s, "ratio")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "scheme_explorer" / "__init__.py").is_file():
        print(f"benchmark: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import PASSES, WORKLOADS, deck_rounds, make_deck

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w, s = args.workload, args.seed
    rounds = deck_rounds(w, args.seconds)
    deck = make_deck(w, s, rounds)

    try:
        # Every pass runs before the oracles (and sympy) are imported, so
        # the checking never competes with a measured process.
        passes = [spawn(w, s, rounds, deadline) for _ in range(PASSES[w])]
        checker = Checker(deck)
        raw_times, failed = checker.verify(merge(passes))
        factors = [speed_factor(p) for p in passes]
        times = calibrate(raw_times, factors)
        attempted = sum(len(p["ops"]) for p in passes)
        info = {
            "workload": w, "seed": s, "rounds": rounds, "passes": len(passes),
            "operations": sum(map(len, deck)), "executions": attempted,
            "hash_seed": hash_seed(w, s),
            "speed_factors": [round(f, 3) for f in factors],
            "uncalibrated_throughput_ops_s": round(throughput(raw_times), 3),
        }
        info["ms_by_kind"] = _ms_by_kind(deck, times)
        if args.trace == 0:
            info["setup_samples_s"] = [round(p["setup_s"], 4) for p in passes]
            info["peak_rss_samples_mb"] = [round(p["peak_rss_mb"], 2) for p in passes]
            metrics = end_to_end(times, failed, passes, factors)
        else:
            TRACE_DIR.mkdir(exist_ok=True)
            trace_file = TRACE_DIR / f"trace-{w}-{s}.json"
            traced = spawn(w, s, rounds, deadline, trace_out=trace_file)
            traced_times, traced_failed = checker.verify(traced)
            traced_times = calibrate(traced_times, [speed_factor(traced)])
            attempted += len(traced["ops"])
            failed += traced_failed
            info["trace_file"] = str(trace_file.relative_to(ROOT))
            info["patched"] = traced["patched"]
            metrics = per_layer(trace_file, traced_times, times)
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1

    info["failures"] = dict(checker.failures)
    info["failure_examples"] = checker.examples
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
