"""One benchmark process: import the package, build the deck, make one pass.

    python3 perfbench/worker.py --workload W --seed S --rounds R [--trace-out FILE]

Each pass over the deck runs in a fresh process, so no state the package
keeps between operations carries from one pass to the next. With
``--trace-out`` the pass records spans around each layer's entry points and
writes them to FILE.

After each operation, outside its timing, the worker times one run of
``calibration``: fixed work that uses nothing from the package. Those times
track how fast the machine runs Python at that moment, so the parent can
take out the machine's slow phases (see ``run.py``).

The last line of standard output is one JSON object: the monotonic time at
which the first operation was ready, the per-operation latencies, answer
digests and errors, the distinct answers, the calibration times, and the
peak resident memory of this process. The parent process checks the
answers; nothing here imports the oracles, so the measured process holds
only the package.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from fractions import Fraction

from workloads import make_deck

from scheme_explorer import arith, cli, dsl, proj
from scheme_explorer.errors import SchemeError
from scheme_explorer.multipoly import PolyRing


def _qi_poly(ring, coeffs):
    terms = {}
    for k, (a, b) in enumerate(coeffs):
        c = arith.up_norm(arith.QQ, (Fraction(a), Fraction(b)))
        if c:
            terms[(k,)] = c
    return ring.from_dict(terms)


def _pair(c):
    c = tuple(c) + (Fraction(0),) * (2 - len(c))
    return [str(c[0]), str(c[1])]


def _qi_answer(fac):
    factors = []
    for poly, mult in fac.factors:
        dense = [()] * (poly.total_degree() + 1)
        for exps, c in poly.terms:
            dense[exps[0]] = c
        factors.append([[_pair(c) for c in dense], mult])
    return json.dumps({"unit": _pair(fac.unit), "factors": factors}, sort_keys=True)


def _kernel_answer(handle):
    return json.dumps({
        "names": list(handle.ambient.names),
        "generators": [str(g) for g in handle.generators],
    }, sort_keys=True)


class Runner:
    """Executes deck operations; times only the call into the package."""

    def __init__(self):
        self.qi_ring = PolyRing(arith.ExtField(arith.QQ, (1, 0, 1), var="i"), ("X",))

    def run(self, op):
        """(latency seconds, answer text); the call alone is timed."""
        clock = time.perf_counter
        if op.is_statement:
            start = clock()
            records, _ = cli.run_script(dsl.parse(op.text))
            answer = cli.render_json(records)
            return clock() - start, answer
        if op.kind == "qi_factor":
            f = _qi_poly(self.qi_ring, op.params["coeffs"])
            start = clock()
            fac = arith.factor_univariate(f)
            latency = clock() - start
            return latency, _qi_answer(fac)
        p = op.params["p"]
        base = arith.QQ if p is None else arith.GF(p)
        entry = getattr(proj, f"{op.params['which']}_kernel")
        start = clock()
        handle = entry(base, *op.params["args"])
        latency = clock() - start
        return latency, _kernel_answer(handle)


def _error_name(err):
    if isinstance(err, SchemeError):
        return f"SchemeError[{err.code}]"
    return type(err).__name__


def calibration():
    """Fixed pure-Python work: allocation, hashing and sorting of small
    objects, about 1 ms. It uses nothing from the package, and the
    collector is off while it runs, so its time does not depend on what the
    package keeps in memory."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        items = [(i, str(i), [i] * 3) for i in range(1500)]
        index = {item[1]: item for item in items}
        return len(sorted(index, key=lambda k: (len(k), k)))
    finally:
        if enabled:
            gc.enable()


def loop(deck, runner):
    """Closed loop: one pass over the deck, one operation at a time, each
    followed by one timed run of ``calibration``."""
    clock = time.perf_counter
    ops = []
    answers = {}
    calibration_s = []
    for rnd, ops_of_round in enumerate(deck):
        for pos, op in enumerate(ops_of_round):
            t0 = clock()
            try:
                latency, answer = runner.run(op)
            except Exception as err:  # a failed operation must not end the run
                latency = clock() - t0
                ops.append([rnd, pos, latency, None, f"{_error_name(err)}: {err}"[:300]])
            else:
                digest = hashlib.sha1(answer.encode()).hexdigest()[:20]
                answers.setdefault(digest, answer)
                ops.append([rnd, pos, latency, digest, None])
            c0 = clock()
            calibration()
            calibration_s.append(clock() - c0)
    return {"ops": ops, "answers": answers, "calibration_s": calibration_s}


def peak_rss_mb():
    """High-water mark of this process image's resident set. Unlike
    ``ru_maxrss``, VmHWM starts afresh at exec, so the parent's memory
    does not leak into it."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    deck = make_deck(args.workload, args.seed, args.rounds)
    runner = Runner()
    out = {"ready": time.monotonic()}
    if args.trace_out is None:
        out.update(loop(deck, runner))
    else:
        import tracer

        t = tracer.Tracer()
        out["patched"] = tracer.install(t)
        out.update(loop(deck, runner))
        t.dump(args.trace_out)
    out["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
