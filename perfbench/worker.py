"""One benchmark worker: set up, run a closed loop of items, report.

Started by run.py as a fresh single-threaded process with ``src`` on the
path.  It imports hyperinv, generates the workload's corpus, runs one
untimed warm-up item, then prints ``ready`` and flushes, so the parent can
time set-up from process start.  With ``--setup-only`` it exits there.

Otherwise it calls one item after another, with one caller, for
``--seconds`` of loop time, timing a fixed reference computation after
each item and pausing now and then for a probe (probes.py).  It then
checks every answer against the recorded ones and the workload's own
checks, and prints one JSON line with the metrics of its mode; timings of
the untraced mode are scaled by the host speed the reference measured.  With
``--trace 1`` the loop runs with spans installed; afterwards, alternating
traced and untraced calls give the tracing overhead, and an untimed pass
asks the numeric oracle for the reduced order of each distinct item seen.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import traceback
from collections import namedtuple
from time import perf_counter

import hyperinv
from hyperinv._kernel import available_backends
from hyperinv.errors import HyperinvError

import workloads
from probes import REF_NOMINAL_S, Probes, reference
from spans import ITEM, Recorder

MIN_SAMPLES = 100  # so that the 90th percentile has ten samples beyond it
COVERAGE_MIN = 0.95
REF_WINDOW = 5  # calls on each side of a sample that its host speed uses

# end: when the item ended, in loop time; ref: the reference() call after it
Sample = namedtuple("Sample", "index wall outcome end ref")


def host_speeds(samples):
    """Per sample: REF_NOMINAL_S over the median nearby reference time.

    Below 1 when the host ran slow.  A timing times its sample's speed is
    the time the reference host would have taken.
    """
    refs = [s.ref for s in samples]
    return [REF_NOMINAL_S / statistics.median(refs[max(k - REF_WINDOW, 0):k + REF_WINDOW + 1])
            for k in range(len(refs))]


def attempt(call, item):
    """The item's answer, or an error string when the item raised."""
    try:
        return call(item)
    except HyperinvError as exc:
        return f"{type(exc).__name__}: {exc}"
    except Exception:  # a defect, not a verdict: count it and go on
        return traceback.format_exc(limit=3)


def run_loop(workload, seed, seconds, call, probes=None):
    """Closed loop for ``seconds`` of loop time, pausing for the probes.

    After every item, reference() is timed.  Loop time leaves it and the
    probes out.  Probe k runs after the first item that ends past
    (k + 1/2) * seconds / len(tasks) of loop time; probes still pending at
    the deadline run then.  Returns the Samples and the loop time.  Items
    that end after the deadline are not counted, unless fewer than
    MIN_SAMPLES, or less than one whole pass, have ended by then: then the
    loop goes on until both have, so that every run sees every item.
    """
    min_samples = max(MIN_SAMPLES, len(workload.items))
    tasks = probes.tasks if probes else []
    pending = list(tasks)
    samples = []
    start = perf_counter()
    paused = 0.0
    pass_index = 0
    while True:
        for i in workloads.pass_order(workload.items, seed, pass_index):
            t0 = perf_counter()
            outcome = attempt(call, workload.items[i])
            t1 = perf_counter()
            now = t1 - start - paused
            if now > seconds and len(samples) >= min_samples:
                for probe in pending:
                    probe()
                return samples, now
            reference()
            samples.append(Sample(i, t1 - t0, outcome, now, perf_counter() - t1))
            if pending and now >= (len(tasks) - len(pending) + 0.5) * seconds / len(tasks):
                pending.pop(0)()
            paused += perf_counter() - t1
        pass_index += 1


def check_answers(workload, samples):
    """Count failed samples: raised, differs from the record, or fails a check."""
    recorded = workload.recorded()
    failed = 0
    reported = set()
    for i, _, outcome, *_ in samples:
        item = workload.items[i]
        if isinstance(outcome, str):
            problems = [outcome]
        elif item["key"] not in recorded:
            problems = ["no recorded answer"]
        else:
            problems = workload.check(item, outcome)
            if outcome != recorded[item["key"]]:
                problems.append(f"answer {outcome} differs from recorded "
                                f"{recorded[item['key']]}")
        if problems:
            failed += 1
            if i not in reported:
                reported.add(i)
                print(f"{workload.name} item {item['key']}: {'; '.join(problems)}",
                      file=sys.stderr)
    return failed


def oracle_agreement(workload, samples):
    """Share of distinct items whose oracle order equals the exact one.

    Items where the exact pipeline names no reduced order are left out; an
    oracle that raises counts as disagreeing.
    """
    seen = {}
    for i, _, outcome, *_ in samples:
        if not isinstance(outcome, str) and workload.exact_order(outcome) is not None:
            seen[i] = outcome
    agree = 0
    for i, answer in seen.items():
        try:
            order = workload.oracle_order(workload.items[i], answer)
        except HyperinvError:
            continue
        agree += order == workload.exact_order(answer)
    return agree / len(seen) if seen else 0.0


def tracing_overhead(workload, samples, rec, traced_call, budget):
    """Traced over untraced time of the loop's first items, minus one.

    Each item runs once each way, the order alternating from item to item,
    until both together have taken ``budget`` seconds.
    """
    spent = {False: 0.0, True: 0.0}
    for n, (i, *_) in enumerate(samples):
        for traced in ((False, True) if n % 2 else (True, False)):
            if traced:
                rec.install()
            t0 = perf_counter()
            attempt(traced_call if traced else workload.run, workload.items[i])
            spent[traced] += perf_counter() - t0
            rec.uninstall()
        if spent[False] + spent[True] > budget:
            break
    return spent[True] / spent[False] - 1


def quantile(values, q):
    """The q-th of 100 quantiles, interpolated inside the data range."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(times):
    """The loop's end-to-end metrics as {name: (value, unit)}."""
    return {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "item_ms_p90": (quantile(times, 90) * 1e3, "ms"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    workload.run(workload.items[0])  # warm-up
    print("ready", flush=True)
    if args.setup_only:
        return 0

    probes = Probes(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds)], args.trace)
    meta = {
        "backend": hyperinv.BACKEND,
        "available_backends": available_backends(),
        "hyperinv_version": hyperinv.__version__,
        "python": platform.python_version(),
        "corpus_seed": workload.corpus_seed,
        "corpus_items": len(workload.items),
    }
    problems = []
    if args.trace:
        rec = Recorder()
        traced_call = rec.wrap(ITEM, workload.run)
        rec.install()
        samples, loop_s = run_loop(workload, args.seed, args.seconds, traced_call,
                                   probes)
        rec.uninstall()
        values = rec.metrics()
        coverage = rec.stats[ITEM].total_ns / 1e9 / loop_s
        values["trace.coverage_frac"] = (coverage, "fraction")
        if coverage < COVERAGE_MIN:
            problems.append(f"trace coverage {coverage:.3f} below {COVERAGE_MIN}")
        unexercised = rec.unexercised(args.workload)
        if unexercised:
            problems.append("spans with no call: " + ", ".join(unexercised))
        values["trace.overhead_frac"] = (tracing_overhead(
            workload, samples, rec, traced_call, args.seconds / 3), "fraction")
        values["oracle.agree_frac"] = (oracle_agreement(workload, samples), "fraction")
        values.update(probes.layer_metrics())
    else:
        samples, _ = run_loop(workload, args.seed, args.seconds, workload.run, probes)
        speeds = host_speeds(samples)
        values = end_to_end([s.wall * f for s, f in zip(samples, speeds)])
        values["cli_ms_p50"] = (probes.session_ms_p50(scaled=True), "ms")
        values["setup_s"] = (probes.setup_s(scaled=True), "s")
        unscaled = end_to_end([s.wall for s in samples])
        unscaled["cli_ms_p50"] = (probes.session_ms_p50(scaled=False), "ms")
        unscaled["setup_s"] = (probes.setup_s(scaled=False), "s")
        meta["host_speed"] = statistics.median(speeds)
        meta["unscaled"] = {name: value for name, (value, _) in unscaled.items()}
    failed = check_answers(workload, samples)
    values["ok_frac"] = (1 - failed / len(samples), "fraction")
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    if probes.wrong_sessions:
        problems.append(f"{probes.wrong_sessions} CLI sessions gave a wrong answer")
    meta["item_samples"] = len(samples)
    meta["cli_sessions"] = len(probes.sessions)
    print(json.dumps({
        "meta": meta,
        "values": values,
        "attempted": len(samples),
        "failed": failed,
        "problems": problems,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
