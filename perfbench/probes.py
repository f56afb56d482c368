"""Cold-start probes: fresh processes timed in pauses of the item loop.

A probe runs while the loop waits, so it never shares the processor with
an item.  The probes are spread over the whole loop, so a slow spell of the
host weighs on them no more than on the items, and each one notes the host
speed just before and after it, so that its time can be scaled like the
items' times.
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI = [sys.executable, "-m", "hyperinv.cli"]
COMMANDS = ("rational-model", "classify", "oracle")
SETUPS = 5  # set-ups timed per run
CLI_POINTS = 5  # genus-2 descent locus points, one CLI session each
LIMIT_S = 60
# One reference() call on an unloaded Intel Xeon 2.1 GHz vCPU under
# Python 3.11.7: timings are scaled to the host speed this stands for.
REF_NOMINAL_S = 0.00225


def reference():
    """Fixed pure-Python exact arithmetic that measures the host's speed.

    Rational Horner evaluation: the kind of work the library's hot path
    does, in code that no change to the library touches.  A shared host
    slows it down with everything else.
    """
    coeffs = [Fraction(7 * k - 3, k + 2) for k in range(12)]
    acc = Fraction(0)
    for j in range(1, 61):
        x, v = Fraction(j, 7), Fraction(0)
        for a in reversed(coeffs):
            v = v * x + a
        acc += v
    return acc


def host_speed(calls=5):
    """REF_NOMINAL_S over the median of ``calls`` reference() times, now."""
    times = []
    for _ in range(calls):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return REF_NOMINAL_S / statistics.median(times)


def timed_run(cmd, stdin_text=None):
    """Run a command to completion; returns (wall s, stdout, exit code)."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, input=stdin_text, capture_output=True, text=True,
                          cwd=ROOT, timeout=LIMIT_S)
    return perf_counter() - t0, proc.stdout, proc.returncode


def setup_time(worker_argv):
    """Start a set-up-only worker; seconds from process start to "ready"."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *worker_argv, "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or code != 0:
        raise RuntimeError(f"set-up worker failed (exit {code})")
    return elapsed


def cli_points():
    """The first CLI_POINTS genus-2 descent points with a named group."""
    points = [(key, answer["label"])
              for key, answer in workloads.recorded_answers("descent").items()
              if key.count(",") == 1 and answer["order"] is not None]
    return points[:CLI_POINTS]


class Probes:
    """The probes of one run and what they measured.

    ``tasks`` are the probe callables, their kinds interleaved so that each
    kind spreads over the loop: set-ups (untraced runs), CLI sessions, and
    bare-interpreter/import pairs (traced runs).
    """

    def __init__(self, worker_argv, trace):
        self.worker_argv = worker_argv
        self.setups = []  # (wall s, host speed)
        self.sessions = []  # ({command: wall s}, host speed) per CLI session
        self.wrong_sessions = 0
        self.bare, self.imports = [], []
        kinds = [[lambda u=u, label=label: self.cli_session(u, label)
                  for u, label in cli_points()]]
        if trace:
            kinds.append([self.import_pair] * CLI_POINTS)
        else:
            kinds.append([self.setup] * SETUPS)
        self.tasks = [t for group in itertools.zip_longest(*kinds)
                      for t in group if t is not None]

    def setup(self):
        before = host_speed()
        elapsed = setup_time(self.worker_argv)
        self.setups.append((elapsed, (before + host_speed()) / 2))

    def cli_session(self, u, label):
        """rational-model --u, then its report piped to classify and oracle."""
        before = host_speed()
        times = {}
        times["rational-model"], report, code = timed_run(
            CLI + ["rational-model", f"--u={u}"])
        ok = code == 0 and json.loads(report)["result"]["verified"]
        times["classify"], out_cls, code_cls = timed_run(CLI + ["classify", "-"], report)
        times["oracle"], out_orc, code_orc = timed_run(CLI + ["oracle", "-"], report)
        ok = (ok and code_cls == 0 and code_orc == 0
              and json.loads(out_cls)["result"]["group"] == label
              and json.loads(out_orc)["result"]["label"] == label)
        self.sessions.append((times, (before + host_speed()) / 2))
        self.wrong_sessions += not ok

    def import_pair(self):
        self.bare.append(timed_run([sys.executable, "-c", "pass"])[0])
        self.imports.append(timed_run([sys.executable, "-c", "import hyperinv.cli"])[0])

    def session_ms_p50(self, scaled):
        """Median session wall time, scaled by the host speed or not."""
        return statistics.median(sum(times.values()) * (speed if scaled else 1)
                                 for times, speed in self.sessions) * 1e3

    def setup_s(self, scaled):
        """Median set-up time, scaled by the host speed or not."""
        return statistics.median(t * (speed if scaled else 1) for t, speed in self.setups)

    def layer_metrics(self):
        out = {f"cli.{cmd}.ms_p50": (
            statistics.median(times[cmd] for times, _ in self.sessions) * 1e3, "ms")
            for cmd in COMMANDS}
        out["cli.import_ms"] = (
            (statistics.median(self.imports) - statistics.median(self.bare)) * 1e3, "ms")
        return out
