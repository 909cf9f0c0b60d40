"""The measuring loop, the set-up probes, provenance and the report."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import metrics
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5          # this process plus four fresh probe processes
PROBE_TIMEOUT_S = 60
PAIR_MAX_S = 2.0           # traced calls shorter than this are re-run untraced


class SetupProbes:
    """Set-up time of this process plus fresh probe processes, each with
    the host's slowdown gauged right after it by the reference kernel.

    The probes run between calls, outside the timed region, at evenly
    spaced marks of the timed seconds, so that they sample the same
    stretch of the run as the calls do rather than one moment after it.
    """

    def __init__(self, workload: str, first: tuple[float, float],
                 seconds: float):
        self.workload = workload
        self.samples = [first]
        self.marks = [seconds * k / (SETUP_SAMPLES - 1)
                      for k in range(SETUP_SAMPLES - 1)]

    def _probe(self) -> tuple[float, float]:
        probe = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", self.workload, "--seed", "0", "--seconds", "0",
             "--trace", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True, cwd=ROOT)
        setup, slowdown = probe.stdout.strip().splitlines()[-1].split()
        return float(setup), float(slowdown)

    def due(self, timed: float) -> None:
        """Take the probes whose mark the timed seconds have passed."""
        while self.marks and timed >= self.marks[0]:
            self.marks.pop(0)
            self.samples.append(self._probe())

    def finish(self) -> list[tuple[float, float]]:
        self.due(float("inf"))
        return self.samples


def _time_call(op, tracer=None, op_id=-1):
    """Run one call, closed loop; returns (seconds, result, exception)."""
    start = time.perf_counter()
    span = tracer.begin_op(op_id) if tracer else None
    try:
        out, exc = op.call(), None
    except Exception as err:  # a raised call is a failed op, not a crash
        out, exc = None, err
    finally:
        if tracer:
            tracer.end_op(span)
    return time.perf_counter() - start, out, exc


def _classify(op, seconds, out, exc, tracer=None) -> metrics.OpOutcome:
    outcome = metrics.OpOutcome(op.slot, seconds)
    if exc is not None:
        outcome.raised = f"{type(exc).__name__}: {exc}"
        return outcome
    span = tracer.open(spans.CHECK_SPAN) if tracer else None
    try:
        fields = op.classify(out)
    finally:
        if tracer:
            tracer.close(span)
    for key, value in fields.items():
        setattr(outcome, key, value)
    return outcome


def _run(rounds, seconds: float, tracer=None, probes=None, host=None):
    """Closed loop over whole rounds until the timed calls add up to
    ``seconds``.  With a tracer (installed by the caller), a call that took
    less than PAIR_MAX_S runs again right after with the wrappers removed;
    those pairs give the tracing overhead.  Set-up probes and the host
    speed kernel, if given, run between calls.  Returns the outcomes and
    the (traced, untraced) time of each pair."""
    outcomes, timed, paired = [], 0.0, []
    for batch in rounds:
        for op in batch:
            dt, out, exc = _time_call(op, tracer, len(outcomes))
            timed += dt
            outcomes.append(_classify(op, dt, out, exc, tracer))
            if tracer and dt < PAIR_MAX_S:
                tracer.uninstall()
                span = tracer.open(spans.REPLAY_SPAN)
                paired.append((dt, _time_call(op)[0]))
                tracer.close(span)
                tracer.install()
            if host:
                host.after_call(dt)
            if probes:
                probes.due(timed)
        if timed >= seconds:
            return outcomes, paired


def _openblas_threads() -> dict[str, int]:
    import ctypes
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def _provenance(workload, seed, outcomes) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "coagchain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = _openblas_threads()
    except OSError:
        blas = {}
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "ops_per_slot": dict(Counter(o.slot for o in outcomes)),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas,
    }


def _end_to_end(outcomes, setup, slowdown) -> tuple[dict, dict]:
    """Gated metrics (name -> (value, unit)) and the reported extras.
    ``setup`` holds (seconds, host slowdown) pairs; ``slowdown`` is the
    host's over the loop's short calls.  Set-up and short calls are
    divided by the slowdown, which puts them at the nominal host speed;
    long calls count as measured (see reference.LONG_S)."""
    times = [o.seconds for o in outcomes]
    busy = sum(times)
    nominal = sum(t if t >= reference.LONG_S else t / slowdown for t in times)
    gated = {
        "setup_s": (statistics.median(s / w for s, w in setup), "s"),
        "ops_per_s_norm": (len(times) / nominal, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    extra = {"setup_s_raw": (statistics.median(s for s, _ in setup), "s"),
             "ops_per_s": (len(times) / busy, "1/s"),
             "host_slowdown": (slowdown, "ratio"),
             "op_ms_p50": (1000 * statistics.median(times), "ms"),
             "failed_frac": (metrics.failed_frac(outcomes), "ratio")}
    tail = metrics.tail(times)
    if tail is not None:
        pct, value, n = tail
        extra["op_ms_tail"] = (1000 * value, "ms", {"percentile": pct,
                                                    "samples": n})
    events = sum(o.events for o in outcomes)
    if events:
        extra["events_per_s"] = (events / busy, "1/s")
    return gated, extra


def _slot_details(outcomes) -> dict:
    out = {}
    for o in outcomes:
        d = out.setdefault(o.slot, {"ops": 0, "failed": 0, "ms": [],
                                    "failures": []})
        d["ops"] += 1
        d["ms"].append(round(1000 * o.seconds, 3))
        if o.failed:
            d["failed"] += 1
            parts = (o.raised, o.error_point,
                     o.failed_checks and "FAIL " + ", ".join(o.failed_checks),
                     o.check_errors and "check: " + "; ".join(o.check_errors))
            reason = " | ".join(p for p in parts if p)
            if reason not in d["failures"]:
                d["failures"].append(reason)
    for d in out.values():
        d["ms_p50"] = statistics.median(d.pop("ms"))
    return out


def _print_table(title, rows) -> None:
    print(f"# {title}")
    for name, (value, unit, *more) in rows.items():
        note = f"  {json.dumps(more[0])}" if more else ""
        print(f"#   {name:48s} {value:>16.6g} {unit}{note}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        first_setup: tuple[float, float]) -> int:
    rng = np.random.default_rng([zlib.crc32(workload.encode()), seed])
    rounds = workloads.WORKLOADS[workload](rng)
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            outcomes, pairs = _run(rounds, seconds, tracer)
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - start
        reported = spans.layer_metrics(tracer.spans, pairs, wall)
        extra = {}
    else:
        probes = SetupProbes(workload, first_setup, seconds)
        host = reference.HostSpeed()
        outcomes, _ = _run(rounds, seconds, probes=probes, host=host)
        reported, extra = _end_to_end(outcomes, probes.finish(),
                                      host.slowdown())

    attempted, failed = metrics.failure_counts(outcomes)
    correct = not any(o.check_errors for o in outcomes)
    _print_table(f"{workload} seed={seed} "
                 f"{'per-layer (traced)' if trace else 'end-to-end'}",
                 {**reported, **extra})
    print(f"# attempted={attempted} failed={failed} correct={correct}")
    details = {"provenance": _provenance(workload, seed, outcomes),
               "slots": _slot_details(outcomes),
               "extra": {k: v[0] for k, v in extra.items()}}
    if "op_ms_tail" in extra:
        details["extra"]["op_ms_tail_at"] = extra["op_ms_tail"][2]
    if trace:
        print(json.dumps({"spans": spans.dump(tracer.spans, start)}))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit, *_) in reported.items()},
    }))
    return 0
