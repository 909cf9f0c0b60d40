"""Spans around calls into coagchain's public functions, for traced runs.

The tracer rebinds each listed function in every loaded ``coagchain``
module that holds it (the defining module included, so calls inside that
module are traced too), and ``ChainSpec.__init__`` on the class.  Calls
made while a span is open become its children.  Spans stay in memory
until the run ends, when ``dump`` gives them as one JSON-ready table.
Nothing is wrapped unless ``install`` is called, which only the traced
run does.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from metrics import self_times

# layer -> public functions ("module.function" or "module.Class.method")
LAYERS = {
    "model.build": ("model.build_impurity_junction",
                    "model.build_quench_junction", "model.validate_chain",
                    "model.ChainSpec.__init__"),
    "sweeps": ("sweeps.impurity_gap_sweep", "sweeps.quench_gap_sweep"),
    "oneparticle.one_particle_spectrum": (
        "oneparticle.one_particle_spectrum",),
    "oneparticle.block_matrix": ("oneparticle.pairing_residual",
                                 "oneparticle.script_matrix_negative_spectrum"),
    "oneparticle.modes": ("oneparticle.trivial_zero_modes",
                          "oneparticle.edge_modes", "oneparticle.bulk_mode"),
    "spins.identities": ("spins.verify_bulk_identity",
                         "spins.verify_junction_identity"),
    "spectrum.spectral_gap": ("spectrum.spectral_gap",),
    "spectrum.vacuum_energy": ("spectrum.vacuum_energy",),
    "spectrum.assemble_full_spectrum": ("spectrum.assemble_full_spectrum",),
    "generator.assemble_generator": ("generator.assemble_generator",),
    "generator.brute_force_spectrum": ("generator.brute_force_spectrum",),
    "generator.stationary_vectors": ("generator.stationary_vectors",),
    "gillespie.run": ("gillespie.run",),
    "verify.run_verification": ("verify.run_verification",),
}
OP_SPAN = "bench.op"        # the timed call; its self time is glue
CHECK_SPAN = "bench.check"  # output checks, outside the timed region
REPLAY_SPAN = "bench.replay"  # untraced re-runs that measure the overhead
GILLESPIE_SIZES = (8, 10, 200, 1000)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = -1
    raised: bool = False
    info: dict = field(default_factory=dict)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _info(layer, args, kwargs, result) -> dict:
    """Counts read off a call's arguments and result."""
    if layer == "oneparticle.one_particle_spectrum":
        return {"roots": len(result.bulk_roots), "route": result.route}
    if layer == "spectrum.spectral_gap":
        n_exc = len(_arg(args, kwargs, 0, "spectrum").bulk_roots) + 2
        odd = _arg(args, kwargs, 2, "par") == "odd"
        return {"candidates": n_exc if odd else n_exc * (n_exc - 1) // 2}
    if layer == "verify.run_verification":
        return {"failed": sum(1 for r in result if not r.passed),
                "skipped": sum(1 for r in result
                               if r.detail.startswith("skipped"))}
    if layer in ("generator.brute_force_spectrum",
                 "generator.stationary_vectors"):
        return {"dim": int(_arg(args, kwargs, 0, "gen").shape[0])}
    if layer == "gillespie.run":
        budget = _arg(args, kwargs, 2, "n_events")
        if result.absorbed:
            stop = "absorbed"
        elif result.n_events >= budget:
            stop = "budget"
        else:
            stop = "t_max"
        return {"events": result.n_events,
                "n": _arg(args, kwargs, 0, "spec").n_sites, "stop": stop}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._op = -1
        self.in_op = False

    # -- span bookkeeping -------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               op=self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op, self.in_op = op_id, True
        return self.open(OP_SPAN)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self._op, self.in_op = -1, False

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # only calls made inside an operation are traced; output
            # checks outside the timed region call through untraced
            if not tracer.in_op:
                return fn(*args, **kwargs)
            idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[idx].raised = True
                raise
            finally:
                tracer.close(idx)
            tracer.spans[idx].info = _info(layer, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "coagchain" or name.startswith("coagchain.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                parts = target.split(".")
                owner = importlib.import_module("coagchain." + parts[0])
                if len(parts) == 3:
                    owner = getattr(owner, parts[1])
                attr = parts[-1]
                orig = getattr(owner, attr)
                wrapper = self._wrap(layer, orig)
                holders = [owner] if len(parts) == 3 else \
                    [m for m in modules if m.__dict__.get(attr) is orig]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()


SPAN_FIELDS = ("name", "start", "end", "parent", "op", "raised", "info")


def dump(spans: list[Span], origin: float) -> dict:
    """Every span as one row of SPAN_FIELDS, times in seconds from
    ``origin``; ``parent`` is a row index and ``op`` the index of the
    operation the span ran in."""
    return {"fields": list(SPAN_FIELDS),
            "rows": [[s.name, s.start - origin, s.end - origin, s.parent,
                      s.op, s.raised, s.info] for s in spans]}


def layer_metrics(spans: list[Span], pairs, wall: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced pass.

    ``pairs`` holds the (traced, untraced) times of calls made with the
    wrappers and again right after without them; ``wall`` is the traced
    pass's wall time, output checks and untraced re-runs included.
    """
    self_s = self_times(spans)
    by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_s):
        by_layer[span.name] += own

    def calls(name):
        return [s for s in spans if s.name == name]

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (by_layer[layer], "s")
    out["bench.op.self_s"] = (by_layer[OP_SPAN], "s")
    out["bench.check.self_s"] = (by_layer[CHECK_SPAN], "s")
    out["bench.replay.self_s"] = (by_layer[REPLAY_SPAN], "s")

    ops = calls("oneparticle.one_particle_spectrum")
    done = [s for s in ops if not s.raised]
    out["oneparticle.one_particle_spectrum.calls"] = (len(ops), "count")
    out["oneparticle.one_particle_spectrum.failed"] = (
        len(ops) - len(done), "count")
    roots = sum(s.info["roots"] for s in done)
    busy = sum(s.end - s.start for s in done)
    out["oneparticle.roots_per_s"] = (roots / busy if busy else 0.0, "1/s")
    fallback = sum(1 for s in done if s.info["route"] != "secular")
    out["oneparticle.route_fallback_frac"] = (
        fallback / len(ops) if ops else 0.0, "ratio")

    out["spectrum.spectral_gap.candidates"] = (
        sum(s.info.get("candidates", 0) for s in
            calls("spectrum.spectral_gap")), "count")

    verifications = calls("verify.run_verification")
    out["verify.checks_failed"] = (
        sum(s.info.get("failed", 0) for s in verifications), "count")
    out["verify.checks_skipped"] = (
        sum(s.info.get("skipped", 0) for s in verifications), "count")
    out["verify.raised"] = (sum(s.raised for s in verifications), "count")

    dims = [s.info["dim"] for s in spans if "dim" in s.info]
    out["generator.dense_dim_max"] = (max(dims, default=0), "count")

    runs = [s for s in calls("gillespie.run") if not s.raised]
    events = sum(s.info["events"] for s in runs)
    busy = sum(s.end - s.start for s in runs)
    out["gillespie.events"] = (events, "count")
    out["gillespie.events_per_s"] = (events / busy if busy else 0.0, "1/s")
    for n in GILLESPIE_SIZES:
        sized = [s for s in runs if s.info["n"] == n]
        ev = sum(s.info["events"] for s in sized)
        t = sum(s.end - s.start for s in sized)
        out[f"gillespie.events_per_s.N{n}"] = (ev / t if t else 0.0, "1/s")
    for stop in ("budget", "absorbed", "t_max"):
        out[f"gillespie.stop.{stop}"] = (
            sum(1 for s in runs if s.info["stop"] == stop), "count")

    out["model.build.failed"] = (
        sum(s.raised for s in calls("model.build")), "count")

    # the median pair, not the summed times: the host's speed wanders by
    # a fifth over tens of seconds, so one long pair would swamp the sums
    out["trace.overhead_frac"] = (
        statistics.median(t / u for t, u in pairs) - 1.0 if pairs else 0.0,
        "ratio")
    # layer self times plus the benchmark's own spans, against wall time
    out["trace.accounted_frac"] = (
        sum(by_layer.values()) / wall if wall else 0.0, "ratio")
    return out
