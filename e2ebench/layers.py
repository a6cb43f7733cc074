"""The traced run's layer attribution: cells rebuilt from public calls.

Each cell of a workload is replayed by the benchmark as the calls the
program makes for it, with a span around each call:

* ``execute`` cell (``suite_execute``): stage, execute ``Gpu.run_all``,
  verify, ``merge_all``;
* ``capture`` cell (first cell of a functional group in a sweep or on
  the daemon): stage, capture ``run_all``, verify, ``merge_all``,
  ``TraceStore.put``;
* ``replay`` cell: ``TraceStore.get`` with a cold memo, stage, replay
  ``run_all``, ``merge_all``.

Work the cell needs only to be *attributed* runs under a ``probe``
span with the same key, outside the cell: for an executing cell, the
capture or plain execute it lacks plus a replay of the same trace.
That splits ``run_all`` into semantics (execute minus replay), trace
encoding (capture minus execute) and timing (replay).  Compilation
runs once per workload, split into frontend and finalizer.

Every rebuilt cell must produce the statistics the program reported
for it (``run_workload`` through the public entry points); a cell
that does not, or whose replay differs from its execution, fails.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads as wl
from calc import median
from tracer import Tracer

from repro.common.stats import StatSet, merge_all
from repro.finalizer.finalize import finalize
from repro.harness.cache import (
    ResultCache,
    TraceStore,
    clear_trace_memo,
    job_fingerprint,
    trace_fingerprint,
)
from repro.harness.figures import ALL_FIGURES
from repro.harness.runner import SuiteResults, WorkloadRun
from repro.hsail.codegen import compile_hsail
from repro.runtime.process import GpuProcess
from repro.timing import Gpu
from repro.timing.replay import TraceRecorder
from repro.workloads import create

#: simulated memory of a staged process, as the program sizes it
MEMORY_CAPACITY = 1 << 25

#: timing-layer counts (metric suffix -> statistic), summed over cells
TIMING_COUNTS = {"cycles": "cycles", "instructions": "dynamic_instructions",
                 "vrf_bank_conflicts": "vrf_bank_conflicts",
                 "ifetch_misses": "ifetch_misses",
                 "dram_accesses": "dram_accesses"}


class Plan:
    """One cell to rebuild: where, in which role, against what result."""

    __slots__ = ("workload", "isa", "config", "role", "key", "reference")

    def __init__(self, workload: str, isa: str, config, role: str, key: str,
                 reference: Dict[str, object]) -> None:
        self.workload = workload
        self.isa = isa
        self.config = config
        self.role = role
        self.key = key
        #: the program's ``WorkloadRun.to_payload()`` for this cell
        self.reference = reference


def same_stats(run_payload: Dict[str, object], total: StatSet,
               per_dispatch: List[StatSet], verified: bool) -> bool:
    return (bool(run_payload["verified"]) == verified
            and run_payload["total"] == total.to_payload()
            and run_payload["per_dispatch"]
            == [s.to_payload() for s in per_dispatch])


class Decomposer:
    def __init__(self, tracer: Tracer, work: Path, scale: float,
                 seed: int, cache_put: bool) -> None:
        self.tracer = tracer
        self.scale = scale
        self.seed = seed
        self.store = TraceStore(str(work / "traces"))
        self.cache = ResultCache(str(work / "cache")) if cache_put else None
        self.counts: Dict[str, float] = {}
        self.runs: Dict[Tuple[str, str], WorkloadRun] = {}
        self.attempted = 0
        self.failed = 0

    # -- calls ---------------------------------------------------------------

    def compile(self, name: str) -> None:
        """Frontend (IR build + HSAIL codegen) and finalizer, timed
        apart; the process-wide compile memo is then filled outside the
        cell spans, so staging times staging only."""
        workload = create(name, scale=self.scale, seed=self.seed)
        span = self.tracer.span
        with span("compile.frontend", name):
            hsail = {k: compile_hsail(ir)
                     for k, ir in workload.build_kernels().items()}
        with span("compile.finalize", name):
            gcn3 = {k: finalize(h) for k, h in hsail.items()}
        self._count("compile.kernels", len(hsail))
        self._count("compile.static_instr.hsail",
                    sum(k.static_instructions for k in hsail.values()))
        self._count("compile.static_instr.gcn3",
                    sum(k.static_instructions for k in gcn3.values()))
        with span("probe", f"memo:{name}"):
            workload.kernels()

    def _count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def _stage(self, cell: Plan):
        workload = create(cell.workload, scale=self.scale, seed=self.seed)
        process = GpuProcess(cell.isa, memory_capacity=MEMORY_CAPACITY)
        with self.tracer.span("runtime.stage", cell.key):
            workload.stage(process, cell.isa)
        return workload, process

    def _run(self, name: str, cell: Plan, **kwargs) -> tuple:
        workload, process = self._stage(cell)
        recorder = TraceRecorder() if name == "gpu.capture" else None
        with self.tracer.span(name, cell.key):
            per_dispatch = Gpu(cell.config, process, recorder=recorder,
                               **kwargs).run_all()
        return workload, process, per_dispatch, recorder

    def _verify(self, cell: Plan, workload, process) -> bool:
        with self.tracer.span("runtime.verify", cell.key):
            return workload.verify(process)

    def _merge(self, cell: Plan, per_dispatch) -> StatSet:
        with self.tracer.span("fold.merge", cell.key):
            return merge_all(per_dispatch)

    def _fingerprint(self, cell: Plan) -> str:
        return trace_fingerprint(cell.config, cell.workload, cell.isa,
                                 self.scale, self.seed)

    def _put(self, cell: Plan, workload, process, recorder,
             verified: bool) -> None:
        kernels = {k: d.for_isa(cell.isa)
                   for k, d in workload.kernels().items()}
        trace = recorder.finish({
            "workload": cell.workload, "isa": cell.isa,
            "scale": self.scale, "seed": self.seed,
            "functional_fingerprint": cell.config.functional_fingerprint(),
            "verified": verified,
            "data_footprint_bytes": process.data_footprint_bytes,
            "static_instructions": sum(k.static_instructions
                                       for k in kernels.values()),
            "kernel_code_bytes": {k: v.code_bytes
                                  for k, v in kernels.items()},
        })
        with self.tracer.span("trace.put", cell.key):
            stored = self.store.put(self._fingerprint(cell), trace)
        if not stored:
            raise RuntimeError(f"trace store refused {cell.key}")

    def _get(self, cell: Plan):
        clear_trace_memo()
        with self.tracer.span("trace.get", cell.key):
            trace = self.store.get(self._fingerprint(cell))
        if trace is None:
            raise RuntimeError(f"no stored trace for {cell.key}")
        return trace

    def _replay(self, cell: Plan) -> List[StatSet]:
        trace = self._get(cell)
        _w, _p, per_dispatch, _r = self._run("gpu.replay", cell, replay=trace)
        return per_dispatch

    # -- cells ---------------------------------------------------------------

    def cell(self, cell: Plan) -> None:
        span = self.tracer.span
        replayed: Optional[List[StatSet]] = None
        with span("cell", cell.key) as cell_sid:
            if cell.role == "replay":
                trace = self._get(cell)
                workload, process, per_dispatch, _r = self._run(
                    "gpu.replay", cell, replay=trace)
                verified = trace.verified
                replayed = per_dispatch
            else:
                name = "gpu.capture" if cell.role == "capture" else "gpu.execute"
                workload, process, per_dispatch, recorder = self._run(name, cell)
                verified = self._verify(cell, workload, process)
            total = self._merge(cell, per_dispatch)
            if cell.role == "capture":
                self._put(cell, workload, process, recorder, verified)
        with span("probe", cell.key):
            if cell.role == "execute":
                pw, pp, _pd, precorder = self._run("gpu.capture", cell)
                self._put(cell, pw, pp, precorder, verified)
            elif cell.role == "capture":
                self._run("gpu.execute", cell)
            if replayed is None:
                replayed = self._replay(cell)
        self.attempted += 1
        if not (same_stats(cell.reference, total, per_dispatch, verified)
                and [s.to_payload() for s in replayed]
                == [s.to_payload() for s in per_dispatch]):
            self.failed += 1
        snapshot = total.snapshot()
        for metric, counter in TIMING_COUNTS.items():
            self._count(f"timing.{metric}", snapshot.get(counter, 0))
        self._count("timing.l1d_misses", sum(
            v for k, v in snapshot.items()
            if k.startswith("l1d") and k.endswith("_misses")))
        run = WorkloadRun(
            workload=cell.workload, isa=cell.isa, verified=verified,
            total=total, per_dispatch=per_dispatch,
            dispatch_kernel_names=[d.kernel.name for d in process.dispatches],
            data_footprint_bytes=int(cell.reference["data_footprint_bytes"]),
            instr_footprint_bytes=sum(
                cell.reference["kernel_code_bytes"].values()),
            static_instructions=int(cell.reference["static_instructions"]),
            kernel_code_bytes=dict(cell.reference["kernel_code_bytes"]),
            wall_seconds=(self.tracer.spans[cell_sid].end
                          - self.tracer.spans[cell_sid].start),
            execution=cell.role)
        self.runs[(cell.workload, cell.isa)] = run
        if self.cache is not None:
            with span("harness.cache_put", cell.key):
                self.cache.put(job_fingerprint(cell.config, cell.workload,
                                               cell.isa, self.scale,
                                               self.seed),
                               run, config_fingerprint=cell.config.fingerprint())

    def figures(self) -> None:
        results = SuiteResults(scale=self.scale)
        results.runs.update(self.runs)
        with self.tracer.span("fold.figures"):
            for build in ALL_FIGURES.values():
                build(results)

    def run(self, plan: List[Plan], figures: bool = False) -> None:
        """Rebuild every cell: captures first, as the program runs them."""
        with self.tracer.span("pass"):
            for name in sorted({c.workload for c in plan}):
                self.compile(name)
            for cell in sorted(plan, key=lambda c: c.role != "capture"):
                self.cell(cell)
            if figures:
                self.figures()

    # -- attribution ---------------------------------------------------------

    def metrics(self, untraced_op_s: float) -> Dict[str, float]:
        """Per-layer self times (ms), counts and shares of this pass;
        ``untraced_op_s`` is the wall of the operation it rebuilds."""
        tr = self.tracer
        cells = tr.by_key("cell")
        probes = tr.by_key("probe")
        selfs = tr.self_times()
        ms: Dict[str, float] = {}
        for span in tr.spans:
            ms[span.name] = ms.get(span.name, 0.0) + 1000.0 * selfs[span.sid]

        def call(key: str, name: str) -> float:
            return cells.get(key, {}).get(name, probes.get(key, {}).get(name, 0.0))

        keys = list(cells)
        semantics = sum(call(k, "gpu.execute") - call(k, "gpu.replay")
                        for k in keys if call(k, "gpu.execute"))
        encode = sum(call(k, "gpu.capture") - call(k, "gpu.execute")
                     for k in keys if call(k, "gpu.capture"))
        timing = sum(call(k, "gpu.replay") for k in keys)
        pass_span = next(s for s in tr.spans if s.name == "pass")
        probe_wall = sum(s.end - s.start for s in tr.spans if s.name == "probe")
        op_wall = (pass_span.end - pass_span.start) - probe_wall
        cell_wall = sum(s.end - s.start for s in tr.spans if s.name == "cell")
        cell_self = sum(selfs[s.sid] for s in tr.spans if s.name == "cell")
        stage = sum(c.get("runtime.stage", 0.0) for c in cells.values())
        verify = sum(c.get("runtime.verify", 0.0) for c in cells.values())
        out = {
            "compile.frontend_ms": ms.get("compile.frontend", 0.0),
            "compile.finalize_ms": ms.get("compile.finalize", 0.0),
            "runtime.stage_ms": 1000.0 * stage,
            "runtime.verify_ms": 1000.0 * verify,
            "semantics.ms": 1000.0 * semantics,
            "semantics.share": semantics / op_wall,
            "timing.ms": 1000.0 * timing,
            "timing.cycles_per_s": self.counts.get("timing.cycles", 0) / timing,
            "trace.encode_ms": 1000.0 * encode,
            "trace.put_ms": ms.get("trace.put", 0.0),
            "trace.get_ms": ms.get("trace.get", 0.0),
            "trace.bytes": float(sum(
                entry["bytes"] for entry in self.store.breakdown().values())),
            "fold.merge_ms": ms.get("fold.merge", 0.0),
            "fold.figures_ms": ms.get("fold.figures", 0.0),
            "harness.cache_put_ms": ms.get("harness.cache_put", 0.0),
            "tracing.unaccounted_share": cell_self / cell_wall,
            "tracing.rebuild_share": op_wall / untraced_op_s,
            "tracing.cells": float(self.attempted),
        }
        out.update(self.counts)
        return out


# -- traced runs ---------------------------------------------------------------

#: served bursts per daemon in the traced run (20 requests each)
TRACE_BURSTS = 4

EXPLORE_ZERO = {"explore.overhead_ms": 0.0, "explore.captures": 0.0,
                "explore.replays": 0.0, "explore.replay_share": 0.0}
SERVE_ZERO = {"serve.submit_ms": 0.0, "serve.queue_s_p50": 0.0,
              "serve.run_s_p50": 0.0, "serve.batches": 0.0,
              "serve.batch_mean": 0.0, "serve.replay_share": 0.0,
              "serve.submit_lag_s": 0.0, "serve.backlog_end": 0.0}


def traced_batch(args, root: Path, work: Path, digest, ops_tracer: Tracer,
                 layer_tracer: Tracer) -> wl.Outcome:
    """Untraced and traced operations in turn (two rounds), then the
    layer split of the last traced operation's cells."""
    suite = args.workload == "suite_execute"
    op = wl.suite_op if suite else wl.sweep_op
    plain, spanned = [], []
    for i in range(2):
        plain.append(op(work, 2 * i, args.seed, digest))
        spanned.append(op(work, 2 * i + 1, args.seed, digest, ops_tracer))
    untraced_s = median(o.wall for o in plain)
    last = spanned[-1].detail
    if suite:
        config = wl.paper_config()
        plan = [Plan(w, isa, config, "execute", f"{w}/{isa}", run.to_payload())
                for (w, isa), run in last.runs.items()]
    else:
        plan = [Plan(w, isa, point.point.config, run.execution,
                     f"{point.point.point_id}:{w}/{isa}", run.to_payload())
                for point in last.points
                for (w, isa), run in point.runs.items()]
    dec = Decomposer(layer_tracer, work / "layers", wl.SCALE, args.seed,
                     cache_put=True)
    dec.run(plan, figures=suite)
    metrics = dec.metrics(untraced_s)
    metrics["tracing.overhead_share"] = (
        median(o.wall for o in spanned) / untraced_s - 1.0)
    metrics.update(SERVE_ZERO)
    if suite:
        metrics.update(EXPLORE_ZERO)
    else:
        op_span = max((s for s in ops_tracer.spans if s.name == "op"),
                      key=lambda s: s.start)
        metrics.update({
            "explore.overhead_ms":
                1000.0 * ops_tracer.self_times()[op_span.sid],
            "explore.captures": float(last.captures),
            "explore.replays": float(last.replays),
            "explore.replay_share":
                last.replays / (last.captures + last.replays),
        })
    ops = plain + spanned
    return (metrics, sum(o.attempted for o in ops) + dec.attempted,
            sum(o.failed for o in ops) + dec.failed)


def traced_serve(args, root: Path, work: Path, digest, ops_tracer: Tracer,
                 layer_tracer: Tracer) -> wl.Outcome:
    """The same bursts on two fresh daemons, each after its warm-up,
    untraced and traced in turn, then the layer split of every request
    the traced one served, its warm-up included."""
    daemons, _boots = wl.boot_daemons(root, work, 2)
    try:
        plain_client = wl.BurstClient(daemons[0], args.seed, digest)
        spanned_client = wl.BurstClient(daemons[1], args.seed, digest)
        warmups = [plain_client.warm_up(), spanned_client.warm_up()]
        plain, spanned = [], []
        for i in range(TRACE_BURSTS):
            plain.append(plain_client.op(i))
            spanned.append(spanned_client.op(i, ops_tracer))
    finally:
        for daemon in daemons:
            daemon.stop()
    untraced_s = sum(o.wall for o in plain)

    def finished(ops):
        return [(cell, status) for o in ops for cell, status in o.detail
                if status.finished and status.result]

    served = finished(spanned)
    # the traced daemon's warm-up captured the traces its bursts replayed
    plan = [Plan(w, isa, wl.l1d_config(l1d), status.execution, status.job_id,
                 status.result)
            for (w, isa, l1d), status in finished(warmups[1:]) + served]
    dec = Decomposer(layer_tracer, work / "layers", wl.SCALE, args.seed,
                     cache_put=False)
    dec.run(plan)
    metrics = dec.metrics(untraced_s)
    metrics["tracing.overhead_share"] = (sum(o.wall for o in spanned)
                                         / untraced_s - 1.0)
    metrics.update(EXPLORE_ZERO)
    statuses = [status for _cell, status in served]
    batches = {status.batch_id: status.batch_size for status in statuses}
    replays = sum(1 for s in statuses if s.execution == "replay")
    mediated = sum(1 for s in statuses if s.execution in ("capture", "replay"))
    metrics.update({
        "serve.submit_ms": 1000.0 * median(o.extra["submit_s"] for o in spanned),
        "serve.queue_s_p50": median(s.queue_seconds for s in statuses),
        "serve.run_s_p50": median(s.wall_seconds for s in statuses),
        "serve.batches": float(len(batches)),
        "serve.batch_mean": sum(batches.values()) / len(batches),
        "serve.replay_share": replays / mediated,
        "serve.submit_lag_s": median(o.extra["submit_lag_s"] for o in spanned),
        "serve.backlog_end": float(spanned[-1].extra["backlog"]),
    })
    ops = warmups + plain + spanned
    return (metrics, sum(o.attempted for o in ops) + dec.attempted,
            sum(o.failed for o in ops) + dec.failed)
