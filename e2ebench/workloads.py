"""The three end-to-end workloads and the loop that times them.

Each timed operation reaches the program only through public calls:
``Session.suite`` plus ``harness.figures`` (``suite_execute``),
``Session.sweep`` (``sweep_replay``), and ``DaemonClient`` against a
``repro serve`` subprocess (``serve_burst``).  Every operation returns
the cells it attempted, the ones that failed the correctness gate, the
simulated dynamic instructions it produced and, per cell, the seconds
from the release of its batch to its completion.
"""

from __future__ import annotations

import os
import resource
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from calc import (
    BURST_SIZE,
    SERVE_L1D,
    beyond,
    cell_key,
    digest_mismatch,
    median,
    percentile,
    serve_mix,
    serve_warmup,
    stats_digest,
    tail_percentile,
)
from tracer import Tracer

from repro.common.config import paper_config
from repro.common.stats import StatSet
from repro.core import Session
from repro.harness.figures import ALL_FIGURES
from repro.harness.runner import clear_suite_cache
from repro.serve import DaemonClient

#: every workload runs the paper's inputs at half size
SCALE = 0.5
#: workloads of the timing-only sweep, and its L1D axis: from below the
#: smallest of their data footprints (14k to 36k) to above the largest
SWEEP_WORKLOADS = ("lulesh", "hpgmg", "spmv")
SWEEP_L1D = (2048, 4096, 6144, 8192, 12288, 16384, 20480, 24576, 32768,
             40960, 49152, 65536)
#: a served run's latency tail: it must have ten samples beyond it
SERVED_TAIL = 95.0
#: drain seconds of the warm-up burst and of one timed burst on the host
#: the benchmark was tuned on (2-CPU x86-64 container); they set how many
#: timed bursts fill ``--seconds``
NOMINAL_WARMUP_S = 7.0
NOMINAL_BURST_S = 1.8
#: a run never starts another operation after this many seconds
HARD_CAP_S = 120.0
#: seconds a burst may take to drain before its stragglers count failed
DRAIN_TIMEOUT_S = 60.0

PAPER_L1D = paper_config().l1d.size_bytes


@dataclass
class OpResult:
    """One timed operation."""

    wall: float
    instructions: int
    latencies: List[float]
    attempted: int
    failed: int
    #: what the traced run decomposes: the program's own results
    detail: object = None
    extra: Dict[str, float] = field(default_factory=dict)


def l1d_config(size: int):
    return paper_config().with_overrides({"l1d.size_bytes": size})


def run_failed(run, key: str, digest: Optional[Dict[str, str]]) -> bool:
    """The correctness gate of one executed or replayed cell."""
    return bool(run.error or not run.verified
                or digest_mismatch(digest, key, run.to_payload()))


def src_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # keep any default cache the program falls back to inside the checkout
    env["REPRO_CACHE_DIR"] = str(root / ".e2ebench" / "default-cache")
    env.pop("REPRO_NO_CACHE", None)
    return env


def import_setup(root: Path, repeats: int = 3) -> float:
    """Median seconds for a fresh interpreter to import what the batch
    workloads use; a first, untimed import fills the bytecode cache."""
    code = ("import repro.core, repro.harness.figures, "
            "repro.harness.runner, repro.explore.sweep")
    samples = []
    for attempt in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=src_env(root),
                       cwd=root, check=True)
        if attempt:
            samples.append(time.perf_counter() - start)
    return median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- suite_execute -------------------------------------------------------------


def suite_op(work: Path, index: int, seed: int,
             digest: Optional[Dict[str, str]],
             tracer: Optional[Tracer] = None) -> OpResult:
    """One cold ``repro figures`` pass: memos cleared, the disk cache
    writing to an empty directory, every figure and table built."""
    clear_suite_cache()
    cache_dir = work / f"suite-{index}"
    op_span = None
    marks: List[tuple] = []
    start = time.perf_counter()

    def progress(event) -> None:
        marks.append((time.perf_counter(), event))

    if tracer is not None:
        op_span = tracer.add("op", start, 0.0, key=f"suite-{index}")
    results = Session().suite(scale=SCALE, seed=seed,
                              cache_dir=str(cache_dir), use_disk_cache=True,
                              progress=progress)
    figures_start = time.perf_counter()
    tables = {name: build(results) for name, build in ALL_FIGURES.items()}
    end = time.perf_counter()
    shutil.rmtree(cache_dir, ignore_errors=True)
    if tracer is not None:
        tracer.spans[op_span].end = end
        for at, event in marks:
            tracer.add("cell", at - event.wall_seconds, at, op_span,
                       key=f"{event.workload}/{event.isa}")
        tracer.add("fold.figures", figures_start, end, op_span)

    failed = sum(run_failed(run, cell_key(w, isa, PAPER_L1D), digest)
                 for (w, isa), run in results.runs.items())
    failed += sum(1 for _title, _headers, rows in tables.values() if not rows)
    return OpResult(
        wall=end - start,
        instructions=sum(r.dynamic_instructions for r in results.runs.values()),
        latencies=[at - start for at, _event in marks],
        attempted=len(results.runs) + len(tables),
        failed=failed,
        detail=results,
    )


# -- sweep_replay --------------------------------------------------------------


def sweep_op(work: Path, index: int, seed: int,
             digest: Optional[Dict[str, str]],
             tracer: Optional[Tracer] = None) -> OpResult:
    """One cold timing-only sweep of the L1D size over three workloads
    and both ISAs: empty trace store, result cache and journal."""
    clear_suite_cache()
    base = work / f"sweep-{index}"
    axis = "l1d.size_bytes=" + ",".join(str(s) for s in SWEEP_L1D)
    marks: List[tuple] = []
    start = time.perf_counter()

    def progress(event) -> None:
        marks.append((time.perf_counter(), event))

    results = Session().sweep(
        [axis], workloads=list(SWEEP_WORKLOADS), scale=SCALE, seed=seed,
        jobs=1, cache_dir=str(base / "cache"),
        trace_dir=str(base / "traces"), sweeps_dir=str(base / "sweeps"),
        execution="auto", verify_replay=True, progress=progress)
    end = time.perf_counter()
    shutil.rmtree(base, ignore_errors=True)
    if tracer is not None:
        op_span = tracer.add("op", start, end, key=f"sweep-{index}")
        for at, event in marks:
            tracer.add("cell", at - event.wall_seconds, at, op_span,
                       key=f"{event.point}:{event.workload}/{event.isa}")

    expected = len(SWEEP_L1D) * len(SWEEP_WORKLOADS) * 2
    cells = 0
    failed = 0
    instructions = 0
    for point in results.points:
        l1d = point.point.config.l1d.size_bytes
        for (w, isa), run in point.runs.items():
            cells += 1
            instructions += run.dynamic_instructions
            failed += run_failed(run, cell_key(w, isa, l1d), digest)
    failed += (expected - cells) + results.replay_drift
    return OpResult(
        wall=end - start,
        instructions=instructions,
        latencies=[at - start for at, _event in marks],
        attempted=expected,
        failed=failed,
        detail=results,
    )


# -- serve_burst ---------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess with an empty store and cache."""

    BOOT_TIMEOUT_S = 60.0

    def __init__(self, root: Path, directory: Path) -> None:
        self.root = root
        self.directory = directory
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[DaemonClient] = None

    def start(self) -> float:
        """Spawn the daemon; returns seconds until ``/v1/healthz`` is ok."""
        self.directory.mkdir(parents=True)
        log = self.directory / "stderr.log"
        start = time.perf_counter()
        # The daemon allocates from two threads.  With glibc's default
        # per-thread arenas and moving mmap threshold, its peak memory
        # for the same requests lands 116 or 147 MB depending on which
        # thread freed what first; one arena and a fixed threshold make
        # it a function of what the program holds.
        env = src_env(self.root)
        env.update(MALLOC_ARENA_MAX="1", MALLOC_MMAP_THRESHOLD_="131072")
        with open(log, "w", encoding="utf-8") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--quiet", "--cache-dir", str(self.directory / "cache"),
                 "--trace-dir", str(self.directory / "traces")],
                stdout=subprocess.PIPE, stderr=stderr, env=env,
                cwd=self.root, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self.BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}; "
                               f"{log.read_text(encoding='utf-8')[-2000:]}")
        port = int(line.strip().rsplit(":", 1)[1])
        self.client = DaemonClient("127.0.0.1", port, timeout=60.0)
        if not self.client.healthz().get("ok"):
            raise RuntimeError("repro serve reports unhealthy")
        return time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - a hung daemon must still die
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.proc = None


class BurstClient:
    """Releases the seeded bursts one at a time from one client thread
    and checks every served result."""

    def __init__(self, daemon: Daemon, seed: int,
                 digest: Optional[Dict[str, str]]) -> None:
        self.daemon = daemon
        self.seed = seed
        self.digest = digest
        self.mix: List[list] = []
        self.sessions = {size: Session(l1d_config(size)) for size in SERVE_L1D}
        self.submitted = 0
        self.last_wall = 0.0
        #: first payload digest served for each cell, to hold repeats to it
        self.seen: Dict[str, str] = {}

    def warm_up(self) -> OpResult:
        """Serve the untimed burst that captures every functional group.
        It leaves the polling pause unset, so every run's first timed
        burst polls alike."""
        return self.serve(serve_warmup(self.seed))

    def op(self, index: int, tracer: Optional[Tracer] = None) -> OpResult:
        """Serve timed burst ``index`` of the seed's mix."""
        if index >= len(self.mix):
            # a longer draw extends the shorter one, so bursts never change
            self.mix = serve_mix(self.seed, 2 * (index + 1))
        result = self.serve(self.mix[index], tracer)
        self.last_wall = result.wall
        return result

    def serve(self, burst: List[tuple],
              tracer: Optional[Tracer] = None) -> OpResult:
        """Release ``burst`` at once, wait for it to drain, and check
        every result."""
        client = self.daemon.client
        requests = [self.sessions[l1d].build_run_request(
                        w, isa, scale=SCALE, seed=self.seed,
                        execution="auto")
                    for w, isa, l1d in burst]
        release = time.time()
        jobs = []
        submits = []
        for request in requests:
            t = time.perf_counter()
            jobs.append(client.submit(request))
            submits.append((t, time.perf_counter()))
        submit_lag = time.time() - release
        self.submitted += len(jobs)
        # Each poll wakes the daemon's event loop, which takes the
        # interpreter lock from the simulating thread: stay quiet for
        # most of the previous burst's drain time, then poll sparsely.
        time.sleep(max(0.0, 0.8 * self.last_wall - (time.time() - release)))
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while time.monotonic() < deadline:
            snapshot = client.metrics()
            if snapshot.completed + snapshot.failed >= self.submitted:
                break
            time.sleep(0.05)
        backlog = client.metrics()
        statuses = [client.job(job.job_id) for job in jobs]

        failed = 0
        instructions = 0
        latencies = []
        for (w, isa, l1d), status in zip(burst, statuses):
            if not status.finished or status.state != "done" or not status.result:
                failed += 1
                continue
            latencies.append(status.finished_at - release)
            result = status.result
            key = cell_key(w, isa, l1d)
            digest = stats_digest(result)
            first = self.seen.setdefault(key, digest)
            if (not result["verified"] or first != digest
                    or digest_mismatch(self.digest, key, result)):
                failed += 1
            instructions += StatSet.from_payload(
                result["total"]).dynamic_instructions
        finished = [s.finished_at for s in statuses if s.finished]
        wall = (max(finished) - release) if finished else DRAIN_TIMEOUT_S
        if tracer is not None:
            offset = time.perf_counter() - time.time()
            for status, (sent, accepted) in zip(statuses, submits):
                if not status.finished:
                    continue
                request_span = tracer.add(
                    "serve.request", release + offset,
                    status.finished_at + offset, key=status.job_id)
                tracer.add("serve.submit", sent, accepted, request_span,
                           key=status.job_id)
                tracer.add("serve.queue", status.submitted_at + offset,
                           status.started_at + offset, request_span,
                           key=status.job_id)
                tracer.add("serve.run", status.started_at + offset,
                           status.finished_at + offset, request_span,
                           key=status.job_id)
        return OpResult(
            wall=wall, instructions=instructions, latencies=latencies,
            attempted=len(jobs), failed=failed,
            detail=list(zip(burst, statuses)),
            extra={"submit_lag_s": submit_lag,
                   "submit_s": median(b - a for a, b in submits),
                   "backlog": backlog.queue_depth + backlog.running},
        )


# -- the timing loop -----------------------------------------------------------


def measure(op: Callable[[int], OpResult], seconds: float) -> List[OpResult]:
    """Run ``op`` back to back for about ``seconds``: another operation
    starts only if a typical one still fits."""
    ops: List[OpResult] = []
    took: List[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        result = op(len(ops))
        took.append(time.perf_counter() - t)
        # holding every operation's results would grow peak memory with
        # the number of operations, that is with speed
        result.detail = None
        ops.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + median(took) > seconds or elapsed > HARD_CAP_S:
            return ops


def end_to_end(setup_s: float, ops: List[OpResult],
               rss_mb: float) -> Dict[str, float]:
    latencies = [x for o in ops for x in o.latencies]
    return {
        "setup_s": setup_s,
        "sim_ips": median(o.instructions / o.wall for o in ops),
        "burst_p50_s": percentile(latencies, 50),
        "burst_p95_s": percentile(latencies, 95),
        "peak_rss_mb": rss_mb,
    }


def log(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def boot_daemons(root: Path, work: Path, count: int) -> Tuple[list, List[float]]:
    """Start ``count`` fresh daemons one after another, each with an
    empty store and cache; returns them with their boot seconds."""
    daemons, boots = [], []
    try:
        for i in range(count):
            daemon = Daemon(root, work / f"daemon-{i}")
            daemons.append(daemon)
            boots.append(daemon.start())
    except BaseException:
        for daemon in daemons:
            daemon.stop()
        raise
    return daemons, boots


# -- end-to-end runs -----------------------------------------------------------

Outcome = Tuple[Dict[str, float], int, int]


def e2e_batch(args, root: Path, work: Path, digest) -> Outcome:
    op = suite_op if args.workload == "suite_execute" else sweep_op
    setup = import_setup(root)
    ops = measure(lambda i: op(work, i, args.seed, digest), args.seconds)
    log(f"{len(ops)} operations, {sum(len(o.latencies) for o in ops)} cells; "
        f"walls {' '.join(f'{o.wall:.2f}' for o in ops)} s")
    return (end_to_end(setup, ops, peak_rss_mb()),
            sum(o.attempted for o in ops), sum(o.failed for o in ops))


def serve_bursts(client: BurstClient,
                 seconds: float) -> Tuple[OpResult, List[OpResult]]:
    """Serve the untimed warm-up burst, then a count of timed bursts
    fixed by ``seconds``, never by how fast they drain, so every run of
    a seed serves the same bursts.  Only on a host more than half again
    slower than the nominal one is the run cut short, once the tail has
    its ten samples."""
    bursts = max(1, round((seconds - NOMINAL_WARMUP_S) / NOMINAL_BURST_S))
    minimum = 1
    while (tail_percentile(minimum * BURST_SIZE) or 0.0) < SERVED_TAIL:
        minimum += 1
    start = time.perf_counter()
    warmup = client.warm_up()
    ops: List[OpResult] = []
    while len(ops) < max(bursts, minimum):
        ops.append(client.op(len(ops)))
        if (len(ops) >= minimum
                and time.perf_counter() - start > 1.5 * seconds):
            break
    return warmup, ops


def e2e_serve(args, root: Path, work: Path, digest) -> Outcome:
    # The first boot fills the bytecode cache; the next three are timed
    # and the last of them serves the run.
    daemons, boots = boot_daemons(root, work, 4)
    try:
        for daemon in daemons[:-1]:
            daemon.stop()
        client = BurstClient(daemons[-1], args.seed, digest)
        warmup, ops = serve_bursts(client, args.seconds)
        rss = daemons[-1].peak_rss_mb()
    finally:
        for daemon in daemons:
            daemon.stop()
    served = sum(len(o.latencies) for o in ops)
    log(f"warm-up {warmup.wall:.2f} s; {len(ops)} timed bursts, {served} "
        f"requests served, {beyond(served, 95.0)} beyond p95 (highest "
        f"percentile with ten beyond: p{tail_percentile(served)}); "
        f"submission lag median "
        f"{median(o.extra['submit_lag_s'] for o in ops):.4f} s; "
        f"backlog at end {ops[-1].extra['backlog']:g}; "
        f"walls {' '.join(f'{o.wall:.2f}' for o in ops)} s")
    # the warm-up belongs to set-up, so work moved into it shows there
    every = [warmup] + ops
    return (end_to_end(median(boots[1:]) + warmup.wall, ops, rss),
            sum(o.attempted for o in every), sum(o.failed for o in every))
