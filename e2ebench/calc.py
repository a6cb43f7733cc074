"""Pure arithmetic of the benchmark: percentiles, span self time, the
seeded serve mix and the per-cell stats digest.

Nothing here imports the simulator, so the benchmark's own tests run
in milliseconds and check exactly the rules the results are reported by.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Iterable, List, Mapping, Optional, Tuple

#: the ten paper workloads and two ISAs every mix is drawn over
WORKLOADS = ("arraybw", "bitonic", "comd", "fft", "hpgmg", "lulesh", "md",
             "snap", "spmv", "xsbench")
ISAS = ("hsail", "gcn3")

#: L1D sizes a served request may ask for; 16k is the paper config, and
#: the range spans the data footprints of most workloads (3k to 390k).
SERVE_L1D = (4096, 8192, 16384, 32768, 49152, 65536)

#: requests in one served burst: each workload twice
BURST_SIZE = 2 * len(WORKLOADS)

#: percentiles considered for a tail, highest last
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(n: int, p: float) -> int:
    # rounded first, so 99.9 % of 10000 is rank 9990 and not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return float(ordered[_rank(len(ordered), p) - 1])


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``p``-th percentile (ties aside)."""
    return n - _rank(n, p)


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[float]:
    """The highest candidate percentile with at least ``min_beyond`` of
    ``n`` samples beyond it, or ``None`` when even the median has fewer."""
    best = None
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= min_beyond:
            best = p
    return best


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of ``[start, end]`` that its
    children cover; overlapping children are counted once."""
    clipped = sorted((max(start, s), min(end, e)) for s, e in children
                     if e > start and s < end)
    covered = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return (end - start) - covered


Cell = Tuple[str, str, int]  # (workload, isa, l1d size in bytes)


def _l1d_cycles(seed: int) -> dict:
    """Per (workload, ISA): the order, drawn with ``seed``, in which its
    requests cycle through :data:`SERVE_L1D`."""
    rng = random.Random(f"e2ebench-serve-l1d:{seed}")
    return {(workload, isa): rng.sample(SERVE_L1D, len(SERVE_L1D))
            for isa in ISAS for workload in WORKLOADS}


def serve_warmup(seed: int) -> List[Cell]:
    """The untimed burst that opens a served run: every workload under
    both ISAs, so it captures all 20 functional groups and every timed
    request after it replays a stored trace."""
    cycles = _l1d_cycles(seed)
    return [(workload, isa, cycles[workload, isa][0])
            for isa in ISAS for workload in WORKLOADS]


def serve_mix(seed: int, bursts: int) -> List[List[Cell]]:
    """``bursts`` timed bursts of served requests, a pure function of
    ``seed``.

    Every burst asks for each workload twice under one ISA.  A
    workload's ISA alternates from burst to burst, starting from one
    drawn per workload, so any two consecutive bursts hold every
    workload under both ISAs.  The requests of one workload and ISA,
    the warm-up's first, cycle through the L1D sizes in an order drawn
    per pair, so every seed serves each size equally often and each
    sixth request repeats an earlier one exactly.  Mixes of two seeds
    then differ only in the ISA starts and in which sizes meet in a
    burst.  A burst lists every workload
    once and then every workload again, so the scheduler's fingerprint
    batching pulls each second request forward to run beside its
    first.  The order is fixed because where the heaviest requests sit
    in a burst would otherwise move its median latency from seed to
    seed.
    """
    rng = random.Random(f"e2ebench-serve:{seed}")
    phase = {workload: rng.randrange(len(ISAS)) for workload in WORKLOADS}
    cycles = _l1d_cycles(seed)
    served = {group: 1 for group in cycles}  # the warm-up served one each
    out: List[List[Cell]] = []
    for index in range(bursts):
        pairs = []
        for workload in WORKLOADS:
            group = (workload, ISAS[(phase[workload] + index) % len(ISAS)])
            cycle = cycles[group]
            pair = []
            for _ in range(2):
                pair.append(group + (cycle[served[group] % len(cycle)],))
                served[group] += 1
            pairs.append(pair)
        out.append([pair[0] for pair in pairs] + [pair[1] for pair in pairs])
    return out


def cell_key(workload: str, isa: str, l1d: int) -> str:
    return f"{workload}/{isa}/l1d{l1d}"


def stats_digest(payload: Mapping[str, object]) -> str:
    """Digest of one run payload (``WorkloadRun.to_payload()`` or a
    served job's result): the verdict plus every aggregate and
    per-dispatch statistic, never the wall clock."""
    canonical = json.dumps(
        {"verified": bool(payload["verified"]),
         "total": payload["total"],
         "per_dispatch": payload["per_dispatch"]},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def digest_mismatch(expected: Optional[Mapping[str, str]], key: str,
                    payload: Mapping[str, object]) -> bool:
    """True when a digest table exists and ``payload`` does not match its
    entry for ``key`` (a cell missing from the table is a mismatch)."""
    if expected is None:
        return False
    return expected.get(key) != stats_digest(payload)
