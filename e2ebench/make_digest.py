"""Regenerate the per-cell stats digest the benchmark checks results by.

    python3 e2ebench/make_digest.py --reason "why the statistics changed"

Every cell any workload can produce at the digest seed is executed with
full functional semantics and again through the trace store (capture,
then replays); the two must agree before a digest is written.  Only a
deliberate fidelity change regenerates the digest, in its own change,
with the reason recorded in the file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reason", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from calc import ISAS, SERVE_L1D, WORKLOADS, cell_key, stats_digest
    from run import DIGEST_FILE, DIGEST_SEED

    from repro.core import Session

    cells = sorted(
        {(w, isa, wl.PAPER_L1D) for w in WORKLOADS for isa in ISAS}
        | {(w, isa, s) for w in wl.SWEEP_WORKLOADS for isa in ISAS
           for s in wl.SWEEP_L1D}
        | {(w, isa, s) for w in WORKLOADS for isa in ISAS for s in SERVE_L1D})
    traces = ROOT / ".e2ebench" / "digest-traces"
    shutil.rmtree(traces, ignore_errors=True)
    table = {}
    try:
        for w, isa, l1d in cells:
            session = Session(wl.l1d_config(l1d))
            executed = session.run(w, isa, scale=wl.SCALE, seed=DIGEST_SEED)
            served = session.run(w, isa, scale=wl.SCALE, seed=DIGEST_SEED,
                                 execution="auto", trace_dir=str(traces))
            key = cell_key(w, isa, l1d)
            digest = stats_digest(executed.to_payload())
            if not executed.verified or digest != stats_digest(
                    served.to_payload()):
                print(f"{key}: unverified, or replay differs from execution",
                      file=sys.stderr)
                return 1
            table[key] = digest
    finally:
        shutil.rmtree(traces, ignore_errors=True)
    DIGEST_FILE.write_text(json.dumps(
        {"scale": wl.SCALE, "seed": DIGEST_SEED, "reason": args.reason,
         "cells": table}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} cells written to {DIGEST_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
