"""The repository benchmark: host cost of the paths users wait on.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload suite_execute --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` times the workload for ``--seconds`` and prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` makes the
separate traced run and prints every per-layer metric.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress notes go to
standard error.  Spans of a traced run are written under
``.e2ebench/spans/``.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the seed the per-cell stats digest was generated for
DIGEST_SEED = 7
DIGEST_FILE = HERE / f"digest_seed{DIGEST_SEED}.json"


def load_digest(seed: int, scale: float) -> Optional[Dict[str, str]]:
    if seed != DIGEST_SEED:
        return None
    table = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    if table["scale"] != scale or table["seed"] != seed:
        raise RuntimeError(f"{DIGEST_FILE.name} was made for another "
                           "scale or seed")
    return table["cells"]


WORKLOADS = ("suite_execute", "sweep_replay", "serve_burst")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared(mode: str) -> Dict[str, str]:
    """Metric name -> unit as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[mode]}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so daemons started are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no simulator sources under {ROOT / 'src'}; run "
              "the benchmark from the root of a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads as wl
    from tracer import Tracer

    digest = load_digest(args.seed, wl.SCALE)
    work = ROOT / ".e2ebench" / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            ops_tracer, layer_tracer = Tracer(), Tracer()
            run = (layers.traced_serve if args.workload == "serve_burst"
                   else layers.traced_batch)
            values, attempted, failed = run(args, ROOT, work, digest,
                                            ops_tracer, layer_tracer)
            spans = ROOT / ".e2ebench" / "spans"
            stem = f"{args.workload}-seed{args.seed}"
            ops_tracer.write(spans / f"{stem}-ops.jsonl")
            layer_tracer.write(spans / f"{stem}-layers.jsonl")
            units = declared("per_layer")
        else:
            run = wl.e2e_serve if args.workload == "serve_burst" else wl.e2e_batch
            values, attempted, failed = run(args, ROOT, work, digest)
            units = declared("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: emitted only "
            f"{sorted(set(values) - set(units))}, missing "
            f"{sorted(set(units) - set(values))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
