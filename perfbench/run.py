"""plastore benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a plastore source tree: it imports the library
from that tree's `src/` and exits 2 without a result when the sources
are missing.  Standard output lists every metric with its unit and sample
count, the exact probe and words-scanned counts, the sha256 of every
container, and with --trace 1 the spans' self times.  Its last line is
one JSON object: correct, attempted, failed and the metrics (end-to-end
with --trace 0, per-layer with --trace 1).  The exit code is 1 when a
correctness check failed.  The full result and the spans are also written
to perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("compress-dense", "index-sparse")


def parse_args(argv):
    p = argparse.ArgumentParser(description="plastore benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import plastore from this tree's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "plastore" / "__init__.py").is_file():
        raise ImportError(f"no plastore sources under {src}")
    sys.path.insert(0, str(src))
    import plastore

    if Path(plastore.__file__).resolve().parent != src / "plastore":
        raise ImportError(f"plastore was imported from {plastore.__file__}, not from {src}")


def report(result, setup_s, trace: bool) -> dict:
    """Print the human-readable lines and return the full result."""
    wl = result.workload
    metrics = result.per_layer() if trace else result.end_to_end(setup_s)
    print(f"workload={wl.name} seed={result.seed} instances={len(wl.instances)} points={wl.points} "
          f"passes={len(result.passes)} traced={len(result.tracers)}")
    print(f"{'metric':<55} {'value':>16}  {'unit':<9} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<55} {value:>16.6g}  {unit:<9} {samples}")
    gate = result.gate
    print(f"ops_failed_frac {gate.failed / gate.attempted:.6g} ({gate.failed} of {gate.attempted} checked operations)")
    for note in gate.notes:
        print(f"FAILED: {note}")
    for name, value in result.counts().items():
        print(f"count {name} {value}")
    for (inst, mode), digest in sorted(result.sha256.items()):
        print(f"sha256 {wl.name} {inst} {mode} {digest}")
    full = {
        "workload": wl.name,
        "seed": result.seed,
        "trace": int(trace),
        "passes": len(result.passes),
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "ops_failed_frac": gate.failed / gate.attempted,
        "failures": gate.notes,
        "counts": result.counts(),
        "sha256": {f"{inst}.{mode}": d for (inst, mode), d in sorted(result.sha256.items())},
    }
    if trace:
        print(f"{'span':<40} {'calls':>8} {'total_ms/pass':>14} {'self_ms/pass':>14}")
        merged = {}
        for tracer in result.tracers:
            for name, (calls, total, own) in tracer.totals().items():
                m = merged.setdefault(name, [0, 0, 0])
                m[0] += calls
                m[1] += total
                m[2] += own
        k = len(result.tracers)
        for name, (calls, total, own) in sorted(merged.items(), key=lambda kv: -kv[1][2]):
            print(f"{name:<40} {calls // k:>8} {total / k / 1e6:>14.3f} {own / k / 1e6:>14.3f}")
        full["self_ms_per_pass"] = {name: m[2] / k / 1e6 for name, m in merged.items()}
    return full


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness

    result, setup_s = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    full = report(result, setup_s, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if args.trace:
        spans = [[name, start, end, parent, tag, p]
                 for p, tracer in enumerate(result.tracers) for name, start, end, parent, tag in tracer.spans]
        (OUT / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "tag", "traced_pass"], "spans": spans}))
        print(f"spans: {len(spans)} written to {OUT / (stem + '.spans.json')}")
    gate = result.gate
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in full["metrics"].items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
