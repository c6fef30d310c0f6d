"""One cold run of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --out result.json \
        [--setup-only]

Imports betticong from ``src/`` of this checkout, prepares the workload's
inputs, records the monotonic time at which they are ready, times each
unit and compares its output byte for byte with the expected output.
Speed probes (perfbench/speed.py) run right after set-up, every 50 ms
while the units run, and at the end; every time after set-up is reported
both as measured and rescaled to the reference speed, probe time left out.
(run.py rescales the set-up time.)
With ``--trace 1`` the tracer is installed first, and its per-layer
metrics and spans are written as well.  With ``--setup-only`` it stops
once the inputs are ready and writes only that time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))
sys.path.insert(0, str(BENCH_DIR))

import betticong  # noqa: E402

import speed  # noqa: E402
import workloads as wl  # noqa: E402


def run_units(workload: str, units, expected: dict) -> list[dict]:
    results = []
    for unit in units:
        error = None
        start = time.perf_counter()
        try:
            out = unit.run()
        except Exception as exc:  # a raising unit counts as failed
            out, error = "", f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        want = wl.expected_output(workload, expected, unit.name)
        ok = error is None and out == want
        if not ok and error is None:
            error = f"output differs from expected: got {out[:200]!r}"
        results.append({
            "name": unit.name,
            "t0": start,
            "t1": end,
            "ok": ok,
            "digest": hashlib.sha256(out.encode()).hexdigest(),
            "error": error,
        })
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(betticong.__file__).resolve().parent != SRC_DIR / "betticong":
        raise SystemExit(f"betticong imported from {betticong.__file__}, not {SRC_DIR}")
    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer().install()
    expected = wl.load_expected(args.workload)
    units = wl.prepare(args.workload, args.seed, expected)

    t_ready = time.monotonic()
    if args.setup_only:
        write_result(args.out, {"t_ready": t_ready})
        return 0
    first = speed.probes()
    sampler = speed.Sampler().start()
    t_start = time.perf_counter()
    results = run_units(args.workload, units, expected)
    t_end = time.perf_counter()
    sampler.stop()
    timeline = speed.Timeline(first + sampler.samples + speed.probes())
    units_at = []
    for r in results:
        t0, t1 = r.pop("t0"), r.pop("t1")
        units_at.append([t0, t1])
        r["raw_ms"] = (t1 - t0 - timeline.probe_time(t0, t1)) * 1000.0
        r["ms"] = timeline.scaled(t0, t1) * 1000.0

    import numpy

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "t_ready": t_ready,
        "probes": timeline.samples,
        "units_at": units_at,
        "raw_wall_s": t_end - t_start - timeline.probe_time(t_start, t_end),
        "wall_s": timeline.scaled(t_start, t_end),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": results,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        spans_path = Path(args.out).with_suffix(".spans.json")
        out["layers"] = tr.layer_metrics(tracer, SRC_DIR / "betticong")
        tracer.dump(spans_path)
        out["spans_file"] = str(spans_path.name)
    write_result(args.out, out)
    return 0


def write_result(path: str, data: dict) -> None:
    tmp = Path(path).with_suffix(".tmp")
    tmp.write_text(json.dumps(data), encoding="utf-8")
    os.replace(tmp, path)


if __name__ == "__main__":
    raise SystemExit(main())
