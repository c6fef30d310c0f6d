"""Benchmark entry point: cold runs of one workload, verified, summarised as JSON.

    python3 perfbench/run.py --workload corpus_suite|pd_population|large_documents \
        --seed N --seconds S --trace 0|1

Each repetition is a fresh interpreter (perfbench/worker.py), so module
caches and per-complex caches start empty every time.  Repetitions run one
after another, single-process, as long as the next one is expected to end
within ``--seconds``; at least one runs.  A few
set-up-only interpreters go first, so that ``setup_s`` is a median over
several set-ups.  Times are rescaled to a reference processor speed by
the probes of perfbench/speed.py; the times as measured are printed on
``#`` lines.  With ``--trace 0`` the last line of stdout carries the end-to-end metrics
(medians over repetitions); with ``--trace 1`` each repetition is an
untraced run followed by a traced one, and the last line carries the
per-layer metrics of the traced runs.  Exit code 0 means the run finished;
``"correct"`` says whether every output matched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed
from workloads import BENCH_DIR, ROOT, WORK_DIR, WORKLOADS

# The whole invocation must end within 180 s; a repetition gets what is left.
RUN_BUDGET_S = 170.0
# Setup-only interpreters started before the repetitions, so that setup_s is
# a median over several set-ups even when one repetition fills the run.
SETUP_SPAWNS = 10
TAIL_BEYOND = 10
MIN_UNITS_FOR_PERCENTILES = 20


def git_revision() -> str:
    """HEAD commit of the checkout, with "+dirty" if ``src/`` differs from it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str:
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head + ("+dirty" if dirty else "")


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    xs = sorted(samples)
    n = len(xs)
    if n < MIN_UNITS_FOR_PERCENTILES:
        return xs[-1], f"max of {n} unit(s), too few for a percentile"
    k = n - TAIL_BEYOND - 1
    return xs[k], f"p{100.0 * (k + 1) / n:.1f} of {n} units, {TAIL_BEYOND} beyond"


def spawn(workload: str, seed: int, mode: str, index: int, deadline: float) -> dict:
    """One fresh worker; ``mode`` is "plain", "traced" or "setup" (set-up only)."""
    out = WORK_DIR / f"{workload}-{seed}-{mode}-{index}.json"
    if out.exists():
        out.unlink()
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(mode == "traced")), "--out", str(out)]
    if mode == "setup":
        cmd.append("--setup-only")
    start_factor = speed.start_factor()
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return {"error": "repetition ran past the time budget"}
    if proc.returncode != 0 or not out.exists():
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    rep = json.loads(out.read_text(encoding="utf-8"))
    rep["raw_setup_s"] = rep["t_ready"] - t_spawn
    rep["setup_s"] = rep["raw_setup_s"] * start_factor
    return rep


def end_to_end(reps: list[dict], setups: list[dict], raw: bool = False
               ) -> tuple[dict, list[str]]:
    """Medians over repetitions; with ``raw`` the times as measured."""
    prefix = "raw_" if raw else ""
    p50s, tails, labels = [], [], []
    for rep in reps:
        ms = [u[prefix + "ms"] for u in rep["units"]]
        p50s.append(statistics.median(ms))
        value, label = tail(ms)
        tails.append(value)
        labels.append(label)
    metrics = {
        "wall_s": {"value": statistics.median(r[prefix + "wall_s"] for r in reps),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(r[prefix + "setup_s"] for r in setups),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                        "unit": "MB"},
        "unit_ms_p50": {"value": statistics.median(p50s), "unit": "ms"},
        "unit_ms_tail": {"value": statistics.median(tails), "unit": "ms"},
    }
    return metrics, labels


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    names = traced[0]["layers"].keys()
    metrics = {}
    for name in names:
        value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat in ("hit_ratio", "rank_per_row"):
        return "ratio"
    if stat == "bytes_in":
        return "bytes"
    if stat == "src_lines":
        return "lines"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = ROOT / "src" / "betticong" / "__init__.py"
    if not package.exists():
        print(f"error: not a betticong checkout, missing {package}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    plain, traced, setups, errors = [], [], [], []
    for index in range(SETUP_SPAWNS):
        rep = spawn(args.workload, args.seed, "setup", index, deadline)
        if "error" in rep:
            errors.append(rep["error"])
            break
        setups.append(rep)
    index = 0
    while not errors:
        t_rep = time.monotonic()
        for mode in ("plain", "traced") if args.trace else ("plain",):
            rep = spawn(args.workload, args.seed, mode, index, deadline)
            if "error" in rep:
                errors.append(rep["error"])
            else:
                (traced if mode == "traced" else plain).append(rep)
        index += 1
        # Stop before a repetition that would end past --seconds, so that a
        # run lasts at most --seconds unless a single repetition is longer.
        now = time.monotonic()
        if (now - start) + (now - t_rep) > args.seconds:
            break

    attempted = sum(len(r["units"]) for r in plain + traced)
    failed = sum(1 for r in plain + traced for u in r["units"] if not u["ok"])
    for r in plain + traced:
        for u in r["units"]:
            if not u["ok"]:
                errors.append(f"unit {u['name']}: {u['error']}")
    if traced:
        digests = {(u["name"], u["digest"]) for r in plain for u in r["units"]}
        differing = [u["name"] for r in traced for u in r["units"]
                     if (u["name"], u["digest"]) not in digests]
        failed += len(differing)
        errors += [f"traced output differs from untraced: {n}" for n in differing]

    if not plain or (args.trace and not traced):
        print("error: no repetition finished: " + "; ".join(errors)[:4000], file=sys.stderr)
        result = {"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1),
                  "metrics": {}}
        print(json.dumps(result))
        return 1

    e2e, tail_labels = end_to_end(plain, setups + plain)
    raw, _ = end_to_end(plain, setups + plain, raw=True)
    metrics = per_layer(traced, plain) if args.trace else e2e
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "setups": len(setups) + len(plain),
        "units_per_repetition": len(plain[0]["units"]),
        "unit_ms_tail": tail_labels[0], "units_failed": failed,
        "python": plain[0]["python"], "numpy": plain[0]["numpy"],
        "nproc": os.cpu_count(), "git_revision": git_revision(),
    }
    for key, val in info.items():
        print(f"# {key}: {val}")
    for name, m in e2e.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}"
              f" (as measured: {raw[name]['value']:.6g})")
    print(f"# units_failed = {failed} count")
    for err in errors[:20]:
        print(f"# ERROR {err}")
    with open(WORK_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"info": info, "end_to_end": e2e, "as_measured": raw, "metrics": metrics,
                   "errors": errors, "setup_only": setups,
                   "repetitions": plain + traced}, fh, indent=1)
    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
