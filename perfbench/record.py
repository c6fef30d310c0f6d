"""Record the benchmark's input data and expected outputs.

    python3 perfbench/record.py

Writes ``perfbench/data/lens31.txt`` and ``perfbench/expected/*.json`` from
the library in ``src/`` as it is now.  The checked-in files were recorded
at commit a2d86a8; re-recording from a later commit would make the
benchmark check that commit against itself, so do it only when a verdict
change is intended and reviewed.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

# A pool algebra whose generation takes longer than this is left out of the
# pool (recorded without a dimension).  Such algebras have dimension above
# every quota, so the limit only saves recording time.
POOL_SECONDS = 4


def record_lens():
    from betticong import corpus

    X = corpus.lens_space()
    width = len(str(len(X.vertices) - 1))
    names = [f"v{i:0{width}d}" for i in range(len(X.vertices))]
    lines = [
        f"# L(3,1): quotient of the free diagonal Z/3 action on S^3, f = {list(X.f_vector)}",
        "complex lens",
        "vertices " + " ".join(names),
    ]
    lines += ["facet " + " ".join(names[v] for v in f) for f in sorted(X.facets)]
    lines.append("end")
    wl.DATA_DIR.mkdir(exist_ok=True)
    (wl.DATA_DIR / "lens31.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def record_units(workload: str):
    units = wl.prepare(workload, 0, {})
    return {u.name: u.run() for u in units}


class _Slow(Exception):
    pass


def _alarm(signum, frame):
    raise _Slow


def record_pool():
    signal.signal(signal.SIGALRM, _alarm)
    pool = {}
    for kind, describe in wl.DESCRIBE.items():
        pool[kind] = {}
        for field in wl.FIELDS:
            entries = {}
            for sub in range(wl.POOL_SIZE):
                signal.alarm(POOL_SECONDS)
                try:
                    dim, out = describe(field, sub)
                    entries[str(sub)] = {"dim": dim, "out": out}
                except _Slow:
                    entries[str(sub)] = {"dim": None, "out": None}
                finally:
                    signal.alarm(0)
            pool[kind][field] = entries
            print(kind, field, "done", file=sys.stderr)
    return pool


def write(name: str, data):
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    with open(wl.EXPECTED_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    record_lens()
    write("corpus_suite", record_units("corpus_suite"))
    write("large_documents", record_units("large_documents"))
    write("pd_pool", record_pool())


if __name__ == "__main__":
    main()
