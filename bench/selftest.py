"""Fast self-test of the benchmark harness on tiny instances.

    python3 bench/selftest.py

Builds a tiny version of each workload, pins its answers with the brute-force
oracles of `oddsolve.oracle`, and checks that every solve passes untraced and
traced with every metric reported; that a wrong pin, a timeout and the memory
ceiling each count as a failed solve; that the seed relabels exactly the
workloads it should; and that `run.py` fails without printing a result when
the checkout holds no sources.  Takes a few seconds.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import corpus
import run

sys.path.insert(0, str(run.SRC))
from oddsolve import oracle  # noqa: E402
from oddsolve.graph import Graph  # noqa: E402

WORK = run.WORK / "selftest"


def _pinned(spec: corpus.GraphSpec, problem: str, q: int | None = None) -> corpus.Solve:
    g = Graph.from_edges(spec.n, spec.edges)
    if problem == "mos":
        value = oracle.oracle_mos(g)[0]
    elif problem == "odd-ds":
        value = oracle.oracle_odd_ds(g)[0]
    elif problem == "chi-odd":
        value = oracle.oracle_chi_odd(g)
    else:
        assert oracle.oracle_odd_qcol(g, q) is not None, "tiny odd-qcol must be feasible"
        value = None
    return corpus.Solve(spec.name, problem, value, q)


def tiny_workloads() -> dict[str, corpus.Workload]:
    path = corpus.path_spec(12)
    grid = corpus.grid_spec(3, 4)
    ladder = corpus.grid_spec(2, 4)
    k4 = corpus.k4_spec(1)
    forest = corpus.forest_spec(2, 2)
    return {
        "path-setup": corpus.Workload((path,), (_pinned(path, "mos"),)),
        "grid-join": corpus.Workload((grid,), (_pinned(grid, "mos"), _pinned(grid, "odd-ds"))),
        "qcol-join": corpus.Workload((ladder, k4), (_pinned(ladder, "odd-qcol", 3),
                                                    _pinned(k4, "chi-odd"))),
        "tree-auto": corpus.Workload((forest,), (_pinned(forest, "mos"),
                                                 _pinned(forest, "odd-ds"))),
    }


def measure(workload, trace=False, **limits):
    lim = run.Limits(run_end=time.perf_counter() + 60, **limits)
    return run.measure(workload, 7, 0, trace, WORK, lim, log=lambda *_: None)


def check_workloads() -> None:
    for name, wl in tiny_workloads().items():
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            res = measure(wl, trace)
            assert res.tally.failed == 0, (name, res.tally.errors)
            assert set(res.metrics) == set(units), (name, set(res.metrics) ^ set(units))
        print(f"ok   {name}: answers and certificates check, all metrics reported")


def check_failures() -> None:
    wl = tiny_workloads()["grid-join"]
    bad = dataclasses.replace(wl.solves[0], expect=wl.solves[0].expect + 1)
    tally = measure(corpus.Workload(wl.graphs, (bad,))).tally
    assert tally.failed == 1 and "pinned" in tally.errors[0], tally.errors
    tally = measure(wl, timeout_s=0.001).tally
    assert tally.failed == len(wl.solves) and "timeout" in tally.errors[0], tally.errors
    tally = measure(wl, memory_mb=16).tally
    assert tally.failed == len(wl.solves) and "exit code" in tally.errors[0], tally.errors
    print("ok   wrong pin, timeout and memory ceiling each count as failures")


def check_relabeling() -> None:
    for name, wl in corpus.WORKLOADS.items():
        for spec in wl.graphs:
            a, b = corpus.relabeled(spec, 1), corpus.relabeled(spec, 2)
            assert corpus.relabeled(spec, 1) == a
            assert (a != b) == spec.relabel, (name, spec.name)
            if spec.order is not None:
                assert sorted(a[1]) == list(range(spec.n))
    print("ok   seeds relabel grid-join and qcol-join only, reproducibly")


def check_no_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "grid-join", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    shutil.rmtree(bare)
    print("ok   without sources the benchmark exits", proc.returncode, "and prints no result")


def main() -> int:
    start = time.perf_counter()
    check_relabeling()
    check_workloads()
    check_failures()
    check_no_sources()
    print(f"self-test passed in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
