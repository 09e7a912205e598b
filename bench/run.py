"""oddsolve benchmark: exact solves through the real CLI on a generated corpus.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this file's directory, and
`oddsolve` is imported from its `src/` (nothing needs installing).  The
workloads, their instances and pinned answers are in `corpus.py`:

  path-setup  mos on P2000, default decomposition (width 1): cut setup
  grid-join   mos and odd-ds on 5x20, 6x15, 7x12 grids via --dec: subset joins
  qcol-join   odd-qcol q=3 on a 4x20 grid, chi-odd on 20 subdivided K4s
  tree-auto   mos and odd-ds on a binary-tree forest, default decomposition

A run first writes the workload's input files several times (`setup_s` is
the median), then repeats *rounds* -- every solve of the workload once, one
child process at a time -- until the next round would end after `--seconds`.
Each child is `python -m oddsolve.cli solve ... --emit-certificate F` with
an address-space ceiling and a timeout.  A solve fails on a wrong first line,
an unexpected exit code, a certificate that `certificates.verify` rejects, a
timeout or the memory ceiling.

End-to-end metrics (`--trace 0`), medians over rounds:
  wall_s       total wall time of the round's CLI solves
  peak_rss_mb  largest peak RSS of any solve child in the round
  setup_s      time to write the inputs: graphs, tree files, relabeling
failed_frac (failed / attempted solves) is printed and carried by the
result's `attempted` and `failed` fields; it is 0 when all is well.

The two times are reported at a reference machine speed.  On a shared VM
the speed of a core drifts by +-20% over minutes, in CPU time as much as in
wall time, so raw times of runs minutes apart disagree by more than a useful
bound.  So the run samples the speed with `calibrate()`, a fixed pure-Python
task: before the first untraced solve, after each one, and every SLICE_S
during a solve, which is paused (SIGSTOP) meanwhile; paused time is not
counted.  Each solve's raw time is multiplied by CALIBRATION_REF_S / (mean
calibration over its interval) before the medians are taken.  Each setup
repetition is scaled the same way by a short calibration right after it.
The raw medians are printed too.

Per-layer metrics (`--trace 1`): each round is run once as above and once
through `trace_solve.py`, which times the CLI's calls into each module in
process and replays the cut ranks, the per-q chi-odd passes and the
certificate check.  Times are raw per-round sums over the workload's solves.
`cli.overhead_s` is the traced child's wall time (less its replays) minus the
in-process layer sum: interpreter start, imports, argument parsing, file I/O.
`trace.overhead_ratio` is that traced wall time over the untraced one.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
`python3 bench/selftest.py` checks the harness on tiny instances.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_solve.py"

MEMORY_CEILING_MB = 1024
SOLVE_TIMEOUT_S = 90.0
RUN_LIMIT_S = 150.0          # no solve may run past this point of a run
SETUP_REPS = (5, 200)        # min and max setup repetitions ...
SETUP_BUDGET_S = 1.0         # ... stopping once this much time has passed
SETUP_CALIBRATION_LOOPS = 2  # calibration after each setup repetition
# Median calibrate() time on the 2-core VM the benchmark was written on
# (Python 3.11); reported times are seconds at that speed.
CALIBRATION_REF_S = 0.065
CALIBRATION_LOOPS = 40
SLICE_S = 0.5                # solve time between calibrations

FIRST_LINE = re.compile(r"^value=(\S+) feasible=(true|false)$")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "graph.parse_s": "s",
    "rankdec.tree_s": "s",
    "rankdec.width_s": "s",
    "rankdec.width": "count",
    "rankdec.cut_rank_s": "s",
    "rankdec.cut_rank_calls": "count",
    "rankdec.rank_sum": "count",
    "dp.solve_s": "s",
    "dp.join_est_s": "s",
    "dp.qcol_runs": "count",
    "dp.qcol_failed_share": "ratio",
    "certificates.write_s": "s",
    "certificates.parse_s": "s",
    "certificates.verify_s": "s",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Input:
    graph: object        # oddsolve.graph.Graph, for certificate checks
    graph_path: Path
    tree_path: Path | None


@dataclass
class Outcome:
    solve: corpus.Solve
    wall_s: float
    rss_mb: float
    error: str | None
    scale: float = 1.0      # reference speed / speed during this solve
    report: dict | None = None


@dataclass
class Limits:
    run_end: float                      # perf_counter() deadline for any solve
    timeout_s: float = SOLVE_TIMEOUT_S
    memory_mb: int = MEMORY_CEILING_MB


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            if o.error:
                self.failed += 1
                self.errors.append(f"{o.solve.label}: {o.error}")


@functools.cache
def _calibration_data() -> tuple[list[int], list[int]]:
    rng = random.Random(20020)
    return [rng.getrandbits(2000) for _ in range(120)], [rng.getrandbits(40) for _ in range(3000)]


def calibrate(loops: int = CALIBRATION_LOOPS) -> float:
    """Seconds this machine takes for a fixed pure-Python task, right now.

    The task mixes what the solver spends its time on: XOR elimination over
    2000-bit integers and dict/tuple work on small ones.  It does not use
    oddsolve, so no change to the program can move it.
    """
    wide, narrow = _calibration_data()
    start = time.perf_counter()
    for _ in range(loops):
        basis: dict[int, int] = {}
        for r in wide:
            while r:
                top = r.bit_length()
                if top not in basis:
                    basis[top] = r
                    break
                r ^= basis[top]
        table: dict[tuple[int, int], int] = {}
        for r in narrow:
            key = (r & 1023, (r >> 30).bit_count())
            table[key] = table.get(key, 0) ^ r
    return time.perf_counter() - start


def write_inputs(workload: corpus.Workload, seed: int, where: Path) -> dict[str, Input]:
    """Generate, relabel and write every graph and --dec tree file."""
    from oddsolve.graph import Graph, write_graph
    from oddsolve.rankdec import caterpillar, write_tree

    where.mkdir(parents=True, exist_ok=True)
    inputs = {}
    for spec in workload.graphs:
        edges, order = corpus.relabeled(spec, seed)
        g = Graph.from_edges(spec.n, edges)
        gpath = where / f"{spec.name}.col"
        gpath.write_text(write_graph(g), encoding="utf-8")
        tpath = None
        if order is not None:
            tpath = where / f"{spec.name}.tree"
            tpath.write_text(write_tree(caterpillar(g, order)), encoding="utf-8")
        inputs[spec.name] = Input(g, gpath, tpath)
    return inputs


def timed_setup(workload: corpus.Workload, seed: int, where: Path):
    """Write the inputs repeatedly; return (last inputs, raw and scaled seconds).

    Setup takes milliseconds, so each repetition is scaled by a short
    calibration run right after it rather than by the solve-time meter.
    """
    raw, scaled = [], []
    lo, hi = SETUP_REPS
    begin = time.perf_counter()
    while len(raw) < lo or (len(raw) < hi and time.perf_counter() - begin < SETUP_BUDGET_S):
        shutil.rmtree(where, ignore_errors=True)
        start = time.perf_counter()
        inputs = write_inputs(workload, seed, where)
        raw.append(time.perf_counter() - start)
        speed = calibrate(SETUP_CALIBRATION_LOOPS) * CALIBRATION_LOOPS / SETUP_CALIBRATION_LOOPS
        scaled.append(raw[-1] * CALIBRATION_REF_S / speed)
    return inputs, raw, scaled


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Speedometer:
    """calibrate() samples: one before the first solve, one after each solve,
    and one each SLICE_S while a solve runs (the solve is paused for it)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._since = 0

    def sample(self) -> None:
        self.samples.append(calibrate())

    def scale(self) -> float:
        """Reference over the mean speed since the last call; takes a sample."""
        self.sample()
        window = self.samples[self._since:]
        self._since = len(self.samples) - 1
        return CALIBRATION_REF_S / statistics.mean(window)


def spawn(cmd: list[str], cwd: Path, out: Path, limits: Limits, meter: Speedometer | None):
    """Run one child; return (exit code or None on timeout, wall s, peak RSS MB).

    With a meter, the child is stopped every SLICE_S for a calibration sample;
    the paused time is not part of the wall time.
    """
    ceiling = limits.memory_mb * 2**20

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))

    deadline = time.perf_counter() + min(limits.timeout_s, limits.run_end - time.perf_counter())
    if deadline <= time.perf_counter():
        return None, 0.0, 0.0
    with open(out, "wb") as fout, open(out.with_suffix(".err"), "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fout, stderr=ferr, preexec_fn=limit_child)
    pidfd = os.pidfd_open(proc.pid)
    paused = 0.0
    timed_out = False
    try:
        while True:
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([pidfd], [], [],
                                        max(0.0, min(left, SLICE_S) if meter else left))
            if not ready and time.perf_counter() >= deadline:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                timed_out = True
            if ready or timed_out:
                _, status, usage = os.wait4(proc.pid, 0)
                break
            pause = time.perf_counter()
            signal.pidfd_send_signal(pidfd, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):   # it exited before the stop
                break
            meter.sample()
            signal.pidfd_send_signal(pidfd, signal.SIGCONT)
            paused += time.perf_counter() - pause
        wall = time.perf_counter() - start - paused
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out else proc.returncode), wall, usage.ru_maxrss / 1024


def check(solve: corpus.Solve, inp: Input, code: int | None, out: Path,
          cert_path: Path, limits: Limits) -> str | None:
    """Why this solve failed, or None when its answer and certificate hold."""
    from oddsolve import certificates

    if code is None:
        return f"timeout after {limits.timeout_s:g} s or run time limit"
    if code != 0:
        err = out.with_suffix(".err").read_text(errors="replace").strip().splitlines()
        return f"exit code {code}" + (f": {err[-1]}" if err else "")
    lines = out.read_text(errors="replace").splitlines()
    m = FIRST_LINE.match(lines[0]) if lines else None
    if not m:
        return f"bad first line {lines[0] if lines else ''!r}"
    value, feasible = m.groups()
    if feasible != "true":
        return f"feasible={feasible}"
    if solve.expect is None:
        if not value.isdigit() or not 1 <= int(value) <= solve.q:
            return f"value={value}, want at most {solve.q} classes"
    elif value != str(solve.expect):
        return f"value={value}, pinned {solve.expect}"
    try:
        cert = certificates.parse_certificate(cert_path.read_text(encoding="utf-8"))
    except (OSError, certificates.CertificateError) as exc:
        return f"certificate unreadable: {exc}"
    want = solve.q if solve.expect is None else solve.expect
    if cert.problem != solve.problem or cert.value != want:
        return f"certificate says {cert.problem} {cert.value}"
    ok, detail = certificates.verify(inp.graph, cert)
    return None if ok else f"certificate rejected: {detail}"


def run_round(workload: corpus.Workload, inputs: dict[str, Input], where: Path,
              limits: Limits, traced: bool, meter: Speedometer | None) -> list[Outcome]:
    """Every solve once, in order."""
    outcomes = []
    for i, solve in enumerate(workload.solves):
        inp = inputs[solve.graph]
        tag = f"{i}-{'traced' if traced else 'cli'}"
        cert, out, report = (where / f"{tag}.cert", where / f"{tag}.out",
                             where / f"{tag}.report.json")
        for stale in (cert, report):
            stale.unlink(missing_ok=True)
        args = ["solve", solve.problem, "--graph", str(inp.graph_path)]
        if inp.tree_path is not None:
            args += ["--dec", str(inp.tree_path)]
        if solve.q is not None:
            args += ["--q", str(solve.q)]
        args += ["--emit-certificate", str(cert)]
        if traced:
            cmd = [sys.executable, str(TRACE_CHILD), str(report)] + args
        else:
            cmd = [sys.executable, "-m", "oddsolve.cli"] + args
        code, wall, rss = spawn(cmd, where, out, limits, meter)
        error = check(solve, inp, code, out, cert, limits)
        rep = None
        if traced and error is None:
            rep = json.loads(report.read_text(encoding="utf-8"))
            if rep["certificate"] is None or not rep["certificate"]["ok"]:
                error = "traced certificate check failed"
        outcomes.append(Outcome(solve, wall, rss, error, meter.scale() if meter else 1.0, rep))
    return outcomes


def layer_metrics(cli_round: list[Outcome], traced_round: list[Outcome]) -> dict[str, float]:
    """Per-layer numbers (raw seconds) of one traced round and its untraced twin."""
    reps = [o.report for o in traced_round]
    total = {name: sum(r["layers"][name] for r in reps) for name in reps[0]["layers"]}
    cut = [r["cut_rank"] for r in reps]
    qcol = [p for r in reps for p in r["qcol"]]
    qcol_s = sum(p["s"] for p in qcol)
    cli_wall = sum(o.wall_s for o in cli_round)
    in_process = sum(total.values())
    traced_wall = sum(o.wall_s - o.report["post_s"] for o in traced_round)
    m = dict(total)
    m.update({
        "rankdec.width": max(r["width"] for r in reps),
        "rankdec.cut_rank_s": sum(c["s"] for c in cut),
        "rankdec.cut_rank_calls": sum(c["calls"] for c in cut),
        "rankdec.rank_sum": sum(c["rank_sum"] for c in cut),
        "dp.qcol_runs": len(qcol),
        "dp.qcol_failed_share": (sum(p["s"] for p in qcol if not p["feasible"]) / qcol_s
                                 if qcol_s else 0.0),
        "certificates.parse_s": sum(r["certificate"]["parse_s"] for r in reps),
        "certificates.verify_s": sum(r["certificate"]["verify_s"] for r in reps),
        "cli.import_s": sum(r["import_s"] for r in reps),
        "cli.overhead_s": traced_wall - in_process,
        "trace.overhead_ratio": traced_wall / cli_wall,
    })
    m["dp.join_est_s"] = m["dp.solve_s"] - m["rankdec.cut_rank_s"]
    return m


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


@dataclass
class Result:
    metrics: dict[str, float]       # exactly the reported metrics
    tally: Tally
    per_solve: dict[str, float]     # median raw CLI wall per solve
    raw: dict[str, float]           # unscaled wall, setup and calibration seconds


def measure(workload: corpus.Workload, seed: int, seconds: float, trace: bool,
            where: Path, limits: Limits, log=print) -> Result:
    """Set up, then run rounds until the next one would end after `seconds`."""
    where = where.resolve()
    inputs, setup_raw, setup_scaled = timed_setup(workload, seed, where / "inputs")
    meter = Speedometer()
    meter.sample()
    run_dir = where / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    rounds: list[dict[str, float]] = []
    per_solve: dict[str, list[float]] = {s.label: [] for s in workload.solves}
    start = time.perf_counter()
    while True:
        cli_round = run_round(workload, inputs, run_dir, limits, False,
                              None if trace else meter)
        tally.add(cli_round)
        for o in cli_round:
            per_solve[o.solve.label].append(o.wall_s)
        row = {"wall_s": sum(o.wall_s * o.scale for o in cli_round),
               "raw_wall_s": sum(o.wall_s for o in cli_round),
               "peak_rss_mb": max(o.rss_mb for o in cli_round)}
        if trace:
            traced_round = run_round(workload, inputs, run_dir, limits, True, None)
            tally.add(traced_round)
            if all(o.report for o in traced_round) and not any(o.error for o in cli_round):
                row.update(layer_metrics(cli_round, traced_round))
        rounds.append(row)
        now = time.perf_counter()
        per_round = (now - start) / len(rounds)
        if now - start + per_round > seconds or now + per_round > limits.run_end:
            break
    medians = median_of([r for r in rounds if "dp.solve_s" in r] if trace else rounds)
    raw = {"wall_s": statistics.median(r["raw_wall_s"] for r in rounds),
           "setup_s": statistics.median(setup_raw),
           "calibration_s": statistics.median(meter.samples)}
    if trace:
        metrics = {k: medians[k] for k in PER_LAYER if k in medians}
    else:
        metrics = {"wall_s": medians["wall_s"], "peak_rss_mb": medians["peak_rss_mb"],
                   "setup_s": statistics.median(setup_scaled)}
    log(f"rounds={len(rounds)} setup_reps={len(setup_raw)}")
    return Result(metrics, tally, {k: statistics.median(v) for k, v in per_solve.items()}, raw)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--details", metavar="PATH",
                    help="also write per-solve medians and the raw metrics as JSON")
    args = ap.parse_args(argv)

    if not (SRC / "oddsolve" / "cli.py").is_file():
        print(f"error: no oddsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oddsolve.cli  # noqa: F401  (compiles the package once, before timing)

    run_start = time.perf_counter()
    limits = Limits(run_end=run_start + RUN_LIMIT_S)
    where = WORK / args.workload
    workload = corpus.WORKLOADS[args.workload]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    res = measure(workload, args.seed, args.seconds, bool(args.trace), where, limits)
    for label, wall in res.per_solve.items():
        print(f"  {label:<28} {wall:10.4f} s (median raw CLI wall)")
    for err in res.tally.errors:
        print(f"  FAILED {err}")
    units = PER_LAYER if args.trace else END_TO_END
    if set(res.metrics) != set(units):
        print("error: no complete round to report", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"  {name:<28} {res.metrics[name]:14.6f} {unit}")
    for name, value in res.raw.items():
        print(f"  {name + ' (raw)':<28} {value:14.6f} s")
    if args.trace:
        share = res.metrics["rankdec.cut_rank_s"] / res.metrics["dp.solve_s"]
        print(f"  {'cut_rank_s / dp.solve_s':<28} {share:14.6f} ratio")
    tally = res.tally
    failed_frac = tally.failed / tally.attempted
    print(f"  {'failed_frac':<28} {failed_frac:14.6f} ({tally.failed}/{tally.attempted})")
    if args.details:
        Path(args.details).write_text(json.dumps(
            {"metrics": res.metrics, "raw": res.raw, "per_solve": res.per_solve,
             "failed_frac": failed_frac, "errors": tally.errors}, indent=1),
            encoding="utf-8")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": res.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
