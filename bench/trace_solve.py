"""Run one `oddsolve solve` in-process and time the calls into each layer.

    python3 bench/trace_solve.py REPORT.json solve <problem> --graph ... [...]

The arguments after REPORT.json are passed to `oddsolve.cli.main` unchanged,
so stdout and the exit code are exactly those of the CLI.  Before the call
the public functions the CLI reaches are replaced by timing wrappers; every
call becomes a span (name, start, end, parent).  Only outermost spans count
towards a layer, so chi_odd's own calls to solve_odd_qcol are not counted
twice.  After the CLI returns, some work is replayed outside the CLI's time:

  * cut_rank(g, mask) over every tree node -- the basis work the DP's cut
    setup does per node;
  * for chi-odd, solve_odd_qcol for q = 1..chi, one DP pass per q;
  * parsing and verifying the emitted certificate.

The report (JSON) holds the spans, per-layer seconds and the replay results.
"""
from __future__ import annotations

import functools
import json
import sys
import time

_T0 = time.perf_counter()

import oddsolve.cli as cli  # noqa: E402  (the import itself is measured)
from oddsolve import certificates, dp, rankdec  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

# layer name -> (module, public functions the CLI calls through it)
LAYERS = {
    "graph.parse_s": (cli, ("parse_graph",)),
    "rankdec.tree_s": (rankdec, ("heuristic_order", "caterpillar", "parse_tree")),
    "rankdec.width_s": (rankdec, ("width",)),
    "dp.solve_s": (dp, ("solve_mos", "solve_mes", "solve_odd_ds", "solve_odd_tds",
                        "solve_odd_qcol", "chi_odd")),
    "certificates.write_s": (certificates, ("write_certificate",)),
}


class Tracer:
    """In-memory span list plus the last result of each traced function."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.results: dict[str, object] = {}
        self._stack: list[int] = []

    def wrap(self, module, attr: str, layer: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": attr, "layer": layer,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self.results[attr] = out
            return out

        setattr(module, attr, traced)

    def layer_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            if s["parent"] is None:
                out[s["layer"]] += s["end"] - s["start"]
        return out


def _replay_cut_ranks(g, t) -> dict:
    masks = list(t.leaf_masks().values())
    start = time.perf_counter()
    rank_sum = sum(rankdec.cut_rank(g, m).rank for m in masks)
    return {"s": time.perf_counter() - start, "calls": len(masks), "rank_sum": rank_sum}


def _replay_qcol(g, t, chi: int) -> list[dict]:
    passes = []
    for q in range(1, chi + 1):
        start = time.perf_counter()
        feasible = dp.solve_odd_qcol(g, t, q) is not None
        passes.append({"q": q, "s": time.perf_counter() - start, "feasible": feasible})
    return passes


def _replay_certificate(g, path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    start = time.perf_counter()
    cert = certificates.parse_certificate(text)
    mid = time.perf_counter()
    ok, _ = certificates.verify(g, cert)
    return {"parse_s": mid - start, "verify_s": time.perf_counter() - mid, "ok": ok}


def main(report_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    for layer, (module, names) in LAYERS.items():
        for name in names:
            tracer.wrap(module, name, layer)
    main_start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - main_start
    sys.stdout.flush()

    post_start = time.perf_counter()
    res = tracer.results
    g = res.get("parse_graph")
    t = res.get("parse_tree") or res.get("caterpillar")
    report = {
        "exit_code": code,
        "import_s": _IMPORT_S,
        "main_s": main_s,
        "layers": tracer.layer_seconds(),
        "width": res.get("width"),
        "spans": tracer.spans,
        "cut_rank": None,
        "qcol": [],
        "certificate": None,
    }
    if g is not None and t is not None:
        report["cut_rank"] = _replay_cut_ranks(g, t)
        problem = argv[1]
        if problem == "chi-odd" and res.get("chi_odd"):
            report["qcol"] = _replay_qcol(g, t, res["chi_odd"][0])
        elif problem == "odd-qcol":
            qcol_span = next(s for s in tracer.spans if s["name"] == "solve_odd_qcol")
            report["qcol"] = [{"q": int(argv[argv.index("--q") + 1]),
                               "s": qcol_span["end"] - qcol_span["start"],
                               "feasible": res["solve_odd_qcol"] is not None}]
        if "--emit-certificate" in argv and code == 0:
            report["certificate"] = _replay_certificate(
                g, argv[argv.index("--emit-certificate") + 1])
    report["post_s"] = time.perf_counter() - post_start
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
