"""Seeded, layered benchmark of the l2burau pipeline.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):
  winding-sweep  in-process API, total-winding family, symbolic layers
  free-markov    in-process API, identity family, numeric free-group backends
  cli-cold       one cold `python -m l2burau.cli` process per request

Each workload is a closed loop with one client: the next request is sent
when the previous one has answered.  Requests come in rounds; rounds are
sent until the next one would end after --seconds, and at least one round
always runs, so every run sees whole rounds.  With --trace 0 the run
reports end-to-end metrics; with --trace 1 it runs the same requests split
into layers with spans and reports per-layer metrics instead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A fuller record with provenance goes to
perfbench/out/.  The library is imported from src/ of the checkout this
file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
THREADS = {"free-markov": "2"}  # L2BURAU_THREADS per workload
# every end-to-end figure a run prints; BENCHMARK.json names the ones it gates
E2E_UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
             "evals_per_s": "1/s", "ok_frac": "fraction", "failed_frac": "fraction",
             "bound_rel_p50": "fraction", "bound_rel_max": "fraction", "peak_rss_mb": "MB"}


def metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]}


# --- set-up --------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Import the library, generate the first round, and warm up."""
    # imported here, not at the top, so that set-up time includes them
    global execute, metrics, workloads
    import execute
    import metrics
    import workloads

    if workload in THREADS:
        os.environ["L2BURAU_THREADS"] = THREADS[workload]
    OUT.mkdir(exist_ok=True)
    gen = workloads.rounds(workload, seed, OUT)
    first = next(gen)
    if workload == "cli-cold":
        warm = execute.run_process(
            [sys.executable, "-m", "l2burau.cli", "alexander", "-b", "1 1 1", "--json"],
            ROOT, 60.0, OUT)
        if warm["code"] != 0:
            raise RuntimeError(f"warm-up command failed: {warm['stderr']}")
    else:
        execute.run_plain(workloads.Request("warm", "fq", "1", 2, family=(
            "phi" if workload == "winding-sweep" else "id")))
    return first, gen


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each importing from cold."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
             "--seed", str(seed)], capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# --- the closed loop -------------------------------------------------------------


def one_request(req, cli: bool, tracer=None) -> dict:
    """Send one request and wait for it; never raises for the request's sake."""
    res = {"req": req, "raw": None, "error": None, "rss_kib": None}
    start = time.perf_counter()
    try:
        if cli:
            with tracer.span("cli.process") if tracer else contextlib.nullcontext():
                proc = execute.run_process(execute.cli_argv(req), ROOT,
                                           workloads.CLI_DEADLINE_S, OUT)
            res["rss_kib"] = proc["rss_kib"]
            if proc["code"] is None:
                res["error"] = f"killed at the {workloads.CLI_DEADLINE_S:g} s deadline"
            elif proc["code"] not in (0, 1):
                last = (proc["stderr"].strip().splitlines() or [""])[-1]
                res["error"] = f"exit code {proc['code']}: {last}"
            else:
                res["raw"] = execute.parse_output(req, proc["stdout"], proc["code"])
                if tracer:
                    with tracer.span("cli.replay", extra=True):
                        execute.run_traced(tracer, req)
        elif tracer:
            res["raw"] = execute.run_traced(tracer, req)
        else:
            res["raw"] = execute.run_plain(req)
    except Exception as exc:  # a failed request is a result, not the end of the run
        res["error"] = f"{type(exc).__name__}: {exc}"
        res["traceback"] = traceback.format_exc()
    res["wall"] = time.perf_counter() - start
    return res


def closed_loop(first, gen, seconds: float, cli: bool, tracer=None):
    results = []
    start = time.perf_counter()
    rnd = first
    while True:
        r0 = time.perf_counter()
        for req in rnd:
            if tracer:
                tracer.rid = req.rid
                with tracer.span("request"):
                    results.append(one_request(req, cli, tracer))
            else:
                results.append(one_request(req, cli))
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            break
        rnd = next(gen)
    return results, time.perf_counter() - start


# --- checks and end-to-end metrics ----------------------------------------------------


def check_all(results):
    """Attach failures, good-evaluation counts and known defects to results."""
    for r in results:
        req = r["req"]
        r["failures"], r["good"], r["known"] = [], 0, None
        if r["error"]:
            r["failures"], r["known"] = [r["error"]], req.known_defect
            continue
        try:
            r["failures"], r["good"], r["known"] = workloads.check(req, r["raw"])
        except (KeyError, TypeError, ValueError) as exc:
            r["failures"] = [f"unreadable output: {type(exc).__name__}: {exc}"]


def provenance_of(ev: dict) -> dict:
    d = ev.get("diagnostics") or {}
    return {
        "t": ev["t"], "value": ev["value"], "error_bound": ev["bound"],
        "method": ev.get("method"), "route": d.get("route"),
        "grids": d.get("grids"), "torus_dim": d.get("torus_dim"),
        "radius": d.get("radius"), "rank": d.get("rank", d.get("subgroup_rank")),
        "tail_model": d.get("tail_model"),
    }


def request_record(r) -> dict:
    req = r["req"]
    return {
        "rid": req.rid, "kind": req.kind, "argv": req.argv(), "wall_s": r["wall"],
        "ok": not r["failures"], "failures": r["failures"],
        "known_defect": r["known"], "traceback": r.get("traceback"),
        "evals": [provenance_of(ev) for ev in (r["raw"] or {}).get("evals", [])],
    }


def bound_rels(results) -> list[float]:
    return [metrics.bound_rel(ev["value"], ev["bound"])
            for r in results if r["raw"] and r["req"].kind in ("fq", "markov")
            for ev in r["raw"]["evals"]]


def end_to_end(results, wall, setup_times, cli) -> dict:
    lat = [r["wall"] for r in results]
    failed = sum(1 for r in results if r["failures"])
    tail = metrics.tail(lat)
    rel = bound_rels(results)
    if cli:
        rss = max(r["rss_kib"] or 0 for r in results)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metrics.median(setup_times),
        "latency_p50_s": metrics.median(lat),
        "latency_tail_s": tail["value"],
        "evals_per_s": sum(r["good"] for r in results) / wall,
        "ok_frac": 1.0 - failed / len(results),
        "failed_frac": failed / len(results),
        "bound_rel_p50": metrics.median(rel) if rel else math.inf,
        "bound_rel_max": max(rel) if rel else math.inf,
        "peak_rss_mb": rss / 1024.0,
    }, tail


# --- per-layer metrics from spans ---------------------------------------------------------


def probe_requests():
    """Fixed requests that call every layer once, closing every traced run.

    They keep each per-layer figure defined on every workload; their spans
    carry request ids starting with 'probe'.
    """
    R = workloads.Request
    return [
        R("probe.alexander", "alexander", "1 1 1"),
        R("probe.phi", "fq", "1 -2 1 -2", 3),
        R("probe.ab", "fq", "-1 2", 3, family="ab"),
        R("probe.series", "fq", "1", 2, family="id"),
        R("probe.eps", "fq", "-1", 2, family="id", method="eps"),
        R("probe.markov", "markov", "1 1 1", 2, moves=(("stab", "+1"),)),
    ]


def run_probe(tracer):
    """Run the probe; returns its results and the cold import times."""
    results = []
    for req in probe_requests():
        tracer.rid = req.rid
        with tracer.span("request"):
            results.append({"req": req, "raw": execute.run_traced(tracer, req)})
    req = workloads.Request("probe.cli", "burau", "1 -2", 3)
    tracer.rid = req.rid
    with tracer.span("request"):
        one_request(req, True, tracer)
    imports = []
    for _ in range(SETUP_REPEATS):
        with tracer.span("cli.import", extra=True):
            proc = execute.run_process(
                [sys.executable, "-c",
                 "import time; t = time.perf_counter(); import l2burau.cli; "
                 "print(time.perf_counter() - t)"], ROOT, 60.0, OUT)
        imports.append(float(proc["stdout"].split()[-1]))
    return results, imports


LAYER_SPANS = {
    "braid.s": "braid.s",
    "freegroup.artin_s": "freegroup.artin",
    "epifamilies.twist_s": "epifamilies.twist",
    "epifamilies.family_s": "epifamilies.family",
    "groupring.det_s": "groupring.det",
    "torsion.burau_s": "torsion.burau",
    "torsion.fq_s": "torsion.fq",
    "torsion.alexander_s": "torsion.alexander",
    "torsion.markov_s": "torsion.markov",
    "fkdet.backend_s": "fkdet.backend",
    "cli.process_s": "cli.process",
}
LAYERS = ("braid", "freegroup", "epifamilies", "groupring", "torsion", "fkdet", "cli")
BACKEND_NAMES = ("roots", "quadrature", "trace_series", "epsilon_reg")


def per_layer(tracer, imports, results) -> dict:
    spans = tracer.spans
    dur = [s["end"] - s["start"] for s in spans]
    selfs = metrics.self_times(spans)
    out = {k: sum(d for s, d in zip(spans, dur) if s["name"] == name)
           for k, name in LAYER_SPANS.items()}
    out["fkdet.numeric_s"] = out["fkdet.backend_s"] - out["groupring.det_s"]
    c = tracer.counts
    for k in ("freegroup.image_letters", "groupring.det_terms", "torsion.burau_terms",
              "fkdet.quad_points", "fkdet.walk_states"):
        out[k] = c.get(k, 0)
    out["torsion.markov_fanout"] = c["torsion.markov_seq_s"] / c["torsion.markov_wall_s"]
    # bound reached per backend, over every traced evaluation
    for name in BACKEND_NAMES:
        rel = [metrics.bound_rel(ev["value"], ev["bound"])
               for r in results if r["raw"] for ev in r["raw"].get("evals", [])
               if ev.get("method") == name]
        out[f"fkdet.bound_rel.{name}"] = metrics.median(rel) if rel else 0.0
    # overhead: what each request spent outside the calls the untraced run makes
    kids: dict[int, float] = {}
    for s, d in zip(spans, dur):
        if s["parent"] is not None and not s["extra"]:
            kids[s["parent"]] = kids.get(s["parent"], 0.0) + d
    overhead = sum(d - kids.get(i, 0.0) for i, (s, d) in enumerate(zip(spans, dur))
                   if s["name"] == "request")
    replay = sum(kids.get(i, 0.0) for i, s in enumerate(spans) if s["name"] == "cli.replay")
    replayed = sum(d for i, (s, d) in enumerate(zip(spans, dur)) if s["name"] == "cli.process"
                   and any(t["name"] == "cli.replay" and t["rid"] == s["rid"] for t in spans))
    out["cli.import_s"] = metrics.median(imports)
    out["cli.overhead_s"] = replayed - replay
    for layer in LAYERS:
        out[f"self.{layer}_s"] = sum(x for s, x in zip(spans, selfs)
                                     if s["name"].split(".")[0] == layer)
    out["self.harness_s"] = sum(x for s, x in zip(spans, selfs) if s["name"] == "request")
    out["trace.wall_s"] = sum(d for s, d in zip(spans, dur) if s["name"] == "request")
    out["trace.overhead_s"] = overhead
    return out


# --- the run -------------------------------------------------------------------------------


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(seed, workload, trace) -> dict:
    import hashlib

    import numpy

    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "l2burau").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "L2BURAU_THREADS": os.environ.get("L2BURAU_THREADS"),
        "git_commit": git_commit(), "source_sha256": h.hexdigest(),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_times = measure_setup(workload, seed)
    first, gen = setup(workload, seed)
    cli = workload == "cli-cold"
    tracer = execute.Tracer() if trace else None
    results, wall = closed_loop(first, gen, seconds, cli, tracer)
    check_all(results)
    record = {
        "provenance": provenance(seed, workload, trace),
        "run_wall_s": wall, "setup_s": setup_times,
        "attempted": len(results), "failed": sum(1 for r in results if r["failures"]),
        "requests": [request_record(r) for r in results],
    }
    if trace:
        probe, imports = run_probe(tracer)
        record["per_layer"] = per_layer(tracer, imports, results + probe)
        (OUT / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(tracer.spans))
    else:
        record["end_to_end"], record["tail"] = end_to_end(results, wall, setup_times, cli)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return record


def report(record, trace: bool):
    e2e_units, layer_units = metric_units()
    p = record["provenance"]
    print(f"# {p['workload']} seed={p['seed']} trace={int(trace)} nproc={p['nproc']} "
          f"python={p['python']} numpy={p['numpy']} L2BURAU_THREADS={p['L2BURAU_THREADS']} "
          f"commit={p['git_commit']}")
    print(f"attempted {record['attempted']}  failed {record['failed']}  "
          f"run wall {record['run_wall_s']:.3f} s")
    for r in record["requests"]:
        if not r["ok"]:
            known = "  [known defect: " + r["known_defect"] + "]" if r["known_defect"] else ""
            print(f"FAILED {r['rid']} ({r['kind']} {' '.join(r['argv'][1:4])}): "
                  f"{'; '.join(r['failures'])}{known}")
    if trace:
        values, units = record["per_layer"], layer_units
        for name, v in values.items():
            print(f"{name:<30} {v:.6g} {units.get(name, '')}")
    else:
        values, units, t = record["end_to_end"], e2e_units, record["tail"]
        for name, v in values.items():
            note = (f"  (p{t['percentile']:.1f} of {t['samples']}, {t['beyond']} beyond)"
                    if name == "latency_tail_s" else "")
            print(f"{name:<18} {v:.6g} {E2E_UNITS[name]}{note}")
    metrics_out = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    known_only = all(r["ok"] or r["known_defect"] for r in record["requests"])
    print(json.dumps({"correct": known_only, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics_out}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all", "winding-sweep", "free-markov", "cli-cold"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "l2burau" / "__init__.py").is_file():
        print(f"error: no l2burau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        t0 = time.perf_counter()
        setup(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0
    if args.workload == "all":
        for w in ("winding-sweep", "free-markov", "cli-cold"):
            code = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], cwd=ROOT).returncode
            if code:
                return code
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
