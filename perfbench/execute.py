"""Ways of running one request: in process, in process with spans, or as a
cold ``l2burau`` process with a deadline.

All three return the same raw record, which ``workloads.check`` reads:
``evals`` (t, value, bound, method, diagnostics), ``poly``, ``verdict``,
``matrix`` and, for counterexamples, the command's ``tolerance``.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from l2burau import braid as braidmod
from l2burau import cli as climod
from l2burau.epifamilies import family_by_name, twist, twists_cheaply
from l2burau.fkdet import (
    _ball_radius_for,
    det_epsilon_reg,
    det_free_abelian,
    det_free_group,
    det_integers,
)
from l2burau.freegroup import Basis, FreeWord, artin_act
from l2burau.groupring import FreeAbelian, GroupRingMatrix, Integers, is_commutative
from l2burau.torsion import (
    Conjugate,
    Stabilize,
    alexander_polynomial,
    fq_value,
    markov_report,
    reduced_burau,
)

EPS_BUDGET = inspect.signature(det_epsilon_reg).parameters["state_budget"].default
BACKENDS = {
    "roots": det_integers,
    "quad": det_free_abelian,
    "series": det_free_group,
    "eps": det_epsilon_reg,
}


def _bound(b):
    return None if b in (None, "unknown") else float(b)


def _poly(p: dict) -> dict[int, int]:
    return {int(k): int(Fraction(v)) for k, v in p.items()}


def _moves(req, beta):
    out, n = [], beta.strands
    for kind, arg in req.moves:
        if kind == "conj":
            out.append(Conjugate(braidmod.parse_braid(arg, n)))
        else:
            out.append(Stabilize(int(arg)))
            n += 1
    return out


def _eval(t, value, bound, method, diagnostics):
    return {"t": str(t), "value": value, "bound": bound, "method": method,
            "diagnostics": diagnostics}


def _fq_eval(r):
    return _eval(r.t0, r.value, r.error_bound, r.estimate.method, r.estimate.diagnostics)


# --- in process, as a user of the library calls it -----------------------------


def run_plain(req) -> dict:
    family = family_by_name(req.family) if req.kind != "alexander" else None
    beta = braidmod.parse_braid(req.braid, req.strands)
    if req.kind == "fq":
        return {"evals": [_fq_eval(fq_value(beta, family, t, method=req.method))
                          for t in req.t_values]}
    if req.kind == "alexander":
        return {"poly": _poly(alexander_polynomial(beta))}
    if req.kind == "markov":
        rep = markov_report(beta, _moves(req, beta), family, req.t_values[0])
        return {"evals": [_fq_eval(s.fq) for s in rep.stages], "verdict": rep.verdict}
    if req.kind == "burau":
        return {"matrix": reduced_burau(beta, family).to_json_obj()}
    raise ValueError(f"no in-process form of {req.kind!r}")


# --- in process, split into layers with spans ------------------------------------


class Tracer:
    """Spans kept in memory: name, start, end, parent span, request id.

    ``extra`` marks calls the untraced run does not make (repeated work
    that splits one layer from another); the overhead of tracing is what
    a request spends outside its non-extra calls.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.rid: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, extra: bool = False):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "rid": self.rid, "extra": extra}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: float = 1):
        self.counts[name] = self.counts.get(name, 0) + k


def _terms(M: GroupRingMatrix) -> int:
    return sum(len(tp.coeffs) for row in M.entries for e in row for tp in e.terms.values())


def _ball_size(rank: int, radius: int) -> int:
    if rank == 1:
        return 1 + 2 * radius
    a = 2 * rank
    return 1 + a * ((a - 1) ** radius - 1) // (a - 2)


def _walk_states(est, m: int) -> int:
    """States the walks of one backend call visit: ball size x walks.

    The series walks one ball per matrix component, and a second ball of
    radius - 1 for its truncation check when the radius exceeds 2; the
    eps backend does that for each of its epsilons.
    """
    d = est.diagnostics
    if "rank" not in d:
        return 0
    rank = d["rank"]
    radius = d.get("radius")
    if radius is None:  # eps records no radius; it walks under its default budget
        radius = _ball_radius_for(rank, EPS_BUDGET)
    comps = 1 if ("subgroup_rank" in d) else m
    per = _ball_size(rank, radius) + (_ball_size(rank, radius - 1) if radius > 2 else 0)
    return per * comps * len(d.get("epsilons", [None]))


def _split_route(tr: Tracer, beta, family):
    """Repeat, as extra spans, the work the Burau route hides inside it.

    The route is chosen by the rule of reduced_burau(route="auto").
    """
    n = beta.strands
    if twists_cheaply(family) and len(beta.letters) > 3:  # the compose route
        with tr.span("epifamilies.twist", extra=True):
            for i in range(1, len(beta.letters)):
                twist(family, braidmod.BraidWord(n, beta.letters[:i]))
    else:
        with tr.span("freegroup.artin", extra=True):
            for j in range(1, n):
                img = artin_act(beta, FreeWord.gen(n, j), Basis.G)
                tr.count("freegroup.image_letters", img.length())


def traced_fq(tr: Tracer, beta, family, t, method=None, extra=False) -> dict:
    """fq_value split into its layers: Burau assembly, then the backend."""
    t0 = Fraction(t)
    n = beta.strands
    with tr.span("torsion.fq", extra=extra):
        with tr.span("torsion.burau"):
            bm = reduced_burau(beta, family)
        E = bm.matrix - GroupRingMatrix.identity(bm.matrix.group, n - 1)
        grp = E.group
        if method is None:
            method = ("roots" if isinstance(grp, Integers)
                      else "quad" if isinstance(grp, FreeAbelian) else "series")
        with tr.span("fkdet.backend"):
            est = BACKENDS[method](E, t0)
        norm = float(max(Fraction(1), t0)) ** n
        value = est.value / norm
        bound = None if est.error_bound is None else est.error_bound / norm
    tr.count("torsion.burau_terms", _terms(bm.matrix))
    d = est.diagnostics
    if "grids" in d:
        tr.count("fkdet.quad_points", sum(g ** d["torus_dim"] for g in d["grids"]))
    tr.count("fkdet.walk_states", _walk_states(est, E.rows))
    if method in ("roots", "quad") and is_commutative(grp):
        with tr.span("groupring.det", extra=True):
            det = E.determinant()
        tr.count("groupring.det_terms", sum(len(tp.coeffs) for tp in det.terms.values()))
    return _eval(t0, value, bound, est.method, d)


def run_traced(tr: Tracer, req) -> dict:
    if req.kind == "counterexample":
        return _cli_inprocess(tr, req)
    with tr.span("epifamilies.family"):  # alexander_polynomial works over phi
        family = family_by_name(req.family if req.kind != "alexander" else "phi")
    with tr.span("braid.s"):
        beta = braidmod.parse_braid(req.braid, req.strands)
    _split_route(tr, beta, family)
    if req.kind == "fq":
        return {"evals": [traced_fq(tr, beta, family, t, req.method) for t in req.t_values]}
    if req.kind == "alexander":
        with tr.span("torsion.alexander"):
            poly = alexander_polynomial(beta)
        return {"poly": _poly(poly)}
    if req.kind == "burau":
        with tr.span("torsion.burau"):
            bm = reduced_burau(beta, family)
        tr.count("torsion.burau_terms", _terms(bm.matrix))
        return {"matrix": bm.to_json_obj()}
    if req.kind == "markov":
        moves = _moves(req, beta)
        with tr.span("torsion.markov") as mk:
            rep = markov_report(beta, moves, family, req.t_values[0])
        # the same stages one after another, for the fan-out ratio
        with tr.span("braid.s", extra=True):
            stages = [beta]
            for mv in moves:
                stages.append(braidmod.conjugate(stages[-1], mv.alpha)
                              if isinstance(mv, Conjugate)
                              else braidmod.stabilize(stages[-1], mv.sign, mv.after))
        first = len(tr.spans)
        for b in stages:
            traced_fq(tr, b, family, req.t_values[0], extra=True)
        tr.count("torsion.markov_seq_s", sum(
            s["end"] - s["start"] for s in tr.spans[first:] if s["name"] == "torsion.fq"))
        tr.count("torsion.markov_wall_s", mk["end"] - mk["start"])
        return {"evals": [_fq_eval(s.fq) for s in rep.stages], "verdict": rep.verdict}
    raise ValueError(f"unknown request kind {req.kind!r}")


def _cli_inprocess(tr: Tracer, req) -> dict:
    """Run the command's own main() in this process and read its output."""
    buf = io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(buf):
        code = climod.main(req.argv())
    if code not in (0, 1):
        raise RuntimeError(f"exit code {code}")
    return parse_output(req, buf.getvalue(), code)


# --- a cold l2burau process ----------------------------------------------------


def parse_output(req, out: str, code: int) -> dict:
    """Read the --json output of an l2burau command into the raw record."""
    obj = json.loads(out)
    if req.kind == "fq":
        return {"evals": [_eval(o["t"], o["value"], _bound(o["error_bound"]), o["method"],
                                o["diagnostics"]) for o in obj]}
    if req.kind == "markov":
        (rep,) = obj
        return {"evals": [_eval(rep["t"], s["value"], _bound(s["error_bound"]), None, {})
                          for s in rep["stages"]], "verdict": rep["verdict"]}
    if req.kind == "alexander":
        return {"poly": _poly(obj)}
    if req.kind == "burau":
        return {"matrix": obj}
    if req.kind == "counterexample":
        return {"evals": [_eval("1", v, None, None, {}) for v in obj["values"]],
                "tolerance": obj["tolerance"], "verdict": obj["verdict"]}
    raise ValueError(f"unknown request kind {req.kind!r}")


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_process(argv: list[str], root: Path, deadline_s: float, workdir: Path) -> dict:
    """Run one child to completion or kill it at the deadline.

    Output goes to files rather than pipes, so a chatty child cannot block.
    Returns wall time, exit code (None when killed), stdout, stderr and the
    child's peak resident set in KiB.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=root, env=cli_env(root))
        killed = False
        try:
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start >= deadline_s:
                    proc.send_signal(signal.SIGKILL)
                    pid, status, ru = os.wait4(proc.pid, 0)
                    killed = True
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "code": None if killed else proc.returncode,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
        "rss_kib": ru.ru_maxrss,
    }


def cli_argv(req) -> list[str]:
    return [sys.executable, "-m", "l2burau.cli", *req.argv()]
