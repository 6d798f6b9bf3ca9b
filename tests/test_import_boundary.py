"""The import boundary: ``l2burau.fkdet`` is the only module that imports
numpy, and it loads only when a request reaches a determinant backend;
``csv`` loads only for ``fq --csv``.

Each command runs in a fresh interpreter, which reports at exit which of
numpy, ``l2burau.fkdet`` and ``csv`` it loaded.  CLI commands run through
``l2burau.cli.main``, as the ``l2burau`` console script does.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import l2burau

SRC = Path(l2burau.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
BACKEND = {"numpy", "l2burau.fkdet"}
WATCHED = BACKEND | {"csv"}
REPORT = (
    "import atexit, sys\n"
    f"atexit.register(lambda: print('loaded:', *sorted({WATCHED!r} & set(sys.modules)), "
    "file=sys.stderr))\n"
)
CLI = "from l2burau.cli import main; sys.exit(main(sys.argv[1:]))"

# the package's public names: every name it re-exports, and its submodules
PUBLIC = [
    "AbelianImage", "Basis", "BraidWord", "BurauMatrix", "Conjugate", "FKEstimate",
    "FQValue", "Free", "FreeAbelian", "FreeWord", "GroupRingElement", "GroupRingMatrix",
    "Identity", "Integers", "MarkovReport", "Stabilize", "TPoly", "TotalWinding",
    "alexander_polynomial", "artin_act", "braid", "braid_word", "change_of_basis",
    "compose", "conjugate", "det_epsilon_reg", "det_free_abelian", "det_free_group",
    "det_integers", "epifamilies", "epsilon_estimate", "family_by_name", "fkdet",
    "fold_subgroup_basis", "fq_value", "free_cancel", "freegroup", "groupring", "invert",
    "is_knot_closure", "markov_report", "parse_braid", "parse_word", "permutation",
    "quadrature_estimate", "reduced_burau", "render_poly", "roots_estimate",
    "series_estimate", "stabilize", "torsion", "twist", "winding", "word",
]


def loaded(code: str, *argv: str) -> tuple[int, set[str]]:
    """The exit code of ``python -c code argv...`` and which of WATCHED it loaded."""
    proc = subprocess.run([sys.executable, "-c", REPORT + code, *argv], capture_output=True,
                          text=True, env=ENV, timeout=120)
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("loaded:"), proc.stderr[-2000:]
    return proc.returncode, set(last.split()[1:])


@pytest.mark.parametrize(
    "args, code",
    [
        (("import l2burau",), 0),
        (("import l2burau.cli",), 0),
        ((CLI, "burau", "-b", "1 -2 1", "-n", "3", "--json"), 0),
        ((CLI, "alexander", "-b", "1 1 1"), 0),
        ((CLI, "fq", "--help"), 0),
        ((CLI, "fq", "-b", "1 2 1 2", "-n", "3", "-f", "ab", "--grid", "63"), 2),
        ((CLI, "fq", "-b", "-1 2", "-n", "3", "-f", "id", "--series-len", "513"), 2),
    ],
    ids=["import", "import-cli", "burau", "alexander", "fq-help", "bad-grid", "bad-series-len"],
)
def test_exact_commands_never_load_the_backends(args, code):
    assert loaded(*args) == (code, set())


def test_an_estimate_loads_the_backends():
    assert loaded(CLI, "fq", "-b", "1 2 1 2", "-n", "3", "-f", "ab") == (0, BACKEND)


@pytest.mark.parametrize("flag, extra", [("--json", set()), ("--csv", {"csv"})])
def test_only_csv_output_loads_csv(flag, extra):
    assert loaded(CLI, "fq", "-b", "1 1 1", flag) == (0, BACKEND | extra)


def test_public_names_resolve_to_their_defining_modules():
    assert l2burau.__all__ == PUBLIC
    for name in PUBLIC:
        obj = getattr(l2burau, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"l2burau.{name}"]
        else:
            assert obj.__module__.startswith("l2burau.")
            assert getattr(sys.modules[obj.__module__], name) is obj
    namespace: dict = {}
    exec("from l2burau import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
    assert not hasattr(l2burau, "no_such_name")
