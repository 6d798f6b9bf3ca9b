import json
import time

import pytest

from l2burau import cli, torsion
from l2burau.braid import BraidWord
from l2burau.cli import main
from l2burau.epifamilies import AbelianImage, Identity

BOYD = 1.3813564445184977  # m(1 + x + y) in closed form (Smyth 1981)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_burau_phi(capsys):
    code, out, _ = run(capsys, "burau", "-b", "1", "-n", "2", "-f", "phi")
    assert code == 0
    assert out.strip() == "[ (-1)t^1 [z] ]"


def test_burau_identity_blank(capsys):
    code, out, _ = run(capsys, "burau", "-b", "", "-n", "3", "-f", "id")
    assert code == 0
    assert "1 [e]" in out


def test_burau_json_counterexample_matrix(capsys):
    code, out, _ = run(capsys, "burau", "-b", "-1 2", "-f", "id", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["entries"][0][0] == [{"elem": "g1^-1", "coeffs": {"-1": "-1"}}]


def test_fq_values_and_csv(capsys):
    code, out, _ = run(capsys, "fq", "-b", "1 1 1", "-f", "phi", "-t", "1")
    assert code == 0 and "F = 1" in out
    code, out, _ = run(
        capsys, "fq", "-b", "1 1 1", "-f", "phi", "-t", "1/2 2", "--csv"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("t,value")
    assert len(rows) == 3


def test_fq_json_round_trip(capsys):
    code, out, _ = run(capsys, "fq", "-b", "-1 2", "-f", "ab", "-t", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload[0]["value"] - BOYD) <= payload[0]["error_bound"]


def test_fq_json_reports_the_root_precision(capsys):
    # 7_1 (deg Delta = 6): the float pass certifies every root, so each t
    # reads root_bits 53 and a bound within 1e-13 of the value
    code, out, _ = run(capsys, "fq", "-b", "1 1 1 1 1 1 1", "-n", "2", "-f", "phi", "-t", "1/2 1 2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [r["diagnostics"]["root_bits"] for r in payload] == [53, 53, 53]
    assert all(r["error_bound"] <= 1e-13 * r["value"] for r in payload)


def test_markov_command(capsys):
    code, out, _ = run(
        capsys,
        "markov",
        "-b",
        "-1",
        "-n",
        "2",
        "-f",
        "ab",
        "--moves",
        "stab:+1",
        "-t",
        "1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["verdict"] == "violation"


def test_markov_json_stage_provenance(capsys):
    # every stage records its backend and diagnostics, as fq --json does
    code, out, _ = run(
        capsys, "markov", "-b", "-1", "-n", "2", "-f", "ab", "--moves", "stab:+1", "--json"
    )
    assert code == 0
    (report,) = json.loads(out)
    start, stab = report["stages"]
    assert set(start) == {"move", "braid", "value", "error_bound", "method", "diagnostics"}
    assert (start["method"], stab["method"]) == ("roots", "quadrature")
    code, out, _ = run(capsys, "fq", "-b", stab["braid"], "-n", "3", "-f", "ab", "--json")
    (fq,) = json.loads(out)
    assert stab["diagnostics"] == fq["diagnostics"]
    assert stab["value"] == fq["value"]


def test_text_output_warns_on_diagnostic_flags(capsys):
    # tail_vacuous and injectivity_assumed reach the text output as warning
    # lines under their value; --json carries them as diagnostics only
    vacuous = "warning: tail_vacuous: series cut while its terms are still material, no tail model"
    argv = ["-f", "id", "--no-accel", "--series-len", "12"]
    code, out, _ = run(capsys, "fq", "-b", "-1 2", *argv)
    assert code == 0 and out.splitlines()[1] == "  " + vacuous
    code, out, _ = run(capsys, "fq", "-b", "-1 2", *argv, "--json")
    (fq,) = json.loads(out)
    assert fq["diagnostics"]["tail_vacuous"] and "warning" not in out
    code, out, _ = run(capsys, "markov", "-b", "-1", "-n", "2", *argv, "--moves", "stab:+1")
    # the base stage, rank 1, is exact; only the stabilized stage warns
    assert code == 0 and out.splitlines()[3:] == ["    " + vacuous]
    # a 3 x 3 matrix has no reduction
    code, out, _ = run(capsys, "fq", "-b", "1 2 3", "-n", "4", "-f", "id", "--series-len", "8")
    assert code == 0 and out.splitlines()[1] == (
        "  warning: injectivity_assumed: no reduction applies; the operator is assumed injective"
    )
    code, out, _ = run(capsys, "fq", "-b", "1 1 1", "-f", "phi", "-t", "1/2 2")
    assert code == 0 and "warning" not in out


def test_text_output_warns_on_a_vacuous_bound(capsys):
    # the free-group series of this id braid answers 1.08 +- 1.30, a bound
    # that cannot tell the value from zero
    argv = ["fq", "-b", "1 -2 3", "-n", "4", "-f", "id"]
    code, out, _ = run(capsys, *argv, "--json")
    (fq,) = json.loads(out)
    assert code == 0 and fq["error_bound"] >= fq["value"] > 0
    assert fq["diagnostics"]["bound_vacuous"] is True
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines() == [
        "t=1: F = 1.079557061 (+- 1.3)",
        "  warning: injectivity_assumed: no reduction applies; the operator is assumed injective",
        "  warning: bound_vacuous: the error bound is not below the value",
    ]
    # a bound below the value sets no flag
    code, out, _ = run(capsys, "fq", "-b", "1 2 1 2", "-n", "3", "-f", "ab", "--json")
    (fq,) = json.loads(out)
    assert code == 0 and "bound_vacuous" not in fq["diagnostics"]


# a 120-letter word on 12 strands: an 11 x 11 symbolic determinant per t
BUDGET_WORD = (
    "-1 -1 -2 -6 -10 3 11 3 -7 -7 10 10 -4 5 -10 -8 10 1 -4 -3 -2 -8 -7 -5 "
    "4 -3 -6 -9 -5 -2 -6 9 -3 -8 -5 -6 -6 1 -8 5 2 -6 -11 4 -9 -3 -5 -5 8 4 "
    "-10 -4 -11 -5 -7 9 -7 -2 -11 10 -7 -10 -6 -5 -2 -3 7 10 9 1 2 5 -10 -9 "
    "-4 -6 -5 -1 7 9 -5 -4 -6 -5 -3 -7 -11 2 10 11 -4 -4 -6 9 -4 6 -3 -5 3 "
    "-10 9 -5 -1 4 7 -3 5 -4 1 3 1 -4 -8 -7 3 -9 7 8 4 -9"
)


def test_fq_twelve_strands_within_budget(capsys):
    assert len(BUDGET_WORD.split()) == 120
    start = time.perf_counter()
    code, out, _ = run(capsys, "fq", "-f", "phi", "-n", "12", "-b", BUDGET_WORD, "-t", "1/2 1 2")
    assert code == 0 and len(out.strip().splitlines()) == 3
    assert time.perf_counter() - start < 10.0


@pytest.fixture
def counted(monkeypatch):
    """The braids torsion folds and the sizes of the matrices it expands,
    one entry per call of ``_burau_fold`` and ``_laplace``."""
    folded, expanded = [], []
    fold, laplace = torsion._burau_fold, torsion._laplace

    def counted_fold(beta, family):
        folded.append(beta.render())
        return fold(beta, family)

    def counted_laplace(group, rows):
        expanded.append(len(rows))
        return laplace(group, rows)

    monkeypatch.setattr(torsion, "_burau_fold", counted_fold)
    monkeypatch.setattr(torsion, "_laplace", counted_laplace)
    return folded, expanded


def test_markov_t_sweep_builds_each_stage_once(capsys, counted):
    folded, expanded = counted
    code, out, _ = run(
        capsys, "markov", "-b", "1 -2 1 -2", "-f", "phi",
        "--moves", "conj:1, stab:+1", "-t", "1/2 2",
    )
    assert code == 0 and out.count("verdict=") == 2
    assert len(folded) == len(set(folded)) == 3
    assert sorted(expanded) == [2, 2, 3]


MARKOV_CHAIN = ("markov", "-b", "1 1 1", "--moves", "conj:1, conj:-1, conj:1, conj:-1")


def test_markov_chain_longer_than_the_caches_folds_each_stage_once(capsys, counted):
    # five stages outgrow the four-entry fold and determinant caches, so
    # only a loop that takes every t of a stage in a row reads each fold
    # and determinant back for the later t
    folded, expanded = counted
    code, out, _ = run(capsys, *MARKOV_CHAIN, "-t", "1/2 1 2")
    assert code == 0 and out.count("verdict=") == 3
    assert len(folded) == len(set(folded)) == 5
    assert len(expanded) == 5


def test_markov_t_sweep_json_is_the_one_t_runs_in_order(capsys):
    code, out, _ = run(capsys, *MARKOV_CHAIN, "-t", "1/2 1 2", "--json")
    assert code == 0
    one_t = []
    for t0 in ("1/2", "1", "2"):
        code, single, _ = run(capsys, *MARKOV_CHAIN, "-t", t0, "--json")
        assert code == 0
        one_t += json.loads(single)
    assert json.loads(out) == one_t
    assert [r["t"] for r in one_t] == ["1/2", "1", "2"]


def test_route_in_diagnostics(capsys):
    code, out, _ = run(capsys, "fq", "-b", "1 2 1 2 1", "-f", "phi", "--json")
    assert code == 0
    code, out, _ = run(capsys, "fq", "-b", "-1 2", "-f", "id", "--series-len", "8", "--json")
    assert code == 0
    # markov stages carry the diagnostics fq gives their braids
    code, out, _ = run(
        capsys, "markov", "-b", "1 2 1 2 1", "-f", "phi", "--moves", "conj:-1, stab:-1", "--json"
    )
    (report,) = json.loads(out)
    for stage, strands in zip(report["stages"], ("3", "3", "4")):
        code, out, _ = run(
            capsys, "fq", "-b", stage["braid"], "-n", strands, "-f", "phi", "--json"
        )
        (fq,) = json.loads(out)
        assert stage["diagnostics"] == fq["diagnostics"]
    # burau --json does not carry the route
    code, out, _ = run(capsys, "burau", "-b", "1 2 1 2 1", "-f", "phi", "--json")
    assert code == 0 and "route" not in json.loads(out)


def test_mismatched_method_keeps_backend_message(capsys):
    for argv, message in (
        (("-b", "1 2 1 2", "-f", "ab", "--method", "roots"), "det_integers needs an Integers"),
        (("-b", "-1 2", "-f", "id", "--method", "roots"), "det_integers needs an Integers"),
        (("-b", "1 2 1 2", "-f", "phi", "--method", "quad"), "det_free_abelian needs a FreeAbelian"),
        (("-b", "-1 2", "-f", "id", "--method", "quad"), "det_free_abelian needs a FreeAbelian"),
    ):
        code, out, err = run(capsys, "fq", *argv)
        assert code == 3 and out == ""
        assert err == f"error: {message} coefficient group\n"


def test_alexander_command(capsys):
    code, out, _ = run(capsys, "alexander", "-b", "1 1 1")
    assert code == 0 and out.strip() == "s^2 - s + 1"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "fq", "-b", "1 0", "-f", "phi")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "fq", "-b", "1", "-t", "1/0")
    assert code == 2 and "'1/0'" in err


def test_sublattice_custom_file_exit_code(tmp_path, capsys):
    mat = tmp_path / "fam.txt"
    mat.write_text("2 0\n0 1\n")
    code, _, err = run(capsys, "fq", "-b", "1", "-f", f"custom:{mat}")
    assert code == 2 and "sublattice" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("burau", "-b", "1", "--csv"),
        ("markov", "-b", "1", "--moves", "stab:+1", "--csv"),
        ("alexander", "-b", "1 1 1", "--csv"),
        ("fq", "-b", "1", "--json", "--csv"),
    ],
)
def test_csv_only_where_it_applies(capsys, argv):
    # --csv belongs to fq alone, and there it excludes --json
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "--csv" in err


@pytest.mark.parametrize("path", ["/no/such/images.txt", ""])
def test_missing_custom_file_is_a_parse_error(capsys, path):
    code, out, err = run(capsys, "fq", "-b", "1", "-f", f"custom:{path}")
    assert code == 2 and out == ""
    assert f"custom family file {path!r}" in err


def test_backend_error_exit_code(capsys):
    # two-component closure: alexander rejects it after parsing succeeds
    code, _, err = run(capsys, "alexander", "-b", "1", "-n", "3")
    assert code == 3 and "error" in err


@pytest.mark.parametrize("argv", [
    ["fq", "-b", "1 1", "-n", "2"],
    ["fq", "-b", "1 2 3", "-n", "4", "-f", "id"],
    ["markov", "-b", "1 1", "-n", "2", "--moves", "conj:1"],
])
def test_a_t_that_overflows_a_float_is_named(capsys, argv):
    # F at t = 1e200 overflows a float in max(1, t)^n, or already in the
    # backend's float coefficients; either way the message names t
    message = f"error: F at t={10**200} overflows a float\n"
    assert run(capsys, *argv, "-t", "1e200") == (3, "", message)


def test_out_of_range_backend_options_are_argument_errors(capsys):
    # --grid and --series-len are checked against the library's own limits
    # and messages before any backend runs, whichever backend the request
    # reaches; the library keeps raising ValueError on its own
    with pytest.raises(ValueError) as grid_error:
        torsion.fq_value(BraidWord(3, (1, 2, 1, 2)), AbelianImage(), 1, grid=63)
    with pytest.raises(ValueError) as series_error:
        torsion.fq_value(BraidWord(3, (-1, 2)), Identity(), 1, series_len=7)
    with pytest.raises(ValueError) as long_series_error:
        torsion.fq_value(BraidWord(3, (-1, 2)), Identity(), 1, series_len=513)
    requests = (
        ("fq", "-b", "1 2 1 2", "-n", "3", "-f", "ab"),
        ("fq", "-b", "1", "-f", "phi"),
        ("fq", "-b", "-1 2", "-f", "id"),
        ("markov", "-b", "1", "-f", "phi", "--moves", "stab:+1"),
    )
    for option, value, error in (
        ("--grid", "63", grid_error),
        ("--grid", "0", grid_error),
        ("--series-len", "7", series_error),
        ("--series-len", "513", long_series_error),
    ):
        for argv in requests:
            assert run(capsys, *argv, option, value) == (2, "", f"error: {error.value}\n")
    code, out, _ = run(capsys, "fq", "-b", "1", "-f", "phi", "--grid", "64", "--series-len", "8")
    assert code == 0 and out.startswith("t=1: F = 1")


def test_quadrature_grid_budget_fails_fast(capsys):
    # torus dimension 5 leaves a grid below 16 under the quadrature budget
    start = time.perf_counter()
    code, _, err = run(capsys, "fq", "-f", "ab", "-b", "1 2 3 4 1 2 3 4", "-n", "5")
    assert code == 3 and "torus dimension 5" in err
    assert time.perf_counter() - start < 2.0


def test_quadrature_smyth_closed_form(capsys):
    # abelianized 1 1 2 has determinant 1 + x + y + z up to units (Smyth 1981)
    smyth = 1.5315470966874578  # exp(7 zeta(3) / (2 pi^2))
    code, out, _ = run(capsys, "fq", "-b", "1 1 2", "-n", "3", "-f", "ab", "--json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["method"] == "quadrature"
    # a span-1 coordinate on a coarsened 3-torus: Jensen's formula
    assert row["diagnostics"]["jensen_axis"] == 0 and row["diagnostics"]["torus_dim"] == 2
    assert abs(row["value"] - smyth) <= row["error_bound"] <= 1e-8


def test_quadrature_figure_eight_golden_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "fq", "-b", "1 -2 1 -2", "-n", "3", "-f", "ab", "--json")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    (row,) = json.loads(out)
    assert abs(row["value"] - 2.006163) <= row["error_bound"] + 2e-6


def test_bad_flag_exit_code(capsys):
    assert main(["fq", "--nope"]) == 2


def test_counterexample_abelianization(capsys):
    code, out, _ = run(capsys, "counterexample", "abelianization")
    assert code == 0
    assert out.startswith("PASS")
    assert "1.381356" in out


def test_counterexample_identity(capsys):
    code, out, _ = run(capsys, "counterexample", "identity", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert abs(payload["values"][1] - 1.1547005383792515) < 2e-2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "alexander", "-b", "1 -2 1 -2", "--json", "-o", str(target)
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data == {"0": "1", "1": "-3", "2": "1"}


@pytest.mark.parametrize(
    "argv, backend",
    [
        (("fq", "-b", "1"), "fq_value"),
        (("alexander", "-b", "1 1 1"), "alexander_polynomial"),
    ],
)
def test_unwritable_output_path_is_an_argument_error(tmp_path, capsys, monkeypatch, argv, backend):
    # the -o path is checked before any backend runs: exit 2, the path named
    def refuse(*args, **kwargs):
        raise AssertionError("a backend ran before the output path was checked")

    monkeypatch.setattr(cli, backend, refuse)
    for path in ("/no/such/dir/out.txt", str(tmp_path)):
        code, out, err = run(capsys, *argv, "-o", path)
        assert code == 2 and out == ""
        assert path in err
