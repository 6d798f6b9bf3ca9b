"""Property test of the command line: any input ends in exit 0, 2 or 3,
never in an uncaught exception."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from l2burau.cli import main  # noqa: E402


GOOD = {
    "t": ("1", "1/2 1 2", "3/2 2/3"),
    "moves": ("conj:1", "stab:+1", "conj:-1, stab:-1", "stab:-1, conj:1 -2"),
    "family": ("phi",),
}
BAD = {
    "letters": ("0", "1 0 -1", "5", "-4", "1 x", "2.5"),
    "t": ("0", "-1", "1/0", "abc", "", "1 -2"),
    "moves": ("stab:+2", "flip:1", "conj:0", "conj:9", "stab:"),
    "family": ("nope", "custom:no-such-images.txt", "custom:"),
    "strands": ("0", "-2", "x"),
}


@st.composite
def argv(draw):
    """A short phi-family command on at most 4 strands, with at most one
    argument malformed."""
    broken = draw(st.sampled_from((None, None, None) + tuple(BAD)))

    def pick(name):
        return draw(st.sampled_from(BAD[name] if broken == name else GOOD[name]))

    command = draw(st.sampled_from(("fq", "markov", "burau", "alexander")))
    n = draw(st.integers(2, 4))
    signed = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    letters = [i * s for i, s in draw(st.lists(signed, max_size=6))]
    text = pick("letters") if broken == "letters" else " ".join(map(str, letters))
    out = [command, "-b", text]
    if broken == "strands":
        out += ["-n", pick("strands")]
    elif not letters or draw(st.booleans()):
        out += ["-n", str(n)]
    if command != "alexander":
        out += ["-f", pick("family")]
    if command in ("fq", "markov"):
        out += ["-t", pick("t")]
    if command == "markov":
        out += ["--moves", pick("moves")]
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(argv=argv())
@example(argv=["fq", "-b", "1 -2", "-f", "phi", "-t", "1/0"])  # ZeroDivisionError, not ValueError
def test_cli_exit_codes(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
