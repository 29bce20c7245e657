"""Fuzz properties of the command-line contract.

Whatever the circuit file or the argument list, the CLI ends with an exit
code in {0, 1, 2, 3} and never with a traceback, and a usage error (exit 2)
says so on exactly one ``error:`` line (after argparse's usage text, where
argparse reports it).  Each input is a well-formed circuit or command line
with at most one key, value or token broken, so that many examples reach
the simulator instead of stopping at the parser; sizes stay small (d <= 4,
n <= 6, ports <= 7, five steps), so no example runs a large cell.

CI runs these with more examples:
    pytest tests/test_fuzz.py --hypothesis-profile=ghzforge-ci
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from ghzforge.cli import main

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-2, 4), st.floats(allow_nan=True, allow_infinity=True),
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# valid values; ``_circuit`` corrupts at most one of them
_PORT = st.integers(0, 7)
_REAL = st.floats(-0.6, 0.6) | st.integers(-1, 1)
_MODE = st.tuples(_PORT, st.sampled_from(["H", "V"]), st.sampled_from([1, 1, 2])).map(list)

_STEP = st.one_of(
    st.fixed_dictionaries({"elem": st.just("pbs"), "port_a": _PORT, "port_b": _PORT}),
    st.fixed_dictionaries({"elem": st.just("hwp"), "port": _PORT, "theta": _REAL}),
    st.fixed_dictionaries({"elem": st.just("phase"), "port": _PORT, "phi": _REAL}),
    st.fixed_dictionaries({"elem": st.just("bd_merge"), "port_even": _PORT,
                           "port_odd": _PORT, "port_out": _PORT}),
    st.fixed_dictionaries({"elem": st.just("bd_split"), "port_in": _PORT,
                           "port_even": _PORT, "port_odd": _PORT}),
    st.fixed_dictionaries({"elem": st.just("inject"), "state": st.lists(
        st.fixed_dictionaries({"modes": st.lists(_MODE, min_size=1, max_size=2),
                               "re": _REAL, "im": _REAL}),
        min_size=1, max_size=3,
    )}),
    st.fixed_dictionaries({"elem": st.just("postselect"), "kind": st.just("coincidence"),
                           "groups": st.lists(st.lists(_PORT, min_size=1, max_size=2),
                                              min_size=1, max_size=2)}),
    st.fixed_dictionaries({
        "elem": st.just("postselect"), "kind": st.just("pas_pair"),
        "port_x": _PORT, "port_y": _PORT,
        "mode": st.sampled_from(["filtered", "feedforward"]), "correction_port": _PORT,
    }),
)


@st.composite
def _circuit(draw):
    """A short list of well-formed steps, then maybe one key dropped or one
    value (a field, an amplitude part or a mode entry) replaced by any JSON."""
    steps = draw(st.lists(_STEP, max_size=5))
    mutation = draw(st.sampled_from(["none", "none", "drop", "replace"]))
    if not steps or mutation == "none":
        return steps
    holder = draw(st.sampled_from(steps))
    key = draw(st.sampled_from(sorted(holder)))
    if key == "state":
        holder = draw(st.sampled_from(holder["state"]))
        key = draw(st.sampled_from(["modes", "re", "im"]))
        if key == "modes":
            holder, key = draw(st.sampled_from(holder["modes"])), draw(st.integers(0, 2))
    if mutation == "drop":
        del holder[key]
    else:
        holder[key] = draw(_JSON)
    return steps


_SIZES = (["2", "3", "4"], ["2", "3", "4", "5", "6"])
_COEFFS = ["0.6,0.8", "1,0", "0.70710678,0.70710679", "0.6,0,0.8"]
_BACKENDS = ["rule", "element", "oracle"]
# per command: its sizes (None for verify), its switches and its valued flags
_COMMANDS = {
    "plan": (_SIZES, ["--feedforward", "--full"], {"--format": ["pretty", "json", "csv"]}),
    "run": (_SIZES, ["--feedforward"], {
        "--backend": _BACKENDS, "--odd-mode": ["single", "fourier"],
        "--coeffs": _COEFFS, "--format": ["json", "pretty"],
    }),
    "sweep": ((["2", "3", "2..3"], ["3", "4", "4..5", "2..6"]), ["--feedforward"], {
        "--backend": _BACKENDS, "--format": ["csv", "json", "pretty"],
    }),
    "verify": (None, [], {"--format": ["pretty", "json"]}),
    "reduce-odd": ((_SIZES[0], ["2", "4", "6"]), [], {
        "--backend": ["rule", "element"], "--odd-mode": ["single", "fourier"],
        "--coeffs": _COEFFS, "--format": ["json", "pretty"],
    }),
}
_JUNK = st.sampled_from([
    "-1", "0", "1", "x", "2.5", "3..2", "2..", "nan", "1e400,0", "a,b", "",
    "gpu", "xml", "frobnicate", "-h", "--bogus", "--circuit", "no-such-circuit.json",
]) | st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)),
             max_size=3)


@st.composite
def _argv(draw):
    """A well-formed command line, then maybe one token dropped, replaced
    or inserted."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    sizes, switches, flags = _COMMANDS[command]
    argv = [command]
    if sizes:
        argv += ["--d", draw(st.sampled_from(sizes[0])), "--n", draw(st.sampled_from(sizes[1]))]
    argv += draw(st.lists(st.sampled_from(switches), unique=True)) if switches else []
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    mutation = draw(st.sampled_from(["none", "none", "drop", "replace", "insert"]))
    if mutation != "none":
        at = draw(st.integers(0, len(argv) - (mutation != "insert")))
        if mutation == "drop":
            del argv[at]
        else:
            argv[at:at + (mutation == "replace")] = [draw(_JUNK)]
    return argv


def _check_contract(argv):
    err_buffer = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err_buffer):
        code = main(argv)
    err = err_buffer.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    lines = err.rstrip("\n").split("\n")
    if code == 2:  # argparse prints its usage first; the error is the one last line
        assert [line for line in lines if "error:" in line] == lines[-1:], err
    return code, lines


@given(circuit=_circuit() | _JSON)
def test_circuit_files_keep_the_exit_contract(circuit):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "circuit.json"
        path.write_text(json.dumps(circuit), encoding="utf-8")
        code, lines = _check_contract(["run", "--circuit", str(path)])
    # a circuit file has no prediction to miss, so it never exits 1
    assert code != 1
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error:")


@given(argv=_argv())
def test_argument_lists_keep_the_exit_contract(argv):
    _check_contract(argv)
