"""Fuzzed ``.efa`` input: every text loads or is rejected with its line.

The loader sees outside input, so every malformed file must end in an
``EfaParseError`` (exit 2) that names its line, never in another exception
or a traceback.  Only a missing header has no line to name.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import effalg as ea
from effalg.cli import main
from effalg.models import EfaParseError, loads

FUZZ = settings(derandomize=True, database=None, deadline=None)

_TOKEN = st.one_of(st.integers(-2, 12).map(str),
                   st.sampled_from(["", "x", "1.5", "2000", "9" * 25, "٣"]))
_HOSTILE = st.one_of(
    st.lists(_TOKEN, max_size=4).map(lambda ts: "sum: " + " ".join(ts)),
    st.tuples(_TOKEN, st.text(max_size=4)).map(lambda p: f"label: {p[0]} {p[1]}"),
    _TOKEN.map("elements: {}".format),
    _TOKEN.map("one: {}".format),
    st.sampled_from(["", "# comment", "sum:", "elements 3"]),
    st.text(max_size=12),
)


@st.composite
def efa_lines(draw):
    """A well-formed file on at most six elements with a few lines replaced, dropped or added."""
    size = draw(st.integers(2, 6))
    idx = st.integers(0, size - 1)
    lines = [f"elements: {size}", f"one: {draw(idx)}"]
    lines += [f"label: {draw(idx)} {draw(st.text(max_size=3))}"
              for _ in range(draw(st.integers(0, 2)))]
    lines += ["sum: {} {} {}".format(*draw(st.tuples(idx, idx, idx)))
              for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["insert", "replace", "drop"]))
        if action == "drop" or pos == len(lines):
            del lines[pos:pos + 1]
        if action != "drop":
            lines.insert(pos, draw(_HOSTILE))
    return lines


def _with_junk(lines, junk, sep):
    """Encode the lines and append raw bytes to some of them."""
    raw = [line.encode() for line in lines]
    for pos, extra in junk:
        if raw:
            raw[pos % len(raw)] += extra
    return sep.join(raw)


EFA_TEXT = efa_lines().map("\n".join)
EFA_BYTES = st.builds(_with_junk, efa_lines(),
                      st.lists(st.tuples(st.integers(0, 20), st.binary(min_size=1, max_size=4)),
                               max_size=2),
                      st.sampled_from([b"\n", b"\r\n", b"\r"]))


@settings(FUZZ, max_examples=250)
@given(EFA_TEXT)
def test_text_loads_or_names_its_line(text):
    try:
        alg = loads(text)
    except EfaParseError as exc:
        assert exc.line is not None or str(exc).startswith("missing '"), str(exc)
    else:
        assert isinstance(alg, ea.FiniteEffectAlgebra)


@settings(FUZZ, max_examples=120)
@given(payload=EFA_BYTES)
def test_check_on_fuzzed_bytes_exits_cleanly(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz.efa"
    path.write_bytes(payload)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error: line " in err.getvalue() or "missing '" in err.getvalue()
