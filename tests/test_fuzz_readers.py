"""Fuzzed text readers raise only their documented error types.

`load_model` raises ModelValidationError, `load_gauss_vector` and
`parse_gauss` ValueError, whatever JSON or text they are given: deep
nesting, bools, floats, NaN, huge ints and stray characters included.  The
command line maps those to exit 3, so `run` on fuzzed model and vector
files never exits 1 ("tolerance not met") or 9 ("internal error").
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hamca.cli import EXIT_INTERNAL, EXIT_TOLERANCE, main
from hamca.errors import ModelValidationError
from hamca.gaussian import GaussInt, GaussVector, _AnyDigits
from hamca.models import HamiltonianSpec
from hamca.serialization import load_gauss_vector, load_model, parse_gauss



def unlimited(convert):
    """convert run with no int <-> str digit limit: the documents hold ints
    past the default 4300 digits, which the readers accept."""
    def run(value):
        with _AnyDigits():
            return convert(value)
    return run


# built by map, since hypothesis reprs its strategies' arguments
HUGE = st.sampled_from([4400, 5000]).map(lambda k: 10**k) | st.sampled_from([70, 20_000]).map(lambda k: 1 - 2**k)
SCALARS = st.none() | st.booleans() | st.floats() | st.integers(-3, 3) | HUGE | st.text(max_size=6)
JSON = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                                                       max_size=3), max_leaves=12)
DUMPS = unlimited(json.dumps)
DEPTH = st.sampled_from([1, 50, 900, 980, 990, 1000, 5000, 100_000])


@st.composite
def nested(draw, inner=st.just("0")):
    """`inner` at the bottom of a run of JSON arrays, the depth drawn from
    either side of the interpreter's recursion limit."""
    depth = draw(DEPTH)
    return "[" * depth + draw(inner) + "]" * depth


MODEL_VALUES = JSON | st.integers(-2, 3) | st.lists(st.lists(JSON | st.integers(-2, 2), max_size=3), max_size=3)
MODEL_DOCS = st.one_of(
    JSON.map(DUMPS),
    st.fixed_dictionaries({"dim": MODEL_VALUES, "S": MODEL_VALUES, "A": MODEL_VALUES},
                          optional={"label": JSON}).map(DUMPS),
    nested(),
    nested().map(lambda deep: f'{{"dim": 1, "S": {deep}, "A": [[0]]}}'),
    nested().map(lambda deep: f'{{"dim": 1, "S": [[0]], "A": [[0]], "label": {deep}}}'),
)
VECTOR_DOCS = st.one_of(
    JSON.map(DUMPS),
    st.lists(JSON | st.lists(JSON | st.integers(-2, 2), max_size=3) | st.text("0123456789+-i ", max_size=8),
             min_size=1, max_size=3).map(DUMPS),
    nested(),
    nested().map(lambda deep: f"[1, {deep}]"),
)
LITERALS = st.text(max_size=12) | st.text("0123456789+-i \t١１_.", max_size=12) | HUGE.map(unlimited(str))

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d) / "doc.json"


@FUZZ
@given(doc=MODEL_DOCS)
def test_load_model_raises_only_model_validation_error(scratch, doc):
    scratch.write_text(doc)
    try:
        assert isinstance(load_model(scratch), HamiltonianSpec)
    except ModelValidationError:
        pass


@FUZZ
@given(doc=VECTOR_DOCS)
def test_load_gauss_vector_raises_only_value_error(scratch, doc):
    scratch.write_text(doc)
    try:
        assert isinstance(load_gauss_vector(scratch), GaussVector)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(text=LITERALS)
def test_parse_gauss_raises_only_value_error(text):
    try:
        value = parse_gauss(text)
    except ValueError:
        return
    assert isinstance(value, GaussInt)
    # a literal that parses is ASCII apart from whitespace: no other digit is read as one
    assert "".join(text.split()).isascii()


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(model=MODEL_DOCS, vector=VECTOR_DOCS)
def test_run_on_fuzzed_files_never_exits_1_or_9(scratch, capsys, model, vector):
    scratch.write_text(model)
    vector_file = scratch.with_name("v.json")
    vector_file.write_text(vector)
    codes = [
        main(["run", "--model", str(scratch), "--psi0", "1", "--psi1", "0", "--steps", "2", "--probe"]),
        main(["run", "--model", "H2", "--psi0", f"@{vector_file}", "--psi1", "0,1", "--steps", "2", "--probe"]),
    ]
    capsys.readouterr()
    assert not {EXIT_TOLERANCE, EXIT_INTERNAL} & set(codes), codes
