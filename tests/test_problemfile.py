import pathlib
import textwrap

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from netstab import problemfile
from netstab.errors import DimensionMismatch, InvariantViolation, NetstabError, ParseError
from netstab.problemfile import _construct_mapping, _StrictLoader, parse_problem_file

AWGN_DOC = textwrap.dedent(
    """\
    plant:
      A:
        - [4, 0, 0, 0]
        - [0, 2, 0, 0]
        - [0, 0, 1, 0]
        - [0, 0, 0, 1]
      B:
        - [1, 1]
        - [1, 1]
        - [1, 1]
        - [0, 1]
      x0: [1, 1, 1, 1]
    channels:
      kind: awgn
      power: [9.1, 3.1, 4.1]
      noise_density: [1, 1, 1]
    options:
      seed: 0
      epsilon: 0.1
    """
)


def test_parse_benchmark_document():
    pf = parse_problem_file(AWGN_DOC)
    assert pf.plant.n == 4 and pf.plant.m == 2
    assert_allclose(pf.plant.A, np.diag([4.0, 2.0, 1.0, 1.0]))
    assert_allclose(pf.plant.x0, np.ones(4))
    assert pf.channels.kind == "awgn"
    assert_allclose(pf.channels.power, [9.1, 3.1, 4.1])
    assert pf.options == {"seed": 0, "epsilon": 0.1}


def test_fading_document():
    doc = AWGN_DOC.replace(
        "kind: awgn", "kind: fading"
    ).replace("power: [9.1, 3.1, 4.1]", "mean: [2, 0.6, 0.9]").replace(
        "noise_density: [1, 1, 1]", "variance: [0.35, 0.2, 0.25]"
    )
    pf = parse_problem_file(doc)
    assert pf.channels.kind == "fading"
    assert_allclose(pf.channels.variance, [0.35, 0.2, 0.25])


def test_b_row_mismatch():
    doc = AWGN_DOC.replace("    - [0, 1]\n", "")
    assert doc != AWGN_DOC
    with pytest.raises(DimensionMismatch):
        parse_problem_file(doc)


def test_x0_length_mismatch():
    doc = AWGN_DOC.replace("x0: [1, 1, 1, 1]", "x0: [1, 1]")
    with pytest.raises(DimensionMismatch):
        parse_problem_file(doc)


def test_negative_noise_density():
    doc = AWGN_DOC.replace("noise_density: [1, 1, 1]", "noise_density: [1, -1, 1]")
    with pytest.raises(InvariantViolation):
        parse_problem_file(doc)


def test_duplicate_key_reports_line():
    doc = AWGN_DOC + "options:\n  seed: 1\n"
    with pytest.raises(ParseError) as err:
        parse_problem_file(doc)
    assert "duplicate" in str(err.value)
    assert err.value.line == AWGN_DOC.count("\n") + 1


def test_unknown_key_reports_line():
    doc = AWGN_DOC + "extra_section: 1\n"
    with pytest.raises(ParseError) as err:
        parse_problem_file(doc)
    assert "unknown key" in str(err.value)
    assert err.value.line == AWGN_DOC.count("\n") + 1


def test_unknown_nested_key():
    doc = AWGN_DOC.replace("  x0: [1, 1, 1, 1]", "  gain: [1, 1, 1, 1]")
    with pytest.raises(ParseError) as err:
        parse_problem_file(doc)
    assert "'plant'" in str(err.value)


def test_missing_required_section():
    with pytest.raises(ParseError):
        parse_problem_file("plant:\n  A: [[1]]\n  B: [[1]]\n")


def test_bad_matrix_literal():
    doc = AWGN_DOC.replace("- [0, 1]", "- [0, oops]")
    with pytest.raises(ParseError):
        parse_problem_file(doc)


def test_non_mapping_document():
    with pytest.raises(ParseError):
        parse_problem_file("- 1\n- 2\n")


def test_bad_option_values():
    with pytest.raises(InvariantViolation):
        parse_problem_file(AWGN_DOC.replace("epsilon: 0.1", "epsilon: -0.5"))
    with pytest.raises(InvariantViolation):
        parse_problem_file(AWGN_DOC.replace("epsilon: 0.1", "epsilon: 2.0"))
    with pytest.raises(ParseError):
        parse_problem_file(AWGN_DOC.replace("seed: 0", "seed: zero"))


def test_signed_exponents_and_plain_ints_parse():
    pf = parse_problem_file(AWGN_DOC.replace(PLANT_SECTION, (
        "plant:\n  A: [[1.0e+3, 2], [-3, 4.5E-1]]\n  B: [[1.e+0], [.5e-2]]\n"
        "  x0: [7, -1]\n")))
    for arr in (pf.plant.A, pf.plant.B, pf.plant.x0):
        assert arr.dtype == float
    assert pf.plant.A.tolist() == [[1000.0, 2.0], [-3.0, 0.45]]
    assert pf.plant.B.tolist() == [[1.0], [0.005]]
    assert pf.plant.x0.tolist() == [7.0, -1.0]


def test_unstable_kind_rejected():
    with pytest.raises(ParseError):
        parse_problem_file(AWGN_DOC.replace("kind: awgn", "kind: quantized"))


PLANT_SECTION = AWGN_DOC[: AWGN_DOC.index("channels:")]
AWGN_SECTION = AWGN_DOC[AWGN_DOC.index("channels:") : AWGN_DOC.index("options:")]
OPTIONS_SECTION = AWGN_DOC[AWGN_DOC.index("options:") :]
FADING_DOC = (
    PLANT_SECTION
    + "channels:\n  kind: fading\n  mean: [2, 0.6, 0.9]\n  variance: [0.35, 0.2, 0.25]\n"
    + OPTIONS_SECTION
)

# (id, document, exception type, message, .line): every ingestion error path,
# pinned exactly; ParseError messages carry their "line N: " prefix.
INGESTION_ERRORS = [
    ("plant-missing", AWGN_SECTION + OPTIONS_SECTION, ParseError,
     "line 1: problem file is missing required key 'plant'", 1),
    ("plant-not-mapping", AWGN_DOC.replace(PLANT_SECTION, "plant: [1, 2]\n"),
     ParseError, "line 1: 'plant' must be a mapping", 1),
    ("channels-missing", PLANT_SECTION + OPTIONS_SECTION, ParseError,
     "line 1: problem file is missing required key 'channels'", 1),
    ("channels-not-mapping", AWGN_DOC.replace(AWGN_SECTION, "channels: awgn\n"),
     ParseError, "line 13: 'channels' must be a mapping", 13),
    ("options-not-mapping", AWGN_DOC.replace(OPTIONS_SECTION, "options: [seed]\n"),
     ParseError, "line 17: 'options' must be a mapping", 17),
    ("unknown-plant-key", AWGN_DOC.replace("  x0:", "  x1:"), ParseError,
     "line 12: unknown key 'x1' in 'plant'", 12),
    ("unknown-channel-key", AWGN_DOC.replace("kind: awgn", "kind: awgn\n  gain: [1]"),
     ParseError, "line 15: unknown key 'gain' in 'channels'", 15),
    ("unknown-option", AWGN_DOC.replace("seed: 0", "sead: 0"), ParseError,
     "line 18: unknown key 'sead' in 'options'", 18),
    ("A-missing", AWGN_DOC.replace(PLANT_SECTION, "plant:\n  B: [[1]]\n"),
     ParseError, "line 2: 'plant' is missing required key 'A'", 2),
    ("B-missing", AWGN_DOC.replace(PLANT_SECTION, "plant:\n  A: [[1]]\n"),
     ParseError, "line 2: 'plant' is missing required key 'B'", 2),
    ("kind-missing", AWGN_DOC.replace("  kind: awgn\n", ""), ParseError,
     "line 14: 'channels' is missing required key 'kind'", 14),
    ("power-missing", AWGN_DOC.replace("  power: [9.1, 3.1, 4.1]\n", ""),
     ParseError, "line 14: AWGN channels is missing required key 'power'", 14),
    ("noise_density-missing", AWGN_DOC.replace("  noise_density: [1, 1, 1]\n", ""),
     ParseError, "line 14: AWGN channels is missing required key 'noise_density'", 14),
    ("mean-missing", FADING_DOC.replace("  mean: [2, 0.6, 0.9]\n", ""),
     ParseError, "line 14: fading channels is missing required key 'mean'", 14),
    ("variance-missing", FADING_DOC.replace("  variance: [0.35, 0.2, 0.25]\n", ""),
     ParseError, "line 14: fading channels is missing required key 'variance'", 14),
    ("awgn-length", AWGN_DOC.replace("noise_density: [1, 1, 1]", "noise_density: [1, 1]"),
     DimensionMismatch, "power and noise_density differ in length", None),
    ("fading-length", FADING_DOC.replace("variance: [0.35, 0.2, 0.25]", "variance: [0.35]"),
     DimensionMismatch, "mean and variance differ in length", None),
    ("bad-matrix-literal", AWGN_DOC.replace("- [0, 1]", "- [0, oops]"), ParseError,
     "line 7: B must be a rectangular numeric array", 7),
    ("ragged-matrix", AWGN_DOC.replace("- [0, 1]", "- [0]"), ParseError,
     "line 7: B must be a rectangular numeric array", 7),
    ("A-1d", AWGN_DOC.replace(PLANT_SECTION, "plant:\n  A: [1, 2]\n  B: [[1], [1]]\n"),
     ParseError, "line 2: A must be a nonempty 2-d array", 2),
    ("A-not-square", AWGN_DOC.replace("    - [0, 0, 0, 1]\n", ""), DimensionMismatch,
     "A must be square, got 3x4", None),
    ("B-rows", AWGN_DOC.replace("    - [0, 1]\n", ""), DimensionMismatch,
     "B has 3 rows but A is 4x4", None),
    ("A-non-finite", AWGN_DOC.replace("- [4, 0, 0, 0]", "- [.inf, 0, 0, 0]"),
     InvariantViolation, "A has non-finite entries", None),
    ("x0-length", AWGN_DOC.replace("x0: [1, 1, 1, 1]", "x0: [1, 1]"),
     DimensionMismatch, "x0 has length 2 but the state dimension is 4", None),
    ("x0-2d", AWGN_DOC.replace("x0: [1, 1, 1, 1]", "x0: [[1, 1, 1, 1]]"), ParseError,
     "line 12: x0 must be a nonempty 1-d array", 12),
    ("x0-literal", AWGN_DOC.replace("x0: [1, 1, 1, 1]", "x0: [1, a, 1, 1]"),
     ParseError, "line 12: x0 must be a numeric vector", 12),
    ("x0-quoted-number", AWGN_DOC.replace("x0: [1, 1, 1, 1]", 'x0: [" 7 "]'),
     ParseError, "line 12: x0 must be a numeric vector: ' 7 ' is a string", 12),
    ("power-quoted-number", AWGN_DOC.replace("power: [9.1, 3.1, 4.1]", 'power: ["9"]'),
     ParseError, "line 15: power must be a numeric vector: '9' is a string", 15),
    # YAML 1.1 wants a decimal point and a signed exponent
    ("B-exponent-without-point",
     AWGN_DOC.replace(PLANT_SECTION, "plant:\n  A: [[1]]\n  B: [[1e3]]\n"), ParseError,
     "line 3: B must be a rectangular numeric array: '1e3' is a string; YAML 1.1 reads "
     "a number in exponent form as a string unless it has a decimal point and a "
     "signed exponent: write 1.0e+3", 3),
    ("B-exponent-without-sign",
     AWGN_DOC.replace(PLANT_SECTION, "plant:\n  A: [[1]]\n  B: [[-2.5E3]]\n"), ParseError,
     "line 3: B must be a rectangular numeric array: '-2.5E3' is a string; YAML 1.1 "
     "reads a number in exponent form as a string unless it has a decimal point and "
     "a signed exponent: write -2.5E+3", 3),
    ("noise_density-booleans",
     AWGN_DOC.replace("noise_density: [1, 1, 1]", "noise_density: [yes, no]"), ParseError,
     "line 16: noise_density must be a numeric vector: True is a boolean; YAML 1.1 "
     "reads yes/no, on/off and true/false as booleans", 16),
    ("A-null-entry", AWGN_DOC.replace("- [4, 0, 0, 0]", "- [~, 0, 0, 0]"), ParseError,
     "line 2: A must be a rectangular numeric array: null is not a number", 2),
    ("power-empty", AWGN_DOC.replace("power: [9.1, 3.1, 4.1]", "power: []"),
     ParseError, "line 15: power must be a nonempty 1-d array", 15),
    ("noise_density-negative",
     AWGN_DOC.replace("noise_density: [1, 1, 1]", "noise_density: [1, -1, 1]"),
     InvariantViolation, "noise_density entries must be strictly positive", None),
    ("mean-zero", FADING_DOC.replace("mean: [2, 0.6, 0.9]", "mean: [2, 0, 0.9]"),
     InvariantViolation, "mean entries must be nonzero", None),
    ("kind-unknown", AWGN_DOC.replace("kind: awgn", "kind: quantized"), ParseError,
     "line 14: channel kind must be 'awgn' or 'fading', got 'quantized'", 14),
    ("kind-not-string", AWGN_DOC.replace("kind: awgn", "kind: [1]"), ParseError,
     "line 14: channel kind must be 'awgn' or 'fading', got [1]", 14),
    ("epsilon-string", AWGN_DOC.replace("epsilon: 0.1", "epsilon: small"),
     ParseError, "line 19: epsilon must be a number", 19),
    ("epsilon-bool", AWGN_DOC.replace("epsilon: 0.1", "epsilon: true"),
     ParseError, "line 19: epsilon must be a number", 19),
    ("dt-string", AWGN_DOC.replace("epsilon: 0.1", "dt: fast"), ParseError,
     "line 19: dt must be a number", 19),
    ("epsilon-negative", AWGN_DOC.replace("epsilon: 0.1", "epsilon: -0.5"),
     InvariantViolation, "epsilon must be positive, got -0.5", None),
    ("t_end-zero", AWGN_DOC.replace("epsilon: 0.1", "t_end: 0"),
     InvariantViolation, "t_end must be positive, got 0", None),
    ("epsilon-above-one", AWGN_DOC.replace("epsilon: 0.1", "epsilon: 2.0"),
     InvariantViolation, "epsilon must lie in (0, 1]", None),
    ("seed-float", AWGN_DOC.replace("seed: 0", "seed: 1.5"), ParseError,
     "line 18: seed must be an integer", 18),
    ("seed-string", AWGN_DOC.replace("seed: 0", "seed: zero"), ParseError,
     "line 18: seed must be an integer", 18),
    ("top-not-mapping", "- 1\n- 2\n", ParseError,
     "problem file must be a mapping at the top level", None),
    ("awgn-with-fading-field",
     AWGN_DOC.replace("noise_density: [1, 1, 1]", "noise_density: [1, 1, 1]\n  mean: [5, 5, 5]"),
     ParseError, "line 17: unknown key 'mean' in AWGN channels", 17),
    ("fading-with-awgn-field",
     FADING_DOC.replace("kind: fading", "kind: fading\n  power: [9, 9, 9]"),
     ParseError, "line 15: unknown key 'power' in fading channels", 15),
]


@pytest.mark.parametrize(
    "doc, exc_type, message, line",
    [case[1:] for case in INGESTION_ERRORS],
    ids=[case[0] for case in INGESTION_ERRORS],
)
def test_ingestion_error_is_pinned(doc, exc_type, message, line):
    assert doc not in (AWGN_DOC, FADING_DOC)
    with pytest.raises(NetstabError) as err:
        parse_problem_file(doc)
    assert type(err.value) is exc_type
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line


def test_options_are_optional():
    pf = parse_problem_file(FADING_DOC.replace(OPTIONS_SECTION, ""))
    assert pf.options == {} and pf.channels.kind == "fading"


# (id, document, .line): syntax errors keep their line under either scanner;
# the wording after the prefix is the scanner's own
SYNTAX_ERRORS = [
    ("tab-indent", "plant:\n  A: [[1]]\n\tB: [[1]]\n", 3),
    ("unclosed-flow-sequence", "plant:\n  A: [[1, 2]\n  B: [[1]]\n", 3),
    ("undefined-alias", "plant:\nA: *x\n", 2),
    ("mapping-in-scalar", "plant:\n  A: [[1]]\nB: a: b\n", 3),
]


class _PurePythonLoader(yaml.SafeLoader):
    """PyYAML's pure-Python scanner and parser under the strict mapping constructor."""


_PurePythonLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


def _parse_with(loader, text):
    """``parse_problem_file(text)`` scanned by ``loader``: the ProblemFile, or
    the type and message of the error it raised."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problemfile, "_StrictLoader", loader)
        try:
            return parse_problem_file(text)
        except NetstabError as exc:
            return type(exc), str(exc), getattr(exc, "line", None)


def _tree(node):
    """A loaded document as nested tuples: each mapping with its start line and
    per-key lines, each float by its bits, so -0.0 and 0.0 differ."""
    if isinstance(node, dict):
        return ("map", node.start_line,
                tuple((key, node.lines[key], _tree(value)) for key, value in node.items()))
    if isinstance(node, list):
        return ("seq", tuple(_tree(value) for value in node))
    if isinstance(node, float):
        return ("float", node.hex())
    return (type(node).__name__, node)


def _same_bits(a, b):
    return (a is None and b is None) or (
        np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)))


def assert_loaders_agree(text):
    trees = [_tree(yaml.load(text, Loader=loader))
             for loader in (_StrictLoader, _PurePythonLoader)]
    assert trees[0] == trees[1]
    fast, pure = (_parse_with(loader, text) for loader in (_StrictLoader, _PurePythonLoader))
    if not isinstance(fast, problemfile.ProblemFile):
        assert fast == pure
        return
    assert isinstance(pure, problemfile.ProblemFile)
    for name in ("A", "B", "x0"):
        assert _same_bits(getattr(fast.plant, name), getattr(pure.plant, name))
    assert fast.channels.kind == pure.channels.kind
    for name in ("power", "noise_density", "mean", "variance"):
        assert _same_bits(getattr(fast.channels, name), getattr(pure.channels, name))
    assert fast.options == pure.options


@pytest.mark.parametrize("doc, line", [case[1:] for case in SYNTAX_ERRORS],
                         ids=[case[0] for case in SYNTAX_ERRORS])
def test_syntax_error_is_pinned(doc, line):
    with pytest.raises(NetstabError) as err:
        parse_problem_file(doc)
    assert type(err.value) is ParseError
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: invalid document syntax: ")
    assert _parse_with(_PurePythonLoader, doc)[2] == line


def test_libyaml_scans_when_built_in():
    # a silent fall back to the pure-Python scanner parses each file 4-6x slower
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert issubclass(_StrictLoader, expected)


@pytest.mark.parametrize("path", sorted(
    (pathlib.Path(__file__).parent.parent / "problems").glob("*.yaml")), ids=lambda p: p.name)
def test_loaders_agree_on_the_demo_problems(path):
    assert_loaders_agree(path.read_text(encoding="utf-8"))


def _yaml_float(x):
    # repr, with a decimal point: YAML 1.1 reads "1e+308" as a string
    text = repr(x)
    return text if "." in text or "e" not in text else text.replace("e", ".0e")


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(_yaml_float),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                     2.2250738585072014e-308]).map(_yaml_float),
    st.integers(-(10**20), 10**20).map(str),
)
# scalars whose reading is the resolver's: a string, inf, nan, null, base 60 and 16
_RESOLVED = st.sampled_from(["1e3", ".inf", "-.Inf", ".nan", "~", "0x1A", "1:30", "1_000", "+.5"])


@st.composite
def problem_documents(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    entries = _NUMBERS | _RESOLVED if draw(st.booleans()) else _NUMBERS
    rows = draw(st.lists(st.lists(entries, min_size=n + m, max_size=n + m),
                         min_size=n, max_size=n))
    nested = draw(st.booleans())
    lines = ["plant:"]
    for key, cols in (("A", slice(0, n)), ("B", slice(n, n + m))):
        literal = ["[" + ", ".join(row[cols]) + "]" for row in rows]
        if nested:
            lines.append(f"  {key}: [{', '.join(literal)}]")
        else:
            lines += [f"  {key}:"] + [f"    - {row}" for row in literal]
    power = draw(st.lists(st.floats(1e-3, 1e3).map(_yaml_float), min_size=1, max_size=4))
    lines += ["channels:", "  kind: awgn", f"  power: [{', '.join(power)}]",
              f"  noise_density: [{', '.join(['1'] * len(power))}]"]
    epsilon = draw(st.none() | st.floats(1e-6, 1.0).map(_yaml_float))
    if epsilon is not None:
        lines += ["options:", f"  epsilon: {epsilon}", f"  seed: {draw(st.integers(0, 99))}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(problem_documents())
def test_loaders_agree_on_generated_problems(text):
    assert_loaders_agree(text)
