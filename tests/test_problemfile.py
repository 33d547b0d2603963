import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose

from netstab.errors import DimensionMismatch, InvariantViolation, NetstabError, ParseError
from netstab.problemfile import parse_problem_file

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
