"""Strict problem-file ingestion.

A problem file is a YAML document with a fixed schema: a plant (state and
input matrices, optional initial state), a channel ensemble, and optional
solver options. The key sets and the channel field table below are the one
statement of that schema: each channel kind names its two vector fields,
the only ones it accepts, which must have equal length. Unknown keys and
duplicate keys are rejected with their line numbers; matrix literals are
row-major nested arrays of numbers, and a string, boolean or null inside one
is rejected. YAML 1.1 reads ``1e3`` and ``1.0e3`` as strings: a number in
exponent form needs a decimal point and a signed exponent, ``1.0e+3``.

libyaml's C scanner and parser (``yaml.CSafeLoader``) read the document when
PyYAML was built with it, and PyYAML's pure-Python ones otherwise. Either way
PyYAML's Python resolver and safe constructor build the values, so a number
is a number by the same rules and every value and line map is the same;
syntax errors carry the same line, in libyaml's or PyYAML's wording. The one
shortcut: an item of a sequence that the resolver tags float or int, and
whose text is plain decimal (digits, sign, point and exponent, no ``_``,
``:``, ``.inf``, ``.nan``, base prefix or leading zero), is built by Python's
``float`` or ``int``, which read such text exactly as the safe constructor
does; every other node goes through the safe constructor.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import DimensionMismatch, InvalidInput, InvariantViolation, ParseError
from .plantmodel import AWGN, FADING, ChannelEnsemble, Plant

#: channel kind -> (its name in messages, its two equal-length vector fields)
_CHANNEL_FIELDS = {
    AWGN: ("AWGN channels", ("power", "noise_density")),
    FADING: ("fading channels", ("mean", "variance")),
}
_TOP_KEYS = {"plant", "channels", "options"}
_PLANT_KEYS = {"A", "B", "x0"}
_CHANNEL_KEYS = {"kind"}.union(*(names for _, names in _CHANNEL_FIELDS.values()))
_OPTION_KEYS = {"epsilon", "t_end", "dt", "seed"}

#: A number in exponent form that YAML 1.1 leaves a string, for want of a
#: decimal point or of the exponent's sign: mantissa, exponent letter, sign,
#: digits.
_EXPONENT_TEXT = re.compile(r"\s*([-+]?(?:\d+\.?\d*|\.\d+))([eE])([-+]?)(\d+)\s*")


class _TrackedDict(dict):
    """Mapping that remembers the source line of each key."""

    def __init__(self):
        super().__init__()
        self.lines: dict = {}
        self.start_line: int = 0


#: resolved scalar tag -> (text that Python's constructor reads exactly as
#: PyYAML's does: decimal, with no "_", ":", ".inf", ".nan", base prefix or
#: octal leading zero; that constructor)
_DECIMAL = {
    "tag:yaml.org,2002:float": (
        re.compile(r"[-+]?(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"), float),
    "tag:yaml.org,2002:int": (re.compile(r"[-+]?(?:0|[1-9][0-9]*)"), int),
}


class _StrictLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    def construct_sequence(self, node, deep=False):
        """The sequence's items, each scalar resolved as a float or int with
        decimal text built by ``float`` or ``int`` directly, every other item
        by ``construct_object``."""
        if not isinstance(node, yaml.SequenceNode):
            return super().construct_sequence(node, deep)
        items = []
        for child in node.value:
            direct = _DECIMAL.get(child.tag) if isinstance(child, yaml.ScalarNode) else None
            if direct is not None and direct[0].fullmatch(child.value):
                items.append(direct[1](child.value))
            else:
                items.append(self.construct_object(child, deep=deep))
        return items


def _construct_mapping(loader, node):
    mapping = _TrackedDict()
    mapping.start_line = node.start_mark.line + 1
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=True)
        line = key_node.start_mark.line + 1
        if key in mapping:
            raise ParseError(f"duplicate key {key!r}", line=line)
        mapping[key] = loader.construct_object(value_node, deep=True)
        mapping.lines[key] = line
    return mapping


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


def _reject_unknown(mapping, allowed, context):
    for key in mapping:
        if key not in allowed:
            raise ParseError(
                f"unknown key {key!r} in {context}", line=mapping.lines.get(key)
            )


def _require(mapping, key, context):
    if key not in mapping:
        raise ParseError(f"{context} is missing required key {key!r}",
                         line=mapping.start_line)
    return mapping[key]


def _section(raw, key, allowed):
    """The required top-level mapping ``raw[key]``, holding only ``allowed`` keys."""
    mapping = _require(raw, key, "problem file")
    if not isinstance(mapping, _TrackedDict):
        raise ParseError(f"{key!r} must be a mapping", line=raw.lines.get(key))
    _reject_unknown(mapping, allowed, repr(key))
    return mapping


def _not_a_number(entry):
    """Why a matrix-literal entry is not a number, for the error message."""
    if isinstance(entry, bool):
        return (f"{entry!r} is a boolean; YAML 1.1 reads yes/no, on/off and "
                f"true/false as booleans")
    if entry is None:
        return "null is not a number"
    if not isinstance(entry, str):
        return f"{entry!r} is a {type(entry).__name__}"
    reason = f"{entry!r} is a string"
    parts = _EXPONENT_TEXT.fullmatch(entry)
    if parts is not None:
        mantissa, letter, sign, digits = parts.groups()
        if "." not in mantissa:
            mantissa += ".0"
        reason += (f"; YAML 1.1 reads a number in exponent form as a string unless "
                   f"it has a decimal point and a signed exponent: write "
                   f"{mantissa}{letter}{sign or '+'}{digits}")
    return reason


def _array(mapping, key, context, ndim):
    """The required ``mapping[key]`` as a nonempty float array of ``ndim``
    (1 or 2) dimensions, every entry a YAML int or float; ``context`` names
    the mapping in messages."""
    value = _require(mapping, key, context)
    line = mapping.lines.get(key)
    what = "rectangular numeric array" if ndim == 2 else "numeric vector"
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{key} must be a {what}", line=line)
    if arr.ndim != ndim or arr.size == 0:
        raise ParseError(f"{key} must be a nonempty {ndim}-d array", line=line)
    entries = value if ndim == 1 else itertools.chain.from_iterable(value)
    for entry in entries:
        if type(entry) is not float and type(entry) is not int:
            raise ParseError(f"{key} must be a {what}: {_not_a_number(entry)}", line=line)
    return arr


def _construct(cls, **fields):
    """``cls(**fields)``, its type-invariant failures raised as InvariantViolation."""
    try:
        return cls(**fields)
    except InvalidInput as exc:
        raise InvariantViolation(str(exc)) from None


@dataclass(frozen=True)
class ProblemFile:
    """Parsed and validated problem statement."""

    plant: Plant
    channels: ChannelEnsemble
    options: dict = field(default_factory=dict)


def parse_problem_file(text: str) -> ProblemFile:
    """Parse a problem document, rejecting malformed or inconsistent input.

    Raises ParseError (with a line number where available) for syntax and
    schema issues, DimensionMismatch for inconsistent matrix shapes, and
    InvariantViolation for values that violate type invariants.
    """
    try:
        raw = yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ParseError(f"invalid document syntax: {exc}", line=line) from None
    if not isinstance(raw, _TrackedDict):
        raise ParseError("problem file must be a mapping at the top level")
    _reject_unknown(raw, _TOP_KEYS, "the top level")

    plant_map = _section(raw, "plant", _PLANT_KEYS)
    A = _array(plant_map, "A", "'plant'", 2)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape[0]}x{A.shape[1]}")
    B = _array(plant_map, "B", "'plant'", 2)
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"B has {B.shape[0]} rows but A is {A.shape[0]}x{A.shape[1]}"
        )
    x0 = None
    if "x0" in plant_map:
        x0 = _array(plant_map, "x0", "'plant'", 1)
        if x0.size != A.shape[0]:
            raise DimensionMismatch(
                f"x0 has length {x0.size} but the state dimension is {A.shape[0]}"
            )
    plant = _construct(Plant, A=A, B=B, x0=x0)

    ch_map = _section(raw, "channels", _CHANNEL_KEYS)
    kind = _require(ch_map, "kind", "'channels'")
    # a non-string kind (a list, say) is unhashable and no dict key
    if not isinstance(kind, str) or kind not in _CHANNEL_FIELDS:
        raise ParseError(
            f"channel kind must be {' or '.join(map(repr, _CHANNEL_FIELDS))}, "
            f"got {kind!r}",
            line=ch_map.lines.get("kind"),
        )
    context, (first, second) = _CHANNEL_FIELDS[kind]
    _reject_unknown(ch_map, {"kind", first, second}, context)
    fields = {name: _array(ch_map, name, context, 1) for name in (first, second)}
    if fields[first].size != fields[second].size:
        raise DimensionMismatch(f"{first} and {second} differ in length")
    channels = _construct(ChannelEnsemble, kind=kind, **fields)

    options = {}
    opt_map = _section(raw, "options", _OPTION_KEYS) if "options" in raw else {}
    for key in ("epsilon", "t_end", "dt"):
        if key in opt_map:
            value = opt_map[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParseError(f"{key} must be a number", line=opt_map.lines.get(key))
            if value <= 0:
                raise InvariantViolation(f"{key} must be positive, got {value}")
            options[key] = float(value)
    if "seed" in opt_map:
        value = opt_map["seed"]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError("seed must be an integer", line=opt_map.lines.get("seed"))
        options["seed"] = int(value)
    if "epsilon" in options and options["epsilon"] > 1.0:
        raise InvariantViolation("epsilon must lie in (0, 1]")

    return ProblemFile(plant=plant, channels=channels, options=options)


def load_problem_file(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem_file(fh.read())


__all__ = ["ProblemFile", "parse_problem_file", "load_problem_file"]
