"""Report and trajectory emission.

Three formats: ``human`` (aligned text), ``machine`` (one self-describing
JSON document per report type, schema-tagged and byte-deterministic), and
``table`` (comma-separated trajectory rows at full precision). Machine
documents round-trip losslessly through :func:`parse_machine`.

This module is the one definition of the machine format. A document is
``{"schema": "netstab/<name>/v1", "payload": {...}}`` with ``<name>`` from
``_SCHEMAS``; the payload has one key per dataclass field, nested reports
as nested objects. Arrays are nested lists of floats, ``null`` stands for
an absent optional, and tuples travel as lists. Two forms are irregular:
the complex vectors ``eigenvalues``, ``pbh_failures`` and
``closed_loop_spectrum`` travel as lists of ``[re, im]`` pairs, even when
every value is real, and ``blocks`` travels as a list of ``{"A", "b"}``
objects. Keys are sorted and the separators carry no spaces, so equal
reports give equal bytes. A ``codesign-result``'s ``epsilon_trail`` may open
with "power_violation" entries that the codec search predicted rather than
verified (see ``CoDesignResult``).

A trajectory's ``states`` stack is written from its upper triangle: when
the stack equals its transpose bit for bit, the triangle entries of every
sample are formatted once each, in one ``map(repr, ...)`` pass over Python
floats, and a mirror index map scatters the texts into row-major order; any
other stack is written through the identity map. A float's ``repr`` is the
text json writes for it when it is finite; json's ``NaN``, ``Infinity`` and
``-Infinity`` replace it at the non-finite entries. The bytes are those
``json.dumps`` writes for ``states.tolist()``. The rest of the trajectory
document is one ``json.dumps`` call, and one join splices the stack into
it. The ``table`` format writes its cells through the same map. Every other
document is one ``json.dumps`` call.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing

import numpy as np

from .analysis import AnalysisReport
from .codesign import CoDesign, CoDesignResult
from .cyclic import CyclicDecomposition
from .errors import InvalidInput, ParseError
from .majorize import OrderVerdict
from .numerics import MatrixTrajectory
from .plantmodel import PlantValidation

HUMAN = "human"
MACHINE = "machine"
TABLE = "table"

_SCHEMA_PREFIX = "netstab"

#: Report type of each schema name ``netstab/<name>/v1``.
_SCHEMAS = {
    "plant-validation": PlantValidation,
    "decomposition": CyclicDecomposition,
    "order-verdict": OrderVerdict,
    "design": CoDesign,
    "codesign-result": CoDesignResult,
    "analysis": AnalysisReport,
    "trajectory": MatrixTrajectory,
}

_REPORT_TYPES = tuple(_SCHEMAS.values())

#: Fields that travel as ``[re, im]`` pairs.
_COMPLEX_FIELDS = {"eigenvalues", "pbh_failures", "closed_loop_spectrum"}

#: The field holding a stack of matrices, and what stands for it in the
#: encoded payload until :func:`_stack_json` writes it.
_STACK_FIELD = "states"
_STACK = "\x00stack"


@functools.cache
def _fields(cls):
    """``(name, declared type)`` of each field of a report dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _encode(name, value):
    """JSON form of one field value, driven by the value itself."""
    if name in _COMPLEX_FIELDS:
        z = np.asarray(value, dtype=complex).ravel()
        return np.stack([z.real, z.imag], axis=-1).tolist()
    if name == _STACK_FIELD:
        return _STACK
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float).tolist()
    if name == "blocks":
        return [{"A": _encode("A", Ai), "b": _encode("b", bi)} for Ai, bi in value]
    if isinstance(value, (tuple, list)):
        return [_encode(name, v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, _REPORT_TYPES):
        return {f: _encode(f, getattr(value, f)) for f, _ in _fields(type(value))}
    return value


def _tuples(value):
    """Nested lists become tuples, as in ``epsilon_trail``."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _decode(tp, name, value):
    """Field value rebuilt from its JSON form, driven by the declared type."""
    if value is None:
        return None
    if isinstance(tp, types.UnionType):
        (tp,) = [t for t in typing.get_args(tp) if t is not type(None)]
    if tp in _REPORT_TYPES:
        return tp(**{f: _decode(t, f, value[f]) for f, t in _fields(tp)})
    if name in _COMPLEX_FIELDS:
        z = np.asarray(value, dtype=float).reshape(-1, 2).view(complex).ravel()
        return tuple(z.tolist()) if tp is tuple else z
    if name == "blocks":
        return tuple(
            (np.asarray(b["A"], dtype=float), np.asarray(b["b"], dtype=float))
            for b in value
        )
    if tp is np.ndarray:
        return np.asarray(value, dtype=float)
    return _tuples(value)


def _mirror_map(states):
    """``(columns, order)`` of a stack flattened to ``(N, n*n)``: the columns
    whose entries are formatted, and for each row-major entry the position
    in ``columns`` of the one whose text it takes. A stack equal to its
    transpose bit for bit (so 0.0 is not -0.0) takes the upper triangle and
    its mirror, any other stack every entry as itself."""
    n = states.shape[-1]
    bits = states.view(np.uint64)
    if not np.array_equal(bits, bits.swapaxes(-1, -2)):
        every = np.arange(n * n)
        return every, every
    i, j = np.triu_indices(n)
    order = np.empty((n, n), dtype=np.intp)
    order[i, j] = order[j, i] = np.arange(i.size)
    return i * n + j, order.ravel()


def _interleave(cells, width, order, seps):
    """The rows of ``width`` texts each, read row-major from ``cells``: each
    row in ``order``, every text followed by its separator in ``seps``."""
    count = len(cells) // width
    out = [None] * (2 * count * len(order))
    step = 2 * len(order)
    for p, (column, sep) in enumerate(zip(order, seps)):
        out[2 * p::step] = cells[column::width]
        out[2 * p + 1::step] = [sep] * count
    return out


def _stack_json(states) -> str:
    """``json.dumps(states.tolist())`` with the document's separators, each
    mirrored pair of entries formatted once: by ``repr``, which is json's
    text of a finite float, and by json itself at the non-finite entries,
    whose texts are ``NaN``, ``Infinity`` and ``-Infinity``."""
    states = np.asarray(states, dtype=float)
    if not states.size:
        return json.dumps(states.tolist(), separators=(",", ":"))
    count, n, _ = states.shape
    columns, order = _mirror_map(states)
    entries = states.reshape(count, n * n)[:, columns].ravel()
    # repr, a builtin, calls faster than the slot wrapper float.__repr__
    cells = list(map(repr, entries.tolist()))
    for k in np.flatnonzero(~np.isfinite(entries)).tolist():
        cells[k] = json.dumps(float(entries[k]))
    seps = ([","] * (n - 1) + ["],["]) * n
    seps[-1] = "]],[["
    out = _interleave(cells, columns.size, order.tolist(), seps)
    out[-1] = "]]]"
    return "[[[" + "".join(out)


def emit_machine(obj) -> str:
    for name, cls in _SCHEMAS.items():
        if isinstance(obj, cls):
            doc = {"schema": f"{_SCHEMA_PREFIX}/{name}/v1", "payload": _encode(name, obj)}
            text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            if isinstance(obj, MatrixTrajectory):
                head, _, tail = text.partition(json.dumps(_STACK))
                return "".join((head, _stack_json(obj.states), tail, "\n"))
            return text + "\n"
    raise InvalidInput(f"no machine form for {type(obj).__name__}")


def parse_machine(text: str):
    """Rebuild a report object from its machine document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid machine document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("a machine document must be a JSON object")
    schema = doc.get("schema", "")
    parts = str(schema).split("/")
    if (len(parts) != 3 or parts[0] != _SCHEMA_PREFIX or parts[2] != "v1"
            or parts[1] not in _SCHEMAS):
        raise ParseError(f"unsupported schema {schema!r}")
    try:
        return _decode(_SCHEMAS[parts[1]], parts[1], doc["payload"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {schema} document: {exc!r}") from None


# ---------------------------------------------------------------------------
# human rendering


def _fmt_matrix(a, indent="  "):
    a = np.atleast_2d(np.asarray(a))
    rows = []
    for row in a:
        rows.append(indent + "[" + "  ".join(f"{v: .10g}" for v in row) + "]")
    return "\n".join(rows)


def _fmt_vec(a):
    return "(" + ", ".join(f"{v:.10g}" for v in np.asarray(a).ravel()) + ")"


def _fmt_cvec(a):
    parts = []
    for z in np.asarray(a).ravel():
        z = complex(z)
        if abs(z.imag) < 1e-12:
            parts.append(f"{z.real:.10g}")
        else:
            parts.append(f"{z.real:.10g}{z.imag:+.10g}j")
    return "(" + ", ".join(parts) + ")"


def _human_validation(r: PlantValidation):
    lines = [
        "plant validation",
        f"  stabilizable        : {'yes' if r.stabilizable else 'no'}",
        f"  unstable            : {'yes' if r.unstable else 'no'}",
        f"  axis eigenvalues    : {'yes' if r.has_axis_eigenvalues else 'no'}",
        f"  topological entropy : {r.entropy:.10g}",
        f"  eigenvalues         : {_fmt_cvec(r.eigenvalues)}",
    ]
    if r.pbh_failures:
        lines.append(f"  PBH failures        : {_fmt_cvec(np.asarray(r.pbh_failures))}")
    return "\n".join(lines) + "\n"


def _human_decomposition(d: CyclicDecomposition):
    lines = [
        "cyclic decomposition",
        f"  blocks (k)          : {d.k}",
        f"  block entropies     : {_fmt_vec(d.h)}",
        f"  seed                : {d.seed}",
    ]
    for j, (Ai, bi) in enumerate(d.blocks, start=1):
        lines.append(f"  block {j}: dim {Ai.shape[0]}, b = {_fmt_vec(bi)}")
        lines.append(_fmt_matrix(Ai, indent="    "))
    lines.append("  state transformation P:")
    lines.append(_fmt_matrix(d.P, indent="    "))
    lines.append("  input transformation Q:")
    lines.append(_fmt_matrix(d.Q, indent="    "))
    return "\n".join(lines) + "\n"


def _human_order(v: OrderVerdict):
    direction = "ascending" if v.ascending else "descending"
    lines = [
        f"order check ({v.relation}, {direction} prefix sums)",
        f"  holds: {'yes' if v.holds else 'no'}",
        f"  {'prefix':>8} {'left':>16} {'right':>16} {'slack':>16}",
    ]
    for i, (xp, yp, s) in enumerate(zip(v.x_prefix, v.y_prefix, v.slack), start=1):
        lines.append(f"  {i:>8} {xp:>16.10g} {yp:>16.10g} {s:>16.10g}")
    return "\n".join(lines) + "\n"


def _human_analysis(r: AnalysisReport):
    lines = [
        "closed-loop analysis",
        f"  verdict             : {r.verdict}",
        f"  channel kind        : {r.kind}",
        f"  closed-loop spectrum: {_fmt_cvec(r.closed_loop_spectrum)}",
    ]
    if r.channel_powers is not None:
        lines.append(f"  channel powers      : {_fmt_vec(r.channel_powers)}")
    if r.ms_norm is not None:
        lines.append(f"  mean-square norm    : {float(r.ms_norm[0]):.10g}")
    if r.margins.size:
        lines.append(f"  margins             : {_fmt_vec(r.margins)}")
    return "\n".join(lines) + "\n"


def _human_design(d: CoDesign):
    lines = [
        "co-design",
        f"  kind     : {d.kind}",
        f"  epsilon  : {d.epsilon:.10g}",
        f"  demands  : {_fmt_vec(d.gamma)}",
        "  gain F:",
        _fmt_matrix(d.F, indent="    "),
        "  encoder T:",
        _fmt_matrix(d.T, indent="    "),
        "  decoder R:",
        _fmt_matrix(d.R, indent="    "),
        "  isometry U:",
        _fmt_matrix(d.U, indent="    "),
    ]
    if d.note:
        lines.append(f"  note     : {d.note}")
    return "\n".join(lines) + "\n"


def _human_result(r: CoDesignResult):
    lines = [f"co-design {'feasible' if r.feasible else 'infeasible'}"]
    lines.append(_human_order(r.order).rstrip("\n"))
    if r.design is not None:
        lines.append(_human_design(r.design).rstrip("\n"))
        tried = ", ".join(f"{e:g}:{v}" for e, v in r.epsilon_trail)
        lines.append(f"  scaling trail: {tried}")
    if r.report is not None:
        lines.append(_human_analysis(r.report).rstrip("\n"))
    if r.note:
        lines.append(f"  note: {r.note}")
    return "\n".join(lines) + "\n"


def _human_trajectory(t: MatrixTrajectory):
    lines = ["covariance trajectory", f"  samples  : {t.times.size}"]
    # a trajectory whose first sample overflowed has no samples to describe
    if t.times.size:
        norms = t.frobenius_norms()
        lines += [
            f"  t range  : [0, {t.times[-1]:.10g}]",
            f"  |X| start: {norms[0]:.10g}",
            f"  |X| end  : {norms[-1]:.10g}",
        ]
    lines.append(
        f"  diverged : {'yes, at t=%.6g' % t.diverged_at if t.diverged else 'no'}"
    )
    return "\n".join(lines) + "\n"


_HUMAN_RENDERERS = {
    PlantValidation: _human_validation,
    CyclicDecomposition: _human_decomposition,
    OrderVerdict: _human_order,
    CoDesign: _human_design,
    CoDesignResult: _human_result,
    AnalysisReport: _human_analysis,
    MatrixTrajectory: _human_trajectory,
}


def emit_human(obj) -> str:
    for cls, render in _HUMAN_RENDERERS.items():
        if isinstance(obj, cls):
            return render(obj)
    raise InvalidInput(f"no human form for {type(obj).__name__}")


# ---------------------------------------------------------------------------
# trajectory tables


def emit_table(traj: MatrixTrajectory) -> str:
    """Comma-separated trajectory: ``t, x11, x12, ..., frobenius_norm`` with a
    header row and 17 significant digits."""
    if not isinstance(traj, MatrixTrajectory):
        raise InvalidInput("table format applies to trajectories only")
    states = np.asarray(traj.states, dtype=float)
    count, n, _ = states.shape
    header = ["t"]
    header += [f"x{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header.append("frobenius_norm")
    columns, order = _mirror_map(states)
    values = np.column_stack([
        traj.times, states.reshape(count, n * n)[:, columns], traj.frobenius_norms()
    ])
    cells = [f"{v:.17g}" for v in values.ravel().tolist()]
    width = columns.size + 2
    row = [0, *(order + 1).tolist(), width - 1]
    seps = [","] * (len(row) - 1) + ["\n"]
    return ",".join(header) + "\n" + "".join(_interleave(cells, width, row, seps))


def emit(obj, format: str = HUMAN) -> str:
    """Render a report or trajectory in the requested format."""
    if format == HUMAN:
        return emit_human(obj)
    if format == MACHINE:
        return emit_machine(obj)
    if format == TABLE:
        return emit_table(obj)
    raise InvalidInput(f"unknown format {format!r}")


__all__ = [
    "HUMAN",
    "MACHINE",
    "TABLE",
    "emit",
    "emit_human",
    "emit_machine",
    "emit_table",
    "parse_machine",
]
