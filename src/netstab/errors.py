"""Exception hierarchy and warning categories."""


class NetstabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(NetstabError):
    """Input data is malformed (non-finite entries, bad shapes, bad values)."""


class NotHurwitz(NetstabError):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= 0."""


class AxisEigenvalue(NetstabError):
    """An eigenvalue lies on (or numerically too close to) the imaginary axis."""


class Unstabilizable(NetstabError):
    """The pair (A, B) fails the PBH stabilizability test."""


class NotDiagonalizable(NetstabError):
    """The state matrix appears defective; automatic decomposition is refused."""


class DecompositionFailed(NetstabError):
    """A constructed decomposition did not verify against its invariants."""


class NotMajorized(NetstabError):
    """A required majorization precondition does not hold."""


class ConstructionFailed(NetstabError):
    """An intermediate-vector construction failed despite a feasible input.

    Reaching this indicates a bug or a pathologically tight instance.
    """


class Unsupported(NetstabError):
    """The request exceeds a documented size or feature limit."""


class CodecInvalid(NetstabError):
    """An encoder/decoder pair violates its defining constraint."""


class EpsilonExhausted(NetstabError):
    """The scaling search ran out of candidates; signals numerical pathology."""


class IllConditioned(NetstabError):
    """A result failed its checks because an intermediate is ill conditioned.

    Carries the pipeline ``.stage``, the measured condition number ``.cond``
    and the cyclic ``.block`` index (None when not known).
    """

    def __init__(self, stage, cond, detail, block=None):
        self.stage = stage
        self.cond = cond
        self.detail = detail
        self.block = block
        where = stage if block is None else f"{stage}, block {block}"
        super().__init__(f"{where}: {detail}")


class Overflow(NetstabError):
    """A result is too large to compute in floating point."""


class Diverged(NetstabError):
    """A trajectory overflowed. Carries the divergence time in ``.time``."""

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"trajectory diverged at t={time:.6g}")


class ParseError(NetstabError):
    """Problem-file syntax or schema error. Carries a 1-based ``.line``."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatch(NetstabError):
    """Matrices in a problem file are not dimensionally consistent."""


class InvariantViolation(NetstabError):
    """A problem-file value violates a type invariant."""


class AxisEigenvalueWarning(UserWarning):
    """An eigenvalue sits within tolerance of the imaginary axis."""
