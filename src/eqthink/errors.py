"""Shared error types with source-location formatting.

Every user-facing diagnostic renders as ``file:line:col: code: message`` so
editors and test harnesses can jump straight to the offending form.
"""

from __future__ import annotations

from .records import Record, set_field


class SourceLocation(Record):
    __slots__ = _fields = ("file", "line", "col")

    def __init__(self, file: str = "<string>", line: int = 1, col: int = 1):
        set_field(self, "file", file)
        set_field(self, "line", line)
        set_field(self, "col", col)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


NOWHERE = SourceLocation()


class EqError(Exception):
    """Base class for all workbench errors.

    ``code`` is a stable machine-readable identifier; ``location`` may be
    None for errors that are not tied to a source form.
    """

    code = "Error"

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.location is not None:
            return f"{self.location}: {self.code}: {self.message}"
        return f"{self.code}: {self.message}"


class ParseError(EqError):
    code = "ParseError"


class UnbalancedParens(ParseError):
    code = "UnbalancedParens"


class UnexpectedToken(ParseError):
    code = "UnexpectedToken"


class BadArity(ParseError):
    code = "BadArity"


class DuplicateDefinition(ParseError):
    code = "DuplicateDefinition"


class EvalError(EqError):
    code = "EvalError"


class UnboundVariable(EvalError):
    code = "UnboundVariable"


class UnknownOperator(EvalError):
    code = "UnknownOperator"


class StepLimitExceeded(EvalError):
    code = "StepLimitExceeded"


class NotAdmitted(EqError):
    code = "NotAdmitted"


class MissingSignature(EqError):
    code = "MissingSignature"


class ProofError(EqError):
    code = "ProofError"


class UnknownLabel(ProofError):
    code = "UnknownLabel"


class AmbiguousWithoutPosition(ProofError):
    code = "AmbiguousWithoutPosition"


class NoMatchingPosition(ProofError):
    code = "NoMatchingPosition"


class ConditionUnmet(ProofError):
    code = "ConditionUnmet"


class CircuitError(EqError):
    code = "CircuitError"


class NonBooleanOperator(CircuitError):
    code = "NonBooleanOperator"


class CycleDetected(CircuitError):
    code = "CycleDetected"


class MissingInput(CircuitError):
    code = "MissingInput"


class TooManyInputs(CircuitError):
    code = "TooManyInputs"


class PortMismatch(CircuitError):
    code = "PortMismatch"


class BadWidth(CircuitError):
    code = "BadWidth"


class NonCanonicalInput(CircuitError):
    code = "NonCanonicalInput"


class JobError(EqError):
    code = "JobError"


class MapperArity(JobError):
    code = "MapperArity"


class ReducerArity(JobError):
    code = "ReducerArity"


class BadDamping(JobError):
    code = "BadDamping"
