"""Exception hierarchy shared by all na_evalkit modules.

Every domain error derives from :class:`EvalKitError` and carries a stable
machine-readable ``code`` used by diagnostics and the CLI. Source-position
errors (circuit text) additionally carry 1-based ``line``/``column``.
"""

from __future__ import annotations


class EvalKitError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


# --- architecture document errors ---------------------------------------

class ArchError(EvalKitError):
    """A problem with an architecture document; ``path`` names the offending key."""

    code = "ArchError"

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class MalformedDocument(ArchError):
    code = "MalformedDocument"


class SchemaMismatch(ArchError):
    code = "SchemaMismatch"


class MissingField(ArchError):
    code = "MissingField"


class InvalidValue(ArchError):
    code = "InvalidValue"


# --- circuit text errors --------------------------------------------------

class RsqasmError(EvalKitError):
    """A problem with circuit text; positions are 1-based when known."""

    code = "RsqasmError"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class MissingHeader(RsqasmError):
    code = "MissingHeader"


class UnsupportedVersion(RsqasmError):
    code = "UnsupportedVersion"


class UnknownInstruction(RsqasmError):
    code = "UnknownInstruction"


class ArityError(RsqasmError):
    code = "ArityError"


class ParamError(RsqasmError):
    code = "ParamError"


class DuplicateCellInStage(RsqasmError):
    code = "DuplicateCellInStage"


class RsqasmSyntaxError(RsqasmError):
    # distinct class name to avoid shadowing the builtin; reported as "SyntaxError"
    code = "SyntaxError"


# --- grid / execution errors ----------------------------------------------

class CellOutOfRange(EvalKitError):
    code = "CellOutOfRange"


class IllegalStage(EvalKitError):
    """A stage violates occupancy rules; carries the full diagnosis."""

    code = "IllegalStage"

    def __init__(self, message: str, diagnosis=None, stage_index: int | None = None):
        self.diagnosis = diagnosis
        self.stage_index = stage_index
        if stage_index is not None:
            message = f"stage {stage_index}: {message}"
        super().__init__(message)


# --- metric model errors ----------------------------------------------------

class UnknownGate(EvalKitError):
    code = "UnknownGate"


class NegativeIdleTime(EvalKitError):
    code = "NegativeIdleTime"


class CoherenceBudgetExceeded(EvalKitError):
    code = "CoherenceBudgetExceeded"


class InvalidInput(EvalKitError):
    code = "InvalidInput"


class NonFiniteResult(EvalKitError):
    """A report would carry NaN or an infinity."""

    code = "NonFiniteResult"


# --- ingest errors -----------------------------------------------------------

class UnsupportedConstruct(EvalKitError):
    code = "UnsupportedConstruct"


class TooManyQubits(EvalKitError):
    code = "TooManyQubits"
