"""Exception hierarchy for the repro (DataCell) library.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch one base class.  Subsystems raise the most specific
subclass available; the kernel never raises bare ``ValueError`` for user
input that reached it through the public API.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class KernelError(ReproError):
    """Base class for column-store kernel errors."""


class TypeMismatchError(KernelError):
    """An operator received BATs or scalars of incompatible atom types."""


class AlignmentError(KernelError):
    """Two BATs that must be tuple-order aligned are not."""


class AggregateOverflowError(KernelError):
    """An integral SUM left the BIGINT range."""

    def __init__(
        self, message: str = "integer overflow: SUM leaves the BIGINT range"
    ) -> None:
        super().__init__(message)


class CatalogError(ReproError):
    """Schema-level failure: unknown table/column, duplicate definition."""


class MalError(ReproError):
    """A MAL program is malformed or failed during interpretation."""


class SqlError(ReproError):
    """Base class for errors in the SQL front-end."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class BindError(SqlError):
    """Name resolution or type checking of a parsed query failed."""


class DataCellError(ReproError):
    """Base class for stream-engine (core) errors."""


class BasketError(DataCellError):
    """Illegal basket operation (schema mismatch, double registration...)."""


class SchedulerError(DataCellError):
    """The scheduler was driven into an illegal state."""


class AdapterError(ReproError):
    """A receptor/emitter adapter failed (bad event text, channel closed)."""


class ServerError(DataCellError):
    """Network front-door failure (session violation, bad command...)."""


class ProtocolError(ServerError):
    """A wire frame violated the repro.server protocol (bad CRC, bad
    opcode, malformed metadata or column payload)."""


class ObservabilityError(ReproError):
    """Misuse of the metrics/tracing subsystem (bad labels, bad buckets)."""


class DurabilityError(DataCellError):
    """WAL/checkpoint/recovery failure (corrupt frame, bad manifest...)."""


class LinearRoadError(ReproError):
    """Linear Road generator/validator failure."""
