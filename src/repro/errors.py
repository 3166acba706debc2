"""Exception hierarchy shared by all ``repro`` subsystems.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while the
more specific subclasses still communicate which subsystem failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A table schema is malformed (duplicate columns, unknown types, ...)."""


class IntegrityError(ReproError):
    """A data manipulation violates a schema constraint (PK, FK, type)."""


class QueryError(ReproError):
    """A query referenced unknown tables/columns or used invalid operators."""


class TokenizationError(ReproError):
    """The tokenizer was configured inconsistently (e.g. empty vocabulary)."""


class EmbeddingError(ReproError):
    """A word-embedding store was used inconsistently (dim mismatch, ...)."""


class ExtractionError(ReproError):
    """Relationship extraction failed (dangling references, bad columns)."""


class RetrofitError(ReproError):
    """The retrofitting solvers received an invalid problem or configuration."""


class ConvexityError(RetrofitError):
    """The requested hyperparameters violate the convexity condition (Eq. 7)."""


class TrainingError(ReproError):
    """A neural-network training run received inconsistent inputs."""


class DatasetError(ReproError):
    """A synthetic dataset generator received invalid parameters."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class ServingError(ReproError):
    """The embedding serving layer (indexes, sessions) was misused."""


class StoreFormatError(ServingError):
    """A persisted embedding artifact is corrupt, truncated or from an
    incompatible format version."""


class BackpressureError(ServingError):
    """A write was rejected by admission control (rate limit or full queue).

    The rejection is transient by construction: ``retry_after`` carries the
    producer's hint, in seconds, for when a retry is worth attempting.  The
    HTTP front maps this to ``429`` with a ``Retry-After`` header.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class WriteTimeoutError(ServingError, TimeoutError):
    """A write was accepted but not published within the caller's wait.

    The write is still pending and may yet publish: resubmitting it under
    the same ``submission_id`` returns its version once it lands.  The
    HTTP front maps this to ``504``.
    """


class WriteDegradedError(ServingError):
    """The write path latched degraded and refuses new submissions.

    Unlike :class:`BackpressureError` there is no retry hint — the tier
    stays degraded until an operator (or failover) clears it.  The HTTP
    front maps this to ``503``.
    """
