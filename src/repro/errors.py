"""Exception hierarchy for the repro library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  Sub-classes are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class XMLError(ReproError):
    """Problems in the XML substrate (malformed documents, bad IDs...)."""


class XMLParseError(XMLError):
    """Raised when XML (or parenthesized-tree) text cannot be parsed."""


class InvalidDeweyIDError(XMLError):
    """Raised when a structural identifier is malformed."""


class SummaryError(ReproError):
    """Problems building or using a structural summary (Dataguide)."""


class PatternError(ReproError):
    """Problems with tree patterns (construction, validation)."""


class PatternParseError(PatternError):
    """Raised when the pattern DSL / XPath / XQuery text cannot be parsed."""


class PredicateError(PatternError):
    """Raised when a value-predicate formula is malformed."""


class ContainmentError(ReproError):
    """Raised when a containment test is asked on incompatible patterns."""


class ContainmentBudgetExceeded(ContainmentError):
    """Raised when a containment test overruns its caller's time deadline.

    A single test over a pattern with many optional edges can enumerate an
    exponential canonical model (2^|optional| erased variants), so callers
    with wall-clock budgets — the rewriting search above all — pass a
    ``deadline`` (:func:`repro.containment.core.is_contained`) that aborts
    the enumeration instead of hanging.  Aborted tests are never
    memoised."""


class AlgebraError(ReproError):
    """Problems constructing or executing algebraic plans."""


class PlanExecutionError(AlgebraError):
    """Raised when a logical plan cannot be executed over the given views."""


class RewritingError(ReproError):
    """Problems during view-based rewriting."""


class WorkloadError(ReproError):
    """Problems generating synthetic documents or patterns."""


class SessionError(ReproError):
    """Problems in the session layer (:class:`repro.Database` lifecycle):
    constructing a database without a document or summary, view DDL against
    a closed resource, or loading a snapshot that is not a database."""


class IngestError(ReproError):
    """Problems in the ingestion layer (streaming parse, live mutations)."""


class ChangeLogError(IngestError):
    """Problems reading or writing the durable change log."""


class ChangeLogCorruptError(ChangeLogError):
    """Raised when replay meets a record that fails its integrity checks.

    A *torn tail* — the final record cut short by a crash mid-append — is
    not corruption: replay stops cleanly before it.  Anything else (a CRC
    mismatch, an LSN gap, malformed JSON before the last line) means the
    log cannot be trusted and recovery must fail loudly rather than
    replay to a silently wrong state."""


class ServiceError(ReproError):
    """Problems in the HTTP service tier (:mod:`repro.service`)."""


class RequestValidationError(ServiceError):
    """A request payload failed schema validation — the service maps this
    to a typed HTTP 400 with a structured error body, never a stack
    trace.  Carries the machine-readable error ``code`` (``bad-request``
    unless a more specific one applies)."""

    def __init__(self, message: str, code: str = "bad-request"):
        super().__init__(message)
        self.code = code
