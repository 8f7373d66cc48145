"""Exception hierarchy for the TOSS reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause.  Subsystems
define narrower classes below; the class names mirror the paper's
terminology (e.g. :class:`SimilarityInconsistencyError` is Definition 9's
"similarity inconsistency").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# XML database substrate (repro.xmldb)
# ---------------------------------------------------------------------------


class XmlDbError(ReproError):
    """Base class for errors raised by the XML database substrate."""


class XmlParseError(XmlDbError):
    """Malformed XML text could not be parsed into a data tree."""


class XPathSyntaxError(XmlDbError):
    """An XPath query string could not be parsed."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        #: Character offset in the query where parsing failed (-1 if unknown).
        self.position = position


class StorageCorruptionError(XmlDbError):
    """A persisted file is truncated, unreadable or fails its checksum.

    Raised by :func:`repro.xmldb.storage.load_database` in ``raise`` mode;
    in ``quarantine`` mode the offending bytes are copied aside and
    recorded in a :class:`~repro.xmldb.storage.RecoveryReport` instead.
    """


class CollectionError(XmlDbError):
    """Collection-level failure (duplicate name, missing document, ...)."""


class DocumentTooLargeError(CollectionError):
    """A document exceeded the collection's configured size cap.

    Mirrors Apache Xindice's 5 MB per-document limitation, which shapes the
    paper's scalability experiments (Section 6).
    """

    def __init__(self, size: int, limit: int) -> None:
        super().__init__(
            f"document of {size} bytes exceeds the collection limit of {limit} bytes"
        )
        self.size = size
        self.limit = limit


# ---------------------------------------------------------------------------
# Resource guards (repro.guard)
# ---------------------------------------------------------------------------


class ResourceLimitError(ReproError):
    """Base class for resource-guard violations (deadline, step, result caps)."""


class QueryTimeoutError(ResourceLimitError):
    """An operation exceeded its wall-clock deadline.

    Attributes
    ----------
    deadline, elapsed:
        The configured budget and the measured wall-clock time, seconds.
    """

    def __init__(self, what: str, deadline: float, elapsed: float) -> None:
        super().__init__(
            f"{what} exceeded its deadline of {deadline:.3f}s "
            f"(ran for {elapsed:.3f}s)"
        )
        self.deadline = deadline
        self.elapsed = elapsed


class ResourceExhaustedError(ResourceLimitError):
    """An evaluation-step or result-count budget was exceeded."""


# ---------------------------------------------------------------------------
# TAX algebra (repro.tax)
# ---------------------------------------------------------------------------


class TaxError(ReproError):
    """Base class for errors raised by the TAX algebra."""


class PatternTreeError(TaxError):
    """A pattern tree is structurally invalid (duplicate labels, cycles...)."""


class ConditionError(TaxError):
    """A selection condition is malformed or references unknown nodes."""


# ---------------------------------------------------------------------------
# Ontologies (repro.ontology)
# ---------------------------------------------------------------------------


class OntologyError(ReproError):
    """Base class for ontology-related errors."""


class HierarchyCycleError(OntologyError):
    """An edge set intended to define a partial order contains a cycle."""

    def __init__(self, cycle: list) -> None:
        super().__init__(f"hierarchy contains a cycle: {' -> '.join(map(str, cycle))}")
        #: The offending node sequence (first node repeated at the end).
        self.cycle = cycle


class UnknownTermError(OntologyError):
    """A term was looked up that is not present in the hierarchy."""


class ConstraintError(OntologyError):
    """An interoperation constraint references an unknown hierarchy/term."""


class DeltaRefused(ReproError):
    """An incremental step's precondition failed; ``reason`` names which one.

    Raised by the incremental-maintenance steps (extraction retraction,
    fusion extension/retraction, enhancement patching) and caught by the
    write path and the build ladder, which record the reason and take the
    next, dearer rung.  Never a failure of the request itself.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        #: Stable kebab-case name of the failed precondition.
        self.reason = reason


class FusionInconsistencyError(OntologyError):
    """The interoperation constraints are unsatisfiable.

    Raised when a ``x:i != y:j`` constraint is violated by the canonical
    fusion (the two terms end up in the same equivalence class).
    """


# ---------------------------------------------------------------------------
# Similarity (repro.similarity)
# ---------------------------------------------------------------------------


class SimilarityError(ReproError):
    """Base class for similarity-subsystem errors."""


class SimilarityInconsistencyError(SimilarityError):
    """No similarity enhancement exists for (H, d, epsilon) — Definition 9."""


# ---------------------------------------------------------------------------
# TOSS core (repro.core)
# ---------------------------------------------------------------------------


class TossError(ReproError):
    """Base class for errors raised by the TOSS core."""


class TypeSystemError(TossError):
    """Invalid type-hierarchy or conversion-function configuration."""


class ConversionError(TypeSystemError):
    """No conversion function exists between two types, or conversion failed."""


class IllTypedConditionError(TossError):
    """A selection condition is not well-typed in the context of an instance.

    Section 5.1.1: a simple condition ``X op Y`` with a comparison operator
    is well-typed only when X and Y have a least common supertype reachable
    through registered conversion functions.
    """


class QueryExecutionError(TossError):
    """The query executor failed to translate or run a query."""


# ---------------------------------------------------------------------------
# Query serving (repro.serving)
# ---------------------------------------------------------------------------


class ServingError(TossError):
    """Base class for errors raised by the query-serving layer."""


class ServerOverloadedError(ServingError):
    """The server's bounded admission queue rejected a submission.

    Attributes
    ----------
    pending, limit:
        Work already admitted and the configured ``max_pending`` cap.
    """

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"server admission queue is full ({pending} pending, "
            f"limit {limit}); retry later or raise max_pending"
        )
        self.pending = pending
        self.limit = limit


class SnapshotStaleError(ServingError):
    """The served snapshot no longer matches the live system.

    Raised when a collection changed (documents added, replaced or
    removed — detected through the collection generation counters) after
    the worker pool snapshotted the system.  Call
    :meth:`~repro.serving.server.QueryServer.refresh` to re-snapshot.
    """


class SnapshotTransportError(ServingError):
    """The snapshot failed to reach or boot in a worker.

    A *transient* failure by definition — queries are read-only and the
    snapshot itself is immutable — so the supervised pool respawns the
    worker with backoff instead of failing the batch.
    """


class WorkerCrashError(ServingError):
    """A worker died (or was killed for hanging) and retries ran out.

    Attributes
    ----------
    query, attempts, reason:
        The query text the final attempt carried, how many attempts were
        made in total, and what happened on the last one (e.g.
        ``worker_died: pid 123 exit -9``, ``hung: exceeded the 2.0s
        parent-side hard timeout``).
    """

    def __init__(self, query: str, attempts: int, reason: str) -> None:
        super().__init__(
            f"worker crashed executing {query!r} ({reason}); "
            f"gave up after {attempts} attempt(s)"
        )
        self.query = query
        self.attempts = attempts
        self.reason = reason


class PoisonTaskError(ServingError):
    """A task was quarantined after crashing several workers in a row.

    Retrying a query that reliably kills its worker just grinds the pool
    through respawn cycles; after ``quarantine_after`` crashes on the
    same task the supervisor fails it permanently instead.

    Attributes
    ----------
    query, crashes:
        The query text and how many workers it took down.
    """

    def __init__(self, query: str, crashes: int) -> None:
        super().__init__(
            f"query {query!r} quarantined after crashing {crashes} worker(s); "
            "refusing to retry a poison task"
        )
        self.query = query
        self.crashes = crashes


class CircuitOpenError(ServerOverloadedError):
    """The serving circuit breaker is shedding load.

    Raised at batch admission while the breaker is open: the recent
    worker crash rate exceeded the configured threshold, so the server
    refuses new work until the cooldown elapses (then lets one batch
    through half-open).

    Attributes
    ----------
    crash_rate, threshold, retry_after:
        The observed crash rate that tripped the breaker, the configured
        limit, and the seconds left before the breaker half-opens.
    """

    def __init__(
        self, crash_rate: float, threshold: float, retry_after: float
    ) -> None:
        ServingError.__init__(
            self,
            f"serving circuit breaker is open: worker crash rate "
            f"{crash_rate:.0%} exceeded the {threshold:.0%} threshold; "
            f"shedding load for another {retry_after:.1f}s",
        )
        self.crash_rate = crash_rate
        self.threshold = threshold
        self.retry_after = retry_after
