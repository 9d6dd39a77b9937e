"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch a single base class. Each concrete subclass corresponds to one
failure domain (codec, arena, tree structure, dataset, experiment).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class CodecError(ReproError):
    """A value could not be encoded or a buffer could not be decoded."""


class ValueOutOfRangeError(CodecError):
    """A value does not fit the target encoding (e.g. negative or > 32 bits)."""


class CorruptBufferError(CodecError):
    """A buffer ends mid-value or contains an invalid byte pattern."""


class ArenaError(ReproError):
    """Base class for memory-manager failures."""


class ArenaExhaustedError(ArenaError):
    """The arena's configured capacity is exhausted."""


class PointerRangeError(ArenaError):
    """A pointer does not fit in 40 bits or points outside the arena."""


class InvalidChunkError(ArenaError):
    """A free/resize request referenced a chunk the arena never handed out."""


class TreeError(ReproError):
    """Base class for prefix-tree structural failures."""


class ChainOverflowError(TreeError):
    """A chain node exceeded the configured maximum chain length."""


class ParallelMineError(ReproError):
    """The parallel mine phase lost its worker pool or shared-memory segment."""


class ParallelBuildError(ReproError):
    """The parallel build phase lost a worker or produced inconsistent shards."""


class TransientIOError(ReproError):
    """An I/O operation failed in a way that a bounded retry may fix.

    Raised by the storage layer for retryable OS errors (``EINTR``,
    ``EAGAIN``, ``EIO``) and by the fault-injection layer's ``flake``
    action. :class:`repro.storage.BufferPool` retries these with backoff
    before letting them escape; the runtime supervisor classifies them
    as retryable when a worker surfaces one.
    """


class InjectedFault(ReproError):
    """An error raised on purpose by :mod:`repro.faultinject`.

    Deliberately *not* transient: the supervisor classifies it as a
    poisoned task, exercising the no-retry path. Use the ``flake``
    action (which raises :class:`TransientIOError`) to test retries.
    """


class FaultSpecError(ReproError):
    """A fault-injection spec string could not be parsed."""


class UnknownFaultSiteError(FaultSpecError):
    """A fault spec or ``fire()`` call named a site outside ``SITES``.

    Subclasses :class:`FaultSpecError` so existing broad handlers keep
    working; raised instead of silently never firing, which is how a
    typo in a ``REPRO_FAULTS`` spec used to pass a whole chaos run.
    """


class TaskTimeoutError(ReproError):
    """A supervised worker task exceeded its per-task deadline."""


class SupervisionError(ReproError):
    """Supervised parallel execution could not complete.

    Raised by :class:`repro.runtime.Supervisor` when retries are
    exhausted, a task fails deterministically (poisoned), or the worker
    pool cannot be (re)created. Carries the dominant
    :class:`repro.runtime.FailureKind` as ``kind`` (a string value) and
    a per-task failure summary so callers can decide whether to degrade
    to the serial path.
    """

    def __init__(self, message: str, kind: str = "", failures: dict | None = None):
        super().__init__(message)
        self.kind = kind
        self.failures: dict = failures or {}

    def __reduce__(self):
        return (type(self), (self.args[0], self.kind, self.failures))


class DatasetError(ReproError):
    """A dataset could not be parsed, generated, or validated."""


class ExperimentError(ReproError):
    """An experiment was configured inconsistently or produced invalid output."""


class StreamingError(ReproError):
    """An incremental merge, eviction, or snapshot flip was invalid."""
