"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of its valid range."""


class FixedPointError(ReproError):
    """A fixed-point conversion or operation was given invalid operands."""


class SignalError(ReproError):
    """A signal-generation or signal-processing request is invalid."""


class MemoryModelError(ReproError):
    """The faulty-memory model was used inconsistently.

    Typical causes: storing a buffer wider than the configured word size,
    loading a handle that was never stored, or a fault map that does not
    match the memory geometry.
    """


class EMTError(ReproError):
    """An error-mitigation technique was configured or used incorrectly."""


class EnergyModelError(ReproError):
    """The energy/technology model was queried outside its valid domain."""


class SimulationError(ReproError):
    """The MPSoC simulator reached an inconsistent state."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured."""


class CampaignError(ReproError):
    """A design-space-exploration campaign is invalid or failed to run."""


class MissionError(ReproError):
    """An adaptive-runtime mission or policy is invalid or failed to run."""


class CohortError(ReproError):
    """A patient cohort or fleet simulation is invalid or failed to run."""


class ExperimentSpecError(ReproError):
    """A declarative experiment file or payload is malformed.

    Raised by :mod:`repro.api` when an experiment cannot be parsed,
    carries an unsupported schema version, or fails structural
    validation before anything is planned or executed.
    """


class ObsError(ReproError):
    """Tracing was misused or a trace file is malformed.

    Raised by :mod:`repro.obs` when tracing is enabled twice in one
    process, a run id is empty, or ``repro report`` is pointed at a
    trace whose events violate the schema contract.
    """


class ResilienceError(ReproError):
    """The supervised-execution layer was misconfigured.

    Raised by :mod:`repro.resilience` for invalid retry policies,
    malformed ``REPRO_CHAOS`` specs, or misuse of the supervised pool.
    """


class ChaosError(ResilienceError):
    """A fault injected by the deterministic chaos layer.

    Deliberately transient: the supervisor retries work that failed
    with an injected fault, so a chaos run converges to the same
    results as an undisturbed one.
    """


class ServiceError(ReproError):
    """The experiment service was misused or is unreachable.

    Raised by :mod:`repro.service` for malformed job submissions,
    unknown job ids, invalid state transitions (e.g. cancelling a job
    already running), and client requests against a daemon that is not
    listening.
    """


class RunInterrupted(ReproError):
    """A run was cancelled (SIGINT/SIGTERM or an injected interrupt).

    Raised after completed work has been drained and persisted, so the
    interrupted run is resumable; the session layer finalises the run
    registry row as ``interrupted`` on the way out.
    """
