"""Error kinds raised across the toolkit.

Every failure mode a caller can act on has its own class so the CLI can
map each kind to exactly one exit code.
"""


class CloudRerunError(Exception):
    """Base class for all toolkit errors."""


# --- configuration parsing -------------------------------------------------

class ConfigError(CloudRerunError):
    """Base for abstract-request configuration errors."""


class UnknownEngine(ConfigError):
    """bigdata_engine value outside the accepted enumeration."""


class MissingRequiredKey(ConfigError):
    """A required configuration key is absent and has no default."""


class MalformedValue(ConfigError):
    """A configuration value (or the file itself) cannot be interpreted."""


class ProviderMismatch(ConfigError):
    """personal.cloud_provider names a provider with no resources block."""


# --- pipeline generation ---------------------------------------------------

class UnmappedService(CloudRerunError):
    """No service is mapped for the requested (category, provider) pair."""


class UnsupportedProvider(CloudRerunError, NotImplementedError):
    """No adapter is registered for the requested cloud provider.

    Also a NotImplementedError: an unregistered provider is exactly an
    unimplemented adaptee, and callers may catch it as either.
    """


class UnsupportedEngineOnProvider(CloudRerunError):
    """The provider cannot host the requested analytics engine."""


# --- simulated cloud -------------------------------------------------------

class UnknownInstanceType(CloudRerunError):
    """Instance type absent from the provider's catalog."""


class QuotaExceeded(CloudRerunError):
    """Provider refused to provision: its instance quota is full."""


class NoSuchKey(CloudRerunError):
    """Object-store read of an absent bucket/key."""


class ClockModeViolation(CloudRerunError):
    """Attempt to move the virtual clock backwards."""


# --- pipeline execution ----------------------------------------------------

class DeploymentRejected(CloudRerunError):
    """Provider refused the pipeline document at deploy time."""


class AnalyticsFailure(CloudRerunError):
    """The analytics command exited nonzero."""


class StorageFailure(CloudRerunError):
    """A provider operation failed: the failure tests inject into any operation."""


# --- execution history -----------------------------------------------------

class RedactionViolation(CloudRerunError):
    """Secret material detected in a bundle destined for history storage."""


class NotFound(CloudRerunError):
    """History URL does not resolve to a stored execution."""


class MalformedURL(CloudRerunError):
    """History URL does not follow the documented grammar."""


class UnknownField(CloudRerunError):
    """History query filter names a field records do not have."""


# --- reproduction ----------------------------------------------------------

class InvalidMerge(CloudRerunError):
    """Merging history with overrides produced an invalid request."""


# --- metrics ---------------------------------------------------------------

class OpenLedger(CloudRerunError):
    """Metrics requested over a ledger that still has open entries."""


class NonPositiveBaseline(CloudRerunError):
    """Overhead ratio requested against a zero or negative baseline."""


class InsufficientSamples(CloudRerunError):
    """Statistical comparison needs at least two samples per mode."""
