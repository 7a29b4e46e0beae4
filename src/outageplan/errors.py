"""Exception types shared across the package."""


class OutagePlanError(Exception):
    """Base class for errors raised by outageplan."""


class ConfigError(OutagePlanError):
    """A configuration document or referenced input is invalid."""


class FitError(OutagePlanError):
    """Outage-model calibration cannot proceed (degenerate data split)."""


class ArtifactMismatchError(OutagePlanError):
    """A persisted artifact does not belong to the active configuration."""


class BuildError(OutagePlanError):
    """The compiled Q-learning loop cannot be built, cached or loaded."""
