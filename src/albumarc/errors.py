"""Exception types shared across the package."""


class AlbumArcError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(AlbumArcError):
    """A run configuration file is malformed or inconsistent."""


class IngestError(AlbumArcError, ValueError):
    """Input data (a data file or a per-track value map) violates the
    expected schema."""


class TrainingDiverged(AlbumArcError):
    """Training produced a non-finite loss."""
