"""Exception types raised across the pipeline.

Every class carries a ``module`` attribute naming the pipeline stage it
belongs to; the CLI uses it to prefix error messages. All errors subclass
ValueError so generic callers can catch them uniformly.
"""


class DiagnosticsError(ValueError):
    module = "gnnase"


class InvalidConfigValue(DiagnosticsError):
    """A setting outside its range; every stage raises it, so it keeps the package tag."""


# -- numerics ---------------------------------------------------------------

class NonFinite(DiagnosticsError):
    module = "numerics"


class ShapeMismatch(DiagnosticsError):
    module = "numerics"


# -- machine simulation and recording files --------------------------------

class InvalidSlip(DiagnosticsError):
    module = "simulate"


class InvalidFv(DiagnosticsError):
    module = "simulate"


class ParseError(DiagnosticsError):
    module = "simulate"


class ChannelMismatch(DiagnosticsError):
    module = "simulate"


# -- preprocessing ----------------------------------------------------------

class CutoffAboveNyquist(DiagnosticsError):
    module = "preprocess"


# -- feature extraction -----------------------------------------------------

class EmptyWindow(DiagnosticsError):
    module = "features"


class NoSpectralContent(DiagnosticsError):
    module = "features"


class RecordingTooShort(DiagnosticsError):
    module = "features"


# -- graph construction -----------------------------------------------------

class ZeroVector(DiagnosticsError):
    module = "graphs"


class TooFewWindows(DiagnosticsError):
    module = "graphs"


# -- model ------------------------------------------------------------------

class NegativeWeight(DiagnosticsError):
    module = "model"


class FeatureDimMismatch(DiagnosticsError):
    module = "model"


class EmptyDataset(DiagnosticsError):
    module = "model"


class SampleRateMismatch(DiagnosticsError):
    module = "model"


# -- evaluation -------------------------------------------------------------

class EmptyCatalog(DiagnosticsError):
    module = "evaluate"


class UndefinedMetric(DiagnosticsError):
    module = "evaluate"


class InvalidRatios(DiagnosticsError):
    module = "evaluate"


# -- CLI --------------------------------------------------------------------

class InvalidConfig(DiagnosticsError):
    module = "cli"


class IoError(DiagnosticsError):
    module = "cli"
