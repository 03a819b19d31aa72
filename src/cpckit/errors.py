"""Exception taxonomy shared across the toolkit.

Three families, mirrored by the CLI exit codes: ConfigError for bad flags or
hyperparameters (exit 1), DataError for malformed or mismatched data (exit 2),
NumericalError for runaway numerics (exit 3). load_json reads the toolkit's
JSON files, mapping whatever is wrong with one to DataError.
Every exception pickles to an equal one, so a forked cross-validation
worker's failure reaches the CLI as it was raised.
"""

import json


class ConfigError(ValueError):
    """A caller-supplied configuration value is invalid."""


class DataError(ValueError):
    """Input data violates a structural precondition."""


class NumericalError(ArithmeticError):
    """A numerical procedure failed to produce finite results."""


def load_json(path, decode):
    """decode(the JSON value in path). A file that is not JSON, or a value
    decode refuses (a missing key, a wrong type or shape, a bad setting),
    raises DataError."""
    with open(path) as fh:
        try:
            return decode(json.load(fh))
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise DataError(f"{path}: malformed file: {e!r}") from None


# dataset --------------------------------------------------------------

class EmptyDataset(DataError):
    pass


class RaggedRow(DataError):
    """A CSV row has a different column count than the first row."""


class NonNumeric(DataError):
    """A CSV cell could not be parsed as a number."""


class NonFinite(DataError):
    """A feature value is NaN or infinite."""


class BadFractions(ConfigError):
    pass


class BadK(ConfigError):
    pass


class BadSpec(ConfigError):
    pass


# preprocess -----------------------------------------------------------

class TooFewSamples(DataError):
    pass


class DimMismatch(DataError):
    """Feature dimension differs from what the fitted object expects."""


# classifiers ----------------------------------------------------------

class BadHyperparams(ConfigError):
    pass


# feature extractor ----------------------------------------------------

class BadArch(ConfigError):
    pass


class Divergence(NumericalError):
    """Training left the finite range. Carries the offending epoch, and the
    non-finite loss, or None when only the parameters were caught."""

    def __init__(self, epoch: int, loss: float | None = None):
        if loss is None:
            super().__init__(f"non-finite parameters after epoch {epoch}")
        else:
            super().__init__(f"non-finite loss {loss!r} at epoch {epoch}")
        self.epoch = epoch
        self.loss = loss

    def __reduce__(self):
        # args holds the message, not (epoch, loss); rebuild from these
        return type(self), (self.epoch, self.loss)


# cpc ------------------------------------------------------------------

class LengthMismatch(DataError):
    pass


class EmptyPartition(DataError):
    """Both subspaces are empty; nothing to fit."""


# harness --------------------------------------------------------------

class LabelOutOfRange(DataError):
    pass
