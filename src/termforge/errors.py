"""Exception types shared across the workbench."""


class TermforgeError(Exception):
    """Base class for all workbench errors."""


class InputError(TermforgeError):
    """A text input file is not valid UTF-8."""


class AlignmentError(TermforgeError):
    """Parallel files disagree on line count."""


class EmptyCorpusError(TermforgeError):
    """An operation that needs data received an empty corpus."""


class LexiconFormatError(TermforgeError):
    """A lexicon TSV row could not be parsed or validated."""


class ModelFormatError(TermforgeError):
    """A persisted model or results file is malformed or has the wrong version."""


class MarkupError(TermforgeError):
    """Annotated-input markup could not be parsed or is inconsistent."""


class SearchError(TermforgeError):
    """The decoder found no sequence of translation options covering an
    input; ``tokens`` holds that input's tokens."""

    def __init__(self, message: str, tokens: tuple[str, ...] = ()):
        super().__init__(message)
        self.tokens = tokens


class TrainingDivergedError(TermforgeError):
    """Training produced a non-finite loss."""


class ConfigError(TermforgeError):
    """Pipeline configuration is missing or invalid."""
