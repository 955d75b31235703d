"""Exception types shared across the toolkit."""


class PipelineError(Exception):
    """Base class for all toolkit errors."""


class InvalidIntrinsicsError(PipelineError, ValueError):
    """Camera parameters violate the pinhole-model invariants."""


class NonPositiveDepthError(PipelineError, ValueError):
    """An operation that requires depth > 0 received a non-positive depth."""


class MisalignedInputsError(PipelineError, ValueError):
    """Index-aligned input sequences have different lengths."""


class ShapeMismatchError(PipelineError, ValueError):
    """Array arguments have incompatible shapes."""


class DegenerateQueryError(PipelineError, ValueError):
    """A query embedding has numerically zero norm."""


class EmptyInputError(PipelineError, ValueError):
    """An operation that needs at least one element got an empty input."""


class ParseError(PipelineError):
    """A file failed to parse.  Carries the offending location."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)


class DataIOError(PipelineError):
    """File is structurally unusable: truncated payload, missing file, bad magic."""


class ConfigError(PipelineError, ValueError):
    """Configuration contains unknown keys or out-of-range values."""
