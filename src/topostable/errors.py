"""Exception types raised across the package."""


class TopoStableError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateBasisError(TopoStableError):
    """Candidate neighbors are (numerically) collinear; no independent basis vector."""


class DegenerateComplementError(TopoStableError):
    """Probe point lies (numerically) inside the local subspace; no complement vector."""


class ZeroVarianceError(TopoStableError):
    """Correlation is undefined because one input is constant."""


class BadConfigError(TopoStableError, ValueError):
    """A setting refused: one no input can take (SelectorConfig and
    RunConfig on construction, SelectorConfig._check_stable and
    graph._check_method), or one this data cannot (graph._check_cell). A
    ValueError too, as config refusals are."""


class KTooLargeError(TopoStableError):
    """Requested neighbor count k >= number of points."""


class NonFiniteError(TopoStableError):
    """Infinities or NaNs where finite values are required (a matrix, a CSV
    cell, squared distances)."""


class BadDimError(TopoStableError):
    """Embedding dimension, or the column count of input data, out of range."""


class BadCountError(TopoStableError):
    """A count too small: a generator count below 10, take_first below 1, or no IDX images."""


class BadMagicError(TopoStableError):
    """IDX file does not start with the expected magic number."""


class TruncatedFileError(TopoStableError):
    """IDX file ends before the declared payload."""


class DimensionMismatchError(TopoStableError):
    """Label file item count differs from the image count."""


class RaggedRowsError(TopoStableError):
    """CSV rows have differing column counts."""


class NonNumericCellError(TopoStableError):
    """CSV cell could not be parsed as a number, or its bytes are not UTF-8."""
