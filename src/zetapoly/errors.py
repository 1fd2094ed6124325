"""Exception types shared across the package."""


class ZetapolyError(Exception):
    """Base class for all package-specific errors."""


class InputError(ZetapolyError):
    """Malformed user input: bad file, bad schema, out-of-range argument."""


class PrecisionError(ZetapolyError):
    """Numeric work cannot meet the requested precision (e.g. too few
    Fourier coefficients for the target error bound)."""


class ConsistencyError(ZetapolyError):
    """An internal exact identity failed; indicates a bug or an input
    violating a documented invariant."""
