"""Exception types shared across the package.

The CLI maps InputError to exit code 2 and PrecisionError to exit code 1.
Exact identities that hold by construction (the vanishing tail of the
inverse transform, the leading Laurent coefficient) are covered by the
tests rather than re-checked at run time.
"""


class ZetapolyError(Exception):
    """Base class for all package-specific errors."""


class InputError(ZetapolyError):
    """Malformed user input: bad file, bad schema, out-of-range argument."""


class PrecisionError(ZetapolyError):
    """Numeric work cannot meet the requested precision (e.g. too few
    Fourier coefficients for the target error bound)."""
