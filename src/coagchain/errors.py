"""Exception types shared across the package.

The CLI maps these onto process exit codes:

* 1 (validation failure): ``ChainValidationError``, and
  ``AnalyticPathError`` for parameters the analytic route does not cover,
  such as p*q = 0 in a segment;
* 2 (internal consistency failure): ``ConsistencyError`` and
  ``DegenerateModeError``;
* 3 (size guard): ``SizeLimitError``.
"""


class ChainValidationError(ValueError):
    """Model parameters violate a positivity or range constraint."""


class SizeLimitError(ValueError):
    """Requested computation exceeds a hard size guard."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class AnalyticPathError(RuntimeError):
    """The closed-form/secular route does not apply to these parameters."""


class DegenerateModeError(RuntimeError):
    """An eigenvector ansatz degenerates (collinear branches, zero energy)."""
