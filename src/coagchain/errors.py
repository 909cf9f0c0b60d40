"""Exception types shared across the package.

The CLI maps these onto process exit codes:

* 1 (validation failure): ``ChainValidationError``, which also covers an
  unreadable or malformed chain file and a route that divides by p, q or
  mu (the Chebyshev form, the eigenvector ansatze) called on a chain with
  p*q = 0 in a segment, and every command-line usage error, which
  argparse reports itself;
* 2 (internal consistency failure): ``ConsistencyError``, which includes
  complex eigenvalues of the dense block matrix, and
  ``DegenerateModeError``;
* 3 (size guard): ``SizeLimitError``.
"""


class ChainValidationError(ValueError):
    """Model input is malformed or violates a positivity or range constraint."""


class SizeLimitError(ValueError):
    """Requested computation exceeds a hard size guard."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class DegenerateModeError(RuntimeError):
    """An eigenvector ansatz degenerates (collinear branches, zero energy)."""
