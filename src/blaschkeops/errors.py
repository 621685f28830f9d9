"""Exception types shared across the library.

Precondition violations raise plain ValueError; these classes mark failures
with numerical meaning that callers may want to catch separately.
"""


class BlaschkeOpsError(Exception):
    """Base class for math-layer failures."""


class BranchPointError(BlaschkeOpsError):
    """Requested point lies inside the exclusion radius of the branch point b(1)."""


class GridMismatchError(BlaschkeOpsError):
    """Two boundary functions live on different circle grids."""


class AnalyticExtensionError(BlaschkeOpsError):
    """Interior evaluation requested for a series with non-negligible negative modes."""


class GramCheckError(BlaschkeOpsError):
    """A family that must be orthonormal (Hilbert space or module sense) is not."""


#: what a numerical failure may raise: the classes above plus the plain
#: ValueError/RuntimeError of precondition and convergence failures
MATH_ERRORS = (BlaschkeOpsError, ValueError, RuntimeError)
