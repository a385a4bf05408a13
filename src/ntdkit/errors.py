"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI exit-code contract):
``UsageError`` for precondition/argument violations that are detectable
before any numerical work, and ``ComputationError`` for failures that
surface while solving (rank deficiencies, failed splits, infeasible
subproblems, exhausted generation budgets).
"""


class NtdkitError(Exception):
    """Base class for all package-specific errors."""


class UsageError(NtdkitError, ValueError):
    """Bad arguments or violated static preconditions (CLI exit code 2)."""


class ShapeError(UsageError):
    """Dimension or shape mismatch."""


class PartitionError(UsageError):
    """Mode sets do not form the required partition of the modes."""


class EnumerationCapError(UsageError):
    """Exact vertex enumeration refused: instance exceeds the cap."""


class InputError(NtdkitError):
    """Unreadable or malformed input file (CLI exit code 3)."""


class ComputationError(NtdkitError):
    """Numerical failure while solving (CLI exit code 4)."""


class RankError(ComputationError):
    """A matrix or slice does not have the rank an algorithm requires."""


class NotAKroneckerProduct(ComputationError):
    """Residual of an exact Kronecker split exceeded tolerance."""


class NotPermutedKronecker(ComputationError):
    """Column grouping of a permuted Kronecker product is inconsistent."""


class NotSeparable(ComputationError):
    """Input does not admit a separable factorization at tolerance."""


class SolverError(ComputationError):
    """Infeasible or degenerate subproblem inside a volume solver."""


class WitnessError(ComputationError):
    """Internal inconsistency while building an analytic certificate."""


class GenerationError(ComputationError):
    """Synthetic-instance generation failed: its draw budget ran out, or it
    refused, before drawing, an SSC factor past the reach of the exact
    certificate (more rows than ``cones.ENUM_CAP_N`` or a rank above
    ``synth.GEN_SSC_MAX_RANK``)."""
