"""Shared exception types."""


class SearchExhausted(Exception):
    """A bounded witness search hit its cap.  The underlying existence
    theorems guarantee a witness, so this signals a bug or an undersized
    candidate space, never a mathematical impossibility."""


class DegenerateSampler(Exception):
    """A randomized sampler kept hitting degenerate elements."""


class InvariantError(RuntimeError):
    """A construction failed its own re-verification.  The invariant holds
    by the underlying theorem, so this signals a bug."""
