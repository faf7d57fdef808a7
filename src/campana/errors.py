"""Shared exception types."""


class SearchExhausted(Exception):
    """A bounded search hit its budget.  Two searches raise it:
    - arith.factorize, when Pollard rho finds no factor of a cofactor within
      RHO_STEP_BUDGET squarings: by design for a product of two primes
      past about 10^12, an input refused for its cost, not for its value;
    - parametrize.find_b, when its helper primes pass the SearchConfig's
      candidate_cap: a helper prime exists by the theorem, so the cap was
      set too low for the set S, or there is a bug."""


class DegenerateSampler(Exception):
    """A randomized sampler kept hitting degenerate elements."""


class InvariantError(RuntimeError):
    """A construction failed its own re-verification.  The invariant holds
    by the underlying theorem, so this signals a bug."""
