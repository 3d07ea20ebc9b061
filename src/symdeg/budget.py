"""Enumeration budget shared by the brute-force oracles.

Every routine that enumerates function tables first computes exactly how
many items the enumeration would visit and compares that against a budget,
so oversized requests fail fast instead of running away: all m**n
functions (`verify_approximation` on an indicator polynomial, and so
`transfer_approximation`; `oracle.enumerate_functions`, behind
`eps_min_indicator_basis`), one frequency class (`functions_in_class`,
`average_oracle`), one ordered frequency vector (`average_over_counts`)
and the range sizes of one sweep (`degreelp.sweep`, counted before any
size is checked).
A function grid past the budget by bit length alone is refused before
m**n is built (`check_grid_budget`).  The budget is 10**6 items unless
the SYMDEG_BUDGET environment variable sets another; it is the one
setting, read at each check.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10**6
BUDGET_ENV_VAR = "SYMDEG_BUDGET"


class BudgetExceededError(Exception):
    """An enumeration would exceed the configured budget.  `required` is the
    item count, or its size as text when the count has more than 64 bits
    ("2**k or more") or is a function grid refused before m**n was built
    ("m**n"): str() of an int past 4300 digits raises ValueError."""

    def __init__(self, required: int | str, budget: int):
        super().__init__(
            f"enumeration of {required} items exceeds the budget of {budget}"
            f" (raise it via {BUDGET_ENV_VAR})"
        )
        self.required = required
        self.budget = budget


def default_budget() -> int:
    """The enumeration budget: SYMDEG_BUDGET if set, else 10**6."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def check_budget(required: int) -> None:
    """Raise BudgetExceededError if `required` items exceed the budget."""
    limit = default_budget()
    if required > limit:
        bits = required.bit_length()
        raise BudgetExceededError(required if bits <= 64 else f"2**{bits - 1} or more", limit)


def check_grid_budget(n: int, m: int) -> None:
    """check_budget(m**n) for the functions [n] -> [m].  Once
    m**n >= 2**(n * (bits(m) - 1)) is past the budget by bit length alone,
    the grid is refused as "m**n" without building m**n, which at large n
    takes seconds and has too many digits to print."""
    limit = default_budget()
    if n * (m.bit_length() - 1) >= limit.bit_length():
        raise BudgetExceededError(f"{m}**{n}", limit)
    check_budget(m**n)
