"""Exception types shared across the package."""


class EmptyInputError(ValueError):
    """No nonzero generators were supplied."""


class NotPointedError(ValueError):
    """The cone generated by the input contains a line."""


class DimensionMismatchError(ValueError):
    """An operation restricted to a specific lattice rank was misapplied."""


class BudgetExhaustedError(RuntimeError):
    """The gamma search ran out of budget before finding a certificate.

    Carries how far the search got so the failure is reproducible: the
    number of probes popped and the largest grading level among them
    (probes are not popped in grading order).
    """

    def __init__(self, examined: int, max_level: int):
        self.examined = examined
        self.max_level = max_level
        super().__init__(
            f"no valid gamma among {examined} candidates "
            f"(largest grading level examined: {max_level})"
        )
