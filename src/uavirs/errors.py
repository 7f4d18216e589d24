"""Exception types shared across the package."""


class ConfigurationError(Exception):
    """A scenario object is internally inconsistent (missing rule, bad surface, ...)."""


class ScenarioError(Exception):
    """A scenario failed to parse or validate.

    ``field`` names the offending entry when known (e.g. "experiment.n_budget").
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class FieldError(ValueError):
    """A type rejected the value of its attribute ``field``; str() is "<field> <problem>"."""

    def __init__(self, field, problem):
        self.field, self.problem = field, problem
        super().__init__(f"{field} {problem}")
