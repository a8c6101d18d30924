"""Exception types shared across the package: domain, small-divisor, integration, flow-escape and usage errors."""


class DomainError(ValueError):
    """A state or window lies outside the declared action domain."""


class SmallDivisorError(RuntimeError):
    """A retained Fourier mode violates the frequency lower bound on its window."""


class IntegrationError(RuntimeError):
    """An orbit integration failed before reaching its end or a stop event."""


class FlowEscapeError(RuntimeError):
    """A generator flow left its window or budget, or could not be integrated."""


class UsageError(ValueError):
    """Bad command-line arguments or a malformed input file."""
