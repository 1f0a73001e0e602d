"""Exception hierarchy shared across the package.

Every error raised on purpose derives from EsclabError so CLI entry points
can distinguish expected failures (exit 1 with a one-line report) from bugs.
"""


class EsclabError(Exception):
    """Base class for all deliberate failures."""


class ParseError(EsclabError):
    """A configuration or data file is not well-formed."""


class ValidationError(EsclabError):
    """A well-formed document violates an invariant."""


class UnknownAction(EsclabError):
    """Action id not present in the taxonomy."""


class UnknownNation(EsclabError):
    """Nation name not present in the scenario."""


class SequenceError(EsclabError):
    """Day records applied out of order."""


class TransportError(EsclabError):
    """Network or HTTP failure after retries, or a request a replay cannot answer."""

    def __init__(self, message: str, transient: bool = False):
        super().__init__(message)
        self.transient = transient


class AuthError(TransportError):
    """The endpoint rejected the credential."""

    def __init__(self, message: str):
        super().__init__(message, transient=False)


class BudgetExceeded(EsclabError):
    """The experiment-level request cap was hit."""


class IncompleteRun(EsclabError):
    """A run-level metric was requested for a run that did not complete."""


class MixedScenario(EsclabError):
    """Aggregation was attempted across runs of different scenarios."""


class EmptySample(EsclabError):
    """A summary statistic was requested for an empty sample."""


class InsufficientRuns(EsclabError):
    """Confidence intervals need at least two runs."""


class InsufficientSample(EsclabError):
    """The significance test needs at least three values per side."""


class ZeroBaseline(EsclabError):
    """Percent reduction against a zero baseline is undefined."""


class EmptyStats(EsclabError):
    """A figure was requested with no statistics to draw."""


class EmptyCounts(EsclabError):
    """A category chart was requested with no counts to draw."""
