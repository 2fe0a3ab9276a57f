"""Exception hierarchy shared across the library.

Two broad classes matter downstream: plain usage errors (bad arguments,
non-composable pairs) and *hypothesis violations*, which mean the scenario
itself breaks an assumption every construction relies on (constant rank,
condition (6), ...).  Batch runners short-circuit on the latter.
"""

from __future__ import annotations

from typing import Optional


class FolioidError(Exception):
    """Base class for all library errors."""


class StructureError(FolioidError):
    """A finite table is malformed (id out of range, non-total map)."""


class NotComposable(FolioidError):
    """A product was requested for a pair that is not composable."""


class TangentNotComposable(NotComposable):
    """Base points compose but the tangent vectors do not."""


class SamplerError(FolioidError):
    """A scenario sampler produced an invalid sample."""


class NumericalBlowup(FolioidError):
    """A numerical evaluation produced non-finite values, first at ``row`` of a stack."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


class FlowStopped(FolioidError):
    """A flow stopped early; carries the stopped row's last valid state and signed time."""

    def __init__(self, message: str, last_state=None, time: float = 0.0, row: int = 0):
        super().__init__(message)
        self.last_state = last_state
        self.time = time
        self.row = row


class StepSizeCollapsed(FlowStopped, NumericalBlowup):
    """An error-controlled flow's step fell below the floor that bounds its step count."""


class FlowEscapedBox(FlowStopped):
    """An integration step left the chart box."""


class SpanDeficiency(FolioidError):
    """A linear solve did not have enough independent directions."""


class HypothesisViolation(FolioidError):
    """A structural assumption of the construction fails on this scenario.

    ``witness``, when given, is a JSON-ready dict naming where it failed;
    batch runners copy it into the report next to the error's name.
    """

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


class RankDrift(HypothesisViolation):
    """A distribution's numerical rank is not constant over the region.

    A ``location``, when given, is the point where the rank drifted; it
    becomes the witness ``{"at": [...]}``.
    """

    def __init__(self, message: str, location=None):
        super().__init__(message, None if location is None
                         else {"at": [float(v) for v in location]})


class LiftFailed(HypothesisViolation):
    """No vector in the distribution projects onto the requested base vector, first at ``row``."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


class TransportFailed(HypothesisViolation):
    """Leafwise transport did not reach the requested target."""


class Condition6Violated(HypothesisViolation):
    """Left translates of unit-leaf fibers do not fill the target fiber leaf.

    When this holds the quotient multiplication would be ill defined.
    """


class WellDefinednessViolated(HypothesisViolation):
    """A quotient-level value changed under a change of representative."""


class ThetaIllDefined(FolioidError):
    """A coset action table gives conflicting values on one coset."""
