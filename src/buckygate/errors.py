"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all buckygate errors."""


class ConfigError(SimulationError):
    """Aggregate of every invariant violated by a configuration.

    ``violations`` holds one exception instance per violated invariant so a
    caller can report all of them at once instead of fixing them one by one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class NonPositiveDistance(SimulationError):
    pass


class NonUnitInitialState(SimulationError):
    pass


class StepTooCoarse(SimulationError):
    pass


class SingularPosition(SimulationError):
    pass


class NonHermitianInput(SimulationError):
    pass


class NormDrift(SimulationError):
    """Squared norm left the tolerance band; the integration step is too coarse."""


class UndefinedPhase(SimulationError):
    """A basis amplitude vanished, so its complex argument is undefined."""


class PhaseAliasing(SimulationError):
    """A per-sample step of the unwrapped composite phase exceeds the bound
    up to which the unwrap can be trusted: the sample grid is too coarse for
    the horizon."""


class NoCrossing(SimulationError):
    """The composite phase never reached the target within the horizon.

    ``theta_end`` carries the unwrapped phase at the end of the horizon so
    callers can report how far the evolution got.
    """

    def __init__(self, message, theta_end=None):
        super().__init__(message)
        self.theta_end = theta_end


class ZeroState(SimulationError):
    pass


class OutOfRange(SimulationError):
    pass


class SweepSpecError(SimulationError):
    pass
