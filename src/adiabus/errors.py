"""Exception types shared across the package."""


class AdiabusError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSector(AdiabusError):
    """Sector specification is malformed (k out of range, N too small)."""


class NotInSector(AdiabusError):
    """A bitmask does not belong to the requested sector."""


class SectorMismatch(AdiabusError):
    """A product state has components outside the target sector."""


class InvalidSize(AdiabusError):
    """Chain length too small for the requested construction."""


class NonConservingSector(AdiabusError):
    """Couplings that leave a basis: jx != jy on a magnetization sector, or
    anything but jx = jy = jz on a total-spin sector."""


class DimensionMismatch(AdiabusError):
    """Operator and vector dimensions do not agree."""


class NoConvergence(AdiabusError):
    """An iterative computation hit its cap before reaching tolerance."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class NormDrift(AdiabusError):
    """Time evolution lost unitarity beyond the accepted bound."""


class AmbiguousInitial(AdiabusError):
    """The initial sector ground state is degenerate; no unique preparation."""


class Disconnected(AdiabusError):
    """The initial Hamiltonian does not split into one subchain plus one free site."""


class OddLengthRequired(AdiabusError):
    """Operation defined only for chains with an odd number of spins."""


class EvenLengthRequired(AdiabusError):
    """Operation defined only for chains with an even number of spins."""


class InputSiteCoupled(AdiabusError):
    """The designated input site is already coupled at the start of the protocol."""


class ParseError(AdiabusError):
    """Experiment configuration text is not valid JSON."""


class ValidationError(AdiabusError):
    """Experiment configuration is well-formed but semantically invalid."""

    def __init__(self, field, message=None):
        super().__init__(message or f"invalid field: {field}")
        self.field = field


class SchemaMismatch(AdiabusError):
    """CSV header does not match the plot template's expected schema."""
