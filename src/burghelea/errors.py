"""Exception hierarchy shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class DescriptorError(WorkbenchError):
    """A group or complex descriptor violates its schema or invariants."""


class GroupMismatchError(WorkbenchError):
    """An element does not belong to the model it was used with."""


class KindMismatchError(WorkbenchError):
    """Chains of incompatible kind or degree were combined."""


class WindowExhaustedError(WorkbenchError):
    """A minimality search window was exhausted without a certified minimum."""


class NotConjugateError(WorkbenchError):
    """The two elements are provably non-conjugate."""


class NotConjugateWithinError(WorkbenchError):
    """No conjugator was found within the search radius; conjugacy undecided."""

    def __init__(self, max_radius: int):
        super().__init__(f"no conjugator within radius {max_radius}")
        self.max_radius = max_radius


class ResourceCapError(WorkbenchError):
    """A configured size or memory cap would be exceeded."""


class NotABoundaryError(WorkbenchError):
    """The given chain is not a boundary, so no filling exists."""


class CertificateError(WorkbenchError):
    """An exact optimum failed its check against its dual certificate."""
