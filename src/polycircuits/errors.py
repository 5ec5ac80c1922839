"""Exception types shared across the package."""


class PolyhedronError(Exception):
    """Base class for geometric failure modes."""


class EmptyPolyhedron(PolyhedronError):
    """The feasible region is empty; the message reads "<name> is empty"."""

    def __init__(self, name: str):
        super().__init__(f"{name} is empty")


class NotPointed(PolyhedronError):
    """Operation requires a pointed polyhedron (trivial lineality space); the
    message reads "<name> is not pointed"."""

    def __init__(self, name: str):
        super().__init__(f"{name} is not pointed")


class BudgetExceeded(PolyhedronError):
    """A subset enumeration would exceed the cap of the work budget in force."""

    def __init__(self, needed: int, cap: int, what: str = "row subsets"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what}: {needed} candidates exceed budget {cap}")


class PreconditionViolation(PolyhedronError):
    """Input fails a documented structural requirement of the operation."""


class EdgeDirectionGiven(PolyhedronError):
    """The supplied direction is an edge direction, so no extension can avoid it."""


class ProjectionMismatch(PolyhedronError):
    """A supplied projected description disagrees with the computed image."""


class NotInjectiveOnQ(PolyhedronError):
    """Map collapses the affine hull of the polyhedron; isomorphism law not applicable."""


class CorrespondenceViolation(PolyhedronError):
    """An exact two-sided correspondence check failed; indicates an internal bug."""
