"""Exception hierarchy shared by all finspace modules."""


class FinspaceError(Exception):
    """Base class for all finspace errors."""


class DuplicateElement(FinspaceError):
    pass


class UnknownElement(FinspaceError):
    pass


class CycleError(FinspaceError):
    """The given relations contain a cycle, so antisymmetry fails."""


class BudgetExceeded(FinspaceError):
    """An enumeration or search exceeded its configured node budget."""


class SizeBudgetExceeded(FinspaceError):
    """A constructed space grew beyond the configured size cap."""


class NotContinuous(FinspaceError):
    """A map is not order-preserving; carries the first violating pair."""

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class NotSurjective(FinspaceError):
    pass


class EmptyValue(FinspaceError):
    """A multivalued map assigns the empty set to some point."""


class EmptySubspace(FinspaceError):
    """Acyclicity was asked of the empty subspace (non-surjective map)."""


class NotAChainMap(FinspaceError):
    """The given matrices do not commute with the boundary operators."""


class BasisSolveFailure(FinspaceError):
    """Internal inconsistency while expressing a cycle in a homology basis."""


class ProfileMismatch(FinspaceError):
    """Induced maps composed or traced across two homology bases."""


class NotInvertible(FinspaceError):
    """An induced map is not a unimodular isomorphism in some dimension."""

    def __init__(self, msg, dimension=None):
        super().__init__(msg)
        self.dimension = dimension


class ProjectionNotIso(FinspaceError):
    """The first graph projection does not induce homology isomorphisms."""


class NoMaximum(FinspaceError):
    def __init__(self, msg, element=None):
        super().__init__(msg)
        self.element = element


class NotUsc(FinspaceError):
    pass


class NoSelector(FinspaceError):
    pass


class HypothesisFailed(FinspaceError):
    """A theorem's hypotheses failed to certify."""

    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


class NotComposable(FinspaceError):
    pass


class IndexRange(FinspaceError):
    pass


class CertificationFailed(FinspaceError):
    def __init__(self, msg, level=None):
        super().__init__(msg)
        self.level = level


class InputError(FinspaceError):
    """Malformed input file or CLI argument."""
