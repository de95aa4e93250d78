"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """A parameter or input lies outside the operation's domain."""


class DegenerateStateError(ValueError):
    """An operation would produce the zero vector (e.g. annihilating vacuum)."""


class CutoffOverflowError(RuntimeError):
    """A state needs more Fock levels than a measured cutoff may take."""
