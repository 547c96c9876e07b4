"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain on which an operation is defined."""


class PoleError(ValueError):
    """A gamma-type function was requested at one of its poles."""
