"""Exception hierarchy shared by all modules."""


class SmallDevError(Exception):
    """Base class for all library errors."""


class PreconditionError(SmallDevError):
    """An input contract was violated."""


class DomainError(SmallDevError):
    """A mathematically divergent or undefined quantity was requested."""


class NumericFailure(SmallDevError):
    """A numerical routine did not reach its required tolerance."""


class CapacityError(SmallDevError):
    """Request exceeds the supported problem size."""


class CertificateError(SmallDevError):
    """A claimed structural property failed numerical verification."""

