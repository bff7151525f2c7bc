"""Exceptions shared across the kernel."""


class TwistresError(Exception):
    """Base class for all kernel errors. ``location``, once named, is the
    JSON path of the input at fault, and the message starts with it."""

    location = ""

    def at(self, location):
        """Name ``location``, unless the error names a path already."""
        if not self.location:
            self.location = location
            self.args = (f"{location}: {self}",)


class FieldError(TwistresError):
    """Unsupported scalar field (characteristic 2, composite modulus, ...)."""


class DimensionMismatch(TwistresError):
    """Incompatible shapes in a linear-algebra call."""


class BudgetExceeded(TwistresError):
    """A computation stepped outside the configured degree budget."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class TwistInconsistent(TwistresError):
    """A generator-level twisting rule does not extend consistently."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInvertible(TwistresError):
    """A truncated block of a linear map is singular."""


class ActionNotAdmissible(TwistresError):
    """A Hopf action does not preserve the required structure."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotLiftable(TwistresError):
    """Bootstrap lifting failed: quotient not free at some block."""

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block


class InstanceError(TwistresError):
    """Malformed instance or element description."""

    def __init__(self, message, location=""):
        super().__init__(message)
        if location:
            self.at(location)
