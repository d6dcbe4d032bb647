"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands act on different qubit counts, or an index is out of range."""


class ParameterError(ValueError):
    """A channel or sweep parameter is outside its admissible range."""


class CapacityError(ValueError):
    """The requested system size exceeds what this package is built for."""


class ContractViolationError(RuntimeError):
    """An internal consistency condition (orthogonality, normalization) failed."""
