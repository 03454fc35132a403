"""Exception types shared across the package, all of them ``ValueError``s;
only ``IllegalCharacter`` and ``ParseError`` keep an attribute, ``position``."""


class DforgeError(ValueError):
    """Base class for all errors raised by this package."""


class IllegalCharacter(DforgeError):
    def __init__(self, position: int, char: str):
        self.position = position
        super().__init__(f"illegal character {char!r} at byte offset {position}")


class ParseError(DforgeError):
    def __init__(self, position: int, expected: str):
        self.position = position
        super().__init__(f"parse error at byte offset {position}: expected {expected}")


class UnknownLevel(DforgeError):
    def __init__(self, label: str):
        super().__init__(f"unknown atomic level {label!r}")


class UnknownSection(DforgeError):
    def __init__(self, name: str):
        super().__init__(f"unknown config section [{name}]")


class MissingKey(DforgeError):
    def __init__(self, key: str):
        super().__init__(f"missing required config key {key!r}")


class UnboundParameter(DforgeError):
    def __init__(self, symbol: str):
        super().__init__(f"parameter symbol {symbol!r} has no numeric binding")


class NonPositiveTruncation(DforgeError):
    def __init__(self, n_max: int):
        super().__init__(f"Fock truncation must be >= 1, got {n_max}")


class ZeroDetuning(DforgeError):
    def __init__(self, key: str):
        super().__init__(
            f"detuning {key!r} is zero; the dispersive expansion divides by it"
        )


class ResidualCoupling(DforgeError):
    def __init__(self, level: str):
        super().__init__(
            f"off-diagonal terms involving level {level!r} survive projection; "
            "the level does not decouple at second order"
        )


class FockOverflow(DforgeError):
    def __init__(self, n: int, n_max: int):
        super().__init__(f"Fock index {n} exceeds truncation n_max={n_max}")


class GridMismatch(DforgeError):
    pass


class NotHermitian(DforgeError):
    def __init__(self, defect: float):
        super().__init__(f"operator is not Hermitian (defect {defect:.3e})")


class DispersiveRatioError(DforgeError):
    def __init__(self, ratio: float, minimum: float, where: str):
        super().__init__(
            f"detuning/coupling ratio {ratio:.2f} below required minimum "
            f"{minimum:.0f} at {where}"
        )
