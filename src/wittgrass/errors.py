"""Exception hierarchy shared by all wittgrass modules.

Domain errors (everything below WittgrassError) map to CLI exit code 1;
argument/usage problems are raised as UsageError and map to exit code 2.
"""


class WittgrassError(Exception):
    """Base class for all domain errors."""


class UsageError(WittgrassError):
    """Bad invocation: unsupported parameter combination, malformed literal."""


class RingMismatch(WittgrassError):
    """Operands live over different coefficient rings or lengths."""


class NonUnit(WittgrassError):
    """Inversion of a non-invertible element was requested."""


class NotPerfect(WittgrassError):
    """A p-th root (Frobenius section) was requested over a non-perfect ring."""


class TableLimit(WittgrassError):
    """Structure-polynomial generation refused: (p, N) outside the supported envelope."""


class CacheCorrupt(WittgrassError):
    """A structure-polynomial cache file failed to parse or verify."""


class PrecisionLoss(WittgrassError):
    """A p-adic result would carry fewer than one provable digit."""


class ZeroAtPrecision(WittgrassError):
    """Inversion (or valuation) of a value indistinguishable from zero."""


class DetValuationMismatch(WittgrassError):
    """normalize_basis: determinant valuation differs from the declared one."""


class NotDominant(WittgrassError):
    """A dominant cocharacter was required."""


def dominant_or_raise(lam):
    if sum(lam) != 0 or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise NotDominant(f"{lam} is not a dominant cocharacter")


class WindowTooSmall(WittgrassError):
    """The truncation length cannot hold the requested cocharacter ideal."""


class NotStable(WittgrassError):
    """points_lattice received an ideal that is not module-stable."""


class SizeGuard(WittgrassError):
    """An enumeration would exceed the configured resource guard."""
