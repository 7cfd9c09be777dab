"""Exact truncated Witt-vector arithmetic, Greenberg realization, and
desk-scale computations on the p-adic affine Grassmannian for SL_n.

Importing the package loads only ``errors``.  Import every other name from
the module that defines it (``from wittgrass.witt import witt_arith``), so
that a process loads only the layers it uses.  ``gen_structure_polys`` is
also reachable here; it loads ``structure`` on first use.  The name of the
environment variable that sets the structure-table cache directory lives
here, so that the CLI can set it without loading ``structure``.
"""

from .errors import WittgrassError

__version__ = "0.1.0"

_ENV_CACHE = "WITTGRASS_CACHE_DIR"

__all__ = ["WittgrassError", "gen_structure_polys"]


def __getattr__(name):
    if name == "gen_structure_polys":
        from .structure import gen_structure_polys

        return gen_structure_polys
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
