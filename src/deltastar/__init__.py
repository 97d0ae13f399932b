"""Exact piecewise-polynomial distributions with a one-sided product,
point-interaction boundary conditions for 1D Schrodinger operators, and
floating-point cross-checks of both."""

from .dist_core import (
    AlgebraError,
    DegreeCapError,
    DeltaTerm,
    DisjointnessError,
    DivergentIntegralError,
    PiecewiseDist,
    Poly,
    RegularityError,
    Scalar,
    add,
    canonicalize,
    constant,
    degree_cap,
    delta_dist,
    delta_times_smooth,
    derivative,
    from_poly,
    heaviside,
    hormander_product,
    indicator,
    n_sing_supp,
    order_of,
    pair_polynomial_test,
    parse_scalar,
    restrict,
    scale,
    set_degree_cap,
    star,
    zero,
)

# what "from deltastar import *" binds: the public names, the lazy ones included
__all__ = [name for name in globals() if not name.startswith("_")] + [
    "limit_oracle", "star_limit_oracle"]
__version__ = "0.1.0"

# submodules reachable as attributes of the package before they are imported
_SUBMODULES = ("boundary_ops", "limit_oracle", "numerics", "schrodinger")


def __getattr__(name):
    # limit_oracle and the operator modules load on first use (PEP 562): a
    # process compiles every module it imports, and product needs none of them
    if name in _SUBMODULES:
        import importlib
        return importlib.import_module("." + name, __name__)
    if name == "star_limit_oracle":
        globals()[name] = __getattr__("limit_oracle").star_limit_oracle
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
