"""Max-plus (idempotent) probability measures on finite metric spaces:
algebra, Lipschitz-dual metrization, convex geometry, and the bridge to
the probability simplex.

`import tropimeas` loads no submodule.  Each exported name is read from
its home module, which is imported on first access (PEP 562), so a
process compiles only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each module and the names the package exports from it.
_EXPORTS = {
    "rmax": ("BOTTOM", "oplus", "odot", "rho"),
    "metric": ("FiniteMetricSpace", "LipFunction", "PointMap", "build_space",
               "tighten", "nearest_net_retraction", "covering_radius"),
    "measure": ("IdempotentMeasure", "MetaMeasure", "canonicalize", "dirac",
                "uniform_j", "integrate", "combine", "pushforward", "support",
                "meta_measure", "flatten", "dirac_lift", "in_basic_neighborhood"),
    "pseudometric": ("DistanceReport", "hat_d", "tilde_d", "aggregate_d",
                     "oracle_sup", "hat_d_meta", "separates",
                     "hausdorff_support_distance"),
    "geometry": ("CStructureQuery", "DapReport", "f_set_element", "homotopy_H",
                 "max_of", "saturate_g2", "discretize_g1", "dap_demo",
                 "random_measure"),
    "bridge": ("GammaPoint", "DeltaPoint", "measure_to_gamma", "gamma_to_delta",
               "delta_to_gamma"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    # Not cached in the package globals: every read sees the home module's
    # current binding, also after a caller rebinds it there.
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
