"""Vertical road alignment and earthwork allocation toolkit.

Builds multi-haul network-flow MILPs for combined vertical alignment and
earthwork movement, drives external MIP solvers through an MPS file
protocol, validates solutions independently, and benchmarks model variants
with relative-error and performance-profile methodology.
"""

import importlib
import sys
import types

# Each export's module. Exports are imported on first access (PEP 562), so
# that running a submodule such as the solver adapter (``python -m
# valign.milp_solve``) does not import the whole toolkit with the package.
_EXPORTS = {
    "valign.builder": ("BuildError", "BuilderConfig", "MilpModel",
                       "QNF_COST_PAIRS", "build", "fix_offsets",
                       "named_config"),
    "valign.gateway": ("AlignmentResult", "DecodeError", "Solution",
                       "SolveError", "SolverLimits", "decode",
                       "default_solver_command", "solve"),
    "valign.instance": ("AccessRoad", "Block", "CostModel", "HaulClass",
                        "InstanceError", "Material", "Pit", "RoadInstance",
                        "Section", "SegmentLayout", "VolumeCurve", "big_m",
                        "block_access_sets", "cheapest_haul",
                        "default_cost_model", "evaluate_grade",
                        "evaluate_profile", "global_big_m"),
    "valign.instance_io": ("RunConfig", "parse_config", "parse_instance",
                           "write_instance"),
    "valign.mps": ("emit_mps", "emit_mps_text", "strip_comments"),
    "valign.validate": ("ViolationReport", "recompute_cost", "validate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package by its name, and
        # valign.validate is also the name of the validate function: keep
        # the function, as an up-front import of every export did.
        if isinstance(value, types.ModuleType) \
                and value.__name__ == _MODULE_OF.get(name):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF) + ["__version__"]
