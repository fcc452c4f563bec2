"""scipy's HiGHS binding, as both of the bundled adapter's routes use it.

highs_core loads the binding straight from scipy's directory, under its own
module name, so nothing imports scipy.optimize or scipy.sparse, and a later
import of scipy.optimize in the same process reuses the loaded extension.
The rest wraps one HiGHS object: its options, a run within a deadline, and
the answer read off its last run, x as the binding's list. Nothing here
imports numpy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time

_CORE = "scipy.optimize._highspy._core"

# For each row, how many of the cheapest columns that can rest at 0 a pure
# LP's first working set takes (solve_core.working_set); the plain-LP test
# (mps._Read.plain_lp) admits only LPs whose working set would be whole.
_PER_ROW = 20

# HiGHS's simplex_dual_edge_weight_strategy value for Devex pricing.
_DEVEX = 1


def highs_core():
    """scipy's HiGHS binding, without importing scipy.optimize.

    A binding already loaded is reused. Otherwise it is loaded from scipy's
    directory under its own name and registered in sys.modules before it
    runs, so a later import of scipy.optimize finds it there: a pybind11
    extension must not be initialised twice."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    scipy_spec = importlib.util.find_spec("scipy")
    folders = [os.path.join(folder, "optimize", "_highspy")
               for folder in (scipy_spec.submodule_search_locations or ())
               ] if scipy_spec else []
    spec = importlib.machinery.PathFinder.find_spec(_CORE, folders)
    if spec is None:
        raise ImportError(f"scipy's HiGHS binding {_CORE} is not installed "
                          "(it ships with scipy 1.15 and later)")
    core = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return core


# HiGHS model status -> status word, as scipy's milp reported it. A time or
# iteration limit is "feasible" for a MIP that holds an incumbent (finite
# objective), else "timeout"; kModelError, a model HiGHS refused, counts as
# infeasible; every status not listed, kSolutionLimit and
# kUnboundedOrInfeasible among them, is "error".
_STATUS_WORDS = {"kOptimal": "optimal", "kTimeLimit": "timeout",
                 "kIterationLimit": "timeout", "kInfeasible": "infeasible",
                 "kModelError": "infeasible", "kUnbounded": "unbounded"}


def status_word(model_status: str, is_mip: bool, objective: float) -> str:
    word = _STATUS_WORDS.get(model_status, "error")
    if word == "timeout" and is_mip and objective != math.inf:
        return "feasible"
    return word


def _options(is_mip: bool, time_limit: float | None, gap: float | None
             ) -> list[tuple[str, object]]:
    """The HiGHS options of a solve: no console log, presolve and Devex
    dual pricing for a MIP only (solve_core's docstring), and the limits
    given. A pure LP keeps HiGHS's default pricing."""
    options = [("log_to_console", False),
               ("presolve", "on" if is_mip else "off")]
    if is_mip:
        options.append(("simplex_dual_edge_weight_strategy", _DEVEX))
    if time_limit is not None:
        options.append(("time_limit", float(time_limit)))
    if gap is not None:
        options.append(("mip_rel_gap", float(gap)))
    return options


def _highs(core, options):
    """A fresh HiGHS object with the options set."""
    highs = core._Highs()
    for option, setting in options:
        if highs.setOptionValue(option, setting) == core.HighsStatus.kError:
            raise ValueError(f"HiGHS rejected option {option} = {setting!r}")
    return highs


def _run(highs, deadline: float | None) -> str:
    """highs.run() within what is left until deadline; the model status's
    name. HiGHS's run clock adds up over one object's runs."""
    if deadline is not None:
        left = max(deadline - time.monotonic(), 0.0)
        highs.setOptionValue("time_limit", highs.getRunTime() + left)
    highs.run()     # a failed run leaves an error model status
    return highs.getModelStatus().name


def _answer(highs, model_status: str, is_mip: bool, note: str
            ) -> tuple[str, float | None, list[float] | None, str]:
    """solve_arrays' return value from the object's last run, x as the
    binding's list."""
    objective = highs.getInfo().objective_function_value
    word = status_word(model_status, is_mip, objective)
    if word not in ("optimal", "feasible"):
        return word, None, None, ""
    return word, float(objective), highs.getSolution().col_value, note
