"""SciPy/HiGHS backend for the ILP modeling layer.

``scipy.optimize.milp`` wraps the HiGHS solver, which plays the role OR-Tools
plays in the paper's artifact.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.ilp.model import Model, SolveResult, SolveStatus


def is_available() -> bool:
    try:  # pragma: no cover - trivial import probe
        from scipy.optimize import milp  # noqa: F401

        return True
    except Exception:  # pragma: no cover
        return False


def solve_highs(model: Model) -> SolveResult:
    """Solve ``model`` with ``scipy.optimize.milp`` (HiGHS)."""
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
    except Exception as exc:  # pragma: no cover - exercised only without scipy
        raise SolverError(f"SciPy HiGHS backend unavailable: {exc}") from exc

    n = model.num_variables
    c = np.zeros(n)
    for var, coeff in model.objective.coeffs.items():
        c[var.index] += coeff
    if model.sense == "max":
        c = -c

    constraints = []
    if model.constraints:
        rows = np.zeros((len(model.constraints), n))
        lower = np.full(len(model.constraints), -np.inf)
        upper = np.full(len(model.constraints), np.inf)
        for row_index, constraint in enumerate(model.constraints):
            for var, coeff in constraint.expr.coeffs.items():
                rows[row_index, var.index] += coeff
            if constraint.sense == "<=":
                upper[row_index] = constraint.rhs
            elif constraint.sense == ">=":
                lower[row_index] = constraint.rhs
            else:
                lower[row_index] = constraint.rhs
                upper[row_index] = constraint.rhs
        constraints.append(LinearConstraint(rows, lower, upper))

    lb = np.array([v.lb if v.lb is not None else -np.inf for v in model.variables])
    ub = np.array([v.ub if v.ub is not None else np.inf for v in model.variables])
    integrality = np.array([1 if v.integer else 0 for v in model.variables])

    bounds = Bounds(lb, ub)
    result = milp(c=c, constraints=constraints, bounds=bounds, integrality=integrality)
    if result.status == 4 and "unbounded or infeasible" in result.message:
        # HiGHS presolve may not tell the two apart; a feasible zero-objective
        # solve means the model is unbounded, as the Python backend reports.
        feasible = milp(
            c=np.zeros(n), constraints=constraints, bounds=bounds, integrality=integrality
        )
        status = SolveStatus.UNBOUNDED if feasible.status == 0 else SolveStatus.INFEASIBLE
        return SolveResult(status=status, backend="highs", message=result.message)

    # scipy status codes: 0 optimal, 1 iteration/time limit, 2 infeasible, 3 unbounded.
    if result.status == 2:
        return SolveResult(status=SolveStatus.INFEASIBLE, backend="highs", message=result.message)
    if result.status == 3:
        return SolveResult(status=SolveStatus.UNBOUNDED, backend="highs", message=result.message)
    if not result.success or result.x is None:
        return SolveResult(status=SolveStatus.ERROR, backend="highs", message=result.message)

    values = {}
    for var in model.variables:
        value = float(result.x[var.index])
        if var.integer:
            value = float(round(value))
        values[var] = value
    objective = model.objective.evaluate(values)
    return SolveResult(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        values=values,
        backend="highs",
        message=result.message,
    )
