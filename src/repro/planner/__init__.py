"""Cost-based query planner with error/latency SLOs.

The paper's analytical machinery — the Table III covering factors, the
cost equations (3)–(5), and the ``m = log2(1/epsilon)`` start-level
rule — is implemented in :mod:`repro.core.analysis`, but historically
nothing used it to *drive execution*: engine choice was a static
size-threshold if-check in the service and CLI.  This package closes
that loop.  For each :class:`~repro.core.request.SDHRequest` it

* predicts the cost of every viable execution strategy — engine,
  worker count, exact-vs-ADM mode, ADM start level ``m`` — from the
  paper's equations plus host constants (:mod:`repro.planner.cost`);
* measures those host constants once with a micro-calibration run and
  persists them as JSON (:mod:`repro.planner.calibrate`);
* ranks the candidates and picks the cheapest one that satisfies the
  caller's SLO — a ``latency_budget_ms`` and/or an ``error_bound``
  (:mod:`repro.planner.planner`, :mod:`repro.planner.slo`);
* rejects infeasible SLOs loudly with a typed
  :class:`~repro.errors.SLOInfeasibleError` (HTTP 422 at the service
  layer) instead of running silently over budget.

Because every exact engine is differentially verified bit-identical
(:mod:`repro.verify`), planner routing can never change an exact
answer — only how fast it arrives.  ADM mode is only ever chosen when
the request itself asks for approximation (``error_bound``/``levels``).
"""

from .calibrate import (
    Calibration,
    calibrate,
    default_calibration_path,
    get_calibration,
    load_calibration,
    save_calibration,
)
from .cost import (
    CostConstants,
    CostEstimate,
    WorkloadProfile,
    estimate_cost,
    profile_workload,
)
from .planner import ExecutionPlan, PlanCandidate, plan_request
from .slo import SLOInfeasibleError, admit

__all__ = [
    "Calibration",
    "CostConstants",
    "CostEstimate",
    "ExecutionPlan",
    "PlanCandidate",
    "SLOInfeasibleError",
    "WorkloadProfile",
    "admit",
    "calibrate",
    "default_calibration_path",
    "estimate_cost",
    "get_calibration",
    "load_calibration",
    "plan_request",
    "profile_workload",
    "save_calibration",
]
