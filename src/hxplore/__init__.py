"""Simulation laboratory for the phase transition of random r-uniform
hypergraphs: an exact exploration engine, its deterministic drift/martingale
theory layer, tiny-scale enumeration oracles, and a Monte Carlo verification
harness for the giant-component limit laws."""

from .doob import ConditionalMoments, DoobTrace, approx_gap, conditional_moments, decompose, duality_diagnostic
from .explore import (
    ComponentRecord,
    ExplorationConfig,
    RunResult,
    census,
    materialize,
    run_exploration,
)
from .mc import (
    CellSpec,
    ExperimentPlan,
    MCAggregate,
    run_cell,
    tail_experiment,
)
from .oracle import ExactDistribution, StepLaw, enumerate_all, enumerate_step
from .randvar import sample_binomial, sample_binomial_array
from .theory import (
    CltTargets,
    DerivedConstants,
    DriftSequences,
    clt_targets,
    derived_constants,
    drift_sequences,
    dual_lambda,
    g_eval,
    h_eval,
    integrate_h,
    lambda_from_p,
    p_from_lambda,
    rho_r,
    rho_star,
    solve_rho,
)

__version__ = "0.1.0"
