"""Exact simulation, exact derivatives and level-set navigation for a
frequency-controlled harmonic oscillator."""

from .errors import (EmptyProtocol, IndivisibleChunking, NegativeOccupation,
                     NonFiniteEntry, NonPositiveFrequency, NonSymplectic,
                     NotASolution, OscnavError, RestartBudgetExhausted)
from .navigator import (INFIDELITY_THRESHOLD, CriticalPointReport, DescentConfig,
                        DescentTrajectory, LevelsetCurve, NavigationConfig,
                        ScanResult, SolveResult, TraceConfig, TrajectoryRecord,
                        descend, navigate, null_projector, scan_levelset, solve,
                        trace_levelset)
from .objectives import SecondaryCost, symplectic_final, target_matrix, theta_scan
from .propagator import (BogoliubovPair, ModeState, bogoliubov, infidelity,
                         initial_state, particle_number, propagate,
                         wronskian_defect)
from .protocol import Protocol, collapse, refine, validate
from .sensitivities import SensitivityBundle, gradient, hessian

__version__ = "0.1.0"
__all__ = [
    "Protocol", "validate", "refine", "collapse",
    "ModeState", "BogoliubovPair", "initial_state", "propagate",
    "bogoliubov", "infidelity", "particle_number", "wronskian_defect",
    "SensitivityBundle", "gradient", "hessian",
    "SecondaryCost", "symplectic_final", "target_matrix", "theta_scan",
    "INFIDELITY_THRESHOLD",
    "DescentConfig", "NavigationConfig", "TraceConfig",
    "DescentTrajectory", "TrajectoryRecord", "CriticalPointReport",
    "SolveResult", "LevelsetCurve", "ScanResult",
    "descend", "solve", "null_projector", "navigate", "trace_levelset",
    "scan_levelset",
    "OscnavError", "NonPositiveFrequency", "NonFiniteEntry",
    "IndivisibleChunking", "NegativeOccupation", "EmptyProtocol",
    "NonSymplectic", "NotASolution", "RestartBudgetExhausted",
]
