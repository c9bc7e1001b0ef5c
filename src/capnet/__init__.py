"""Anti-windup PI control toolkit for capacity-limited multi-agent networks.

Agents with stable first-order dynamics share a saturated, competitive,
monotone interconnection.  The package provides the two anti-windup PI
controllers for this setting (fully decentralized, and rank-1 coordinating),
executable checkers for the structural assumptions behind them, closed-loop
equilibrium solvers with brute-force optimality certification, a district
heating hydraulic model as the worked interconnection, and a reproducible
simulation pipeline with a CLI.
"""

from .core import (AgentEnsemble, ControllerGains, DisturbanceProfile, SaturationBounds,
                   TuningReport, deadzone, saturate, validate_coordinating_tuning,
                   validate_decentralized_tuning, validate_tuning)
from .interconnect import (Interconnection, LinearAllocator, LinearMMatrix,
                           PropertyVerdict, check_assumption1, check_lemma1,
                           check_lemma2, eval_interconnection, linear_interconnection,
                           positive_left_weight)
from .hydraulics import (CALIBRATED_CAPACITY_SCALE, BuildingParams, Consumer,
                         HydraulicNetwork, HydraulicStats, Pipe,
                         build_dhn_network, build_dhn_scenario, dhn_interconnection,
                         flow_sensitivity, network_from_dict, network_to_dict,
                         solve_flows)
from .control import (ClosedLoopState, ClosedLoopSystem, CoordinatingMonitor,
                      DecentralizedMonitor, control_input, field, from_zeta_u,
                      lyapunov_coordinating, lyapunov_decentralized,
                      rejectable_disturbance, to_zeta_u)
from .sim import (RunArtifacts, Scenario, SolverOptions, Trajectory, integrate,
                  make_temperature_profile, run_scenario, write_trajectory_csv)
from .equilibria import (AllocationResult, EquilibriumReport, NoEquilibrium,
                         OracleOptions, OracleResult, VerificationVerdict,
                         find_equilibrium, find_equilibrium_coordinating,
                         find_equilibrium_decentralized, linf_cost, open_loop_state,
                         oracle_linf, oracle_weighted_l1, solve_l1_allocation,
                         solve_linf_allocation, verify_global_convergence,
                         verify_optimality, weighted_l1_cost)
from .errors import (AllocationError, CapnetError, ConfigError, DimensionError,
                     DomainError, EquilibriumError, FlowSolverError,
                     IntegrationError, TuningError, VaryingDisturbanceError)

__version__ = "0.1.0"
