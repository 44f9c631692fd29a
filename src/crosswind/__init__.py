"""Crosswind roll-stabilization control library.

Delayed roll dynamics, an augmented-state wind-torque observer with
feed-forward compensation, constrained and unconstrained delay-
compensating MPC, a PID baseline, and a batch simulation harness.
"""

from .controllers import (
    MpcConfig,
    PidConfig,
    PidState,
    PredictionStack,
    build_prediction,
    feedforward_compensate,
    mpc_constrained_step,
    mpc_unconstrained_step,
    pid_step,
    shift_state,
)
from .errors import (
    AreConvergenceError,
    BufferLengthError,
    CrosswindError,
    InvalidParameterError,
    NonIntegerDelayError,
    PlantDivergenceError,
    QpInfeasibleError,
    ScenarioError,
    SingularInnovationError,
    UnobservablePairError,
    UnstablePoleError,
)
from .estimator import (
    KalmanConfig,
    ObserverGain,
    ObserverState,
    kalman_gain,
    lowpass,
    observer_step,
    place_observer_gain,
    solve_filter_are,
)
from .harness import (
    Metrics,
    TraceRecord,
    compute_metrics,
    read_trace,
    response_reduction,
    run_scenario,
    write_trace,
)
from .model import (
    AugmentedModel,
    ContinuousModel,
    DiscreteModel,
    RollPlantParams,
    augment,
    check_observability,
    continuous_roll_model,
    discretize_zoh,
)
from .plant import (
    FullPlantSimulator,
    FullPlantState,
    InputBuffer,
    MotorParams,
    RollState,
    SimplifiedPlantSimulator,
    WeightDisturbance,
    WindProfile,
    WindTorqueMap,
    measure_roll,
    step_full_plant,
    step_simplified_plant,
    weight_to_torque,
    wind_speed_to_torque,
)
from .qpsolve import QpProblem, QpSolution, QpWorkspace, check_kkt, solve_qp
from .scenario import ScenarioConfig, load_bundled_scenario, load_scenario_file, parse_scenario

__version__ = "0.1.0"
