"""Simulation and invariant-drift verification for coupled parametric
oscillator pairs of Ermakov / Ray-Reid type."""

from .errors import (
    ConfigError,
    ErmakovError,
    ExprDomainError,
    ExprSyntaxError,
    IntegrationError,
    InvalidMassError,
    PotentialsUnavailableError,
    QuadratureError,
    SingularityError,
)
from .expr import Expr, Func1, compile_func, differentiate, evaluate, parse, to_source
from .model import (
    ConfigDocument,
    F_from_V,
    G_from_W,
    IntegrationPlan,
    PhysState,
    QFrameState,
    Scenario,
    apply_overrides,
    build_scenario,
    g_from_G,
    h_from_F,
    load_config,
    omega_sq_from_mass,
    parse_config,
    to_qframe,
    to_xrho,
)
from .dynamics import (
    gauge_residual,
    lagrangian_Q,
    lagrangian_q_tilde,
    rhs_xrho,
)
from .integrators import (
    Trajectory,
    integrate_adaptive54,
    integrate_fixed_rk4,
    integrate_verlet,
    integrate_verlet_Q,
    interpolate,
)
from .invariants import (
    InvariantReport,
    drift_report,
    energy_Q,
    ermakov_lewis,
    invariant_series,
    quad,
    ray_reid_invariant,
)

__version__ = "0.1.0"
