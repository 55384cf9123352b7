"""Obstacle-constrained gradient flow of the elastic bending energy of graphs.

Simulates De Giorgi minimizing movements for E(u) = int u''^2/(1+u'^2)^(5/2)
over functions pinned at u(0) = u(1) = 0 and constrained to stay above an
obstacle, computes the symmetric critical point over cone obstacles from
closed-form parametric integrals, and verifies the scheme's descent,
symmetry, rearrangement and convergence properties at desk scale.
"""

__version__ = "0.1.0"

from .critical import CriticalPoint, check_critical, critical_profile, f_of_z, ode_residual
from .discretization import (
    GridFunction,
    Obstacle,
    UniformGrid,
    a_u,
    cone_obstacle,
    constant_obstacle,
    energy,
    energy_gradient,
    end_second_diffs,
    first_diff,
    first_variation,
    l2_inner,
    l2_norm,
    read_profile_csv,
    second_diff,
    table_obstacle,
    trapezoid_weights,
    write_profile_csv,
)
from .errors import (
    BendflowError,
    ConfigError,
    ConvergenceError,
    DomainError,
    GridMismatchError,
    RangeError,
    StepConvergenceError,
)
from .flow import (
    FlowConfig,
    KKTReport,
    Trajectory,
    coincidence_set,
    dissipation_report,
    holder_check,
    interpolate_constant,
    interpolate_linear,
    mm_step,
    run_flow,
    symmetry_residual,
    touch_window,
)
from .rearrange import (
    decreasing_rearrangement,
    one_over_ginv_second_derivative,
    random_concave_profile,
    symmetric_rearrangement,
    talenti_comparison,
    talenti_inequality_check,
)
from .specialfn import (
    HypergeometricParams,
    c0,
    g,
    g_inv,
    h_inv,
    h_of_A,
    hyp2f1,
    u_c_profile,
    u_c_value,
)
