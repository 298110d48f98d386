"""Numerical laboratory for dephasing of topological qubits.

A topological qubit coupled to an Ohmic-like fermionic environment undergoes
pure dephasing with coherence factor alpha(t) = exp(-2 B^2 |beta| I_Q(t)).
This package evaluates that kernel and everything built on it: evolution of
single qubits and Bell-like pairs, quantum-correlation measures, witnesses of
non-Markovian memory, and the quantum Fisher information governing field
estimation, plus a sweep-driving command line (``topoqubit``).
"""

from .correlations import (
    CorrelationReport,
    coherence_l1,
    concurrence_evolved,
    concurrence_x,
    discord_closed,
    discord_x,
    lqu_closed,
    lqu_x,
    report,
    tnd_x,
)
from .dephasing import (
    DephasingChannel,
    OhmicEnvironment,
    TimeWindow,
    alpha,
    alpha_profile,
    beta,
    dalpha_db,
    dalpha_dt,
    di_q_dt,
    i_q,
    i_q_profile,
    kappa_to_q,
)
from .errors import (
    ConvergenceError,
    DomainError,
    HorizonWarning,
    ParameterError,
    PoleError,
    SpecError,
    TopoqubitError,
)
from .magnetometry import QfiSeries, drho_db, qfi_closed, qfi_general, qfi_series
from .nonmarkov import (
    NonMarkovReport,
    blp,
    blp_pair_scan,
    cb,
    critical_q_scan,
    lpp,
    nm_report,
)
from .specfun import (
    dawson,
    dhyp1f1_dz,
    dhyp2f2_11_32_2_dz,
    gamma,
    hyp1f1,
    hyp2f2_11_32_2,
)
from .states import (
    BlochAffineMap,
    DensityMatrix2,
    DensityMatrix4,
    XState4,
    bell_like,
    bloch_affine_map,
    evolve_pair,
    evolve_single,
    evolved_x_state,
    trace_distance,
)

__version__ = "0.1.0"
