"""Decay points of monotone orthant maps and attraction certificates.

The discrete-time system ``s+ = Ts`` induced by a monotone self-map of
the nonnegative orthant is attracted to the origin on the whole order
interval ``[0, s*]`` whenever ``Ts* << s*`` and the single trajectory
from ``s*`` dies out.  This package finds such decay points on spheres
of prescribed 1-norm with a refining simplicial search and certifies the
interval, which is exactly the numerical form of the generalized
small-gain condition for interconnected systems.

``find_decay_point`` runs three stages in order, and each may end the
run: the policy step, which answers a map flagged homogeneous in one
evaluation; the sphere stage of Newton steps from the uniform point,
with the map's proven Jacobian or, for a map built from a callable, a
difference Jacobian, followed by the order-interval pre-phase; and the
simplicial walk.  The walk is left with the runs the first two do not
end: a failed pre-phase candidate, and a proof of infeasibility at a
point that still has a label.
"""

from .dynamics import (
    CertificateReport,
    TrajectoryReport,
    iterate,
    ordering_check,
    solve_problem1,
)
from .homotopy import (
    SolveReport,
    SolverConfig,
    complete_subsets,
    find_decay_point,
)
from .labeling import LabeledVertexSet, label_eps, omega_membership
from .linear import neumann_inverse, perron_direction, random_contractive, spectral_radius
from .maps import (
    MonotoneMap,
    chain_feasible_point,
    compose,
    make_chain_map,
    make_diagonal,
    make_flipflop_map,
    make_linear_map,
    make_max_preserving,
)
from .mapspec import MapSpec, parse_map_spec, serialize_map_spec
from .maxpreserving import GainTable, cycle_condition, path_q, reparametrize_path
from .order import OrderRelation, compare, one_norm

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "GainTable",
    "LabeledVertexSet",
    "MapSpec",
    "MonotoneMap",
    "OrderRelation",
    "SolveReport",
    "SolverConfig",
    "TrajectoryReport",
    "chain_feasible_point",
    "compare",
    "complete_subsets",
    "compose",
    "cycle_condition",
    "find_decay_point",
    "iterate",
    "label_eps",
    "make_chain_map",
    "make_diagonal",
    "make_flipflop_map",
    "make_linear_map",
    "make_max_preserving",
    "neumann_inverse",
    "omega_membership",
    "one_norm",
    "ordering_check",
    "parse_map_spec",
    "path_q",
    "perron_direction",
    "random_contractive",
    "reparametrize_path",
    "serialize_map_spec",
    "solve_problem1",
    "spectral_radius",
]
