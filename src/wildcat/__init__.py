"""Exact stability analysis for twisted matrix tuples and Stokes representations.

The package decides polystability and stability of framed points of the wild
representation varieties attached to GL_n wild Riemann surfaces, entirely in
exact cyclotomic arithmetic, and certifies every verdict with checkable
witnesses (radical elements, invariant subspaces, stabilizer dimensions,
Levi blocks).
"""

from .scalars import Scalar
from .linalg import Grading, Matrix, Subspace, kernel, linear_solve
from .algebra import (
    MatrixAlgebra,
    MeatAxeInconclusive,
    NotSemisimpleError,
    invariant_subspace,
    radical_trace,
    spin_algebra,
)
from .engine import (
    FramedPoint,
    Loop,
    NotPolystable,
    StabilityReport,
    TwistedInput,
    galois_generators,
    is_polystable,
    is_stable,
    kernel_lie_dim,
    levi_reduction,
    stabilizer_lie_dim,
)
from .stokes import (
    Circle,
    InvalidCandidate,
    IrregularClass,
    Scaffold,
    UnsolvableRelation,
    WildSurface,
    build_scaffold,
    random_candidate,
    singular_directions,
    to_framed_point,
    verify_candidate,
)
from .instances import (
    InstanceError,
    InstanceFile,
    parse_instance,
    parse_instance_data,
    render_instance,
)

__version__ = "0.1.0"
