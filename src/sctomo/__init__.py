"""Self-calibrating tomography for qubits and V-type three-level systems.

Joint reconstruction of an unknown (unnormalized) quantum state and unknown
rotation-strength parameters of the measurement-basis-changing unitaries,
with identifiability diagnostics from the closed-form Jacobian of the
measurement map and a protocol catalog; see the submodules:

smallmat  small dense complex linear algebra (eigensolves, exp(-iG))
model     magnitude/phase state and generator parametrizations, gauge
forward   exact statistics, closed-form cross-checks, count simulation
protocol  measurement-protocol catalog and control resolution
identify  Jacobian reports, determinant diagnostics, singularity scans
invert    linear inversion, profile-scan least squares / Poisson MLE,
          block solve, grid oracle
io        JSON/CSV schemas, canonical serialization, fingerprints
cli       the `sct` command-line tool
"""

from . import (cli, errors, forward, identify, invert, io, model, protocol,
               smallmat, validation)
from .forward import (CountRecord, NoiseModel, probability, simulate_counts)
from .identify import JacobianReport, numeric_jacobian
from .invert import (ReconstructionResult, SolverOptions, block_solve_v,
                     grid_oracle, linear_invert, reconstruct)
from .model import (DensityParams, GeneratorParams, gauge_fix, gauge_transform,
                    qubit_generator, qubit_state, vtype_generator, vtype_state)
from .protocol import (MeasurementSetting, Protocol, UnknownParams,
                       qubit_unknowns, scenario, vtype_unknowns)

__version__ = "0.1.0"
