"""Bit-rock torque model calibration and drill-string torsional stability.

Library layout:

* ``bitrock``     - the four torque-vs-speed laws and their derivatives
* ``dynamics``    - 1-DOF lumped torsional model, Jacobian, RK4 integrator
* ``fem``         - torsional finite-element model and eigen analysis
* ``dataio``      - CSV ingestion and the synthetic dataset generator
* ``calibration`` - least-squares fitting (Nelder-Mead on the rho metric)
* ``abc``         - ABC rejection sampler with joint model selection
* ``stability``   - deterministic / stochastic / mixture stability maps
* ``cli``         - batch command line driving the whole pipeline
"""

from .bitrock import BitRockModel, WobRatio, torque, torque_derivative
from .calibration import FitResult, fit, fit_all, metric
from .dataio import TorqueDataset, read_csv, synthesize, write_csv
from .dynamics import (LumpedDrillString, OperatingPoint, TorsionalState,
                       equilibrium_twist, simulate)
from .fem import (DrillStringGeometry, FemTorsionalModel, assemble,
                  eigenvalues_general, modal_properties)
from .reference import (REFERENCE_GEOMETRY, REFERENCE_PARAMS, W_REF_KN,
                        reference_model, reference_plant, reference_wob)
from .stability import (BoundaryCurve, StabilityGrid, boundary_separation,
                        map_deterministic, map_mixture, map_stochastic)

__version__ = "0.1.0"

__all__ = [
    "BitRockModel", "WobRatio", "torque", "torque_derivative",
    "FitResult", "fit", "fit_all", "metric",
    "TorqueDataset", "read_csv", "synthesize", "write_csv",
    "LumpedDrillString", "OperatingPoint", "TorsionalState",
    "equilibrium_twist", "simulate",
    "DrillStringGeometry", "FemTorsionalModel", "assemble",
    "eigenvalues_general", "modal_properties",
    "REFERENCE_GEOMETRY", "REFERENCE_PARAMS", "W_REF_KN",
    "reference_model", "reference_plant", "reference_wob",
    "BoundaryCurve", "StabilityGrid", "boundary_separation",
    "map_deterministic", "map_mixture", "map_stochastic",
    "__version__",
]
