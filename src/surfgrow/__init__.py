"""Eulerian simulation of surface growth in deformable solids.

The body is described entirely in the spatial frame by its density,
velocity, and elastic deformation; accretion and ablation enter through
boundary sources, and added material carries its own kinematic state via
the elastic deformation prescribed at attachment.
"""

__version__ = "0.1.0"

from .errors import (CFLViolation, GrowthNotSupported, IncompatibleAnsatz,
                     IoError, NegativeHeight, NoInverse, NotReduced, OutOfBody,
                     OutOfDomain, ParseError, SingularSystem, SingularTensor,
                     SurfgrowError, UsageError, ValidationError)
from .tensors import EPS_DET, det, identity, inverse, sym
from .constitutive import (AttachmentSpec, MaterialParams,
                           attach_elastic_deformation, neo_hookean_stress,
                           total_stress)
from .grids import Grid1D, History, PeriodicStrip, StepRecord
from .kinematics import (HistoryPathline, PathlineRecord, advance_deformation_strip,
                         advance_inverse_motion, deformation_from_inverse_motion,
                         integrate_characteristics, strip_row_curl,
                         strip_velocity_gradient)
from .balance import (SideState, advance_domain, boundary_normal_velocity,
                      growth_traction, jump_residuals, normal_pressure)
from .scenarios import (ConvergenceRow, ReconstructedFrame, RunResult,
                        ScenarioConfig, analytic_non_normal, convergence_study,
                        pathline_grid_discrepancy, reconstruct_reference,
                        reconstruction_roundtrip_error, run_fdm_shear,
                        run_mu_sweep, run_non_normal, run_scenario, run_thermal,
                        trace_history_pathlines)
from .config import parse_config
from .output import RunManifest, read_snapshot, write_fields

# The public API: exactly the names imported above.
__all__ = [
    "CFLViolation", "GrowthNotSupported", "IncompatibleAnsatz", "IoError",
    "NegativeHeight", "NoInverse", "NotReduced",
    "OutOfBody", "OutOfDomain", "ParseError", "SingularSystem",
    "SingularTensor", "SurfgrowError", "UsageError", "ValidationError",
    "EPS_DET", "det", "identity", "inverse", "sym", "AttachmentSpec",
    "MaterialParams", "attach_elastic_deformation", "neo_hookean_stress",
    "total_stress", "Grid1D", "History", "PeriodicStrip", "StepRecord",
    "HistoryPathline", "PathlineRecord", "ReconstructedFrame", "advance_deformation_strip",
    "advance_inverse_motion", "deformation_from_inverse_motion",
    "integrate_characteristics", "reconstruct_reference", "strip_row_curl",
    "strip_velocity_gradient", "SideState", "advance_domain",
    "boundary_normal_velocity", "growth_traction", "jump_residuals",
    "normal_pressure",
    "ConvergenceRow", "RunResult", "ScenarioConfig", "analytic_non_normal",
    "convergence_study", "pathline_grid_discrepancy",
    "reconstruction_roundtrip_error", "run_fdm_shear", "run_mu_sweep",
    "run_non_normal", "run_scenario", "run_thermal", "trace_history_pathlines",
    "parse_config", "RunManifest", "read_snapshot", "write_fields",
]
