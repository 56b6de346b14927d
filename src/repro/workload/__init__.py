"""Synthetic reconstruction of the paper's fourteen-application suite.

The paper's traces (MPtrace on a Sequent Symmetry) are unavailable; this
package rebuilds the workload from its *published* characteristics — the
thread counts and lengths of Table 1, every column of Table 2, and the
qualitative sharing structures §4.2 describes.  See DESIGN.md's
substitution table for why this preserves the behaviours the paper's
result depends on.

Typical use::

    from repro.workload import build_application
    traces = build_application("FFT", scale=0.004, seed=0)
"""

from repro.workload.address_space import AddressSpace, Region
from repro.workload.applications import (
    APPLICATIONS,
    AppSpec,
    DEFAULT_SCALE,
    application_names,
    build_application,
    build_suite,
    coarse_names,
    medium_names,
    spec_for,
)
from repro.workload.calibration import (
    CalibrationCheck,
    CalibrationReport,
    DeviationBand,
    calibrate,
    deviation_band,
)
from repro.workload.custom import CustomWorkloadSpec, build_custom_workload
from repro.workload.channels import PoolChannel
from repro.workload.generator import ThreadRecipe, generate_thread, generate_trace_set
from repro.workload.patterns import (
    AccessPattern,
    AllSharePattern,
    BarrierPhasePattern,
    BuildContext,
    MigratoryPattern,
    PartitionedPattern,
    RandomCommPattern,
)
from repro.workload.shaping import distribute_gaps, shaped_lengths
from repro.workload.targets import (
    AppTargets,
    Grain,
    PAPER_TARGETS,
    SharingShape,
    target_for,
)

__all__ = [
    "AddressSpace",
    "Region",
    "AppSpec",
    "APPLICATIONS",
    "DEFAULT_SCALE",
    "application_names",
    "coarse_names",
    "medium_names",
    "spec_for",
    "build_application",
    "build_suite",
    "CustomWorkloadSpec",
    "build_custom_workload",
    "CalibrationCheck",
    "CalibrationReport",
    "DeviationBand",
    "calibrate",
    "deviation_band",
    "PoolChannel",
    "ThreadRecipe",
    "generate_thread",
    "generate_trace_set",
    "AccessPattern",
    "PartitionedPattern",
    "BarrierPhasePattern",
    "MigratoryPattern",
    "AllSharePattern",
    "RandomCommPattern",
    "BuildContext",
    "shaped_lengths",
    "distribute_gaps",
    "AppTargets",
    "Grain",
    "SharingShape",
    "PAPER_TARGETS",
    "target_for",
]
