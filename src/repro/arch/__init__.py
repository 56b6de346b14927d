"""The multithreaded multiprocessor simulator (paper §3.2, Table 3).

Trace-driven: multi-context processors with round-robin switching (6-cycle
switch on every cache miss), per-processor direct-mapped (or, as the §4.1
extension, set-associative) data caches with the paper's four-way miss
decomposition, a full-map write-invalidate directory, and a contention-free
multipath interconnect with a single 50-cycle remote latency.

Typical use::

    from repro.arch import ArchConfig, simulate
    result = simulate(traces, placement, ArchConfig(4, 4, cache_words=1024))
    print(result.execution_time, result.miss_breakdown())
"""

from repro.arch.cache import (
    ArrayDirectMappedCache,
    SetAssociativeCache,
    make_cache,
)
from repro.arch.config import ArchConfig
from repro.arch.contention import ContentionResult, simulate_with_contention
from repro.arch.directory import Directory
from repro.arch.kernel import FastProcessor
from repro.arch.simulator import simulate
from repro.arch.markov import MarkovEfficiencyModel
from repro.arch.models import (
    EfficiencyModel,
    measured_run_length,
    predicted_utilization,
)
from repro.arch.thrashing import ThrashingDiagnosis, detect_thrashing
from repro.arch.stats import (
    CacheStats,
    InterconnectStats,
    MissKind,
    ProcessorStats,
    SimulationResult,
)

__all__ = [
    "ArchConfig",
    "simulate",
    "FastProcessor",
    "ArrayDirectMappedCache",
    "MissKind",
    "CacheStats",
    "ProcessorStats",
    "InterconnectStats",
    "SimulationResult",
    "SetAssociativeCache",
    "make_cache",
    "Directory",
    "ContentionResult",
    "simulate_with_contention",
    "ThrashingDiagnosis",
    "detect_thrashing",
    "EfficiencyModel",
    "MarkovEfficiencyModel",
    "predicted_utilization",
    "measured_run_length",
]
