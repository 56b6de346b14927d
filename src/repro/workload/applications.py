"""The fourteen applications, reconstructed.

One :class:`AppSpec` per program in the paper's Table 1/2, pairing the
published calibration targets with the access pattern (and knobs) that
reconstructs the program's sharing structure, plus the scaled cache size the
paper's §3.2 assigns it.

The only free parameter a caller normally touches is ``scale``: thread
lengths in the paper are 0.19–3.0 *million* instructions; ``scale`` maps
them down (default 1/250, i.e. 0.004 per paper-table thousand) while
preserving all relative quantities.  Cache sizes returned by
:attr:`AppSpec.cache_words` are pre-scaled to match (the paper itself scaled
caches with data-set size, §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.stream import TraceSet
from repro.workload.address_space import AddressSpace
from repro.workload.generator import (
    ThreadProbe,
    finish_thread,
    probe_statistics,
    probe_thread,
)
from repro.workload.patterns import (
    AccessPattern,
    AllSharePattern,
    BarrierPhasePattern,
    BuildContext,
    MigratoryPattern,
    PartitionedPattern,
    RandomCommPattern,
)
from repro.workload.shaping import shaped_lengths
from repro.workload.targets import AppTargets, Grain, target_for
from repro.util.rng import RngStreams
from repro.util.validate import check_positive

__all__ = [
    "AppSpec",
    "build_calibrated",
    "APPLICATIONS",
    "application_names",
    "coarse_names",
    "medium_names",
    "spec_for",
    "build_application",
    "build_suite",
    "DEFAULT_SCALE",
]

#: Default thread-length scale: paper-table thousands -> instructions.
#: 0.004 * 1000 = 4 instructions per paper-kilo-instruction, i.e. traces are
#: 1/250 of the paper's, keeping full-suite simulation tractable in Python.
DEFAULT_SCALE = 0.004

# Words in the scaled per-processor cache.  The paper uses 32 KB for the
# coarse-grain programs plus Health and FFT, 64 KB for the other
# medium-grain programs (§3.2); scaled 1/32 of the paper's word counts here
# so the cache-to-footprint ratio stays realistic for the scaled traces:
# several threads' working sets overflow the cache (conflict misses appear,
# as in the paper's stressed configurations) while a single thread's does
# not.
_CACHE_32KB_SCALED = 256
_CACHE_64KB_SCALED = 512


@dataclass(frozen=True)
class AppSpec:
    """A buildable application: published targets + reconstruction recipe."""

    targets: AppTargets
    pattern: AccessPattern
    cache_words: int

    @property
    def name(self) -> str:
        return self.targets.name

    @property
    def num_threads(self) -> int:
        return self.targets.num_threads


def _spec(name: str, pattern: AccessPattern, cache_words: int) -> AppSpec:
    return AppSpec(targets=target_for(name), pattern=pattern, cache_words=cache_words)


# Pattern knobs per application.  The uniformly-sharing programs (the whole
# coarse-grain suite plus Grav, Patch and Gauss) use read-share/write-local
# patterns whose pairwise deviation is thread-length-driven, matching their
# low Table 2 deviations; the skewed medium-grain rows (Fullconn, Health:
# 89-134%) use sparse partner graphs with Dirichlet-skewed weights, and the
# migratory pair (FFT, Vandermonde: 85-243%) sparse chunk ownership.
APPLICATIONS: tuple[AppSpec, ...] = (
    _spec("LocusRoute", PartitionedPattern(), _CACHE_32KB_SCALED),
    _spec("Water", PartitionedPattern(), _CACHE_32KB_SCALED),
    _spec("MP3D", PartitionedPattern(), _CACHE_32KB_SCALED),
    _spec("Cholesky", PartitionedPattern(), _CACHE_32KB_SCALED),
    _spec("Barnes-Hut", BarrierPhasePattern(), _CACHE_32KB_SCALED),
    _spec("Pverify", PartitionedPattern(), _CACHE_32KB_SCALED),
    _spec("Topopt", PartitionedPattern(), _CACHE_32KB_SCALED),
    _spec("Fullconn", RandomCommPattern(partners=2, affinity=0.6), _CACHE_64KB_SCALED),
    _spec("Grav", BarrierPhasePattern(), _CACHE_64KB_SCALED),
    _spec("Health", RandomCommPattern(partners=2, affinity=0.3), _CACHE_32KB_SCALED),
    _spec("Patch", BarrierPhasePattern(), _CACHE_64KB_SCALED),
    _spec("Vandermonde", MigratoryPattern(owners_per_chunk=2, write_prob=0.8),
          _CACHE_64KB_SCALED),
    _spec("FFT", MigratoryPattern(owners_per_chunk=3, write_prob=0.75),
          _CACHE_32KB_SCALED),
    _spec("Gauss", AllSharePattern(), _CACHE_64KB_SCALED),
)

_SPEC_BY_NAME = {spec.name.lower(): spec for spec in APPLICATIONS}


def application_names() -> list[str]:
    """Names of all fourteen applications, coarse grain first."""
    return [spec.name for spec in APPLICATIONS]


def coarse_names() -> list[str]:
    """Names of the seven coarse-grain applications."""
    return [s.name for s in APPLICATIONS if s.targets.grain is Grain.COARSE]


def medium_names() -> list[str]:
    """Names of the seven medium-grain applications."""
    return [s.name for s in APPLICATIONS if s.targets.grain is Grain.MEDIUM]


def spec_for(name: str) -> AppSpec:
    """Look up an application spec by (case-insensitive) name."""
    key = name.lower()
    if key == "locus":
        key = "locusroute"
    try:
        return _SPEC_BY_NAME[key]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; known: {', '.join(application_names())}"
        ) from None


def _probe_once(
    spec: AppSpec, lengths, streams: RngStreams, pool_multiplier: float
) -> list[ThreadProbe]:
    ctx = BuildContext(
        targets=spec.targets,
        lengths=lengths,
        space=AddressSpace(),
        rng=streams.get("structure"),
        pool_multiplier=pool_multiplier,
    )
    return [probe_thread(recipe, streams.get("thread", recipe.thread_id))
            for recipe in spec.pattern.build(ctx)]


def _clip(value: float, low: float, high: float) -> float:
    return max(low, min(high, value))


def build_calibrated(
    targets: AppTargets,
    pattern: AccessPattern,
    mean_instructions: float,
    streams: RngStreams,
) -> TraceSet:
    """Generate a trace set for arbitrary targets, with auto-calibration.

    The shared builder under :func:`build_application` and
    :func:`repro.workload.custom.build_custom_workload`: draws shaped
    thread lengths, then runs a short deterministic fixed-point loop —
    build, measure the two coupled characteristics that sizing cannot
    predict analytically (the shared-reference percentage, i.e.
    multi-thread coverage of the shared regions, and the references per
    shared address), adjust the region-size multiplier, rebuild.  Three
    refinement rounds land inside the calibration tolerances (see
    :mod:`repro.workload.calibration`).

    Each round draws only the threads' shared runs
    (:func:`~repro.workload.generator.probe_thread`), from which both
    characteristics follow exactly
    (:func:`~repro.workload.generator.probe_statistics`); only the
    accepted round's threads are finished into traces.
    """
    check_positive("mean_instructions", mean_instructions)
    spec = AppSpec(targets=targets, pattern=pattern, cache_words=0)
    lengths = shaped_lengths(
        streams.get("lengths"),
        targets.num_threads,
        mean_instructions,
        targets.thread_length_cv,
        floor=32,
    )

    pool_mult = 1.0
    probes = _probe_once(spec, lengths, streams, pool_mult)
    for _ in range(3):
        shared_pct, rpsa = probe_statistics(probes)
        measured_pct, measured_rpsa = shared_pct.mean, rpsa.mean
        pct_ok = abs(measured_pct - targets.shared_refs_pct) <= 6.0
        rpsa_ratio = measured_rpsa / targets.refs_per_shared_addr
        rpsa_ok = 0.6 <= rpsa_ratio <= 1.6
        if pct_ok and rpsa_ok:
            break
        if not rpsa_ok and measured_rpsa > 0:
            # Reuse scales inversely with region size: too-shallow reuse
            # means regions are too large (damped multiplicative update).
            pool_mult *= _clip(rpsa_ratio, 0.25, 4.0) ** 0.8
        elif not pct_ok:
            # Shared% low with reuse on target: addresses are single-
            # touched; shrink regions to force overlap.
            shortfall = max(measured_pct, 1.0) / targets.shared_refs_pct
            pool_mult *= _clip(shortfall**1.0, 0.2, 1.2)
        probes = _probe_once(spec, lengths, streams, pool_mult)
    # Finish threads last to first, dropping each probe as it is used, so
    # the probes' shared columns are freed while the traces are built.
    threads = []
    while probes:
        threads.append(finish_thread(probes.pop()))
    return TraceSet(targets.name, threads[::-1])


def build_application(
    name: str, *, scale: float = DEFAULT_SCALE, seed: int = 0
) -> TraceSet:
    """Generate the synthetic trace set of one of the paper's applications.

    Args:
        name: Application name (case-insensitive; "Locus" accepted).
        scale: Thread-length scale relative to the paper's Table 2 values
            (in thousands of instructions); 0.004 means a paper thread of
            1055k instructions becomes 4220 instructions.
        seed: Root seed; every structural and per-thread draw derives from
            it, so equal (name, scale, seed) always yields equal traces.

    Returns:
        A :class:`~repro.trace.stream.TraceSet` whose name is the
        application name.  See :func:`build_calibrated` for the
        auto-calibration behaviour.
    """
    check_positive("scale", scale)
    spec = spec_for(name)
    targets = spec.targets
    streams = RngStreams(seed).child("workload", targets.name, f"scale={scale}")
    return build_calibrated(
        targets, spec.pattern, targets.thread_length_mean_k * 1000.0 * scale,
        streams,
    )


def build_suite(
    *, scale: float = DEFAULT_SCALE, seed: int = 0, names: list[str] | None = None
) -> dict[str, TraceSet]:
    """Generate trace sets for the whole suite (or a named subset)."""
    chosen = names if names is not None else application_names()
    return {name: build_application(name, scale=scale, seed=seed) for name in chosen}
