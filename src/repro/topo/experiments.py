"""The topology experiment family: placement policies across latency tiers.

The paper evaluates placement on a flat machine; this section asks the
question its conclusions raise on a tiered one: *how much of
sharing-based placement's benefit survives — or grows — when remote
misses cost more than local ones, and does dynamic migration recover
what a static placement loses?*  One paper-style table compares four
policies on every topology:

* ``RANDOM`` — the paper's baseline (one draw, replicate 0);
* ``SHARE-REFS`` — the paper's best static sharing algorithm, blind to
  tiers;
* ``H-SHARE-REFS`` — the same algorithm made tier-aware
  (:class:`~repro.topo.placement.HierarchicalPlacement`): cluster into
  groups first, processors second;
* ``MIGRATE`` — the ``SHARE-REFS`` placement plus the dynamic
  migration policy of :mod:`repro.topo.migration`.

Execution times are normalized to RANDOM *on the same topology* (the
figures' convention), so a column reads as "fraction of random-placement
time"; the ``migrations`` column counts the migrations the dynamic
policy actually performed per topology.  On ``flat:50`` the section is a
self-check: ``H-SHARE-REFS`` is bit-identical to ``SHARE-REFS`` (the
strict special case) and ``MIGRATE`` performs zero migrations.

Every cell is recomputed by :func:`audit_topology_section` on the naive
reference interpreter — the differential tier runs it at reduced scale
(``tests/topo/``), pinning the whole table to the oracle bit-for-bit.
"""

from __future__ import annotations

from repro.experiments.tables import TableResult
from repro.placement.algorithms import algorithm_by_name
from repro.placement.base import PlacementInputs
from repro.topo.migration import MigrationPolicy, simulate_migrating
from repro.topo.model import canonical_topology, parse_topology
from repro.topo.placement import HierarchicalPlacement

__all__ = [
    "TOPOLOGY_SECTION_APPS",
    "TOPOLOGY_SECTION_POLICIES",
    "TOPOLOGY_SECTION_PROCESSORS",
    "TOPOLOGY_SECTION_TOPOLOGIES",
    "audit_topology_section",
    "topology_cells",
    "topology_section",
]

#: Structured-sharing applications, where thread placement genuinely
#: moves cross-group traffic (uniform-sharing workloads show no spread).
TOPOLOGY_SECTION_APPS: tuple[str, ...] = ("Health", "Vandermonde")

#: The machine axis: the flat baseline plus two NUMA variants (2 and 4
#: groups, increasingly expensive remote tier).
TOPOLOGY_SECTION_TOPOLOGIES: tuple[str, ...] = (
    "flat:50", "numa:2:50:150", "numa:4:50:200",
)

#: One machine size: divisible by every group count above, and <= the
#: thread count of every section application.
TOPOLOGY_SECTION_PROCESSORS: int = 8

#: Row order: static random, static sharing-based, hierarchy-aware
#: static, dynamic.
TOPOLOGY_SECTION_POLICIES: tuple[str, ...] = (
    "RANDOM", "SHARE-REFS", "H-SHARE-REFS", "MIGRATE",
)

#: The dynamic policy every MIGRATE cell runs (defaults spelled out so
#: the table's footnote and the audit agree with the cells).
TOPOLOGY_SECTION_MIGRATION = MigrationPolicy()


def _section_placement(suite, app: str, policy: str, topology_spec: str):
    """The placement a (policy, topology) cell starts from."""
    p = TOPOLOGY_SECTION_PROCESSORS
    if policy == "RANDOM":
        return suite.placement(app, "RANDOM", p)
    if policy in ("SHARE-REFS", "MIGRATE"):
        return suite.placement(app, "SHARE-REFS", p)
    if policy == "H-SHARE-REFS":
        topology = parse_topology(topology_spec)
        algo = HierarchicalPlacement(algorithm_by_name("SHARE-REFS"), topology)
        return algo.place(PlacementInputs(suite.analysis(app), p))
    raise ValueError(f"unknown topology-section policy {policy!r}")


def _section_config(suite, app: str, placement, topology_spec: str):
    """The cell's machine: the suite's sizing rules, explicit topology.

    ``canonical_topology`` collapses ``flat:50`` to None, so the flat
    column simulates the exact pre-topology baseline configuration.
    """
    config = suite._machine(app, placement, infinite=False, associativity=1,
                            cache_words=None)
    return config.with_topology(canonical_topology(topology_spec))


def topology_cells(suite) -> dict[tuple[str, str, str], object]:
    """Every section cell, computed and memoized on the suite.

    Keys are ``(app, policy, topology_spec)``; static cells map to a
    :class:`~repro.arch.stats.SimulationResult`, MIGRATE cells to a
    :class:`~repro.topo.migration.MigrationRun` (result + journal).
    """
    cache = suite.__dict__.setdefault("_topology_section_cells", {})
    for app in TOPOLOGY_SECTION_APPS:
        for spec in TOPOLOGY_SECTION_TOPOLOGIES:
            for policy in TOPOLOGY_SECTION_POLICIES:
                key = (app, policy, spec)
                if key in cache:
                    continue
                placement = _section_placement(suite, app, policy, spec)
                config = _section_config(suite, app, placement, spec)
                if policy == "MIGRATE":
                    cache[key] = simulate_migrating(
                        suite.traces(app), placement, config,
                        policy=TOPOLOGY_SECTION_MIGRATION,
                        quantum_refs=suite.quantum_refs,
                        probe=suite.probe,
                    )
                else:
                    from repro.arch.simulator import simulate

                    cache[key] = simulate(
                        suite.traces(app), placement, config,
                        quantum_refs=suite.quantum_refs,
                        check_invariants=suite.check_invariants,
                        probe=suite.probe,
                    )
    return cache


def _execution_time(cell) -> int:
    result = getattr(cell, "result", cell)
    return int(result.execution_time)


def topology_section(suite) -> TableResult:
    """The rendered table (registered as report section ``topology``)."""
    cells = topology_cells(suite)
    policy = TOPOLOGY_SECTION_MIGRATION
    rows: list[list[object]] = []
    for app in TOPOLOGY_SECTION_APPS:
        for name in TOPOLOGY_SECTION_POLICIES:
            row: list[object] = [app, name]
            migrations = []
            for spec in TOPOLOGY_SECTION_TOPOLOGIES:
                baseline = _execution_time(cells[(app, "RANDOM", spec)])
                ours = _execution_time(cells[(app, name, spec)])
                row.append(f"{ours / baseline:.3f}" if baseline else "inf")
                if name == "MIGRATE":
                    migrations.append(str(len(cells[(app, name, spec)].events)))
            row.append("/".join(migrations) if migrations else "-")
            rows.append(row)
    return TableResult(
        title="Topology: placement policies across latency tiers",
        headers=(["application", "policy"]
                 + list(TOPOLOGY_SECTION_TOPOLOGIES) + ["migrations"]),
        rows=rows,
        note=(
            f"execution time normalized to RANDOM on the same topology, "
            f"{TOPOLOGY_SECTION_PROCESSORS} processors; MIGRATE = "
            f"SHARE-REFS start + dynamic migration (every "
            f"{policy.interval_quanta} quanta, flush "
            f"{policy.flush_penalty_cycles} cycles, max "
            f"{policy.max_migrations}); migrations column counts moves "
            f"per topology"
        ),
    )


def audit_topology_section(suite) -> None:
    """Recompute every section cell on the reference interpreter.

    Static cells are re-derived by
    :func:`repro.oracle.reference.reference_simulate`, MIGRATE cells by
    :func:`repro.topo.oracle.reference_migrate` (journal included); any
    mismatch raises ``AssertionError`` naming the divergent cell.  Meant
    for the differential tier and CI at reduced scale — it is as slow as
    the naive interpreter.
    """
    from repro.oracle import diff_results
    from repro.oracle.reference import reference_simulate
    from repro.topo.oracle import reference_migrate

    cells = topology_cells(suite)
    for (app, name, spec), cell in sorted(cells.items()):
        placement = _section_placement(suite, app, name, spec)
        config = _section_config(suite, app, placement, spec)
        if name == "MIGRATE":
            expected = reference_migrate(
                suite.traces(app), placement, config,
                policy=TOPOLOGY_SECTION_MIGRATION,
                quantum_refs=suite.quantum_refs,
            )
            assert cell.events == expected.events, (
                f"{app}/{name}/{spec}: migration journal diverges from "
                f"the oracle: {cell.events} != {expected.events}"
            )
            diffs = diff_results(cell.result, expected.result,
                                 actual_name="engine", expected_name="oracle")
        else:
            expected = reference_simulate(
                suite.traces(app), placement, config,
                quantum_refs=suite.quantum_refs,
            )
            diffs = diff_results(cell, expected,
                                 actual_name="engine", expected_name="oracle")
        assert not diffs, f"{app}/{name}/{spec}: {diffs}"
