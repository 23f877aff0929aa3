"""The public names of the ``slotmesh`` package, pinned so that one is
added or dropped only on purpose."""

import types

import slotmesh

PUBLIC = [
    "CHANNELS_2_4GHZ", "ChannelExhaustionError", "ConflictReport",
    "MetricSummary", "ModelError", "NetworkModelError", "NetworkResult",
    "NetworkScenario", "NetworkSimStats", "NodeMetrics", "QueueSimStats",
    "Schedule", "ScheduleError", "ScheduleFormatError", "SchedulerError",
    "SimConfig", "SimulationError", "StationaryError", "Topology",
    "TrafficSpec", "build_chain", "concentric_topology", "evaluate_network",
    "evaluate_node", "generate", "load_schedule", "load_topology",
    "proper_descendants", "save_schedule", "save_topology",
    "simulate_network", "simulate_queue", "solve", "validate",
]


def test_public_names():
    # submodules are attributes of the package too, but not exports
    assert sorted(name for name, value in vars(slotmesh).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)) == PUBLIC
    assert len(PUBLIC) == 34
