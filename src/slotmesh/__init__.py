"""Analytical evaluation of collision-free TDMA mesh schedules.

Per-node slot-aware Markov queue models are solved for their stationary
distributions and composed into network-wide packet delivery ratio,
end-to-end delay and throughput. Bundled schedule generators and a
discrete-event simulation make the results independently checkable.
"""

from .network import (NetworkModelError, NetworkResult, NetworkScenario,
                      concentric_topology, evaluate_network)
from .queuemodel import (ModelError, NodeMetrics, TrafficSpec, build_chain,
                         evaluate_node)
from .schedule import (CHANNELS_2_4GHZ, ConflictReport, Schedule,
                       ScheduleError, ScheduleFormatError, Topology,
                       load_schedule, load_topology, save_schedule,
                       save_topology, validate)
from .schedulers import (ChannelExhaustionError, SchedulerError, generate,
                         proper_descendants)
from .simulate import (MetricSummary, NetworkSimStats, QueueSimStats,
                       SimConfig, SimulationError, simulate_network,
                       simulate_queue)
from .stationary import StationaryError, solve

__version__ = "0.1.0"
