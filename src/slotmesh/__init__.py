"""Analytical evaluation of collision-free TDMA mesh schedules.

Per-node slot-aware Markov queue models are solved for their stationary
distributions and composed into network-wide packet delivery ratio,
end-to-end delay and throughput. Bundled schedule generators and a
discrete-event simulation make the results independently checkable.
"""

from .network import (NetworkModelError, NetworkResult, NetworkScenario,
                      concentric_topology, evaluate_network, max_depth_nodes)
from .queuemodel import (ModelError, NodeMetrics, QueueChain, TrafficSpec,
                         acceptance_probability, arrival_pmf, arrival_tail,
                         build_chain, evaluate_node,
                         expected_arrivals_per_slotframe, expected_delay,
                         model_variant, queue_marginals,
                         transmission_probability)
from .schedule import (CHANNELS_2_4GHZ, ConflictReport, Schedule,
                       ScheduleError, ScheduleFormatError, Topology,
                       active_links, disturbing_links, load_schedule,
                       load_topology, save_schedule, save_topology, validate)
from .schedulers import (ChannelExhaustionError, DescendantInfo,
                         SchedulerError, generate, proper_descendants,
                         schedule_orchestra_sbd, schedule_ta_multi,
                         schedule_ta_single)
from .simulate import (MetricSummary, NetworkSimStats, QueueSimStats,
                       SimConfig, SimulationError, simulate_network,
                       simulate_queue)
from .stationary import (StationaryError, StationaryResult, reachable_states,
                         solve, solve_matrix)

__version__ = "0.1.0"
