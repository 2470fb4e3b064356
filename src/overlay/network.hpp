#pragma once
// Message-level unstructured-overlay simulator.
//
// Simulates Gnutella-style search: a query propagates hop by hop under each
// node's routing policy with TTL and duplicate suppression; QueryHits route
// back along the reverse query path (GUID routing tables), and every node the
// reply passes notifies its policy — the feedback loop the paper's rules are
// mined from.  The simulator counts every message so the traffic benches
// (N1/N2) can compare policies end to end.
//
// There is one implementation: the discrete-event sim::Engine
// (docs/SIMULATION.md).  overlay::Network names it for the overlay drivers,
// benches and tests; NetworkConfig's defaults build peers sequentially from
// one workload stream on one thread and one shard, with the sim.engine.*
// metric family off.

#include "overlay/search.hpp"
#include "sim/engine.hpp"

namespace aar::overlay {

using NetworkConfig = sim::EngineConfig;
using Network = sim::Engine;

}  // namespace aar::overlay
