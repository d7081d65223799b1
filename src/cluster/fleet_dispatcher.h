// Former name of the fleet type. ClusterDispatcher (src/cluster/cluster.h)
// owns the zone topology and every per-node fault hook, so nothing else
// lives here. The alias remains because the repo benchmark's program,
// perfbench/src/stacks.cc, includes this header and spells the old name
// (it calls only ClusterDispatcher methods). perfbench/ changes only
// together with the benchmark definition; its next change drops the alias.
#ifndef LITHOS_CLUSTER_FLEET_DISPATCHER_H_
#define LITHOS_CLUSTER_FLEET_DISPATCHER_H_

#include "src/cluster/cluster.h"

namespace lithos {

using FleetDispatcher = ClusterDispatcher;

}  // namespace lithos

#endif  // LITHOS_CLUSTER_FLEET_DISPATCHER_H_
