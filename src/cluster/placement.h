// Placement policies for the multi-GPU cluster dispatcher.
//
// The paper's production study (Section 3) motivates fleet-level
// consolidation: thirteen models with a several-hundred-x popularity spread
// average 27% device utilization when each service owns its own GPUs. The
// cluster layer routes the same diurnal traffic across a shared pool of
// LithOS nodes; the policies below span the consolidation spectrum:
//
//   * round-robin       — load-oblivious spraying (the strawman),
//   * least-outstanding — classic join-shortest-queue on queued GPU work,
//   * model-affinity    — bin-packs expected per-model load onto as few
//                         nodes as possible (first-fit decreasing), giving
//                         hot models dedicated replicas and packing the
//                         long tail of cold models together so whole GPUs
//                         are freed — the paper's consolidation argument.
//
// Placement is no longer frozen at construction: every placer carries a
// mutable per-model replica set and a per-node enabled bit, so the autoscale
// control plane (src/autoscale/) can re-home replicas (live migration) and
// take nodes in and out of rotation (drain / power-off) mid-run.
//
// Every placer is built over the pool's ZoneTopology. Model-affinity routes
// in two stages so a region-scale fleet never pays a fleet-wide scan: pick
// the least-loaded zone holding a replica, then the least-loaded replica
// within it, with replica sets packed in ZoneInterleave order for cross-zone
// anti-affinity. At one zone the first stage is trivial and the second is
// the plain least-outstanding scan — see docs/fleet.md.
#ifndef LITHOS_CLUSTER_PLACEMENT_H_
#define LITHOS_CLUSTER_PLACEMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/workloads/fleet.h"

namespace lithos {

enum class PlacementPolicy {
  kRoundRobin,
  kLeastLoaded,
  kModelAffinity,
};

std::string PlacementPolicyName(PlacementPolicy policy);
// All policies in increasing order of sophistication.
std::vector<PlacementPolicy> AllPlacementPolicies();

// Failure-domain topology: the pool's nodes are split into `num_zones`
// contiguous zones of `zone_size` nodes each, so zone z owns nodes
// [z * zone_size, (z + 1) * zone_size). A zone models one blast radius — a
// rack/PDU/network domain that fails together. A flat pool is one zone:
// {num_zones = 1, zone_size = num_nodes}.
struct ZoneTopology {
  int num_zones = 1;
  int zone_size = 0;  // nodes per zone (> 0)
  // Sub-zone failure domains: each zone splits into `racks_per_zone`
  // contiguous racks (a PDU / ToR switch whose nodes crash together under
  // rack-correlated faults). 1 keeps the pre-rack fleet: one rack per zone.
  int racks_per_zone = 1;

  int NumNodes() const { return num_zones * zone_size; }
  int ZoneOf(int node) const { return node / zone_size; }
  int ZoneBegin(int zone) const { return zone * zone_size; }
  int ZoneEnd(int zone) const { return (zone + 1) * zone_size; }

  int RackSize() const { return zone_size / racks_per_zone; }
  int NumRacks() const { return num_zones * racks_per_zone; }
  // Rack index within a node's zone ([0, racks_per_zone)).
  int RackOf(int node) const { return (node - ZoneBegin(ZoneOf(node))) / RackSize(); }
  // Node range of rack `rack` in zone `zone`: [RackBegin, RackEnd).
  int RackBegin(int zone, int rack) const { return ZoneBegin(zone) + rack * RackSize(); }
  int RackEnd(int zone, int rack) const { return RackBegin(zone, rack) + RackSize(); }
};

// Zone-interleaved ordering of `nodes` (ascending node ids in, round-robin
// across zones out: first node of each zone, then second of each, ...).
// Feeding this order to PackModels makes first-fit consolidation fill one
// node per zone before reusing any zone, so the packed fleet — and in
// particular a hot model's replica set — spreads across failure domains and
// a whole-zone outage leaves survivors elsewhere.
std::vector<int> ZoneInterleave(const std::vector<int>& nodes, const ZoneTopology& topo);

// First-fit-decreasing packing of expected per-model load onto `nodes`
// (actual node ids; need not be contiguous). Each model's expected load
// (requests/s x GPU ms/request, split by popularity share) is placed into
// per-node bins of capacity target_utilization * 1000 GPU-ms per second;
// models hotter than one bin get ceil(load/capacity) replicas. Returns the
// per-model replica node lists, each sorted. Deterministic for given inputs.
// Shared by the model-affinity placer (over the full pool at construction)
// and the fleet controller (over the currently active pool when rescaling).
std::vector<std::vector<int>> PackModels(const std::vector<FleetModel>& models,
                                         const std::vector<int>& nodes, double aggregate_rps,
                                         double target_utilization);

// Strategy interface: picks the node that should serve the next request.
class Placer {
 public:
  virtual ~Placer() = default;
  Placer() = default;
  Placer(const Placer&) = delete;
  Placer& operator=(const Placer&) = delete;

  virtual std::string Name() const = 0;

  // Returns the node index ([0, num_nodes)) for a request of
  // `models[model_index]`. `outstanding_ms` is the dispatcher's live
  // estimate of queued-but-unfinished GPU milliseconds per node and
  // `zone_outstanding_ms` its per-zone sum (one entry per zone).
  virtual int Place(int model_index, const std::vector<double>& outstanding_ms,
                    const std::vector<double>& zone_outstanding_ms) = 0;

  // Nodes this policy currently routes `model_index` to: the model's replica
  // set intersected with the enabled nodes. Round-robin and least-loaded
  // replicate every model everywhere; model-affinity restricts each model to
  // its packed replica set. Falls back to all enabled nodes when the
  // intersection is empty (every replica drained away), and to every node
  // when nothing is enabled, so routing never dead-ends.
  std::vector<int> EligibleNodes(int model_index) const;

  // --- Runtime mutation hooks (the autoscale control plane) ----------------

  // The model's raw replica set, ignoring the enabled bits. Sorted.
  const std::vector<int>& ReplicaNodes(int model_index) const;

  // Re-homes one replica of the model from `from` to `to`. Fails (returning
  // false, mutating nothing) unless `from` currently hosts a replica and
  // `to` does not.
  bool MoveReplica(int model_index, int from, int to);

  // Grows the replica set by `node`; false if already present.
  bool AddReplica(int model_index, int node);

  // Shrinks the replica set; refuses the last replica (a model must remain
  // routable somewhere).
  bool RemoveReplica(int model_index, int node);

  // Takes a node out of (or back into) rotation. Disabled nodes receive no
  // new placements but keep their replica assignments, so a drained node
  // re-enables with its packing intact.
  void SetNodeEnabled(int node, bool enabled);
  bool NodeEnabled(int node) const;

  int num_nodes() const { return num_nodes_; }
  int num_models() const { return num_models_; }

 protected:
  // Initialises every model's replica set to all nodes (the load-oblivious
  // default); the affinity placer overwrites it with its packing.
  Placer(const ZoneTopology& topo, int num_models);

  // Least-outstanding choice over the model's routable nodes — the same
  // semantics as EligibleNodes (replicas ∩ enabled with the two fallbacks)
  // without materialising a vector on the dispatch hot path. Ties break to
  // the lowest node index.
  int PlaceLeastOutstanding(int model_index, const std::vector<double>& outstanding_ms) const;

  int num_nodes_ = 0;
  int num_models_ = 0;
  std::vector<std::vector<int>> replicas_;  // model -> sorted replica nodes
  std::vector<char> enabled_;               // node -> in rotation?
  ZoneTopology topo_;
  // Zone -> enabled node count, kept by SetNodeEnabled: lets the affinity
  // placer skip dark zones in O(1) per zone.
  std::vector<int> zone_enabled_;
};

// Builds a placer over the pool described by `topo` (topo.NumNodes() nodes).
//
// `aggregate_rps` is the fleet-wide mean request rate and
// `target_utilization` the per-node GPU-time budget the affinity packer
// fills to (both ignored by the load-oblivious policies). Construction is
// deterministic: the same inputs always produce the same packing.
//
// Model-affinity packs replica sets over the zone-interleaved node order
// (cross-zone anti-affinity for hot models). Place picks a zone first — the
// least-loaded zone hosting an enabled replica, scored by
// `zone_outstanding_ms` averaged over the zone's enabled nodes — then joins
// the shortest queue among the model's replicas inside that zone.
// Per-arrival work is O(Z_m log R + R/Z) for R replicas spanning Z_m of Z
// zones, and the chosen node is a pure function of (replica sets, enabled
// bits, outstanding work), preserving the determinism contract.
std::unique_ptr<Placer> MakePlacer(PlacementPolicy policy, const std::vector<FleetModel>& models,
                                   const ZoneTopology& topo, double aggregate_rps,
                                   double target_utilization);

}  // namespace lithos

#endif  // LITHOS_CLUSTER_PLACEMENT_H_
