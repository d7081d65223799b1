#include "src/cluster/placement.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"

namespace lithos {

std::string PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kLeastLoaded:
      return "least-loaded";
    case PlacementPolicy::kModelAffinity:
      return "model-affinity";
  }
  return "?";
}

std::vector<PlacementPolicy> AllPlacementPolicies() {
  return {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
          PlacementPolicy::kModelAffinity};
}

std::vector<int> ZoneInterleave(const std::vector<int>& nodes, const ZoneTopology& topo) {
  std::vector<std::vector<int>> by_zone(topo.num_zones);
  for (int node : nodes) {
    const int z = topo.ZoneOf(node);
    LITHOS_CHECK_GE(z, 0);
    LITHOS_CHECK_LT(z, topo.num_zones);
    by_zone[z].push_back(node);
  }
  std::vector<int> order;
  order.reserve(nodes.size());
  for (size_t rank = 0; order.size() < nodes.size(); ++rank) {
    for (const std::vector<int>& zone : by_zone) {
      if (rank < zone.size()) {
        order.push_back(zone[rank]);
      }
    }
  }
  return order;
}

std::vector<std::vector<int>> PackModels(const std::vector<FleetModel>& models,
                                         const std::vector<int>& nodes, double aggregate_rps,
                                         double target_utilization) {
  LITHOS_CHECK_GT(target_utilization, 0.0);
  LITHOS_CHECK(!nodes.empty());
  const int num_nodes = static_cast<int>(nodes.size());
  std::vector<std::vector<int>> packed(models.size());

  // Expected GPU-ms per wall second demanded by each model, using the same
  // popularity shares the dispatcher splits its arrival rate by.
  const std::vector<double> shares = PopularityShares(models);
  std::vector<double> load_ms(models.size());
  for (size_t i = 0; i < models.size(); ++i) {
    load_ms[i] = aggregate_rps * shares[i] * models[i].cost_ms;
  }

  // One node can execute ~1000 GPU-ms per second; fill to the target.
  const double capacity = target_utilization * 1000.0;

  std::vector<size_t> order(models.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&load_ms](size_t a, size_t b) { return load_ms[a] > load_ms[b]; });

  std::vector<double> bin(num_nodes, 0.0);
  for (size_t model : order) {
    const double need = load_ms[model];
    int replicas = std::max(1, static_cast<int>(std::ceil(need / capacity)));
    replicas = std::min(replicas, num_nodes);
    if (replicas == 1) {
      // First-fit: the lowest-index bin with room; overflow onto the
      // least-filled bin when every bin is full.
      int chosen = -1;
      for (int n = 0; n < num_nodes; ++n) {
        if (bin[n] + need <= capacity) {
          chosen = n;
          break;
        }
      }
      if (chosen < 0) {
        chosen = static_cast<int>(std::min_element(bin.begin(), bin.end()) - bin.begin());
      }
      bin[chosen] += need;
      packed[model] = {nodes[chosen]};
    } else {
      // Hot model: spread its replicas over the currently least-filled
      // bins and split the load evenly among them.
      std::vector<int> by_load(num_nodes);
      std::iota(by_load.begin(), by_load.end(), 0);
      std::sort(by_load.begin(), by_load.end(), [&bin](int a, int b) {
        if (bin[a] != bin[b]) {
          return bin[a] < bin[b];
        }
        return a < b;
      });
      for (int r = 0; r < replicas; ++r) {
        const int n = by_load[r];
        bin[n] += need / replicas;
        packed[model].push_back(nodes[n]);
      }
      std::sort(packed[model].begin(), packed[model].end());
    }
  }
  return packed;
}

// --- Placer base: replica sets and enabled bits ------------------------------

Placer::Placer(const ZoneTopology& topo, int num_models)
    : num_nodes_(topo.NumNodes()), num_models_(num_models), topo_(topo) {
  LITHOS_CHECK_GE(topo.num_zones, 1);
  LITHOS_CHECK_GT(topo.zone_size, 0);
  std::vector<int> all(num_nodes_);
  std::iota(all.begin(), all.end(), 0);
  replicas_.assign(num_models_, all);
  enabled_.assign(num_nodes_, 1);
  zone_enabled_.assign(topo.num_zones, topo.zone_size);
}

const std::vector<int>& Placer::ReplicaNodes(int model_index) const {
  LITHOS_CHECK_GE(model_index, 0);
  LITHOS_CHECK_LT(model_index, num_models_);
  return replicas_[model_index];
}

std::vector<int> Placer::EligibleNodes(int model_index) const {
  std::vector<int> eligible;
  for (int node : ReplicaNodes(model_index)) {
    if (enabled_[node]) {
      eligible.push_back(node);
    }
  }
  if (!eligible.empty()) {
    return eligible;
  }
  // Every replica is on a disabled node: fall back to any enabled node so
  // traffic keeps flowing while the control plane converges.
  for (int n = 0; n < num_nodes_; ++n) {
    if (enabled_[n]) {
      eligible.push_back(n);
    }
  }
  if (!eligible.empty()) {
    return eligible;
  }
  // Nothing enabled at all (a controller bug, but never dead-end routing).
  eligible.resize(num_nodes_);
  std::iota(eligible.begin(), eligible.end(), 0);
  return eligible;
}

bool Placer::MoveReplica(int model_index, int from, int to) {
  LITHOS_CHECK_GE(model_index, 0);
  LITHOS_CHECK_LT(model_index, num_models_);
  LITHOS_CHECK_GE(to, 0);
  LITHOS_CHECK_LT(to, num_nodes_);
  std::vector<int>& nodes = replicas_[model_index];
  auto it = std::find(nodes.begin(), nodes.end(), from);
  if (it == nodes.end() || std::find(nodes.begin(), nodes.end(), to) != nodes.end()) {
    return false;
  }
  nodes.erase(it);
  nodes.insert(std::upper_bound(nodes.begin(), nodes.end(), to), to);
  return true;
}

bool Placer::AddReplica(int model_index, int node) {
  LITHOS_CHECK_GE(model_index, 0);
  LITHOS_CHECK_LT(model_index, num_models_);
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, num_nodes_);
  std::vector<int>& nodes = replicas_[model_index];
  if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) {
    return false;
  }
  nodes.insert(std::upper_bound(nodes.begin(), nodes.end(), node), node);
  return true;
}

bool Placer::RemoveReplica(int model_index, int node) {
  LITHOS_CHECK_GE(model_index, 0);
  LITHOS_CHECK_LT(model_index, num_models_);
  std::vector<int>& nodes = replicas_[model_index];
  if (nodes.size() <= 1) {
    return false;  // a model must stay routable somewhere
  }
  auto it = std::find(nodes.begin(), nodes.end(), node);
  if (it == nodes.end()) {
    return false;
  }
  nodes.erase(it);
  return true;
}

void Placer::SetNodeEnabled(int node, bool enabled) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, num_nodes_);
  const char value = enabled ? 1 : 0;
  if (enabled_[node] == value) {
    return;
  }
  enabled_[node] = value;
  zone_enabled_[topo_.ZoneOf(node)] += enabled ? 1 : -1;
}

bool Placer::NodeEnabled(int node) const {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, num_nodes_);
  return enabled_[node] != 0;
}

int Placer::PlaceLeastOutstanding(int model_index,
                                  const std::vector<double>& outstanding_ms) const {
  // Replica sets are sorted ascending, so the first strict minimum seen is
  // the lowest-index tie-winner in every tier.
  int best = -1;
  for (int node : ReplicaNodes(model_index)) {
    if (enabled_[node] && (best < 0 || outstanding_ms[node] < outstanding_ms[best])) {
      best = node;
    }
  }
  if (best >= 0) {
    return best;
  }
  for (int n = 0; n < num_nodes_; ++n) {  // every replica disabled
    if (enabled_[n] && (best < 0 || outstanding_ms[n] < outstanding_ms[best])) {
      best = n;
    }
  }
  if (best >= 0) {
    return best;
  }
  for (int n = 0; n < num_nodes_; ++n) {  // nothing enabled at all
    if (best < 0 || outstanding_ms[n] < outstanding_ms[best]) {
      best = n;
    }
  }
  return best;
}

namespace {

class RoundRobinPlacer : public Placer {
 public:
  RoundRobinPlacer(const ZoneTopology& topo, int num_models) : Placer(topo, num_models) {}

  std::string Name() const override { return PlacementPolicyName(PlacementPolicy::kRoundRobin); }

  int Place(int model_index, const std::vector<double>& outstanding_ms,
            const std::vector<double>& zone_outstanding_ms) override {
    (void)model_index;
    (void)outstanding_ms;
    (void)zone_outstanding_ms;
    // Cycle the pointer past disabled nodes; with everything disabled the
    // plain cycle is the safety fallback.
    for (int tried = 0; tried < num_nodes_; ++tried) {
      const int node = next_;
      next_ = (next_ + 1) % num_nodes_;
      if (enabled_[node]) {
        return node;
      }
    }
    const int node = next_;
    next_ = (next_ + 1) % num_nodes_;
    return node;
  }

 private:
  int next_ = 0;
};

class LeastLoadedPlacer : public Placer {
 public:
  LeastLoadedPlacer(const ZoneTopology& topo, int num_models) : Placer(topo, num_models) {}

  std::string Name() const override { return PlacementPolicyName(PlacementPolicy::kLeastLoaded); }

  int Place(int model_index, const std::vector<double>& outstanding_ms,
            const std::vector<double>& zone_outstanding_ms) override {
    (void)zone_outstanding_ms;
    return PlaceLeastOutstanding(model_index, outstanding_ms);
  }
};

// Model-affinity, zone first and node second: replica sets seeded by
// PackModels' first-fit-decreasing packing over the zone-interleaved node
// order, so high-index nodes stay empty and can be powered off or reclaimed
// while hot models span zones. Place never scans the whole fleet — it walks
// the (sorted) replica list one zone at a time, scoring each candidate zone
// from the dispatcher's per-zone queued-work aggregate, and only the winning
// zone's replicas are compared individually. With one zone that is the
// least-outstanding scan over the model's replica set.
class ModelAffinityPlacer : public Placer {
 public:
  ModelAffinityPlacer(const std::vector<FleetModel>& models, const ZoneTopology& topo,
                      double aggregate_rps, double target_utilization)
      : Placer(topo, static_cast<int>(models.size())) {
    std::vector<int> all(num_nodes_);
    std::iota(all.begin(), all.end(), 0);
    replicas_ = PackModels(models, ZoneInterleave(all, topo), aggregate_rps, target_utilization);
  }

  std::string Name() const override {
    return PlacementPolicyName(PlacementPolicy::kModelAffinity);
  }

  int Place(int model_index, const std::vector<double>& outstanding_ms,
            const std::vector<double>& zone_outstanding_ms) override {
    const std::vector<int>& replicas = ReplicaNodes(model_index);
    LITHOS_CHECK_EQ(static_cast<int>(zone_outstanding_ms.size()), topo_.num_zones);

    // Stage 1 (fleet root): walk the sorted replica list zone by zone —
    // upper_bound jumps over each zone's replicas in O(log R) — and pick the
    // zone with the least queued work per enabled node. Ties break to the
    // lowest zone id.
    int best_zone = -1;
    double best_score = 0;
    size_t best_begin = 0;
    size_t best_end = 0;
    size_t idx = 0;
    while (idx < replicas.size()) {
      const int zone = topo_.ZoneOf(replicas[idx]);
      const size_t zone_end = static_cast<size_t>(
          std::upper_bound(replicas.begin() + idx, replicas.end(), topo_.ZoneEnd(zone) - 1) -
          replicas.begin());
      const int enabled = zone_enabled_[zone];
      if (enabled > 0) {
        const double score = zone_outstanding_ms[zone] / enabled;
        if (best_zone < 0 || score < best_score) {
          best_zone = zone;
          best_score = score;
          best_begin = idx;
          best_end = zone_end;
        }
      }
      idx = zone_end;
    }
    if (best_zone < 0) {
      // Every zone hosting a replica is fully disabled (e.g. the outage took
      // the model's whole footprint): same fallbacks as least-loaded.
      return PlaceLeastOutstanding(model_index, outstanding_ms);
    }

    // Stage 2 (zone dispatcher): join the shortest queue among the model's
    // enabled replicas inside the chosen zone.
    int best = -1;
    for (size_t k = best_begin; k < best_end; ++k) {
      const int node = replicas[k];
      if (enabled_[node] && (best < 0 || outstanding_ms[node] < outstanding_ms[best])) {
        best = node;
      }
    }
    // The zone has enabled nodes but none of this model's replicas among
    // them; fall back rather than dead-end.
    return best >= 0 ? best : PlaceLeastOutstanding(model_index, outstanding_ms);
  }
};

}  // namespace

std::unique_ptr<Placer> MakePlacer(PlacementPolicy policy, const std::vector<FleetModel>& models,
                                   const ZoneTopology& topo, double aggregate_rps,
                                   double target_utilization) {
  const int num_models = static_cast<int>(models.size());
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return std::make_unique<RoundRobinPlacer>(topo, num_models);
    case PlacementPolicy::kLeastLoaded:
      return std::make_unique<LeastLoadedPlacer>(topo, num_models);
    case PlacementPolicy::kModelAffinity:
      return std::make_unique<ModelAffinityPlacer>(models, topo, aggregate_rps,
                                                   target_utilization);
  }
  return nullptr;
}

}  // namespace lithos
