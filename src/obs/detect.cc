#include "src/obs/detect.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace lithos {
namespace {

// Smoothing of the per-model latency and per-zone completion baselines.
constexpr double kEwmaAlpha = 0.3;
// Straggler: a node is judged only with at least this many deliveries in the
// window, and peer comparison needs peers — no straggler verdicts in windows
// where fewer than kMinJudgedNodes nodes could be judged.
constexpr uint64_t kMinNodeCompletions = 4;
constexpr size_t kMinJudgedNodes = 8;
// Partition: a silent zone is flagged only if its completion baseline is at
// least this. After the episode clears, the zone's nodes are exempt from
// straggler verdicts for kZoneCooldownWindows: post-heal backlog drain
// inflates every node in the zone, and that latency belongs to the partition.
constexpr double kZoneMinBaseline = 20.0;
constexpr int kZoneCooldownWindows = 4;
// Metastable: timeouts/attempts >= kMetastableTimeoutRatio with at least
// kMinNodeAttempts attempts, for kMetastableWindows consecutive windows.
constexpr double kMetastableTimeoutRatio = 0.5;
constexpr uint64_t kMinNodeAttempts = 4;
constexpr int kMetastableWindows = 3;
// Windows a flagged node must look healthy before its episode re-arms.
constexpr int kClearWindows = 2;

uint64_t DiffAt(const std::vector<uint64_t>& now,
                const std::vector<uint64_t>& prev, size_t i) {
  const uint64_t base = i < prev.size() ? prev[i] : 0;
  return now[i] - base;
}

}  // namespace

const char* VerdictKindName(Verdict::Kind kind) {
  switch (kind) {
    case Verdict::Kind::kStraggler: return "straggler";
    case Verdict::Kind::kPartition: return "partition";
    case Verdict::Kind::kMetastable: return "metastable";
  }
  return "unknown";
}

GrayNodeDetector::GrayNodeDetector(const DetectorConfig& config, int num_nodes,
                                   int num_models, int num_zones,
                                   std::vector<int> node_zone,
                                   MetricsRegistry* registry)
    : cfg_(config),
      num_nodes_(num_nodes),
      num_models_(num_models),
      num_zones_(num_zones),
      node_zone_(std::move(node_zone)),
      registry_(registry) {
  LITHOS_CHECK(static_cast<int>(node_zone_.size()) == num_nodes_);
  model_baseline_.assign(static_cast<size_t>(num_models_), Ewma(kEwmaAlpha));
  zone_baseline_.assign(static_cast<size_t>(num_zones_), Ewma(kEwmaAlpha));
  node_flagged_.assign(static_cast<size_t>(num_nodes_), 0);
  node_healthy_streak_.assign(static_cast<size_t>(num_nodes_), 0);
  zone_flagged_.assign(static_cast<size_t>(num_zones_), 0);
  zone_cooldown_.assign(static_cast<size_t>(num_zones_), 0);
  metastable_streak_.assign(static_cast<size_t>(num_nodes_), 0);
  metastable_flagged_.assign(static_cast<size_t>(num_nodes_), 0);
}

void GrayNodeDetector::Tick(TimeNs now, const DetectorFeed& feed,
                            const std::vector<uint8_t>& known_down) {
  ++ticks_;

  // --- Straggler: mix-normalized node latency ratio against the fleet
  // median of that ratio, same window. First learn fleet-wide per-model
  // latency baselines (thousands of samples per window), then judge each
  // node by how its windowed latency sum compares to what those baselines
  // predict for its exact request mix — per-(model,node) pairs are far too
  // sparse to baseline directly, and a raw node mean would alarm whenever
  // the mix tilts toward a naturally slow model. The final score divides by
  // the window's median ratio across judged nodes: a fleet-wide latency
  // surge (a partition's retry storm, a load spike) lifts the median along
  // with every node, so only true outliers cross the threshold. Zone flags
  // and cooldowns are previous-tick state here (the partition pass below
  // runs after): nodes in a partitioned or draining zone are exempt.
  std::vector<double> model_expect(static_cast<size_t>(num_models_), 0);
  for (int m = 0; m < num_models_; ++m) {
    uint64_t mdc = 0;
    int64_t mdlat = 0;
    for (int n = 0; n < num_nodes_; ++n) {
      const size_t p = static_cast<size_t>(m) * num_nodes_ + n;
      mdc += DiffAt(feed.pair_completions, prev_.pair_completions, p);
      mdlat += feed.pair_latency_ns[p] -
               (p < prev_.pair_latency_ns.size() ? prev_.pair_latency_ns[p] : 0);
    }
    Ewma& base = model_baseline_[static_cast<size_t>(m)];
    // Expectation is history: this window's samples only shape *next*
    // window's prediction, so a fleet-wide shift shows up before it is
    // absorbed. One straggler among hundreds of nodes barely moves the
    // fleet mean, so no freeze is needed at this level.
    model_expect[static_cast<size_t>(m)] =
        base.warm(cfg_.warmup_windows) ? base.value() : 0;
    if (mdc >= kMinNodeCompletions) {
      base.Observe(static_cast<double>(mdlat) / static_cast<double>(mdc));
    }
  }
  std::vector<uint8_t> node_inflated(static_cast<size_t>(num_nodes_), 0);
  std::vector<double> node_ratio(static_cast<size_t>(num_nodes_), -1.0);
  std::vector<double> node_score(static_cast<size_t>(num_nodes_), 0);
  std::vector<int> node_worst_model(static_cast<size_t>(num_nodes_), -1);
  std::vector<double> judged;
  judged.reserve(static_cast<size_t>(num_nodes_));
  for (int n = 0; n < num_nodes_; ++n) {
    const size_t ni = static_cast<size_t>(n);
    const size_t zi = static_cast<size_t>(node_zone_[ni]);
    if (zone_flagged_[zi] != 0 || zone_cooldown_[zi] > 0) {
      continue;  // the zone's partition episode owns this latency
    }
    uint64_t dc = 0;
    int64_t dlat = 0;
    double expected = 0;
    double worst_pair_ratio = 0;
    int worst_model = -1;
    for (int m = 0; m < num_models_; ++m) {
      const double model_base = model_expect[static_cast<size_t>(m)];
      if (model_base <= 0) {
        continue;  // model baseline not warm yet: no prediction to judge by
      }
      const size_t p = static_cast<size_t>(m) * num_nodes_ + ni;
      const uint64_t pair_dc = DiffAt(feed.pair_completions, prev_.pair_completions, p);
      if (pair_dc == 0) {
        continue;
      }
      const int64_t pair_dlat =
          feed.pair_latency_ns[p] -
          (p < prev_.pair_latency_ns.size() ? prev_.pair_latency_ns[p] : 0);
      dc += pair_dc;
      dlat += pair_dlat;
      expected += static_cast<double>(pair_dc) * model_base;
      const double pair_ratio =
          static_cast<double>(pair_dlat) / static_cast<double>(pair_dc) / model_base;
      if (pair_ratio > worst_pair_ratio) {
        worst_pair_ratio = pair_ratio;
        worst_model = m;
      }
    }
    if (dc < kMinNodeCompletions || expected <= 0) {
      continue;  // too few samples to judge this window
    }
    node_ratio[ni] = static_cast<double>(dlat) / expected;
    node_worst_model[ni] = worst_model;
    judged.push_back(node_ratio[ni]);
  }
  if (judged.size() >= kMinJudgedNodes) {
    std::sort(judged.begin(), judged.end());
    const double median = judged[judged.size() / 2];
    if (median > 0) {
      for (int n = 0; n < num_nodes_; ++n) {
        const size_t ni = static_cast<size_t>(n);
        if (node_ratio[ni] < 0) {
          continue;
        }
        node_score[ni] = node_ratio[ni] / median;
        if (node_score[ni] >= cfg_.straggler_inflation) {
          node_inflated[ni] = 1;
        }
      }
    }
  }
  for (int n = 0; n < num_nodes_; ++n) {
    const size_t ni = static_cast<size_t>(n);
    if (known_down.size() > ni && known_down[ni] != 0) {
      // Announced failures are not gray; drop any straggler episode state.
      node_inflated[ni] = 0;
      node_flagged_[ni] = 0;
      node_healthy_streak_[ni] = 0;
      continue;
    }
    if (node_inflated[ni] != 0) {
      node_healthy_streak_[ni] = 0;
      if (node_flagged_[ni] == 0) {
        node_flagged_[ni] = 1;
        Verdict v;
        v.at = now;
        v.kind = Verdict::Kind::kStraggler;
        v.node = n;
        v.zone = node_zone_[ni];
        v.model = node_worst_model[ni];
        v.score = node_score[ni];
        Emit(v);
      }
    } else if (node_flagged_[ni] != 0) {
      if (++node_healthy_streak_[ni] >= kClearWindows) {
        node_flagged_[ni] = 0;
        node_healthy_streak_[ni] = 0;
      }
    }
  }

  // --- Partition: a historically busy zone that went silent without its
  // nodes being announced down. Completion deltas come from node counters so
  // deferred deliveries (which have no latency sample) still count as life.
  std::vector<uint64_t> zone_completions(static_cast<size_t>(num_zones_), 0);
  std::vector<int> zone_nodes(static_cast<size_t>(num_zones_), 0);
  std::vector<int> zone_down(static_cast<size_t>(num_zones_), 0);
  for (int n = 0; n < num_nodes_; ++n) {
    const size_t ni = static_cast<size_t>(n);
    const size_t z = static_cast<size_t>(node_zone_[ni]);
    zone_completions[z] += DiffAt(feed.node_completions, prev_.node_completions, ni);
    ++zone_nodes[z];
    if (known_down.size() > ni && known_down[ni] != 0) {
      ++zone_down[z];
    }
  }
  for (int z = 0; z < num_zones_; ++z) {
    const size_t zi = static_cast<size_t>(z);
    if (zone_cooldown_[zi] > 0) {
      --zone_cooldown_[zi];
    }
    const double delta = static_cast<double>(zone_completions[zi]);
    if (registry_ != nullptr) {
      char name[48];
      std::snprintf(name, sizeof(name), "detect/zone%02d/completions", z);
      registry_->timeseries(name, cfg_.window).Observe(now - 1, delta);
    }
    Ewma& base = zone_baseline_[zi];
    const bool mostly_up = 2 * zone_down[zi] < zone_nodes[zi];
    if (zone_completions[zi] == 0 && mostly_up &&
        base.warm(cfg_.warmup_windows) && base.value() >= kZoneMinBaseline) {
      // Silent zone, healthy on paper: partition. Baseline frozen during the
      // silence so the episode does not erode its own evidence.
      if (zone_flagged_[zi] == 0) {
        zone_flagged_[zi] = 1;
        Verdict v;
        v.at = now;
        v.kind = Verdict::Kind::kPartition;
        v.zone = z;
        v.score = base.value();
        Emit(v);
      }
    } else {
      base.Observe(delta);
      if (zone_completions[zi] > 0 && zone_flagged_[zi] != 0) {
        // Completions resumed: close the episode and exempt the zone's
        // nodes from straggler verdicts while the backlog drains.
        zone_flagged_[zi] = 0;
        zone_cooldown_[zi] = kZoneCooldownWindows;
      }
    }
  }

  // --- Metastable: sustained timeout thrash on a nominally-up node.
  for (int n = 0; n < num_nodes_; ++n) {
    const size_t ni = static_cast<size_t>(n);
    const uint64_t da = DiffAt(feed.node_attempts, prev_.node_attempts, ni);
    const uint64_t dt = DiffAt(feed.node_timeouts, prev_.node_timeouts, ni);
    const bool down = known_down.size() > ni && known_down[ni] != 0;
    const double ratio = da > 0 ? static_cast<double>(dt) / static_cast<double>(da) : 0;
    const bool thrashing = !down && da >= kMinNodeAttempts &&
                           ratio >= kMetastableTimeoutRatio;
    if (thrashing) {
      if (++metastable_streak_[ni] >= kMetastableWindows &&
          metastable_flagged_[ni] == 0) {
        metastable_flagged_[ni] = 1;
        Verdict v;
        v.at = now;
        v.kind = Verdict::Kind::kMetastable;
        v.node = n;
        v.zone = node_zone_[ni];
        v.score = ratio;
        Emit(v);
      }
    } else {
      metastable_streak_[ni] = 0;
      metastable_flagged_[ni] = 0;
    }
  }

  prev_ = feed;
}

void GrayNodeDetector::Emit(const Verdict& verdict) {
  verdicts_.push_back(verdict);
  if (sink_ != nullptr) {
    sink_->OnVerdict(verdicts_.size() - 1, verdicts_.back());
  }
}

void GrayNodeDetector::Demote(size_t index) {
  LITHOS_CHECK_LT(index, verdicts_.size());
  Verdict& v = verdicts_[index];
  v.demoted = true;
  // Re-arm the episode so a genuine recurrence alarms afresh instead of
  // riding the stale flag (one-verdict-per-episode would otherwise swallow
  // it). No cooldown is granted: the episode officially never happened.
  switch (v.kind) {
    case Verdict::Kind::kStraggler:
      node_flagged_[static_cast<size_t>(v.node)] = 0;
      node_healthy_streak_[static_cast<size_t>(v.node)] = 0;
      break;
    case Verdict::Kind::kPartition:
      zone_flagged_[static_cast<size_t>(v.zone)] = 0;
      break;
    case Verdict::Kind::kMetastable:
      metastable_flagged_[static_cast<size_t>(v.node)] = 0;
      metastable_streak_[static_cast<size_t>(v.node)] = 0;
      break;
  }
}

std::vector<std::string> GrayNodeDetector::Lines() const {
  std::vector<std::string> out;
  out.reserve(verdicts_.size());
  char line[160];
  for (const Verdict& v : verdicts_) {
    std::snprintf(line, sizeof(line),
                  "t=%9.3fms %-10s zone=%d node=%d model=%d score=%.2f",
                  ToMillis(v.at), VerdictKindName(v.kind), v.zone, v.node,
                  v.model, v.score);
    out.emplace_back(line);
  }
  return out;
}

DetectorScore ScoreDetector(const std::vector<Verdict>& verdicts,
                            const std::vector<TruthSpan>& truth,
                            DurationNs window, DurationNs grace) {
  DetectorScore score;
  std::vector<TimeNs> first_match(truth.size(), TimeNs{-1});
  for (const Verdict& v : verdicts) {
    if (v.kind == Verdict::Kind::kMetastable) {
      continue;  // reported for operators, unscored (no injected analogue)
    }
    if (v.demoted) {
      continue;  // retracted by remediation rollback: never issued, for scoring
    }
    ++score.scored_verdicts;
    bool matched = false;
    for (size_t i = 0; i < truth.size(); ++i) {
      const TruthSpan& t = truth[i];
      if (t.kind != v.kind || v.at < t.start || v.at > t.end + grace) {
        continue;
      }
      const bool same_target = t.kind == Verdict::Kind::kStraggler
                                   ? t.node == v.node
                                   : t.zone == v.zone;
      if (!same_target) {
        continue;
      }
      matched = true;
      if (first_match[i] < 0 || v.at < first_match[i]) {
        first_match[i] = v.at;
      }
    }
    if (matched) {
      ++score.matched_verdicts;
    }
  }
  score.truth_spans = truth.size();
  std::vector<double> ttds;
  char line[160];
  for (size_t i = 0; i < truth.size(); ++i) {
    if (first_match[i] >= 0) {
      ++score.detected_spans;
      ttds.push_back(static_cast<double>(first_match[i] - truth[i].start) /
                     static_cast<double>(window));
    } else {
      // Name the miss: which fault, on which target, over which detector
      // windows — so a recall gap is attributable span by span.
      const TruthSpan& t = truth[i];
      std::snprintf(line, sizeof(line),
                    "missed %-10s zone=%d node=%d windows=[%.0f,%.0f] "
                    "t=[%9.3f,%9.3f]ms",
                    VerdictKindName(t.kind), t.zone, t.node,
                    static_cast<double>(t.start) / static_cast<double>(window),
                    static_cast<double>(t.end) / static_cast<double>(window),
                    ToMillis(t.start), ToMillis(t.end));
      score.missed_lines.emplace_back(line);
    }
  }
  score.precision =
      score.scored_verdicts == 0
          ? 1.0
          : static_cast<double>(score.matched_verdicts) /
                static_cast<double>(score.scored_verdicts);
  score.recall = score.truth_spans == 0
                     ? 1.0
                     : static_cast<double>(score.detected_spans) /
                           static_cast<double>(score.truth_spans);
  if (!ttds.empty()) {
    std::sort(ttds.begin(), ttds.end());
    score.median_ttd_windows = ttds[ttds.size() / 2];
  }
  return score;
}

}  // namespace lithos
