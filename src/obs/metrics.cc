#include "src/obs/metrics.h"

namespace lithos {

double MetricsRegistry::PhaseSnapshot::ValueOf(const std::string& metric) const {
  for (const auto& [name, value] : values) {
    if (name == metric) {
      return value;
    }
  }
  return 0.0;
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(const std::string& name,
                                                      Type type) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    LITHOS_CHECK(e.type == type);  // one name, one instrument type
    return e;
  }
  const size_t pos = entries_.size();
  entries_.emplace_back();
  Entry& e = entries_.back();
  e.name = name;
  e.type = type;
  switch (type) {
    case Type::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case Type::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case Type::kHistogram:
      e.histogram = std::make_unique<Histogram>();
      break;
    case Type::kTimeSeries:
      // Constructed by timeseries(): the width lives in the instrument.
      break;
  }
  index_.emplace(name, pos);
  return e;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *FindOrCreate(name, Type::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *FindOrCreate(name, Type::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return *FindOrCreate(name, Type::kHistogram).histogram;
}

TimeSeries& MetricsRegistry::timeseries(const std::string& name,
                                        int64_t width_ns) {
  Entry& e = FindOrCreate(name, Type::kTimeSeries);
  if (e.timeseries == nullptr) {
    e.timeseries = std::make_unique<TimeSeries>(width_ns);
  }
  LITHOS_CHECK(e.timeseries->width_ns() == width_ns);
  return *e.timeseries;
}

void MetricsRegistry::BeginPhase(const std::string& name) {
  if (phase_open_) {
    EndPhase();
  }
  phase_open_ = true;
  phase_name_ = name;
  phase_counter_base_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].type == Type::kCounter) {
      const Counter& c = *entries_[i].counter;
      phase_counter_base_[i] = CounterMark{c.value(), c.resets()};
    }
  }
}

void MetricsRegistry::EndPhase() {
  LITHOS_CHECK(phase_open_);
  PhaseSnapshot snap;
  snap.name = phase_name_;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.type == Type::kCounter) {
      const uint64_t value = e.counter->value();
      auto it = phase_counter_base_.find(i);
      // A counter Reset() mid-phase restarts its window at zero.
      const bool rebased =
          it == phase_counter_base_.end() || it->second.resets != e.counter->resets();
      const uint64_t delta = rebased ? value : value - it->second.value;
      snap.values.emplace_back(e.name, static_cast<double>(delta));
    } else if (e.type == Type::kGauge) {
      snap.values.emplace_back(e.name, e.gauge->value());
    }
    // Histograms are not windowed; read them directly.
  }
  phases_.push_back(std::move(snap));
  phase_open_ = false;
  phase_counter_base_.clear();
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Rows() {
  std::vector<std::pair<std::string, double>> rows;
  for (Entry& e : entries_) {
    switch (e.type) {
      case Type::kCounter:
        rows.emplace_back(e.name, static_cast<double>(e.counter->value()));
        break;
      case Type::kGauge:
        rows.emplace_back(e.name, e.gauge->value());
        break;
      case Type::kHistogram: {
        Histogram& h = *e.histogram;
        h.Finalize();
        rows.emplace_back(e.name + "/count", static_cast<double>(h.count()));
        rows.emplace_back(e.name + "/mean", h.Mean());
        rows.emplace_back(e.name + "/p50", h.Percentile(50));
        rows.emplace_back(e.name + "/p99", h.Percentile(99));
        break;
      }
      case Type::kTimeSeries: {
        const TimeSeries& ts = *e.timeseries;
        rows.emplace_back(e.name + "/windows",
                          static_cast<double>(ts.windows().size()));
        rows.emplace_back(e.name + "/count",
                          static_cast<double>(ts.total_count()));
        break;
      }
    }
  }
  return rows;
}

}  // namespace lithos
