#include "src/obs/trace.h"

#include <cstdio>
#include <cstring>

namespace lithos {

const char* TraceLayerName(TraceLayer layer) {
  switch (layer) {
    case TraceLayer::kSim: return "sim";
    case TraceLayer::kEngine: return "engine";
    case TraceLayer::kCluster: return "cluster";
    case TraceLayer::kControl: return "control";
    case TraceLayer::kFault: return "fault";
  }
  return "unknown";
}

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kEventSchedule: return "event_schedule";
    case TraceKind::kEventFire: return "event_fire";
    case TraceKind::kEventCancel: return "event_cancel";
    case TraceKind::kEventReschedule: return "event_reschedule";
    case TraceKind::kGrantLaunch: return "grant_launch";
    case TraceKind::kGrantComplete: return "grant_complete";
    case TraceKind::kGrantAbort: return "grant_abort";
    case TraceKind::kGrantCheckpoint: return "grant_checkpoint";
    case TraceKind::kDvfsRequest: return "dvfs_request";
    case TraceKind::kDvfsApply: return "dvfs_apply";
    case TraceKind::kEnginePowerGate: return "engine_power_gate";
    case TraceKind::kNodeCrash: return "node_crash";
    case TraceKind::kNodeRevive: return "node_revive";
    case TraceKind::kRecoverReplica: return "recover_replica";
    case TraceKind::kDropLostReplica: return "drop_lost_replica";
    case TraceKind::kMigration: return "migration";
    case TraceKind::kScaleTarget: return "scale_target";
    case TraceKind::kDrainBegin: return "drain_begin";
    case TraceKind::kPowerOff: return "power_off";
    case TraceKind::kPowerOn: return "power_on";
    case TraceKind::kFaultApplied: return "fault_applied";
    case TraceKind::kNodePartition: return "node_partition";
    case TraceKind::kNodeHeal: return "node_heal";
    case TraceKind::kDeferredOrphaned: return "deferred_orphaned";
    case TraceKind::kReqArrival: return "req_arrival";
    case TraceKind::kReqAttemptLaunch: return "req_attempt_launch";
    case TraceKind::kReqComplete: return "req_complete";
    case TraceKind::kReqDeferredFinish: return "req_deferred_finish";
    case TraceKind::kReqAttemptOrphan: return "req_attempt_orphan";
    case TraceKind::kReqAttemptTimeout: return "req_attempt_timeout";
    case TraceKind::kReqAttemptCancel: return "req_attempt_cancel";
    case TraceKind::kReqFail: return "req_fail";
    case TraceKind::kReqShed: return "req_shed";
    case TraceKind::kRemedyVerdict: return "remedy_verdict";
    case TraceKind::kRemedyQuarantine: return "remedy_quarantine";
    case TraceKind::kRemedyDrainStart: return "remedy_drain_start";
    case TraceKind::kRemedyDrainDone: return "remedy_drain_done";
    case TraceKind::kRemedyRebalanceMove: return "remedy_rebalance_move";
    case TraceKind::kRemedyRollback: return "remedy_rollback";
    case TraceKind::kRemedyGovernorDefer: return "remedy_governor_defer";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(size_t limit) : limit_(limit) {
  if (limit_ > 0) {
    ring_.reserve(limit_);
  }
}

uint64_t TraceRecorder::dropped() const {
  return total_ - static_cast<uint64_t>(size());
}

size_t TraceRecorder::size() const {
  if (limit_ > 0) {
    return ring_.size();
  }
  size_t n = 0;
  for (const auto& seg : segments_) {
    n += seg.size();
  }
  return n;
}

std::vector<TraceRecord> TraceRecorder::Records() const {
  std::vector<TraceRecord> out;
  out.reserve(size());
  if (limit_ > 0) {
    // Unwrap: once full, ring_next_ points at the oldest retained record.
    if (ring_.size() == limit_) {
      out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(ring_next_),
                 ring_.end());
      out.insert(out.end(), ring_.begin(),
                 ring_.begin() + static_cast<ptrdiff_t>(ring_next_));
    } else {
      out = ring_;
    }
    return out;
  }
  for (const auto& seg : segments_) {
    out.insert(out.end(), seg.begin(), seg.end());
  }
  return out;
}

std::vector<uint8_t> TraceRecorder::Serialize() const {
  const std::vector<TraceRecord> records = Records();
  TraceFileHeader header;
  std::memcpy(header.magic, kTraceMagic, sizeof(header.magic));
  header.version = kTraceFormatVersion;
  header.record_size = static_cast<uint32_t>(sizeof(TraceRecord));
  header.record_count = records.size();
  header.total = total_;
  header.dropped = dropped();
  std::vector<uint8_t> out(sizeof(header) + records.size() * sizeof(TraceRecord));
  std::memcpy(out.data(), &header, sizeof(header));
  if (!records.empty()) {
    std::memcpy(out.data() + sizeof(header), records.data(),
                records.size() * sizeof(TraceRecord));
  }
  return out;
}

bool TraceRecorder::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const std::vector<uint8_t> bytes = Serialize();
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

bool ReadTraceFile(const std::string& path, TraceFile* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  const TraceFileHeader& h = out->header;
  const char* problem = nullptr;
  if (std::fread(&out->header, sizeof(out->header), 1, f) != 1) {
    problem = "short read on header";
  } else if (std::memcmp(h.magic, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    problem = "bad magic (not a LithOS trace)";
  } else if (h.version != kTraceFormatVersion || h.record_size != sizeof(TraceRecord)) {
    problem = "unsupported format version or record size";
  } else {
    out->records.resize(h.record_count);
    if (h.record_count > 0 && std::fread(out->records.data(), sizeof(TraceRecord),
                                         h.record_count, f) != h.record_count) {
      problem = "short read on records";
    }
  }
  std::fclose(f);
  if (problem != nullptr) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), problem);
  }
  return problem == nullptr;
}

void TraceRecorder::Clear() {
  total_ = 0;
  ring_.clear();
  ring_next_ = 0;
  segments_.clear();
}

}  // namespace lithos
