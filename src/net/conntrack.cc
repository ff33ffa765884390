#include "src/net/conntrack.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/sharding.h"

namespace solros {

ConnTracker::ConnTracker(Simulator* sim, int shard_count)
    : sim_(sim), shard_count_(shard_count < 1 ? 1 : shard_count) {
  CHECK(sim != nullptr);
  series_.assign(static_cast<size_t>(shard_count_), nullptr);
}

void ConnTracker::BindTelemetry(TelemetryHub* hub) { hub_ = hub; }

UseSeries* ConnTracker::ShardSeries(uint32_t shard) {
  if (hub_ == nullptr || shard >= series_.size()) {
    return nullptr;
  }
  if (series_[shard] == nullptr) {
    series_[shard] =
        hub_->GetSeries(ShardLabel("net.conn", shard, shard_count_));
  }
  return series_[shard];
}

void ConnTracker::OnConnect(uint64_t conn_id, uint32_t shard,
                            uint32_t dataplane, uint16_t port) {
  ConnEntry& entry = conns_.Emplace(conn_id);
  entry.conn_id = conn_id;
  entry.shard = shard;
  entry.dataplane = dataplane;
  entry.port = port;
  entry.open = true;
  entry.opened_at = sim_->now();
}

void ConnTracker::OnInbound(uint64_t conn_id, uint64_t bytes) {
  ConnEntry* entry = conns_.Find(conn_id);
  if (entry == nullptr) {
    return;
  }
  entry->bytes_in += bytes;
  ++entry->msgs_in;
  if (entry->backlog == 0) {
    entry->pending_since = sim_->now();
  }
  ++entry->backlog;
  if (UseSeries* series = ShardSeries(entry->shard)) {
    series->QueueDelta(sim_->now(), 1);
  }
}

void ConnTracker::OnOutbound(uint64_t conn_id, uint64_t bytes) {
  ConnEntry* entry = conns_.Find(conn_id);
  if (entry == nullptr) {
    return;
  }
  entry->bytes_out += bytes;
  ++entry->msgs_out;
  if (entry->backlog > 0) {
    Nanos rtt = sim_->now() - entry->pending_since;
    entry->rtt_last = rtt;
    entry->rtt_sum += rtt;
    ++entry->rtt_count;
    --entry->backlog;
    // Pipelined requests: restart the clock for the ones still in flight
    // (an approximation — per-message stamps would cost a queue per conn).
    entry->pending_since = sim_->now();
    if (UseSeries* series = ShardSeries(entry->shard)) {
      series->QueueDelta(sim_->now(), -1);
      series->CompleteOp(sim_->now(), rtt);
    }
  }
}

void ConnTracker::OnDrop(uint64_t conn_id) {
  ConnEntry* entry = conns_.Find(conn_id);
  if (entry == nullptr) {
    return;
  }
  ++entry->drops;
  if (UseSeries* series = ShardSeries(entry->shard)) {
    series->AddError(sim_->now());
  }
}

void ConnTracker::OnClose(uint64_t conn_id) {
  ConnEntry* entry = conns_.Find(conn_id);
  if (entry == nullptr || !entry->open) {
    return;
  }
  entry->open = false;
  entry->closed_at = sim_->now();
  ++closed_;
  // Retire any still-unanswered backlog from the shard depth series so the
  // live depth does not leak after the connection is gone.
  if (entry->backlog > 0) {
    if (UseSeries* series = ShardSeries(entry->shard)) {
      series->QueueDelta(sim_->now(),
                         -static_cast<int64_t>(entry->backlog));
    }
    entry->backlog = 0;
  }
}

const ConnEntry* ConnTracker::Find(uint64_t conn_id) const {
  return conns_.Find(conn_id);
}

void ConnTracker::WriteTopJson(std::ostream& os, size_t top_k) const {
  std::vector<const ConnEntry*> ranked;
  ranked.reserve(conns_.size());
  conns_.ForEach([&](const ConnEntry& entry) { ranked.push_back(&entry); });
  std::sort(ranked.begin(), ranked.end(),
            [](const ConnEntry* a, const ConnEntry* b) {
              uint64_t ta = a->bytes_in + a->bytes_out;
              uint64_t tb = b->bytes_in + b->bytes_out;
              if (ta != tb) {
                return ta > tb;
              }
              return a->conn_id < b->conn_id;
            });
  if (ranked.size() > top_k) {
    ranked.resize(top_k);
  }
  SimTime now = sim_->now();
  os << "{\"conns\":[";
  bool first = true;
  for (const ConnEntry* entry : ranked) {
    if (!first) {
      os << ",";
    }
    first = false;
    uint64_t rtt_avg =
        entry->rtt_count == 0 ? 0 : entry->rtt_sum / entry->rtt_count;
    os << "{\"id\":" << entry->conn_id << ",\"shard\":" << entry->shard
       << ",\"dataplane\":" << entry->dataplane
       << ",\"port\":" << entry->port << ",\"open\":" << (entry->open ? 1 : 0)
       << ",\"bytes_in\":" << entry->bytes_in
       << ",\"bytes_out\":" << entry->bytes_out
       << ",\"msgs_in\":" << entry->msgs_in
       << ",\"msgs_out\":" << entry->msgs_out
       << ",\"backlog\":" << entry->backlog << ",\"drops\":" << entry->drops
       << ",\"age_ns\":" << entry->Age(now)
       << ",\"rtt_last_ns\":" << entry->rtt_last
       << ",\"rtt_avg_ns\":" << rtt_avg << "}";
  }
  os << "],\"total\":" << conns_.size() << ",\"closed\":" << closed_ << "}";
}

}  // namespace solros
