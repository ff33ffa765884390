#include "src/net/net_plug.h"

#include <utility>

#include "src/sim/trace.h"

namespace solros {

NetPlug::NetPlug(Simulator* sim, SimRing* ring, const NetPathOptions& options,
                 const std::string& counter_prefix)
    : sim_(sim),
      ring_(ring),
      options_(options),
      space_(sim),
      c_doorbells_(MetricRegistry::Default().GetCounter(counter_prefix +
                                                        ".doorbells")),
      c_events_pushed_(MetricRegistry::Default().GetCounter(
          counter_prefix + ".events_pushed")),
      c_coalesced_segments_(MetricRegistry::Default().GetCounter(
          counter_prefix + ".coalesced_segments")),
      c_plug_drops_(MetricRegistry::Default().GetCounter(counter_prefix +
                                                         ".plug_drops")),
      h_events_per_push_(MetricRegistry::Default().GetHistogram(
          counter_prefix + ".events_per_push")) {}

Task<Status> NetPlug::SendData(const NetEvent& header,
                               std::span<const uint8_t> payload) {
  if (!options_.staging_enabled()) {
    // Legacy path: one event, one push, one doorbell. The counters are the
    // only addition (pure bookkeeping, no simulated time).
    ++doorbells_;
    ++events_pushed_;
    c_doorbells_->Increment();
    c_events_pushed_->Increment();
    h_events_per_push_->Record(1);
    co_return co_await ring_->Send(EncodePodWithPayload(header, payload));
  }

  while (backlog_bytes() >= options_.staging_capacity) {
    co_await space_.Wait();
  }

  if (options_.coalescing) {
    SocketStage& stage = stages_[header.sock];
    NetSegment seg;
    seg.length = static_cast<uint32_t>(payload.size());
    seg.trace_id = header.trace_id;
    seg.parent_span = header.parent_span;
    stage.segs.push_back(seg);
    stage.bytes.insert(stage.bytes.end(), payload.begin(), payload.end());
    stage.staged_at.push_back(sim_->now());
    staged_bytes_ += payload.size();
    if (stage.bytes.size() >= options_.net_coalesce_bytes) {
      SealStage(header.sock, &stage);
      stages_.erase(header.sock);
    }
  } else {
    Enqueue(EncodePodWithPayload(header, payload));
  }

  if (pending_.size() >= options_.max_events_per_push ||
      pending_bytes_ >= options_.max_push_bytes) {
    // Flush detached, never inline: SendData runs inside the caller's open
    // service span, and a ring push here would let the pushed record's
    // ready_at land while that span is still open — overlapping the queue
    // and service stages and clamping the attribution (fig14 exactness).
    // Spawn posts to the event loop, so the push starts only after the
    // caller's stack (and span) unwinds at this same tick.
    ScheduleFlush();
    co_return OkStatus();
  }
  ArmTimer();
  co_return OkStatus();
}

void NetPlug::ScheduleFlush() {
  if (flushing_ || flush_scheduled_) {
    return;
  }
  flush_scheduled_ = true;
  Spawn(*sim_, DetachedFlush(this));
}

Task<void> NetPlug::DetachedFlush(NetPlug* self) {
  self->flush_scheduled_ = false;
  (void)co_await self->FlushPending();
}

Task<Status> NetPlug::SendControl(const NetEvent& event) {
  if (!options_.staging_enabled()) {
    ++doorbells_;
    ++events_pushed_;
    c_doorbells_->Increment();
    c_events_pushed_->Increment();
    h_events_per_push_->Record(1);
    co_return co_await ring_->Send(EncodePod(event));
  }
  while (backlog_bytes() >= options_.staging_capacity) {
    co_await space_.Wait();
  }
  // Seal this socket's staged data first so the control event cannot
  // overtake it; pending_ is FIFO, so per-socket order is preserved even
  // though the control event now rides the plug window like data does
  // (close storms batch instead of ringing one doorbell per FIN).
  if (auto staged = stages_.extract(event.sock)) {
    SealStage(event.sock, &staged.mapped());
  }
  Enqueue(EncodePod(event));
  if (pending_.size() >= options_.max_events_per_push ||
      pending_bytes_ >= options_.max_push_bytes) {
    ScheduleFlush();
    co_return OkStatus();
  }
  ArmTimer();
  co_return OkStatus();
}

Task<Status> NetPlug::Flush() {
  SealAll();
  co_return co_await FlushPending();
}

void NetPlug::SealStage(int64_t sock, SocketStage* stage) {
  Tracer* tracer = sim_->tracer();
  if (tracer != nullptr) {
    const Nanos now = sim_->now();
    for (size_t i = 0; i < stage->segs.size(); ++i) {
      const NetSegment& seg = stage->segs[i];
      if (seg.trace_id != 0) {
        TraceContext ctx;
        ctx.trace_id = seg.trace_id;
        ctx.parent_span = seg.parent_span;
        tracer->RecordSpan("plug", "net.plug.wait", stage->staged_at[i], now,
                           ctx);
      }
    }
  }
  c_coalesced_segments_->Increment(stage->segs.size());
  staged_bytes_ -= stage->bytes.size();
  Enqueue(EncodeCoalescedData(sock, stage->segs, stage->bytes));
}

void NetPlug::SealAll() {
  // Only staged sockets have entries: a tick is O(staged), not O(all).
  for (auto& [sock, stage] : stages_) {
    SealStage(sock, &stage);
  }
  stages_.clear();
}

void NetPlug::Enqueue(std::vector<uint8_t> record) {
  pending_bytes_ += record.size();
  pending_.push_back(std::move(record));
}

void NetPlug::ArmTimer() {
  if (timer_armed_ || backlog_bytes() == 0) {
    return;
  }
  timer_armed_ = true;
  Spawn(*sim_, PlugTimer(this));
}

Task<void> NetPlug::PlugTimer(NetPlug* self) {
  // Bounds plug latency: anything staged or pending flushes at most one
  // window after the timer arms, regardless of ongoing traffic.
  while (self->backlog_bytes() > 0) {
    co_await Delay(self->options_.net_plug_window_ns);
    self->SealAll();
    (void)co_await self->FlushPending();
  }
  self->timer_armed_ = false;
}

Task<Status> NetPlug::FlushPending() {
  if (flushing_) {
    // The in-flight flusher drains everything pending, including records
    // enqueued while it awaits the ring.
    co_return OkStatus();
  }
  flushing_ = true;
  Status result = OkStatus();
  while (!pending_.empty()) {
    std::vector<std::vector<uint8_t>> frame_records;
    size_t frame_bytes = 0;
    const uint32_t per_push =
        options_.vectored_push ? options_.max_events_per_push : 1;
    while (!pending_.empty() && frame_records.size() < per_push &&
           (frame_records.empty() || frame_bytes + pending_.front().size() <=
                                         options_.max_push_bytes)) {
      frame_bytes += pending_.front().size();
      pending_bytes_ -= pending_.front().size();
      frame_records.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    std::vector<uint8_t> frame =
        frame_records.size() == 1 ? std::move(frame_records.front())
                                  : EncodeBatch(frame_records);
    ++doorbells_;
    events_pushed_ += frame_records.size();
    c_doorbells_->Increment();
    c_events_pushed_->Increment(frame_records.size());
    h_events_per_push_->Record(frame_records.size());
    Status status = co_await ring_->Send(frame);
    if (!status.ok()) {
      c_plug_drops_->Increment(frame_records.size());
      result = status;
    }
    space_.NotifyAll();
  }
  flushing_ = false;
  co_return result;
}

}  // namespace solros
