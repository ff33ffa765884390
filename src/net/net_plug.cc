#include "src/net/net_plug.h"

#include <utility>

#include "src/net/net_frame.h"

namespace solros {

NetPlug::NetPlug(Simulator* sim, SimRing* ring, Nanos window,
                 const std::string& counter_prefix)
    : sim_(sim),
      ring_(ring),
      window_(window),
      space_(sim),
      c_doorbells_(MetricRegistry::Default().GetCounter(counter_prefix +
                                                        ".doorbells")),
      c_events_pushed_(MetricRegistry::Default().GetCounter(
          counter_prefix + ".events_pushed")),
      c_plug_drops_(MetricRegistry::Default().GetCounter(counter_prefix +
                                                         ".plug_drops")),
      h_events_per_push_(MetricRegistry::Default().GetHistogram(
          counter_prefix + ".events_per_push")) {}

void NetPlug::CountPush(uint64_t events) {
  ++doorbells_;
  events_pushed_ += events;
  c_doorbells_->Increment();
  c_events_pushed_->Increment(events);
  h_events_per_push_->Record(events);
}

Task<Status> NetPlug::Send(const NetEvent& header,
                           std::span<const uint8_t> payload) {
  if (window_ == 0) {
    // One event, one push, one doorbell.
    CountPush(1);
    co_return co_await ring_->Send(EncodePodWithPayload(header, payload));
  }

  while (backlog_bytes() >= kStagingCapacity) {
    co_await space_.Wait();
  }
  std::vector<uint8_t> record = EncodePodWithPayload(header, payload);
  pending_bytes_ += record.size();
  pending_.emplace_back(std::move(record),
                        TraceContext{header.trace_id, header.parent_span},
                        sim_->now());

  if (pending_.size() >= kMaxEventsPerPush ||
      pending_bytes_ >= kMaxPushBytes) {
    // Flush detached, never inline: Send runs inside the caller's open
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
  (void)co_await self->Flush();
}

void NetPlug::ArmTimer() {
  if (timer_armed_ || backlog_bytes() == 0) {
    return;
  }
  timer_armed_ = true;
  Spawn(*sim_, PlugTimer(this));
}

Task<void> NetPlug::PlugTimer(NetPlug* self) {
  // Bounds plug latency: anything queued flushes at most one window after
  // the timer arms, regardless of ongoing traffic.
  while (self->backlog_bytes() > 0) {
    co_await Delay(self->window_);
    (void)co_await self->Flush();
  }
  self->timer_armed_ = false;
}

Task<Status> NetPlug::Flush() {
  if (flushing_) {
    // The in-flight flusher drains everything pending, including records
    // queued while it awaits the ring.
    co_return OkStatus();
  }
  flushing_ = true;
  Status result = OkStatus();
  Tracer* tracer = sim_->tracer();
  while (!pending_.empty()) {
    std::vector<std::vector<uint8_t>> frame_records;
    size_t frame_bytes = 0;
    while (!pending_.empty() && frame_records.size() < kMaxEventsPerPush &&
           (frame_records.empty() ||
            frame_bytes + pending_.front().bytes.size() <= kMaxPushBytes)) {
      PendingRecord& next = pending_.front();
      if (tracer != nullptr && next.ctx.traced()) {
        tracer->RecordSpan("plug", "net.plug.wait", next.queued_at,
                           sim_->now(), next.ctx);
      }
      frame_bytes += next.bytes.size();
      pending_bytes_ -= next.bytes.size();
      frame_records.push_back(std::move(next.bytes));
      pending_.pop_front();
    }
    std::vector<uint8_t> frame =
        frame_records.size() == 1 ? std::move(frame_records.front())
                                  : EncodeBatch(frame_records);
    CountPush(frame_records.size());
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
