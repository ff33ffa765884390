// Simulated-time tracing with Chrome trace-event / Perfetto export.
//
// A Tracer records begin/end spans and instant events stamped with
// Simulator::now(). Each span lives on a named *track* — one per component
// (stub, ring, dma, nvme, proxy, ...) — which becomes one named thread row
// in the exported trace. Because the simulator is a single deterministic
// event loop, two identical runs produce byte-identical trace files; tests
// assert exactly that.
//
// Causal linkage: a span may carry a TraceContext {trace id, parent span
// uid}. The trace id is allocated once per RPC at the stub and rides in the
// request/response wire messages; every layer that services the request
// opens its span as a child of the context it received, so one RPC yields
// one span tree. The export emits the ids as span args and Chrome
// flow events ("s"/"f") from parent to child, so Perfetto renders the whole
// request as one connected flow across tracks.
//
// Usage (instrumentation sites are null-safe: no tracer bound => no-op):
//
//   TRACE_SPAN(sim_, "proxy", "fs.proxy.service");   // RAII, ends at scope
//   TRACE_INSTANT(sim_, "ring", "ring.would_block");
//
//   ScopedSpan span(sim_, "proxy", "fs.proxy.service", parent_ctx);
//   child_ctx = span.context();   // {trace id, this span's uid}
//
// Spans may overlap freely on one track (concurrent RPCs); the exporter
// splits each track into properly-nested lanes so Perfetto and
// chrome://tracing render them without warnings.
//
// Export format: the Chrome trace-event JSON object form —
//   {"displayTimeUnit":"ns","traceEvents":[{"ph":"X",...},...]}
// with "X" complete events (ts/dur in microseconds, fractional part carries
// the nanoseconds), "i" instants, "s"/"f" flow edges for parent->child
// links, and "M" metadata naming the lanes. Open `chrome://tracing` or
// https://ui.perfetto.dev and load the file.
#ifndef SOLROS_SRC_SIM_TRACE_H_
#define SOLROS_SRC_SIM_TRACE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/sim/simulator.h"

namespace solros {

// Index into the tracer's track table.
using TrackId = uint32_t;

// Causal position of a request inside one trace. trace_id == 0 means
// "untraced": spans opened with a zero context get no parent linkage, and
// instrumentation sites skip any per-request work keyed on it. The
// parent_span field is the *uid* (1-based record index) of the span that a
// new child should hang off; for a root context it is 0.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  bool traced() const { return trace_id != 0; }
};

struct SpanRecord {
  TrackId track = 0;
  std::string name;
  SimTime begin = 0;
  SimTime end = 0;
  bool open = true;  // EndSpan not seen yet
  // Causal identity: uid is the stable 1-based id of this record (0 only
  // for pre-causality records, never produced anymore); trace_id/parent are
  // 0 for untraced spans.
  uint64_t uid = 0;
  uint64_t trace_id = 0;
  uint64_t parent = 0;
  // Free-form key/value annotations (cache hit counts, outcome, ...),
  // exported under the span's "args". Insertion-ordered for determinism.
  std::vector<std::pair<std::string, std::string>> args;
};

struct InstantRecord {
  TrackId track = 0;
  std::string name;
  SimTime at = 0;
};

// Retention accounting for the tail-based sampler (EnableSampling). The
// counters partition every span the tracer saw, proving memory stays
// bounded: spans_kept land in spans(); everything else was discarded at a
// decision point.
struct SamplerStats {
  uint64_t traces_kept = 0;
  uint64_t traces_dropped = 0;
  uint64_t kept_slo = 0;    // kept because FlagTrace(kSloViolation)
  uint64_t kept_error = 0;  // kept because FlagTrace(kError)
  uint64_t kept_hash = 0;   // kept by the deterministic 1-in-N hash
  uint64_t spans_kept = 0;
  uint64_t spans_dropped = 0;     // spans of traces that were discarded
  uint64_t spans_truncated = 0;   // over the per-trace buffer bound
  uint64_t late_spans = 0;        // closed after their trace was decided
  uint64_t untraced_dropped = 0;  // trace_id == 0 (never kept when sampling)
};

class Tracer {
 public:
  // A tracer may be created before the simulator it observes exists (so it
  // outlives coroutine frames holding ScopedSpans); Bind() attaches it.
  Tracer() = default;
  explicit Tracer(Simulator* sim) { Bind(sim); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Attaches to `sim` and installs itself as the simulator's tracer.
  void Bind(Simulator* sim) {
    sim_ = sim;
    sim->set_tracer(this);
  }

  // Returns the track registered under `name`, creating it on first use.
  TrackId Track(std::string_view name);

  // Allocates a fresh nonzero trace id (one per RPC, at the stub). Ids are
  // sequential from 1 so identical runs export identical files.
  uint64_t NewTraceId() { return ++next_trace_id_; }

  // Opens a span; returns its id for EndSpan. Spans on one track may
  // overlap and nest arbitrarily. The context, if traced, makes the new
  // span a child of ctx.parent_span within ctx.trace_id.
  uint64_t BeginSpan(TrackId track, std::string_view name,
                     TraceContext ctx = {});
  uint64_t BeginSpan(std::string_view track, std::string_view name,
                     TraceContext ctx = {}) {
    return BeginSpan(Track(track), name, ctx);
  }
  void EndSpan(uint64_t span_id);

  // Records an already-elapsed [begin, end] span (used for retroactive
  // queue-wait attribution: the ring stamps when a message became ready and
  // the pump records the wait once it dequeues it). Returns the span id.
  uint64_t RecordSpan(TrackId track, std::string_view name, SimTime begin,
                      SimTime end, TraceContext ctx = {});
  uint64_t RecordSpan(std::string_view track, std::string_view name,
                      SimTime begin, SimTime end, TraceContext ctx = {}) {
    return RecordSpan(Track(track), name, begin, end, ctx);
  }

  // Attaches a key/value annotation to an open or closed span.
  void AddSpanArg(uint64_t span_id, std::string_view key,
                  std::string_view value);
  void AddSpanArg(uint64_t span_id, std::string_view key, uint64_t value) {
    AddSpanArg(span_id, key, std::string_view(std::to_string(value)));
  }

  // Context that makes new spans children of `span_id`.
  TraceContext ContextOf(uint64_t span_id);

  void Instant(TrackId track, std::string_view name);
  void Instant(std::string_view track, std::string_view name) {
    Instant(Track(track), name);
  }

  // -- Queries (what attribution derives its breakdown from) ----------------
  // Sum of durations over *closed* spans named `name` (all tracks).
  Nanos TotalDuration(std::string_view name) const;
  // Number of closed spans named `name`.
  uint64_t CountSpans(std::string_view name) const;
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<InstantRecord>& instants() const { return instants_; }
  const std::string& track_name(TrackId id) const {
    return track_names_.at(id);
  }

  // Drops all recorded events and resets trace-id allocation (track
  // registrations survive), so Clear + identical rerun exports identically.
  // Sampling mode (if enabled) stays enabled; its buffers and stats reset.
  void Clear();

  // -- Tail-based sampling (Dapper-style, deterministic) ---------------------
  // Switches the tracer to tail-based retention: closed spans buffer in a
  // bounded per-trace staging area (at most `max_spans_per_trace` non-root
  // spans each) and the keep/drop decision happens when the trace's ROOT
  // span closes. A trace is kept iff it was flagged (SLO violation or
  // error) before the decision, or its trace id hashes to 1-in-
  // `keep_one_in` (FNV-1a — no RNG, so two identical runs keep the byte-
  // identical span set). Everything else is discarded and only counted.
  // Untraced spans (trace_id == 0) are never retained in this mode.
  //
  // Must be enabled before any span is recorded. Span ids stay valid across
  // the mode switch invariantly: uid == span_id + 1 in both modes.
  //
  // Boundedness caveat: a span that closes after its root already decided
  // is dropped and counted in late_spans — the taxonomy used by this repo
  // closes every child before its root, so in practice this path only
  // catches instrumentation bugs.
  void EnableSampling(uint64_t keep_one_in, size_t max_spans_per_trace = 64);
  bool sampling() const { return sampling_; }
  const SamplerStats& sampler_stats() const { return sampler_stats_; }
  // Number of undecided traces currently buffered (for boundedness checks).
  size_t pending_traces() const { return pending_.size(); }

  // Marks a trace for retention before its root closes. The SLO watchdog
  // flags kSloViolation on every budget violation. kError (through
  // FlagTraceError) marks a request that a fault touched: a stub's retry or
  // failed call, a proxy's system error, a block-store resubmission, a P2P
  // degradation and a staging-DMA retry. No-op when sampling is off (full
  // capture keeps all) and on a trace whose root already decided.
  enum class TraceFlag { kSloViolation, kError };
  void FlagTrace(uint64_t trace_id, TraceFlag flag);

  // Optional listener invoked with every span as it closes (EndSpan and
  // RecordSpan). The SLO watchdog buckets per-request stages incrementally
  // through this instead of rescanning spans(). Unset = no extra work.
  using SpanCloseFn = std::function<void(const SpanRecord&)>;
  void set_span_close_listener(SpanCloseFn fn) {
    on_span_close_ = std::move(fn);
  }

  // -- Export ----------------------------------------------------------------
  // Chrome trace-event JSON; open spans are omitted (pump loops blocked in
  // Receive at the end of a run never close their current wait span).
  void ExportChromeTrace(std::ostream& os) const;
  Status ExportChromeTraceToFile(const std::string& path) const;

 private:
  // A new record with the next span id (uid == id + 1), not yet stored.
  SpanRecord NewRecord(TrackId track, std::string_view name, SimTime begin,
                       TraceContext ctx);
  // The stored record of open span `span_id` (full capture: any recorded
  // span); null when sampling has no open span under that id.
  SpanRecord* Find(uint64_t span_id);
  // Close step shared by EndSpan and RecordSpan: the listener sees the span
  // first, so the SLO watchdog's flag on a violating root lands before the
  // keep/drop decision; then sampling mode routes it (and may move it out).
  void Close(SpanRecord& record);
  // Sampling mode: stages a closed span in its trace buffer, or decides the
  // trace if `record` is a root.
  void RouteClosedSpan(SpanRecord record);
  // Sampling mode: true once `trace_id`'s root closed.
  bool Decided(uint64_t trace_id) const {
    return trace_id < decided_floor_ || decided_.contains(trace_id);
  }

  struct PendingTrace {
    std::vector<SpanRecord> spans;
    bool truncated = false;
    bool flagged_slo = false;
    bool flagged_error = false;
  };

  Simulator* sim_ = nullptr;
  std::vector<std::string> track_names_;
  std::map<std::string, TrackId, std::less<>> tracks_by_name_;
  std::vector<SpanRecord> spans_;
  std::vector<InstantRecord> instants_;
  uint64_t next_trace_id_ = 0;
  SpanCloseFn on_span_close_;
  // Sampling-mode state. span ids keep the uid == id + 1 invariant via a
  // monotonic allocator; open spans live in open_spans_ until EndSpan.
  bool sampling_ = false;
  uint64_t sample_keep_one_in_ = 0;
  size_t sample_max_spans_ = 64;
  uint64_t next_span_id_ = 0;
  std::map<uint64_t, SpanRecord> open_spans_;   // span_id -> open record
  std::map<uint64_t, PendingTrace> pending_;    // trace_id -> staged spans
  std::set<uint64_t> decided_;                  // straggler guard (pruned)
  uint64_t decided_floor_ = 0;  // every id below it is decided (pruned)
  SamplerStats sampler_stats_;
};

// Flags `trace_id` kError on `sim`'s tracer: the one call a site makes when
// a fault touched its request. Null-safe: no simulator, no tracer or an
// untraced id is a no-op, and so is full capture.
inline void FlagTraceError(Simulator* sim, uint64_t trace_id) {
  if (sim != nullptr && sim->tracer() != nullptr) {
    sim->tracer()->FlagTrace(trace_id, Tracer::TraceFlag::kError);
  }
}

// The context of a new request's root span: a fresh trace id, or untraced
// (all zero) when there is no tracer.
inline TraceContext NewRootContext(Tracer* tracer) {
  return {tracer != nullptr ? tracer->NewTraceId() : 0, 0};
}

// RAII span: opens on construction, closes when the scope (including a
// coroutine frame scope, across suspensions) exits. Null-safe: a null
// tracer records nothing, and context() returns an untraced context.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view track, std::string_view name,
             TraceContext ctx = {})
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->BeginSpan(track, name, ctx);
    }
  }
  // Convenience: pull the tracer off the simulator (may be null).
  ScopedSpan(Simulator* sim, std::string_view track, std::string_view name,
             TraceContext ctx = {})
      : ScopedSpan(sim != nullptr ? sim->tracer() : nullptr, track, name,
                   ctx) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->EndSpan(id_);
    }
  }

  // Context that makes new spans (and downstream wire messages) children
  // of this span. Untraced when no tracer is bound.
  TraceContext context() const {
    return tracer_ != nullptr ? tracer_->ContextOf(id_) : TraceContext{};
  }

  void AddArg(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) {
      tracer_->AddSpanArg(id_, key, value);
    }
  }
  void AddArg(std::string_view key, uint64_t value) {
    if (tracer_ != nullptr) {
      tracer_->AddSpanArg(id_, key, value);
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  uint64_t id_ = 0;
};

#define SOLROS_TRACE_CONCAT2(a, b) a##b
#define SOLROS_TRACE_CONCAT(a, b) SOLROS_TRACE_CONCAT2(a, b)

// Scoped span on the simulator's bound tracer (no-op when none is bound).
#define TRACE_SPAN(sim, track, name)                    \
  ::solros::ScopedSpan SOLROS_TRACE_CONCAT(_trace_span_, \
                                           __COUNTER__)((sim), (track), (name))

#define TRACE_INSTANT(sim, track, name)                          \
  do {                                                           \
    ::solros::Simulator* _trace_sim = (sim);                     \
    if (_trace_sim != nullptr && _trace_sim->tracer() != nullptr) { \
      _trace_sim->tracer()->Instant((track), (name));            \
    }                                                            \
  } while (0)

}  // namespace solros

#endif  // SOLROS_SRC_SIM_TRACE_H_
