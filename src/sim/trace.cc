#include "src/sim/trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "src/base/logging.h"
#include "src/sim/flight_recorder.h"

namespace solros {
namespace {

// Microsecond timestamp with the nanoseconds in the fractional part —
// integer math only, so output is bit-stable across runs and platforms.
std::string MicrosWithNanos(Nanos t) {
  std::string out = std::to_string(t / 1000);
  uint64_t frac = t % 1000;
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

TrackId Tracer::Track(std::string_view name) {
  auto it = tracks_by_name_.find(name);
  if (it != tracks_by_name_.end()) {
    return it->second;
  }
  TrackId id = static_cast<TrackId>(track_names_.size());
  track_names_.emplace_back(name);
  tracks_by_name_.emplace(std::string(name), id);
  return id;
}

uint64_t Tracer::BeginSpan(TrackId track, std::string_view name,
                           TraceContext ctx) {
  DCHECK(sim_ != nullptr) << "tracer not bound to a simulator";
  uint64_t id = sampling_ ? next_span_id_++ : spans_.size();
  SpanRecord record;
  record.track = track;
  record.name = std::string(name);
  record.begin = sim_->now();
  record.uid = id + 1;
  record.trace_id = ctx.trace_id;
  record.parent = ctx.trace_id != 0 ? ctx.parent_span : 0;
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Note('B', track_names_[track], record.name,
                           ctx.trace_id, record.begin);
  }
  if (sampling_) {
    open_spans_.emplace(id, std::move(record));
  } else {
    spans_.push_back(std::move(record));
  }
  return id;
}

void Tracer::EndSpan(uint64_t span_id) {
  if (sampling_) {
    auto it = open_spans_.find(span_id);
    DCHECK(it != open_spans_.end()) << "span " << span_id << " closed twice";
    SpanRecord record = std::move(it->second);
    open_spans_.erase(it);
    record.end = sim_->now();
    record.open = false;
    if (flight_recorder_ != nullptr) {
      flight_recorder_->Note('E', track_names_[record.track], record.name,
                             record.trace_id, record.end);
    }
    // Notify before routing so the SLO watchdog's FlagTrace on a violating
    // root lands before the keep/drop decision consumes the trace.
    NotifySpanClosed(record);
    RouteClosedSpan(std::move(record));
    return;
  }
  DCHECK_LT(span_id, spans_.size());
  SpanRecord& record = spans_[span_id];
  DCHECK(record.open) << "span " << record.name << " closed twice";
  record.end = sim_->now();
  record.open = false;
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Note('E', track_names_[record.track], record.name,
                           record.trace_id, record.end);
  }
  NotifySpanClosed(record);
}

void Tracer::NotifySpanClosed(const SpanRecord& record) {
  if (on_span_close_) {
    on_span_close_(record);
  }
}

uint64_t Tracer::RecordSpan(TrackId track, std::string_view name,
                            SimTime begin, SimTime end, TraceContext ctx) {
  DCHECK_LE(begin, end);
  uint64_t id = sampling_ ? next_span_id_++ : spans_.size();
  SpanRecord record;
  record.track = track;
  record.name = std::string(name);
  record.begin = begin;
  record.end = end;
  record.open = false;
  record.uid = id + 1;
  record.trace_id = ctx.trace_id;
  record.parent = ctx.trace_id != 0 ? ctx.parent_span : 0;
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Note('R', track_names_[track], record.name,
                           ctx.trace_id, end);
  }
  NotifySpanClosed(record);
  if (sampling_) {
    RouteClosedSpan(std::move(record));
  } else {
    spans_.push_back(std::move(record));
  }
  return id;
}

void Tracer::AddSpanArg(uint64_t span_id, std::string_view key,
                        std::string_view value) {
  if (sampling_) {
    // Only open spans accept annotations in sampling mode; a closed span is
    // already staged (or discarded) and no longer addressable by id.
    auto it = open_spans_.find(span_id);
    if (it != open_spans_.end()) {
      it->second.args.emplace_back(std::string(key), std::string(value));
    }
    return;
  }
  DCHECK_LT(span_id, spans_.size());
  spans_[span_id].args.emplace_back(std::string(key), std::string(value));
}

TraceContext Tracer::ContextOf(uint64_t span_id) const {
  if (sampling_) {
    auto it = open_spans_.find(span_id);
    if (it == open_spans_.end()) {
      return TraceContext{};
    }
    return TraceContext{it->second.trace_id, it->second.uid};
  }
  const SpanRecord& span = spans_[span_id];
  return TraceContext{span.trace_id, span.uid};
}

void Tracer::Instant(TrackId track, std::string_view name) {
  DCHECK(sim_ != nullptr) << "tracer not bound to a simulator";
  InstantRecord record;
  record.track = track;
  record.name = std::string(name);
  record.at = sim_->now();
  instants_.push_back(std::move(record));
  if (flight_recorder_ != nullptr) {
    flight_recorder_->Note('I', track_names_[track], instants_.back().name,
                           0, instants_.back().at);
  }
}

Nanos Tracer::TotalDuration(std::string_view name) const {
  Nanos total = 0;
  for (const SpanRecord& span : spans_) {
    if (!span.open && span.name == name) {
      total += span.end - span.begin;
    }
  }
  return total;
}

uint64_t Tracer::CountSpans(std::string_view name) const {
  uint64_t n = 0;
  for (const SpanRecord& span : spans_) {
    if (!span.open && span.name == name) {
      ++n;
    }
  }
  return n;
}

void Tracer::Clear() {
  spans_.clear();
  instants_.clear();
  next_trace_id_ = 0;
  next_span_id_ = 0;
  open_spans_.clear();
  pending_.clear();
  decided_.clear();
  sampler_stats_ = SamplerStats{};
}

void Tracer::EnableSampling(uint64_t keep_one_in,
                            size_t max_spans_per_trace) {
  CHECK(spans_.empty() && open_spans_.empty())
      << "EnableSampling must precede all span recording";
  sampling_ = true;
  sample_keep_one_in_ = keep_one_in;
  sample_max_spans_ = max_spans_per_trace;
  next_span_id_ = 0;
}

void Tracer::FlagTrace(uint64_t trace_id, TraceFlag flag) {
  if (!sampling_ || trace_id == 0) {
    return;
  }
  PendingTrace& pending = pending_[trace_id];
  if (flag == TraceFlag::kSloViolation) {
    pending.flagged_slo = true;
  } else {
    pending.flagged_error = true;
  }
}

namespace {
// FNV-1a over the trace id's bytes (same constants as FrameChecksum):
// deterministic, well-mixed even for the sequential ids NewTraceId hands
// out, and free of any RNG state.
uint64_t TraceKeepHash(uint64_t trace_id) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (trace_id >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
}  // namespace

void Tracer::RouteClosedSpan(SpanRecord record) {
  if (record.trace_id == 0) {
    ++sampler_stats_.untraced_dropped;
    return;
  }
  if (record.parent != 0) {
    if (decided_.count(record.trace_id) != 0) {
      // Straggler: its root already decided. The span taxonomy closes every
      // child before its root, so this only catches instrumentation bugs —
      // counted, never buffered, so memory stays bounded.
      ++sampler_stats_.late_spans;
      return;
    }
    PendingTrace& pending = pending_[record.trace_id];
    if (pending.spans.size() >= sample_max_spans_) {
      pending.truncated = true;
      ++sampler_stats_.spans_truncated;
      return;
    }
    pending.spans.push_back(std::move(record));
    return;
  }
  // Root close: decide the whole trace.
  PendingTrace pending;
  auto it = pending_.find(record.trace_id);
  if (it != pending_.end()) {
    pending = std::move(it->second);
    pending_.erase(it);
  }
  decided_.insert(record.trace_id);
  // Keep the decided set bounded: any id below every live (pending or
  // still-open) trace can never close another span, so it needs no
  // straggler guard. Amortized: only runs once the set is sizable.
  if (decided_.size() > 4096) {
    uint64_t min_live = next_trace_id_ + 1;
    if (!pending_.empty()) {
      min_live = std::min(min_live, pending_.begin()->first);
    }
    for (const auto& [id, open] : open_spans_) {
      if (open.trace_id != 0) {
        min_live = std::min(min_live, open.trace_id);
      }
    }
    decided_.erase(decided_.begin(), decided_.lower_bound(min_live));
  }
  bool keep = pending.flagged_slo || pending.flagged_error ||
              (sample_keep_one_in_ != 0 &&
               TraceKeepHash(record.trace_id) % sample_keep_one_in_ == 0);
  if (!keep) {
    ++sampler_stats_.traces_dropped;
    sampler_stats_.spans_dropped += pending.spans.size() + 1;
    return;
  }
  ++sampler_stats_.traces_kept;
  if (pending.flagged_slo) {
    ++sampler_stats_.kept_slo;
  } else if (pending.flagged_error) {
    ++sampler_stats_.kept_error;
  } else {
    ++sampler_stats_.kept_hash;
  }
  for (SpanRecord& span : pending.spans) {
    spans_.push_back(std::move(span));
    ++sampler_stats_.spans_kept;
  }
  spans_.push_back(std::move(record));
  ++sampler_stats_.spans_kept;
}

void Tracer::ExportChromeTrace(std::ostream& os) const {
  // Lane assignment needs spans in begin-time order. Live spans are
  // recorded in that order (simulated time is monotonic) but retroactive
  // RecordSpan entries (queue waits) begin in the past, so sort first —
  // stable, keyed on begin, so ties keep record order and the file stays
  // byte-deterministic. Each span then goes to the first lane of its track
  // where it is either disjoint from, or properly nested inside,
  // everything already there — Perfetto renders every lane without
  // overlap warnings.
  std::vector<const SpanRecord*> closed;
  closed.reserve(spans_.size());
  for (const SpanRecord& span : spans_) {
    if (!span.open) {
      closed.push_back(&span);
    }
  }
  std::stable_sort(closed.begin(), closed.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     return a->begin < b->begin;
                   });
  struct Placed {
    const SpanRecord* span;
    int lane;
  };
  std::vector<Placed> placed;
  placed.reserve(closed.size());
  // Per track: one open-interval stack of end times per lane.
  std::vector<std::vector<std::vector<SimTime>>> lanes(track_names_.size());
  std::vector<int> lane_count(track_names_.size(), 1);  // >=1 for instants
  // tid per span uid, for flow-event endpoints. Keyed by uid (not a dense
  // vector): under sampling, uids of dropped traces leave gaps.
  std::map<uint64_t, int> lane_of;
  for (const SpanRecord* span : closed) {
    auto& track_lanes = lanes[span->track];
    int lane = -1;
    for (size_t l = 0; l < track_lanes.size(); ++l) {
      auto& stack = track_lanes[l];
      while (!stack.empty() && stack.back() <= span->begin) {
        stack.pop_back();
      }
      if (stack.empty() || span->end <= stack.back()) {
        lane = static_cast<int>(l);
        break;
      }
    }
    if (lane < 0) {
      lane = static_cast<int>(track_lanes.size());
      track_lanes.emplace_back();
    }
    track_lanes[lane].push_back(span->end);
    placed.push_back({span, lane});
    lane_of[span->uid] = lane;
    lane_count[span->track] =
        std::max(lane_count[span->track], lane + 1);
  }

  // tid layout: lanes of track t start at base(t) = 1 + sum of earlier
  // tracks' lane counts; deterministic because track registration order is.
  std::vector<int> tid_base(track_names_.size(), 1);
  for (size_t t = 1; t < track_names_.size(); ++t) {
    tid_base[t] = tid_base[t - 1] + lane_count[t - 1];
  }
  auto tid_of = [&](const SpanRecord& span) {
    auto it = lane_of.find(span.uid);
    return tid_base[span.track] + (it != lane_of.end() ? it->second : 0);
  };

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      os << ",";
    }
    first = false;
  };
  sep();
  os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":"
        "{\"name\":\"solros-sim\"}}";
  for (size_t t = 0; t < track_names_.size(); ++t) {
    for (int l = 0; l < lane_count[t]; ++l) {
      std::string lane_name = JsonEscape(track_names_[t]);
      if (l > 0) {
        lane_name.append(".").append(std::to_string(l));
      }
      sep();
      os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid_base[t] + l
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << lane_name
         << "\"}}";
      sep();
      os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid_base[t] + l
         << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":"
         << tid_base[t] + l << "}}";
    }
  }
  for (const Placed& p : placed) {
    sep();
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid_of(*p.span)
       << ",\"ts\":" << MicrosWithNanos(p.span->begin)
       << ",\"dur\":" << MicrosWithNanos(p.span->end - p.span->begin)
       << ",\"name\":\"" << JsonEscape(p.span->name) << "\",\"cat\":\""
       << JsonEscape(track_names_[p.span->track]) << "\"";
    if (p.span->trace_id != 0 || !p.span->args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      auto arg_sep = [&] {
        if (!first_arg) {
          os << ",";
        }
        first_arg = false;
      };
      if (p.span->trace_id != 0) {
        arg_sep();
        os << "\"trace\":" << p.span->trace_id;
        arg_sep();
        os << "\"span\":" << p.span->uid;
        arg_sep();
        os << "\"parent\":" << p.span->parent;
      }
      for (const auto& [key, value] : p.span->args) {
        arg_sep();
        os << "\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << "\"";
      }
      os << "}";
    }
    os << "}";
  }
  // Flow edges parent -> child, one per causally-linked closed span whose
  // parent also closed. "s" binds to the parent slice, "f" (bp:"e") to the
  // child slice; both are stamped at the child's begin so the arrow spans
  // the handoff. Iterated in record order => deterministic. Parents resolve
  // through a uid index (under sampling, record position != uid - 1, and a
  // kept child's parent may have been discarded).
  std::map<uint64_t, const SpanRecord*> by_uid;
  for (const SpanRecord& span : spans_) {
    by_uid.emplace(span.uid, &span);
  }
  for (const SpanRecord& span : spans_) {
    if (span.open || span.parent == 0 || span.trace_id == 0) {
      continue;
    }
    auto parent_it = by_uid.find(span.parent);
    if (parent_it == by_uid.end() || parent_it->second->open) {
      continue;
    }
    const SpanRecord& parent = *parent_it->second;
    std::string ts = MicrosWithNanos(span.begin);
    sep();
    os << "{\"ph\":\"s\",\"pid\":1,\"tid\":" << tid_of(parent)
       << ",\"ts\":" << ts << ",\"id\":" << span.uid
       << ",\"name\":\"req\",\"cat\":\"flow\"}";
    sep();
    os << "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" << tid_of(span)
       << ",\"ts\":" << ts << ",\"id\":" << span.uid
       << ",\"name\":\"req\",\"cat\":\"flow\"}";
  }
  for (const InstantRecord& instant : instants_) {
    sep();
    os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
       << tid_base[instant.track] << ",\"ts\":" << MicrosWithNanos(instant.at)
       << ",\"name\":\"" << JsonEscape(instant.name) << "\",\"cat\":\""
       << JsonEscape(track_names_[instant.track]) << "\"}";
  }
  os << "]}\n";
}

Status Tracer::ExportChromeTraceToFile(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return IoError("cannot open trace output file: " + path);
  }
  std::ostringstream buffer;
  ExportChromeTrace(buffer);
  file << buffer.str();
  if (!file) {
    return IoError("trace write failed: " + path);
  }
  return OkStatus();
}

}  // namespace solros
