// trace_summary: per-stage latency percentiles from a Chrome trace file.
//
// Reads a trace exported by Tracer::ExportChromeTrace (--trace-out) and
// rebuilds the per-request stage attribution offline, mirroring
// src/sim/attribution.cc: for every trace id the root span is the
// end-to-end view, and its time is split into queue-wait, device, DMA
// copy, proxy, and stub remainders. Prints one row per stage with count,
// p50, p99, and max, so a captured trace can be summarized without
// re-running the benchmark. Untraced net data-path pump spans
// (net.proxy.inbound/outbound) get their own rows instead of being
// dropped — the pumps serve no single request, so they never carry a
// trace id.
//
// Usage: trace_summary <trace.json>
//
// The parser targets our own exporter's output shape (flat "X" events,
// "args" holding numeric trace/span/parent ids) — it is not a general
// JSON reader.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/histogram.h"

namespace solros {
namespace {

struct Event {
  std::string name;
  uint64_t begin_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t trace_id = 0;
  uint64_t parent = 0;
};

// Parses the "12.345" micros-with-nanos timestamps the exporter emits
// back into integer nanoseconds. Returns false on malformed input.
bool ParseMicros(std::string_view text, uint64_t* out_ns) {
  uint64_t micros = 0;
  size_t i = 0;
  if (i >= text.size() || text[i] < '0' || text[i] > '9') {
    return false;
  }
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    micros = micros * 10 + static_cast<uint64_t>(text[i] - '0');
    ++i;
  }
  uint64_t frac = 0;
  uint64_t scale = 100;  // exporter always writes exactly 3 frac digits
  if (i < text.size() && text[i] == '.') {
    ++i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      frac += static_cast<uint64_t>(text[i] - '0') * scale;
      scale /= 10;
      ++i;
    }
  }
  *out_ns = micros * 1000 + frac;
  return true;
}

// Value of `"key":` inside one event object, as raw text up to the next
// delimiter. Empty string when the key is absent.
std::string_view RawField(std::string_view obj, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key).append("\":");
  size_t at = obj.find(pattern);
  if (at == std::string_view::npos) {
    return {};
  }
  size_t start = at + pattern.size();
  size_t end = start;
  if (end < obj.size() && obj[end] == '"') {  // string value
    ++start;
    end = start;
    while (end < obj.size() && obj[end] != '"') {
      if (obj[end] == '\\') {
        ++end;
      }
      ++end;
    }
    return obj.substr(start, end - start);
  }
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}') {
    ++end;
  }
  return obj.substr(start, end - start);
}

uint64_t NumberField(std::string_view obj, std::string_view key) {
  std::string_view raw = RawField(obj, key);
  uint64_t value = 0;
  for (char c : raw) {
    if (c < '0' || c > '9') {
      break;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

// Splits the file into top-level event objects, tracking brace depth and
// quoting so nested "args" objects stay attached to their event.
std::vector<Event> ParseEvents(const std::string& text) {
  std::vector<Event> events;
  int depth = 0;
  bool in_string = false;
  size_t obj_start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (++depth == 2) {  // depth 1 is the outer {"traceEvents":[...]}
        obj_start = i;
      }
    } else if (c == '}') {
      if (depth-- == 2) {
        std::string_view obj(text.data() + obj_start, i + 1 - obj_start);
        if (RawField(obj, "ph") != "X") {
          continue;
        }
        Event e;
        e.name = std::string(RawField(obj, "name"));
        if (!ParseMicros(RawField(obj, "ts"), &e.begin_ns) ||
            !ParseMicros(RawField(obj, "dur"), &e.dur_ns)) {
          continue;
        }
        e.trace_id = NumberField(obj, "trace");
        e.parent = NumberField(obj, "parent");
        events.push_back(std::move(e));
      }
    }
  }
  return events;
}

struct Stages {
  uint64_t total = 0;
  uint64_t queue = 0;
  uint64_t device = 0;
  uint64_t copy = 0;
  uint64_t iosched = 0;
  uint64_t service = 0;
  uint64_t wire = 0;
  uint64_t dispatch = 0;
  bool has_root = false;
};

uint64_t ClampSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

std::string FormatUs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%7.1f us", static_cast<double>(ns) / 1e3);
  return buf;
}

int Run(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "trace_summary: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::vector<Event> events = ParseEvents(buffer.str());

  // Same bucketing as ComputeStageBreakdowns: root spans carry the
  // end-to-end time; queue/device/copy/service sums come off named spans.
  // Net data-path pump spans (net.proxy.inbound/outbound) are untraced —
  // the pumps serve no single request — so they are collected globally
  // here instead of per trace id.
  std::map<uint64_t, Stages> by_trace;
  Histogram net_inbound, net_outbound;
  for (const Event& e : events) {
    if (e.trace_id == 0) {
      if (e.name == "net.proxy.inbound") {
        net_inbound.Record(e.dur_ns);
      } else if (e.name == "net.proxy.outbound") {
        net_outbound.Record(e.dur_ns);
      }
      continue;
    }
    Stages& s = by_trace[e.trace_id];
    if (e.parent == 0) {
      s.total += e.dur_ns;
      s.has_root = true;
    } else if (e.name == "rpc.queue.req" || e.name == "rpc.queue.resp" ||
               e.name == "net.queue.event" || e.name == "net.plug.wait") {
      s.queue += e.dur_ns;
    } else if (e.name == "nvme.batch") {
      s.device += e.dur_ns;
    } else if (e.name == "dma.copy") {
      s.copy += e.dur_ns;
    } else if (e.name == "iosched.queue") {
      s.iosched += e.dur_ns;
    } else if (e.name == "fs.proxy.service" || e.name == "net.proxy.rpc" ||
               e.name == "net.proxy.inbound" ||
               e.name == "net.proxy.outbound" ||
               e.name == "net.server.stack") {
      s.service += e.dur_ns;
    } else if (e.name == "net.wire.transit") {
      s.wire += e.dur_ns;
    } else if (e.name == "net.stub.dispatch" ||
               e.name == "net.server.dispatch") {
      s.dispatch += e.dur_ns;
    }
  }

  // Only requests whose subtraction needed no clamping ("exact") feed the
  // percentile rows; clamped requests (fault retries with overlapping
  // spans) are counted and reported as a fraction instead of silently
  // skewing the distribution.
  Histogram total, stub, queue, iosched, proxy, copy, device, wire,
      dispatch;
  size_t requests = 0;
  size_t exact_requests = 0;
  for (const auto& [trace_id, s] : by_trace) {
    if (!s.has_root) {
      continue;
    }
    ++requests;
    uint64_t inner = s.device + s.copy + s.iosched;
    uint64_t named = s.queue + s.service + s.wire + s.dispatch;
    bool exact = s.service >= inner && s.total >= named;
    if (!exact) {
      continue;
    }
    ++exact_requests;
    uint64_t proxy_ns = ClampSub(s.service, inner);
    uint64_t stub_ns = ClampSub(s.total, named);
    total.Record(s.total);
    stub.Record(stub_ns);
    queue.Record(s.queue);
    iosched.Record(s.iosched);
    proxy.Record(proxy_ns);
    copy.Record(s.copy);
    device.Record(s.device);
    wire.Record(s.wire);
    dispatch.Record(s.dispatch);
  }
  if (requests == 0 && net_inbound.count() == 0 &&
      net_outbound.count() == 0) {
    std::cerr << "trace_summary: no closed traced requests in " << path
              << " (" << events.size() << " spans scanned)\n";
    return 1;
  }

  std::cout << "trace_summary: " << requests << " traced request"
            << (requests == 1 ? "" : "s") << ", " << events.size()
            << " spans\n";
  if (requests > 0) {
    std::printf("exact: %zu/%zu (%.3f) — only exact requests feed the "
                "percentiles below\n",
                exact_requests, requests,
                static_cast<double>(exact_requests) /
                    static_cast<double>(requests));
  }
  std::cout << "\n";
  std::cout << "  stage          count        p50         p99         max\n";
  auto row = [&](const char* name, const Histogram& h) {
    std::printf("  %-12s %7llu %s %s %s\n", name,
                static_cast<unsigned long long>(h.count()),
                FormatUs(h.ValueAtQuantile(0.50)).c_str(),
                FormatUs(h.ValueAtQuantile(0.99)).c_str(),
                FormatUs(h.max()).c_str());
  };
  if (exact_requests > 0) {
    row("stub", stub);
    row("queue_wait", queue);
    row("iosched_wait", iosched);
    row("proxy", proxy);
    row("copy_dma", copy);
    row("device", device);
    if (wire.max() > 0 || dispatch.max() > 0) {
      row("wire", wire);
      row("dispatch", dispatch);
    }
    row("total", total);
  }
  if (net_inbound.count() > 0) {
    row("net_inbound", net_inbound);
  }
  if (net_outbound.count() > 0) {
    row("net_outbound", net_outbound);
  }
  return 0;
}

}  // namespace
}  // namespace solros

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: trace_summary <trace.json>\n";
    return 2;
  }
  return solros::Run(argv[1]);
}
