#include "src/sim/bottleneck.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <string>

#include "src/base/logging.h"

namespace solros {
namespace {

int64_t UtilPermille(const UseWindowData& w, Nanos window_ns,
                     uint32_t capacity) {
  // Interval-recorded series accumulate busy_ns (normalized per server);
  // depth-tracked series accumulate active_ns. A series uses one mode, so
  // at most one term is nonzero.
  uint64_t busy = w.busy_ns / (capacity == 0 ? 1 : capacity) + w.active_ns;
  int64_t permille = static_cast<int64_t>(busy * 1000 / window_ns);
  return std::min<int64_t>(permille, 1000);
}

// printf into a string sized for the result, so no row is ever truncated
// (component names have no length bound).
[[gnu::format(printf, 1, 2)]] std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int length = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  std::string out(static_cast<size_t>(std::max(length, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace

BottleneckReport AnalyzeBottlenecks(const TelemetrySnapshot& snapshot) {
  BottleneckReport report;
  report.window_ns = snapshot.window_ns;
  if (snapshot.window_ns == 0) {
    return report;
  }

  // window index -> (series index -> window data)
  std::map<uint64_t, std::map<size_t, const UseWindowData*>> by_window;
  for (size_t s = 0; s < snapshot.series.size(); ++s) {
    for (const UseWindowData& w : snapshot.series[s].windows) {
      by_window[w.index][s] = &w;
    }
  }

  // children[parent series name] = child series names present in the
  // snapshot (edges to absent series contribute nothing).
  std::map<std::string, std::vector<size_t>> children;
  for (const auto& [parent, child] : snapshot.edges) {
    for (size_t s = 0; s < snapshot.series.size(); ++s) {
      if (snapshot.series[s].name == child) {
        children[parent].push_back(s);
      }
    }
  }

  for (const auto& [index, per_series] : by_window) {
    WindowVerdict verdict;
    verdict.index = index;
    std::map<size_t, int64_t> mean_depth;  // series -> mean depth x1000
    for (const auto& [s, w] : per_series) {
      mean_depth[s] =
          static_cast<int64_t>(w->depth_ns * 1000 / snapshot.window_ns);
    }
    for (const auto& [s, w] : per_series) {
      const UseSeriesData& series = snapshot.series[s];
      ComponentWindowStat stat;
      stat.name = series.name;
      stat.util_permille = UtilPermille(*w, snapshot.window_ns,
                                        series.capacity);
      stat.mean_depth_milli = mean_depth[s];
      stat.excl_depth_milli = stat.mean_depth_milli;
      stat.eff_util_permille = stat.util_permille;
      auto kids = children.find(series.name);
      if (kids != children.end()) {
        for (size_t child : kids->second) {
          auto it = mean_depth.find(child);
          if (it != mean_depth.end()) {
            stat.excl_depth_milli -= it->second;
          }
        }
        stat.excl_depth_milli = std::max<int64_t>(stat.excl_depth_milli, 0);
        // A parent is "active" for the whole time a request sits in one of
        // its children, so rank it only on the share of its queue it
        // exclusively owns — otherwise the proxy event loop out-ranks the
        // saturated device it is waiting on.
        if (stat.mean_depth_milli > 0) {
          stat.eff_util_permille = stat.util_permille *
                                   stat.excl_depth_milli /
                                   stat.mean_depth_milli;
        }
      }
      stat.peak_depth = w->peak_depth;
      stat.ops = w->ops;
      stat.errors = w->errors;
      if (w->ops > 0) {
        // Prefer the component's own measured wait; fall back to the
        // Little's-law estimate mean_depth * window / completions.
        stat.est_wait_ns = w->wait_ns > 0 ? w->wait_ns / w->ops
                                          : w->depth_ns / w->ops;
      }
      verdict.max_util_permille =
          std::max(verdict.max_util_permille, stat.eff_util_permille);
      verdict.components.push_back(std::move(stat));
    }
    // components are name-sorted already (series map iteration order).
    if (verdict.max_util_permille >= kIdleUtilPermille) {
      const ComponentWindowStat* best = nullptr;
      if (verdict.max_util_permille >= kPinnedUtilPermille) {
        // Bandwidth-bound: the hottest component wins, exclusive depth
        // breaking ties among those within the tie margin of the maximum.
        for (const ComponentWindowStat& stat : verdict.components) {
          if (stat.eff_util_permille + kUtilTiePermille <
              verdict.max_util_permille) {
            continue;  // clearly cooler than the hottest component
          }
          if (best == nullptr ||
              stat.excl_depth_milli > best->excl_depth_milli) {
            best = &stat;  // name order breaks exact depth ties (first wins)
          }
        }
      } else {
        // Queue-bound: nothing is pinned, so saturation names the culprit —
        // the deepest exclusive queue among non-idle components.
        for (const ComponentWindowStat& stat : verdict.components) {
          if (stat.excl_depth_milli == 0) {
            continue;
          }
          if (best == nullptr ||
              stat.excl_depth_milli > best->excl_depth_milli) {
            best = &stat;
          }
        }
        if (best == nullptr) {
          // No queues anywhere: fall back to the utilization ranking.
          for (const ComponentWindowStat& stat : verdict.components) {
            if (best == nullptr ||
                stat.eff_util_permille > best->eff_util_permille) {
              best = &stat;
            }
          }
        }
      }
      CHECK(best != nullptr);
      verdict.bottleneck = best->name;
      if (verdict.max_util_permille >= kBusyUtilPermille) {
        ++report.wins[verdict.bottleneck];
      }
    }
    report.windows.push_back(std::move(verdict));
  }

  int best_wins = 0;
  for (const auto& [name, count] : report.wins) {
    if (count > best_wins) {  // map order: ties keep the smaller name
      best_wins = count;
      report.overall = name;
    }
  }
  return report;
}

void RenderBottleneckReport(const BottleneckReport& report,
                            std::ostream& os) {
  os << "bottleneck report: " << report.windows.size() << " windows of "
     << report.window_ns << " ns\n";
  for (const WindowVerdict& verdict : report.windows) {
    os << "window " << verdict.index << " [" << verdict.index *
        report.window_ns << " ns .. "
       << (verdict.index + 1) * report.window_ns << " ns)";
    if (verdict.bottleneck.empty()) {
      os << "  (idle)\n";
    } else {
      os << "  bottleneck: " << verdict.bottleneck << "\n";
    }
    os << Format("  %-20s %6s %6s %8s %8s %6s %8s %5s %12s\n", "component",
                 "util%", "eff%", "depth", "excl", "peak", "ops", "err",
                 "est wait ns");
    for (const ComponentWindowStat& stat : verdict.components) {
      os << Format(
          "  %-20s %5lld.%1lld %5lld.%1lld %5lld.%03lld %5lld.%03lld %6lld "
          "%8llu %5llu %12llu%s\n",
          stat.name.c_str(),
          static_cast<long long>(stat.util_permille / 10),
          static_cast<long long>(stat.util_permille % 10),
          static_cast<long long>(stat.eff_util_permille / 10),
          static_cast<long long>(stat.eff_util_permille % 10),
          static_cast<long long>(stat.mean_depth_milli / 1000),
          static_cast<long long>(stat.mean_depth_milli % 1000),
          static_cast<long long>(stat.excl_depth_milli / 1000),
          static_cast<long long>(stat.excl_depth_milli % 1000),
          static_cast<long long>(stat.peak_depth),
          static_cast<unsigned long long>(stat.ops),
          static_cast<unsigned long long>(stat.errors),
          static_cast<unsigned long long>(stat.est_wait_ns),
          stat.name == verdict.bottleneck ? "  <-- bottleneck" : "");
    }
  }
  if (!report.overall.empty()) {
    os << "overall bottleneck: " << report.overall << " (";
    bool first = true;
    for (const auto& [name, count] : report.wins) {
      os << (first ? "" : ", ") << name << ": " << count;
      first = false;
    }
    os << " busy-window wins)\n";
  } else {
    os << "overall bottleneck: none (no busy windows)\n";
  }

  // Sharded services register one series per shard as "name[k]"; summarize
  // each family's balance as max/mean completed ops across the shards
  // (1.000 = a perfectly even partition). Integer permille math keeps the
  // line byte-reproducible.
  std::map<std::string, uint64_t> ops_by_name;
  for (const WindowVerdict& verdict : report.windows) {
    for (const ComponentWindowStat& stat : verdict.components) {
      ops_by_name[stat.name] += stat.ops;
    }
  }
  std::map<std::string, std::vector<uint64_t>> shard_families;
  for (const auto& [name, ops] : ops_by_name) {
    size_t bracket = name.find('[');
    if (bracket != std::string::npos && !name.empty() &&
        name.back() == ']') {
      shard_families[name.substr(0, bracket)].push_back(ops);
    }
  }
  for (const auto& [base, shard_ops] : shard_families) {
    if (shard_ops.size() < 2) {
      continue;
    }
    uint64_t total = 0;
    uint64_t peak = 0;
    for (uint64_t ops : shard_ops) {
      total += ops;
      peak = std::max(peak, ops);
    }
    if (total == 0) {
      continue;
    }
    uint64_t milli = peak * 1000 * shard_ops.size() / total;
    os << Format("shard balance: %s max/mean ops = %llu.%03llu over %zu "
                 "shards\n",
                 base.c_str(), static_cast<unsigned long long>(milli / 1000),
                 static_cast<unsigned long long>(milli % 1000),
                 shard_ops.size());
  }
}

}  // namespace solros
