#include "e2ebench/src/common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unistd.h>

namespace e2e {

double now_s() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

std::int64_t l3_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (in >> s && !s.empty()) {
    std::int64_t mult = 1;
    if (s.back() == 'K') mult = 1024;
    if (s.back() == 'M') mult = 1024 * 1024;
    return std::atoll(s.c_str()) * mult;
  }
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? v : 0;
}

std::int64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::int64_t>(in.tellg()) : 0;
}

void prime_file_cache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
  }
}

// ---------------------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"p50_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"io.ingest_s", "s"},
      {"io.ingest_mb_per_s", "MB/s"},
      {"tensor.csf_build_s", "s"},
      {"tensor.csf_builds", "count"},
      {"tensor.csf_builds_solving", "count"},
      {"mttkrp.kernel_s", "s"},
      {"mttkrp.calls", "count"},
      {"mttkrp.kernel_share", "ratio"},
      {"mttkrp.gflops_computed", "GFLOP/s"},
      {"mttkrp.parallel_efficiency", "ratio"},
      {"cp.gram_s", "s"},
      {"cp.spd_solve_s", "s"},
      {"cp.normalize_s", "s"},
      {"cp.epilogue_share", "ratio"},
      {"sketch.leverage_s", "s"},
      {"sketch.sampled_kernel_s", "s"},
      {"sketch.krp_gram_s", "s"},
      {"sketch.leverage_rebuilds", "count"},
      {"sketch.samples_per_draw", "count"},
      {"planner.cold_plan_s", "s"},
      {"planner.candidates_scored", "count"},
      {"planner.cache_hits", "count"},
      {"planner.cache_misses", "count"},
      {"planner.cache_hit_rate", "ratio"},
      {"parsim.distribute_s", "s"},
      {"parsim.comm_s", "s"},
      {"parsim.compute_s", "s"},
      {"parsim.orchestrator_s", "s"},
      {"parsim.words_max", "words"},
      {"parsim.messages_max", "count"},
      {"parsim.rank_imbalance", "ratio"},
      {"parsim.collective_calls", "count"},
      {"serve.factor_prep_ms", "ms"},
      {"serve.kernel_ms", "ms"},
      {"serve.admit_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.batch_ratio", "ratio"},
      {"serve.repeat_share", "ratio"},
      {"serve.rebuilds", "count"},
      {"serve.rejected", "count"},
      {"obs.trace_overhead", "ratio"},
      {"obs.coverage", "ratio"},
  };
  return specs;
}

void Report::metric(const std::string& name, double value) {
  values_[name] = value;
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failures_.push_back(what);
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamps_.emplace_back(key, value);
}

void Report::stamp(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  stamps_.emplace_back(key, buf);
}

void Report::print(bool trace) const {
  for (const auto& [key, value] : stamps_) {
    std::printf("# %-28s %s\n", key.c_str(), value.c_str());
  }
  for (std::size_t i = 0; i < failures_.size() && i < 20; ++i) {
    std::printf("# FAILED: %s\n", failures_[i].c_str());
  }
  if (failures_.size() > 20) {
    std::printf("# FAILED: ... and %zu more\n", failures_.size() - 20);
  }
  const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %zu, "
              "\"metrics\": {",
              failures_.empty() ? "true" : "false",
              static_cast<long long>(attempted_), failures_.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values_.find(specs[i].name);
    const double v = it == values_.end() || !std::isfinite(it->second)
                         ? 0.0
                         : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

namespace {

// The layer a span belongs to: the benchmark's own wrappers by name, the
// program's spans by name or category.
const char* layer_of(const mtk::TraceEvent& e) {
  const std::string name = e.name;
  if (name == "bench.ingest") return "io";
  if (name == "bench.csf_forest") return "tensor";
  if (name.rfind("bench.", 0) == 0) return "bench";
  if (name == "leverage redraw") return "sketch";
  if (name.rfind("serve.", 0) == 0) return "serve";
  if (name == "run_ranks") return "parsim";
  switch (e.category) {
    case mtk::SpanCategory::kCollective: return "parsim";
    case mtk::SpanCategory::kKernel: return "mttkrp";
    case mtk::SpanCategory::kPlanner: return "planner";
    case mtk::SpanCategory::kSweep: return "cp";
    default: return "other";
  }
}

bool is_rank_track(int track) { return track >= 1 && track <= 1024; }

bool contains(const mtk::TraceEvent& p, const mtk::TraceEvent& c) {
  return p.start_ns <= c.start_ns &&
         c.start_ns + c.dur_ns <= p.start_ns + p.dur_ns;
}

std::int64_t arg_value(const mtk::TraceEvent& e, const char* name,
                       std::int64_t fallback) {
  for (int i = 0; i < e.arg_count; ++i) {
    if (std::string(e.args[i].name) == name) return e.args[i].value;
  }
  return fallback;
}

}  // namespace

double LayerTimes::coverage() const {
  double covered = 0.0;
  for (const auto& [layer, s] : self_s) {
    if (layer != "bench") covered += s;
  }
  return wall_s > 0.0 ? covered / wall_s : 0.0;
}

LayerTimes analyze_trace(const std::vector<mtk::TraceEvent>& events,
                         int order, std::int64_t rank) {
  LayerTimes out;
  std::map<int, std::vector<const mtk::TraceEvent*>> by_track;
  for (const auto& e : events) by_track[e.track].push_back(&e);

  std::map<int, double> rank_kernel_s;
  std::map<int, double> rank_kernel_flops;
  std::map<int, std::int64_t> rank_kernel_calls;
  for (auto& [track, spans] : by_track) {
    // Parents first: earlier start, then longer duration.
    std::sort(spans.begin(), spans.end(),
              [](const mtk::TraceEvent* a, const mtk::TraceEvent* b) {
                if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
                return a->dur_ns > b->dur_ns;
              });
    const bool counted = !is_rank_track(track);
    const int track_id = track;  // C++17 lambdas cannot capture a binding
    struct Open {
      const mtk::TraceEvent* e;
      std::int64_t child_ns;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& o) {
      const double self = static_cast<double>(o.e->dur_ns - o.child_ns) * 1e-9;
      if (!counted) return;
      const char* layer = layer_of(*o.e);
      out.self_s[layer] += self;
      if (std::string(layer) != "bench") out.explained_s[track_id] += self;
    };
    for (const mtk::TraceEvent* e : spans) {
      while (!stack.empty() && !contains(*stack.back().e, *e)) {
        close(stack.back());
        stack.pop_back();
      }
      const double dur = static_cast<double>(e->dur_ns) * 1e-9;
      if (stack.empty()) {
        if (counted && std::string(e->name).rfind("bench.", 0) == 0) {
          out.wall_s += dur;
        }
      } else {
        stack.back().child_ns += e->dur_ns;
        if (counted) {
          out.nested_s[std::string(stack.back().e->name) + ">" + e->name] +=
              dur;
        }
      }
      stack.push_back({e, 0});
      if (counted) {
        out.total_s[e->name] += dur;
        out.count[e->name] += 1;
      }
      if (std::string(layer_of(*e)) == "mttkrp") {
        const double flops = static_cast<double>(order) *
                             static_cast<double>(arg_value(*e, "nnz", 0)) *
                             static_cast<double>(rank);
        if (counted) {
          out.kernel_s += dur;
          out.kernel_flops += flops;
          out.kernel_calls += 1;
        } else {
          rank_kernel_s[track] += dur;
          rank_kernel_flops[track] += flops;
          rank_kernel_calls[track] += 1;
        }
      }
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  // Transport ranks run their kernels in parallel: the slowest rank's
  // kernel time is the one on the blocking path.
  if (out.kernel_calls == 0 && !rank_kernel_s.empty()) {
    int slowest = rank_kernel_s.begin()->first;
    for (const auto& [track, s] : rank_kernel_s) {
      if (s > rank_kernel_s[slowest]) slowest = track;
    }
    out.kernel_s = rank_kernel_s[slowest];
    out.kernel_flops = rank_kernel_flops[slowest];
    out.kernel_calls = rank_kernel_calls[slowest];
  }
  return out;
}

}  // namespace e2e
