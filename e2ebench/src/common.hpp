// Shared pieces of the end-to-end benchmark: clocks and order statistics,
// the run report (metrics, operation counts, oracle failures), the context
// stamp, and the per-layer self-time analysis of a TraceSession.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.hpp"

namespace e2e {

double now_s();
double median(std::vector<double> v);
// Order statistic of the samples, interpolated between the two nearest
// ranks (q in [0,1]).
double quantile(std::vector<double> v, double q);
double peak_rss_mb();
std::string load_average();
std::int64_t l3_bytes();
std::int64_t file_bytes(const std::string& path);
// Reads the whole file once so the timed ingest sees a warm page cache.
void prime_file_cache(const std::string& path);

struct Options {
  std::string workload;
  std::string tns;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  double scale = 0.0;  // informational: the preset scale of `tns`
  int sweeps = 10;     // ALS sweeps per decomposition
  int requests = 0;    // serve: client requests per measured load (0 = auto)
  int setups = 5;      // set-ups per run (fixed); setup_s is their median
  int warmup = 3;      // untimed decompositions first (fixed per workload)
  int reps = 5;        // timed decompositions (derived from seconds)
  int omp_threads = 1;  // the OpenMP team size the workload pins
};

// Everything one run prints: the end-to-end or per-layer metrics, the
// attempted/failed operation counts, and why each failure failed.
class Report {
 public:
  void metric(const std::string& name, double value);
  void attempt(bool ok, const std::string& what);
  void stamp(const std::string& key, const std::string& value);
  void stamp(const std::string& key, double value);
  // Prints the stamp lines and failures as `# ...`, then the result object
  // as the last line. Metrics the workload did not set print as 0 (a layer
  // the workload does not run).
  void print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
};

// The metric names and units, in print order. BENCHMARK.json lists the same
// names; the smoke test keeps the two in step.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

// Per-layer self time of one trace window. A span's self time is its
// duration minus the spans nested directly inside it on the same track.
// Spans the benchmark itself opens (names starting "bench.") are wrappers:
// their self time is unattributed, and their durations on the counted
// tracks are the wall time that `coverage` divides by. Transport rank
// tracks (1..1024) run inside the orchestrator's run_ranks spans and are
// not counted again. Nesting assumes one thread per track: where several
// threads share a track (the server's workers on track 0), a span nests in
// whichever span on the track contains it, so use durations there.
struct LayerTimes {
  std::map<std::string, double> self_s;      // layer -> self seconds
  std::map<std::string, double> total_s;     // span name -> summed seconds
  std::map<std::string, std::int64_t> count;  // span name -> span count
  std::map<std::string, double> nested_s;  // "parent>child" -> seconds
  std::map<int, double> explained_s;  // counted track -> non-wrapper self s
  double wall_s = 0.0;
  double kernel_s = 0.0;      // MTTKRP kernel seconds on the blocking path
  double kernel_flops = 0.0;  // N * nnz * R per kernel call (computed)
  std::int64_t kernel_calls = 0;
  double coverage() const;
};
// `rank` is the CP rank (for the computed flop count).
LayerTimes analyze_trace(const std::vector<mtk::TraceEvent>& events,
                         int order, std::int64_t rank);

// Client threads in the serving workload tag their spans with these
// tracks so each client is its own nesting stack.
constexpr int kClientRankBase = 5000;

}  // namespace e2e
