// serve-mixed: an in-process MttkrpServer driven by two closed-loop client
// threads, each sending its next request only after the previous answer.
// The request mix is drawn from the run's seed; exact answers are checked
// against a reference MTTKRP the benchmark computes itself.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "e2ebench/src/common.hpp"
#include "e2ebench/src/workloads.hpp"
#include "src/io/tensor_io.hpp"
#include "src/mttkrp/dispatch.hpp"
#include "src/mttkrp/sparse_kernels.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/serve/server.hpp"
#include "src/sketch/krp_sample.hpp"
#include "src/sketch/sampled_mttkrp.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf_set.hpp"

namespace e2e {

namespace {

constexpr int kRank = 16;
constexpr int kClients = 2;
constexpr int kHotSeeds = 16;
constexpr double kEpsilon = 0.1;

enum class Kind { kExact, kSampled, kAppend, kRefine };

struct Request {
  Kind kind = Kind::kExact;
  int mode = 0;
  std::uint64_t seed = 0;
  mtk::multi_index_t index;  // append
  double value = 0.0;        // append
  std::string line;
};

struct Answer {
  bool ok = false;
  double norm = 0.0;
  double fit = 0.0;
  std::string error;
};

Answer parse_answer(const std::string& response) {
  Answer a;
  try {
    const mtk::JsonValue root = mtk::JsonValue::parse(response);
    const mtk::JsonValue* ok = root.find("ok");
    a.ok = ok != nullptr && ok->as_bool();
    if (const mtk::JsonValue* v = root.find("norm")) a.norm = v->as_number();
    if (const mtk::JsonValue* v = root.find("fit")) a.fit = v->as_number();
    if (!a.ok) a.error = response;
  } catch (const std::exception& e) {
    a.error = std::string("unparseable answer: ") + e.what();
  }
  return a;
}

std::string mttkrp_line(std::int64_t id, int mode, std::uint64_t seed,
                        double epsilon) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"id\":%lld,\"op\":\"mttkrp\",\"tensor\":\"t\",\"rank\":%d,"
                "\"mode\":%d,\"seed\":%llu%s}",
                static_cast<long long>(id), kRank, mode,
                static_cast<unsigned long long>(seed),
                epsilon > 0.0 ? ",\"epsilon\":0.1" : "");
  return buf;
}

std::string refine_line(std::int64_t id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"refine\",\"tensor\":\"t\",\"rank\":" +
         std::to_string(kRank) + ",\"iters\":2,\"tol\":0}";
}

// Seeds stay below 2^53: the protocol's JSON numbers are doubles, and
// only integers a double holds exactly parse as integers.
std::uint64_t request_seed(std::uint64_t run_seed, std::uint64_t salt) {
  return mtk::derive_seed(run_seed, salt) >> 11;
}

// One client's request stream: ~75% exact mttkrp over random modes (half
// from a hot pool of seeds, half fresh), ~20% epsilon=0.1 mttkrp, ~3%
// single-entry appends, ~2% warm-started refines.
std::vector<Request> make_stream(std::uint64_t run_seed, int client, int phase,
                                 int count, const mtk::shape_t& dims) {
  mtk::Rng rng(mtk::derive_seed(run_seed, 7000 + 10 * phase + client));
  std::vector<Request> out;
  const std::int64_t id_base = (phase * 10 + client + 1) * 1000000LL;
  for (int i = 0; i < count; ++i) {
    Request r;
    const std::int64_t id = id_base + i;
    const double u = rng.uniform();
    r.kind = u < 0.75   ? Kind::kExact
             : u < 0.95 ? Kind::kSampled
             : u < 0.98 ? Kind::kAppend
                        : Kind::kRefine;
    if (r.kind == Kind::kExact || r.kind == Kind::kSampled) {
      r.mode = static_cast<int>(rng.uniform_int(0, 2));
      r.seed = rng.uniform() < 0.5
                   ? request_seed(run_seed, rng.uniform_int(0, kHotSeeds - 1))
                   : request_seed(run_seed, static_cast<std::uint64_t>(id));
      r.line = mttkrp_line(id, r.mode, r.seed,
                           r.kind == Kind::kSampled ? kEpsilon : 0.0);
    } else if (r.kind == Kind::kAppend) {
      char buf[64];
      r.line = "{\"id\":" + std::to_string(id) +
               ",\"op\":\"append\",\"tensor\":\"t\",\"entries\":[[";
      for (std::size_t k = 0; k < dims.size(); ++k) {
        r.index.push_back(rng.uniform_int(0, dims[k] - 1));
        r.line += std::to_string(r.index.back()) + ",";
      }
      r.value = rng.normal();
      std::snprintf(buf, sizeof(buf), "%.17g", r.value);
      r.line += std::string(buf) + "]]}";
    } else {
      r.line = refine_line(id);
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Share of mttkrp requests whose (mode, seed) key an earlier one used.
double repeat_share(const std::vector<std::vector<Request>>& streams) {
  std::set<std::pair<int, std::uint64_t>> seen;
  std::int64_t total = 0, repeats = 0;
  for (const auto& s : streams) {
    for (const Request& r : s) {
      if (r.kind != Kind::kExact && r.kind != Kind::kSampled) continue;
      ++total;
      if (!seen.insert({r.mode, r.seed}).second) ++repeats;
    }
  }
  return total > 0 ? static_cast<double>(repeats) / total : 0.0;
}

struct LoadResult {
  std::vector<double> latency_s;
  double wall_s = 0.0;
  std::vector<Request> appended;  // appends the server acknowledged
  std::vector<std::string> failures;
  std::int64_t attempted = 0;
};

// Two closed-loop clients; each waits for its answer before the next.
LoadResult drive(mtk::MttkrpServer& server,
                 const std::vector<std::vector<Request>>& streams) {
  std::vector<LoadResult> per(streams.size());
  std::vector<std::thread> clients;
  const double t0 = now_s();
  for (std::size_t c = 0; c < streams.size(); ++c) {
    clients.emplace_back([&, c] {
      LoadResult& out = per[c];
      // Own track, so each client's spans nest on their own stack.
      mtk::TraceSession::set_current_rank(kClientRankBase +
                                          static_cast<int>(c));
      for (const Request& r : streams[c]) {
        ++out.attempted;
        try {
          const double s = now_s();
          std::string response;
          {
            mtk::Span span(mtk::SpanCategory::kPhase, "bench.request");
            response = server.handle(r.line);
          }
          out.latency_s.push_back(now_s() - s);
          const Answer a = parse_answer(response);
          if (!a.ok) {
            out.failures.push_back(a.error);
          } else if (r.kind == Kind::kAppend) {
            out.appended.push_back(r);
          }
        } catch (const std::exception& e) {
          out.failures.push_back(std::string("request threw: ") + e.what());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  LoadResult all;
  all.wall_s = now_s() - t0;
  for (LoadResult& r : per) {
    all.latency_s.insert(all.latency_s.end(), r.latency_s.begin(),
                         r.latency_s.end());
    all.appended.insert(all.appended.end(), r.appended.begin(),
                        r.appended.end());
    all.failures.insert(all.failures.end(), r.failures.begin(),
                        r.failures.end());
    all.attempted += r.attempted;
  }
  return all;
}

// One attempted operation per request; a refused or failed answer fails.
void record(const LoadResult& load, Report& rep) {
  for (const std::string& f : load.failures) rep.attempt(false, f);
  const std::int64_t ok =
      load.attempted - static_cast<std::int64_t>(load.failures.size());
  for (std::int64_t i = 0; i < ok; ++i) rep.attempt(true, "");
}

std::vector<mtk::Matrix> seeded_factors(const mtk::shape_t& dims,
                                        std::uint64_t seed) {
  // The server's recipe: one Rng(seed), then a standard-normal
  // dims[k] x rank matrix per mode in order.
  mtk::Rng rng(seed);
  std::vector<mtk::Matrix> f;
  for (mtk::index_t d : dims) f.push_back(mtk::Matrix::random_normal(d, kRank, rng));
  return f;
}

// Quiescent probe set: exact answers must match the benchmark's own MTTKRP
// of the base tensor plus every acknowledged append.
void probe(mtk::MttkrpServer& server, const mtk::SparseTensor& base,
           const std::vector<Request>& appended, std::uint64_t run_seed,
           const char* when, Report& rep) {
  mtk::SparseTensor deltas(base.dims());
  for (const Request& r : appended) deltas.push_back(r.index, r.value);
  deltas.sort_and_dedup();
  const std::uint64_t seeds[] = {request_seed(run_seed, 0),
                                 request_seed(run_seed, 999)};
  std::int64_t id = 900;
  for (std::uint64_t seed : seeds) {
    const auto factors = seeded_factors(base.dims(), seed);
    for (int mode = 0; mode < base.order(); ++mode) {
      mtk::Matrix ref = mtk::mttkrp_coo(base, factors, mode);
      if (deltas.nnz() > 0) {
        const mtk::Matrix d = mtk::mttkrp_coo(deltas, factors, mode);
        for (mtk::index_t i = 0; i < ref.rows(); ++i) {
          for (mtk::index_t j = 0; j < ref.cols(); ++j) ref(i, j) += d(i, j);
        }
      }
      const double want = ref.frobenius_norm();
      const Answer a =
          parse_answer(server.handle(mttkrp_line(++id, mode, seed, 0.0)));
      const bool ok = a.ok && std::fabs(a.norm - want) <= 1e-9 * want;
      rep.attempt(ok, std::string(when) + " probe mode " +
                          std::to_string(mode) + ": norm " +
                          std::to_string(a.norm) + " vs reference " +
                          std::to_string(want) + " " + a.error);
    }
  }
}

std::int64_t counter(const char* name) {
  return mtk::MetricsRegistry::global().counter(name).value();
}

}  // namespace

int run_serve(const Options& o, Report& rep) {
  prime_file_cache(o.tns);
  // The oracle's own copy of the base tensor (untimed).
  const mtk::SparseTensor base = mtk::load_tensor_tns(o.tns);
  const mtk::shape_t dims = base.dims();

  mtk::ServeOptions so;
  so.workers = 2;
  so.local_threads = 0;  // serial kernels; the workers are the concurrency

  // --- Set-up, repeated: registry load plus the first request per
  // (mode, epsilon) key and the first (cold) refine. -----------------------
  mtk::TraceSession setup_trace;
  if (o.trace) setup_trace.start();
  std::unique_ptr<mtk::MttkrpServer> server;
  std::vector<double> setup_s;
  const std::int64_t builds0 = counter("mtk.csf.builds");
  const std::int64_t scored0 = counter("mtk.plan.candidates_scored");
  for (int i = 0; i < o.setups; ++i) {
    server.reset();
    mtk::PlanCache::global().clear();
    const double t0 = now_s();
    server = std::make_unique<mtk::MttkrpServer>(so);
    std::vector<std::string> lines;
    lines.push_back("{\"id\":1,\"op\":\"load\",\"tensor\":\"t\",\"path\":\"" +
                    o.tns + "\",\"backend\":\"csf\"}");
    for (int mode = 0; mode < 3; ++mode) {
      for (double eps : {0.0, kEpsilon}) {
        lines.push_back(mttkrp_line(2, mode, request_seed(o.seed, 0), eps));
      }
    }
    lines.push_back(refine_line(3));
    bool ok = true;
    std::string why;
    for (std::size_t k = 0; k < lines.size(); ++k) {
      std::string response;
      if (k == 0) {
        mtk::Span span(mtk::SpanCategory::kPhase, "bench.ingest");
        response = server->handle(lines[k]);
      } else {
        mtk::Span span(mtk::SpanCategory::kPhase, "bench.request");
        response = server->handle(lines[k]);
      }
      const Answer a = parse_answer(response);
      if (!a.ok) {
        ok = false;
        why = a.error;
      }
    }
    setup_s.push_back(now_s() - t0);
    rep.attempt(ok, "setup: " + why);
  }
  if (o.trace) setup_trace.stop();
  const std::int64_t setup_builds = counter("mtk.csf.builds") - builds0;
  const std::int64_t setup_scored =
      counter("mtk.plan.candidates_scored") - scored0;
  rep.metric("setup_s", median(setup_s));

  probe(*server, base, {}, o.seed, "pre-load", rep);

  // --- Measured load. The traced run drives half the requests untraced
  // and half traced, for the overhead ratio. -------------------------------
  const int per_client =
      (o.trace ? o.requests / 2 : o.requests) / kClients;
  std::vector<std::vector<Request>> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(make_stream(o.seed, c, 0, per_client, dims));
  }
  const LoadResult load = drive(*server, streams);
  record(load, rep);
  std::vector<Request> appended = load.appended;
  const double p50 = quantile(load.latency_s, 0.50);
  rep.metric("p50_ms", p50 * 1e3);
  rep.metric("throughput_per_s",
             static_cast<double>(load.latency_s.size()) / load.wall_s);
  rep.stamp("requests (latency samples)",
            static_cast<double>(load.latency_s.size()));
  rep.stamp("p50_ms", p50 * 1e3);
  rep.stamp("p99_ms", quantile(load.latency_s, 0.99) * 1e3);
  rep.stamp("samples beyond p99",
            std::floor(0.01 * static_cast<double>(load.latency_s.size())));
  rep.stamp("throughput_rps",
            static_cast<double>(load.latency_s.size()) / load.wall_s);
  rep.stamp("repeat share", repeat_share(streams));

  if (o.trace) {
    std::vector<std::vector<Request>> traced_streams;
    std::int64_t traced_requests = 0;
    for (int c = 0; c < kClients; ++c) {
      traced_streams.push_back(make_stream(o.seed, c, 1, per_client, dims));
      for (const Request& r : traced_streams.back()) {
        traced_requests += r.kind == Kind::kExact || r.kind == Kind::kSampled;
      }
    }
    const double hits0 = static_cast<double>(mtk::PlanCache::global().hits());
    const double misses0 =
        static_cast<double>(mtk::PlanCache::global().misses());
    const std::int64_t batched0 = counter("mtk.serve.batched_requests");
    const std::int64_t rebuilds0 = counter("mtk.serve.rebuilds");
    const std::int64_t rejected0 = counter("mtk.serve.rejected");
    const std::int64_t solve_builds0 = counter("mtk.csf.builds");
    mtk::Histogram& wait =
        mtk::MetricsRegistry::global().histogram("mtk.serve.queue_wait_us");
    const std::int64_t wait_sum0 = wait.sum(), wait_n0 = wait.count();

    mtk::TraceSession trace;
    trace.start();
    const LoadResult traced = drive(*server, traced_streams);
    trace.stop();
    record(traced, rep);
    appended.insert(appended.end(), traced.appended.begin(),
                    traced.appended.end());
    const LayerTimes lt = analyze_trace(trace.events(), base.order(), kRank);
    const double n_req = static_cast<double>(traced.latency_s.size());
    const double mreq = static_cast<double>(traced_requests);
    rep.metric("obs.trace_overhead",
               quantile(traced.latency_s, 0.5) / p50 - 1.0);
    // Both workers record serve.request on track 0, so one request can
    // nest inside another there and self times on that track undercount.
    // Coverage therefore takes the client tracks' explained self time plus
    // the workers' whole request durations, which do not depend on nesting.
    double explained = 0.0;
    for (const auto& [track, s] : lt.explained_s) {
      if (track != 0) explained += s;
    }
    const auto total = [&](const char* name) {
      const auto it = lt.total_s.find(name);
      return it == lt.total_s.end() ? 0.0 : it->second;
    };
    explained += total("serve.request");
    rep.metric("obs.coverage", lt.wall_s > 0.0 ? explained / lt.wall_s : 0.0);
    rep.metric("mttkrp.kernel_s", lt.kernel_s / n_req);
    rep.metric("mttkrp.calls", static_cast<double>(lt.kernel_calls) / n_req);
    rep.metric("mttkrp.kernel_share", lt.kernel_s / lt.wall_s);
    rep.metric("mttkrp.gflops_computed",
               lt.kernel_s > 0.0 ? lt.kernel_flops / lt.kernel_s / 1e9 : 0.0);
    const auto nested = [&](const char* key) {
      const auto it = lt.nested_s.find(key);
      return it == lt.nested_s.end() ? 0.0 : it->second;
    };
    rep.metric("serve.kernel_ms", (nested("serve.request>mttkrp_csf") +
                                   nested("serve.request>mttkrp_coo")) /
                                      mreq * 1e3);
    const auto admit = lt.total_s.find("serve.admit");
    rep.metric("serve.admit_ms",
               admit == lt.total_s.end()
                   ? 0.0
                   : admit->second / lt.count.at("serve.admit") * 1e3);
    const std::int64_t waits = wait.count() - wait_n0;
    rep.metric("serve.queue_wait_ms",
               waits > 0 ? static_cast<double>(wait.sum() - wait_sum0) /
                               static_cast<double>(waits) / 1e3
                         : 0.0);
    rep.metric("serve.batch_ratio",
               static_cast<double>(counter("mtk.serve.batched_requests") -
                                   batched0) /
                   mreq);
    rep.metric("serve.repeat_share", repeat_share(traced_streams));
    rep.metric("serve.rebuilds",
               static_cast<double>(counter("mtk.serve.rebuilds") - rebuilds0));
    rep.metric("serve.rejected",
               static_cast<double>(counter("mtk.serve.rejected") - rejected0));
    rep.metric("tensor.csf_builds_solving",
               static_cast<double>(counter("mtk.csf.builds") - solve_builds0) /
                   n_req);
    const double hits =
        static_cast<double>(mtk::PlanCache::global().hits()) - hits0;
    const double misses =
        static_cast<double>(mtk::PlanCache::global().misses()) - misses0;
    rep.metric("planner.cache_hits", hits);
    rep.metric("planner.cache_misses", misses);
    rep.metric("planner.cache_hit_rate",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
    // Refine sweeps' self time from durations: the sweep minus what nested
    // in it, leaving out the other worker's requests that fell inside.
    double sweep_self = total("cp_als sweep");
    const std::string sweep_prefix = "cp_als sweep>";
    for (const auto& [key, s] : lt.nested_s) {
      if (key.rfind(sweep_prefix, 0) == 0 &&
          key != sweep_prefix + "serve.request") {
        sweep_self -= s;
      }
    }
    rep.metric("cp.epilogue_share", std::max(0.0, sweep_self) / lt.wall_s);
  }

  // The server's high-water mark over its set-up and the whole load.
  rep.metric("peak_rss_mb", peak_rss_mb());
  probe(*server, base, appended, o.seed, "post-load", rep);
  {
    const Answer a = parse_answer(server->handle(refine_line(990)));
    rep.attempt(a.ok && std::isfinite(a.fit) && a.fit > 0.0,
                "final refine: fit " + std::to_string(a.fit) + " " + a.error);
    rep.stamp("served model fit", a.fit);
  }
  if (!o.trace) return 0;

  // --- Per-layer numbers without program spans, timed from outside. ------
  const LayerTimes st = analyze_trace(setup_trace.events(), base.order(), kRank);
  const double ingest_s =
      st.self_s.count("io") ? st.self_s.at("io") / o.setups : 0.0;
  rep.metric("io.ingest_s", ingest_s);
  rep.metric("io.ingest_mb_per_s",
             ingest_s > 0.0
                 ? static_cast<double>(file_bytes(o.tns)) / 1e6 / ingest_s
                 : 0.0);
  rep.metric("tensor.csf_builds", static_cast<double>(setup_builds) / o.setups);
  const auto plans = st.count.find("plan_mttkrp");
  if (plans != st.count.end() && plans->second > 0) {
    rep.metric("planner.cold_plan_s",
               st.total_s.at("plan_mttkrp") / static_cast<double>(plans->second));
    rep.metric("planner.candidates_scored",
               static_cast<double>(setup_scored) /
                   static_cast<double>(plans->second));
  }
  // The server builds its forest inside the first exact request, where the
  // program has no span: time the same build on the benchmark's copy.
  const mtk::StoredTensor view = mtk::StoredTensor::coo_view(base);
  {
    const double t0 = now_s();
    view.csf_forest();
    rep.metric("tensor.csf_build_s", now_s() - t0);
  }
  std::vector<double> prep, draw, kernel;
  const mtk::index_t s = mtk::sample_count_for_epsilon(kRank, kEpsilon);
  for (int i = 0; i < 9; ++i) {
    const std::uint64_t seed = request_seed(o.seed, 50000 + i);
    double t0 = now_s();
    const auto factors = seeded_factors(dims, seed);
    prep.push_back(now_s() - t0);
    const int mode = i % base.order();
    mtk::Rng rng(seed);
    t0 = now_s();
    const mtk::KrpSample sample =
        mtk::sample_krp_leverage(factors, mode, s, rng);
    draw.push_back(now_s() - t0);
    t0 = now_s();
    mtk::mttkrp_sampled(view.csf_forest().tree_for(mode), factors, sample);
    kernel.push_back(now_s() - t0);
  }
  rep.metric("serve.factor_prep_ms", median(prep) * 1e3);
  rep.metric("sketch.leverage_s", median(draw));
  rep.metric("sketch.sampled_kernel_s", median(kernel));
  rep.metric("sketch.samples_per_draw", static_cast<double>(s));
  return 0;
}

}  // namespace e2e
