// The three decomposition workloads: sequential cp_als (exact and sampled)
// and par_cp_als on the thread transport. One run sets up several times,
// solves a fixed number of untimed warm-up and timed decompositions, and
// checks every fit against its oracle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "e2ebench/src/common.hpp"
#include "e2ebench/src/workloads.hpp"
#include "src/cp/cp_als.hpp"
#include "src/cp/par_cp_als.hpp"
#include "src/io/tensor_io.hpp"
#include "src/mttkrp/dispatch.hpp"
#include "src/mttkrp/sparse_kernels.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/sketch/krp_sample.hpp"
#include "src/sketch/sampled_mttkrp.hpp"
#include "src/sketch/sketched_solve.hpp"
#include "src/support/omp_threads.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"
#include "src/tensor/csf_set.hpp"

namespace e2e {

namespace {

constexpr mtk::index_t kRank = 16;
constexpr int kProcs = 4;
constexpr double kEpsilon = 0.1;

std::int64_t counter(const char* name) {
  return mtk::MetricsRegistry::global().counter(name).value();
}

// Median seconds of `reps` calls of `fn`.
double time_median(const std::function<void()>& fn, int reps = 5) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

struct Setup {
  mtk::StoredTensor x;
  double ingest_s = 0.0;
  double forest_s = 0.0;
  double total_s = 0.0;
};

// Ingest, storage build, and (par) cold planning: what a user pays before
// the first decomposition. The spans are the traced run's io, tensor and
// planner boundaries.
Setup set_up(const std::string& path, bool build_forest,
             const mtk::PlannerOptions* plan) {
  Setup s;
  const double t0 = now_s();
  mtk::SparseTensor coo;
  {
    mtk::Span span(mtk::SpanCategory::kPhase, "bench.ingest");
    coo = mtk::load_tensor_tns(path);
  }
  s.ingest_s = now_s() - t0;
  s.x = mtk::StoredTensor::coo(std::move(coo));
  if (build_forest) {
    const double t1 = now_s();
    mtk::Span span(mtk::SpanCategory::kPhase, "bench.csf_forest");
    s.x.csf_forest();
    s.forest_s = now_s() - t1;
  }
  if (plan != nullptr) {
    // Cold: every set-up plans from scratch, as a fresh process would.
    mtk::PlanCache::global().clear();
    mtk::Span span(mtk::SpanCategory::kPhase, "bench.plan");
    mtk::PlanCache::global().get_or_plan(s.x, kRank, *plan);
  }
  s.total_s = now_s() - t0;
  return s;
}

struct Solve {
  double seconds = 0.0;
  double fit = 0.0;
  std::vector<double> sweep_fits;
  mtk::CpModel model;
  mtk::index_t leverage_rebuilds = 0;
  mtk::ParCpAlsResult par;  // par workload only (model moved out)
};

struct Plan {
  bool par = false;
  bool sampled = false;
  mtk::CpAlsOptions cp;
  mtk::ParCpAlsOptions pcp;
  mtk::PlannerOptions planner;
};

Solve solve(const Plan& p, const mtk::StoredTensor& x) {
  Solve s;
  const double t0 = now_s();
  if (p.par) {
    mtk::Span span(mtk::SpanCategory::kPhase, "bench.par_cp_als");
    s.par = mtk::par_cp_als(x, p.pcp);
    s.seconds = now_s() - t0;
    s.fit = s.par.final_fit;
    for (const auto& it : s.par.trace) s.sweep_fits.push_back(it.fit);
    s.model = std::move(s.par.model);
  } else {
    mtk::Span span(mtk::SpanCategory::kPhase, "bench.cp_als");
    mtk::CpAlsResult r = mtk::cp_als(x, p.cp);
    s.seconds = now_s() - t0;
    s.fit = r.final_fit;
    s.leverage_rebuilds = r.leverage_rebuilds;
    for (const auto& it : r.trace) s.sweep_fits.push_back(it.fit);
    s.model = std::move(r.model);
  }
  return s;
}

// The fit of `model` against `x`, evaluated here from the coordinates:
// 1 - ||X - M|| / ||X|| with <X, M> summed over the nonzeros and ||M||^2
// from the factor Grams. Independent of cp_als's own fit bookkeeping.
double evaluate_fit(const mtk::SparseTensor& x, const mtk::CpModel& model) {
  const int n = x.order();
  const mtk::index_t r = model.rank();
  double norm_x = 0.0, inner = 0.0;
  std::vector<double> prod(static_cast<std::size_t>(r));
  for (mtk::index_t p = 0; p < x.nnz(); ++p) {
    const double v = x.value(p);
    norm_x += v * v;
    for (mtk::index_t c = 0; c < r; ++c) {
      prod[static_cast<std::size_t>(c)] = model.lambda[static_cast<std::size_t>(c)];
    }
    for (int k = 0; k < n; ++k) {
      const double* row =
          model.factors[static_cast<std::size_t>(k)].row(x.index(k, p));
      for (mtk::index_t c = 0; c < r; ++c) prod[static_cast<std::size_t>(c)] *= row[c];
    }
    for (double q : prod) inner += v * q;
  }
  double norm_m = 0.0;
  std::vector<mtk::Matrix> grams;
  for (const auto& a : model.factors) grams.push_back(mtk::gram(a));
  for (mtk::index_t a = 0; a < r; ++a) {
    for (mtk::index_t b = 0; b < r; ++b) {
      double g = model.lambda[static_cast<std::size_t>(a)] *
                 model.lambda[static_cast<std::size_t>(b)];
      for (const auto& gk : grams) g *= gk(a, b);
      norm_m += g;
    }
  }
  return 1.0 - std::sqrt(std::max(0.0, norm_x + norm_m - 2.0 * inner)) /
                   std::sqrt(norm_x);
}

std::vector<mtk::Matrix> grams_of(const std::vector<mtk::Matrix>& factors) {
  std::vector<mtk::Matrix> g;
  for (const auto& a : factors) g.push_back(mtk::gram(a));
  return g;
}

mtk::Matrix hadamard_except(const std::vector<mtk::Matrix>& grams, int mode) {
  mtk::Matrix v;
  bool first = true;
  for (int k = 0; k < static_cast<int>(grams.size()); ++k) {
    if (k == mode) continue;
    if (first) {
      v = grams[static_cast<std::size_t>(k)];
      first = false;
    } else {
      mtk::hadamard_inplace(v, grams[static_cast<std::size_t>(k)]);
    }
  }
  return v;
}

// The dense epilogue has no spans in the program: time its public
// functions from outside on the workload's shapes and final factors, and
// scale by the calls one decomposition makes.
void time_epilogue(const mtk::StoredTensor& x, const mtk::CpModel& model,
                   int sweeps, bool parallel_kernel, Report& rep) {
  const int n = x.order();
  const auto grams = grams_of(model.factors);
  mtk::MttkrpOptions kopts;
  kopts.parallel = parallel_kernel;
  double gram_s = 0.0, solve_s = 0.0, norm_s = 0.0;
  for (int k = 0; k < n; ++k) {
    const mtk::Matrix& a = model.factors[static_cast<std::size_t>(k)];
    const mtk::Matrix m = mtk::mttkrp(x, model.factors, k, kopts);
    const mtk::Matrix v = hadamard_except(grams, k);
    gram_s += time_median([&] { mtk::gram(a); });
    solve_s += time_median([&] { mtk::solve_spd_right(v, m); });
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) {
      mtk::Matrix c = m;  // normalizing is in place: time it on a fresh copy
      const double t0 = now_s();
      c.scale_columns_inv(c.column_norms());
      t.push_back(now_s() - t0);
    }
    norm_s += median(t);
  }
  // One Gram per factor update plus the N initial ones; one solve and one
  // normalization per update.
  rep.metric("cp.gram_s", gram_s * (sweeps + 1));
  rep.metric("cp.spd_solve_s", solve_s * sweeps);
  rep.metric("cp.normalize_s", norm_s * sweeps);
}

// The sketch layer's sampled kernel and sketched Gram have no spans either.
// Returns their estimated seconds per decomposition.
double time_sketch(const mtk::StoredTensor& x, const mtk::CpModel& model,
                   int sweeps, std::uint64_t seed, Report& rep) {
  const int n = x.order();
  const auto grams = grams_of(model.factors);
  const mtk::index_t s = mtk::sample_count_for_epsilon(kRank, kEpsilon);
  mtk::MttkrpOptions kopts;
  kopts.parallel = true;
  double draw_s = 0.0, kernel_s = 0.0, krp_gram_s = 0.0;
  for (int k = 0; k < n; ++k) {
    mtk::Rng rng(mtk::derive_seed(seed, static_cast<std::uint64_t>(k)));
    draw_s += time_median([&] {
      mtk::sample_krp_leverage(model.factors, grams, k, s, rng);
    });
    const mtk::KrpSample sample =
        mtk::sample_krp_leverage(model.factors, grams, k, s, rng);
    kernel_s += time_median([&] {
      mtk::mttkrp_sampled(x.csf_forest(), model.factors, sample, kopts);
    });
    krp_gram_s += time_median(
        [&] { mtk::sketched_krp_gram(model.factors, sample); });
  }
  rep.metric("sketch.leverage_s", draw_s * sweeps);
  rep.metric("sketch.sampled_kernel_s", kernel_s * sweeps);
  rep.metric("sketch.krp_gram_s", krp_gram_s * sweeps);
  rep.metric("sketch.samples_per_draw", static_cast<double>(s));
  return (kernel_s + krp_gram_s) * sweeps;
}

// Same forest, same factors: the kernel at one thread against `threads`.
double parallel_efficiency(const mtk::StoredTensor& x,
                           const mtk::CpModel& model, int threads) {
  mtk::MttkrpOptions kopts;
  kopts.parallel = true;
  const auto all_modes = [&] {
    for (int k = 0; k < x.order(); ++k) {
      mtk::mttkrp(x.csf_forest(), model.factors, k, kopts);
    }
  };
  double t1 = 0.0;
  {
    mtk::OmpThreadCountGuard one(1);
    t1 = time_median(all_modes);
  }
  const double tp = time_median(all_modes);
  return t1 / (threads * tp);
}

double rank_imbalance(const mtk::StoredTensor& x, const mtk::ExecutionPlan& p) {
  const mtk::StationarySparsePlan plan =
      mtk::plan_stationary_sparse(x, p.grid, p.scheme);
  double max_nnz = 0.0, sum = 0.0;
  for (const auto& local : plan.dist.local) {
    max_nnz = std::max(max_nnz, static_cast<double>(local.nnz()));
    sum += static_cast<double>(local.nnz());
  }
  const double mean = sum / static_cast<double>(plan.dist.local.size());
  return mean > 0.0 ? max_nnz / mean : 0.0;
}

// What par_cp_als does before its first sweep: convert to the planned
// backend, then distribute the nonzeros (and build the per-rank forests).
double distribute_seconds(const mtk::StoredTensor& x,
                          const mtk::ExecutionPlan& p) {
  return time_median(
      [&] {
        if (p.backend == mtk::StorageFormat::kCsf) {
          const mtk::CsfTensor csf = mtk::CsfTensor::from_coo(x.as_coo());
          mtk::plan_stationary_sparse(mtk::StoredTensor::csf_view(csf), p.grid,
                                      p.scheme);
        } else {
          mtk::plan_stationary_sparse(x, p.grid, p.scheme);
        }
      },
      3);
}

std::string grid_string(const std::vector<int>& grid) {
  std::string s;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    s += (i ? "x" : "") + std::to_string(grid[i]);
  }
  return s;
}

}  // namespace

int run_decomposition(const Options& o, Report& rep) {
  Plan p;
  p.par = o.workload == "par-als-threads";
  p.sampled = o.workload == "als-sampled";
  p.cp.rank = kRank;
  p.cp.max_iterations = o.sweeps;
  p.cp.tolerance = 0.0;  // fixed sweep count: the work per run is fixed
  p.cp.seed = o.seed;
  p.cp.mttkrp.parallel = true;
  if (p.sampled) p.cp.sketch.epsilon = kEpsilon;
  p.pcp.rank = kRank;
  p.pcp.max_iterations = o.sweeps;
  p.pcp.tolerance = 0.0;
  p.pcp.seed = o.seed;
  p.pcp.transport = mtk::TransportKind::kThreads;
  p.pcp.autotune = true;
  p.pcp.procs = kProcs;
  // Mirrors the planner options par_cp_als builds when autotuning, so the
  // set-up's cold plan is the entry every timed solve then hits.
  p.planner.procs = kProcs;
  p.planner.workload = mtk::PlanWorkload::kCpAls;
  p.planner.reuse_count = o.sweeps * 3;

  // --- Set-up, repeated; setup_s is the median. -------------------------
  prime_file_cache(o.tns);
  mtk::TraceSession setup_trace;
  if (o.trace) setup_trace.start();
  std::vector<double> setup_s, ingest_s, forest_s;
  Setup s;
  const std::int64_t builds0 = counter("mtk.csf.builds");
  const std::int64_t scored0 = counter("mtk.plan.candidates_scored");
  for (int i = 0; i < o.setups; ++i) {
    s = Setup{};  // release the previous copy before the next ingest
    try {
      s = set_up(o.tns, !p.par, p.par ? &p.planner : nullptr);
      rep.attempt(true, "setup");
    } catch (const std::exception& e) {
      rep.attempt(false, std::string("setup threw: ") + e.what());
      return 1;
    }
    setup_s.push_back(s.total_s);
    ingest_s.push_back(s.ingest_s);
    forest_s.push_back(s.forest_s);
  }
  const std::int64_t setup_builds = counter("mtk.csf.builds") - builds0;
  const std::int64_t setup_scored =
      counter("mtk.plan.candidates_scored") - scored0;
  if (o.trace) setup_trace.stop();
  const mtk::StoredTensor& x = s.x;
  rep.metric("setup_s", median(setup_s));

  // --- Reference solve for the oracle (untimed). -------------------------
  double reference_fit = 0.0;
  if (p.sampled || p.par) {
    mtk::CpAlsOptions ref = p.cp;
    ref.sketch = mtk::SketchOptions{};
    // par never builds the handle's CSF forest; the COO kernel keeps the
    // reference from adding one.
    if (p.par) ref.mttkrp.sparse_algo = mtk::SparseMttkrpAlgo::kCoo;
    reference_fit = mtk::cp_als(x, ref).final_fit;
    rep.stamp("reference exact fit", reference_fit);
  }

  // The same checks for every solve, warm-up or timed.
  double first_fit = std::nan("");
  const auto check = [&](const Solve& r, const char* what) {
    bool ok = std::isfinite(r.fit);
    std::string why = std::string(what) + ": fit " + std::to_string(r.fit);
    if (std::isnan(first_fit)) first_fit = r.fit;
    if (std::fabs(r.fit - first_fit) > 1e-9) {
      ok = false;
      why += " differs from the run's first fit " + std::to_string(first_fit);
    }
    if (p.sampled && (1.0 - r.fit) > 1.05 * (1.0 - reference_fit)) {
      ok = false;
      why += " has residual above 1.05x the exact reference";
    }
    if (p.par && std::fabs(r.fit - reference_fit) > 1e-9) {
      ok = false;
      why += " differs from sequential cp_als " + std::to_string(reference_fit);
    }
    // Exact ALS solves each factor's least-squares problem exactly, so the
    // fit never falls from one sweep to the next. (Sampled per-sweep fits
    // are estimates.)
    for (std::size_t i = 1; !p.sampled && i < r.sweep_fits.size(); ++i) {
      if (r.sweep_fits[i] < r.sweep_fits[i - 1] - 1e-9) {
        ok = false;
        why += " falls at sweep " + std::to_string(i + 1);
        break;
      }
    }
    rep.attempt(ok, why);
  };
  const auto run_one = [&](const char* what) {
    Solve r;
    try {
      r = solve(p, x);
    } catch (const std::exception& e) {
      rep.attempt(false, std::string(what) + " threw: " + e.what());
      r.seconds = std::nan("");
      return r;
    }
    check(r, what);
    return r;
  };

  // --- Warm-up, then timed solves. The counts are fixed per run length,
  // never adjusted by measured speed, so both sides of a comparison solve
  // the same number of times and a periodic spike lands as often in each.
  for (int i = 0; i < o.warmup; ++i) run_one("warm-up solve");
  const int reps = o.trace ? std::max(3, o.reps / 2) : o.reps;
  const std::int64_t hits0 = static_cast<std::int64_t>(
      mtk::PlanCache::global().hits());
  const std::int64_t misses0 = static_cast<std::int64_t>(
      mtk::PlanCache::global().misses());
  const std::int64_t coll0 = counter("mtk.transport.all_gather.calls") +
                             counter("mtk.transport.reduce_scatter.calls");
  const std::int64_t solve_builds0 = counter("mtk.csf.builds");
  std::vector<double> times, comm, compute;
  Solve last;
  for (int i = 0; i < reps; ++i) {
    last = run_one("timed solve");
    if (std::isnan(last.seconds)) return 1;
    times.push_back(last.seconds);
    comm.push_back(last.par.comm_seconds);
    compute.push_back(last.par.compute_seconds);
  }
  {
    // The reported fit must be the model's true fit.
    const double fit = evaluate_fit(x.as_coo(), last.model);
    rep.attempt(std::fabs(fit - last.fit) <= 1e-8,
                "reported fit " + std::to_string(last.fit) +
                    " differs from the model's evaluated fit " +
                    std::to_string(fit));
  }
  rep.metric("peak_rss_mb", peak_rss_mb());
  const double decomp_s = median(times);
  const double rounds = static_cast<double>(reps);
  rep.metric("p50_ms", decomp_s * 1e3);
  double total = 0.0;
  for (double t : times) total += t;
  rep.metric("throughput_per_s", rounds / total);
  rep.stamp("decomp_s (median)", decomp_s);
  rep.stamp("decomp_s q1/q3",
            std::to_string(quantile(times, 0.25)) + " / " +
                std::to_string(quantile(times, 0.75)));
  {
    std::string all;
    for (double t : times) all += std::to_string(t).substr(0, 6) + " ";
    rep.stamp("decomp_s each", all);
  }
  rep.stamp("timed decompositions", rounds);
  rep.stamp("warm-up decompositions", o.warmup);
  rep.stamp("fit", last.fit);
  if (p.par) {
    rep.stamp("autotuned grid", grid_string(last.par.plan.grid));
    rep.stamp("autotuned backend", mtk::to_string(last.par.plan.backend));
  }
  if (!o.trace) return 0;

  // --- Traced run: the per-layer split. -----------------------------------
  const double per = 1.0 / rounds;
  const LayerTimes st = analyze_trace(setup_trace.events(), x.order(), kRank);
  rep.metric("io.ingest_s", median(ingest_s));
  rep.metric("io.ingest_mb_per_s",
             static_cast<double>(file_bytes(o.tns)) / 1e6 / median(ingest_s));
  rep.metric("tensor.csf_build_s", median(forest_s));
  rep.metric("tensor.csf_builds",
             static_cast<double>(setup_builds) / o.setups);
  rep.metric("tensor.csf_builds_solving",
             static_cast<double>(counter("mtk.csf.builds") - solve_builds0) *
                 per);

  if (p.par) {
    const auto cold = st.total_s.find("plan_mttkrp");
    rep.metric("planner.cold_plan_s",
               cold == st.total_s.end() ? 0.0 : cold->second / o.setups);
    rep.metric("planner.candidates_scored",
               static_cast<double>(setup_scored) / o.setups);
    const double hits = static_cast<double>(
        static_cast<std::int64_t>(mtk::PlanCache::global().hits()) - hits0);
    const double misses = static_cast<double>(
        static_cast<std::int64_t>(mtk::PlanCache::global().misses()) -
        misses0);
    rep.metric("planner.cache_hits", hits);
    rep.metric("planner.cache_misses", misses);
    rep.metric("planner.cache_hit_rate",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
    const double comm_s = median(comm), compute_s = median(compute);
    rep.metric("parsim.comm_s", comm_s);
    rep.metric("parsim.compute_s", compute_s);
    rep.metric("parsim.orchestrator_s", decomp_s - comm_s - compute_s);
    rep.metric("parsim.words_max",
               static_cast<double>(last.par.total_mttkrp_words_max +
                                   last.par.total_gram_words_max));
    rep.metric("parsim.messages_max",
               static_cast<double>(last.par.total_messages_max));
    rep.metric("parsim.collective_calls",
               static_cast<double>(
                   counter("mtk.transport.all_gather.calls") +
                   counter("mtk.transport.reduce_scatter.calls") - coll0) *
                   per);
    rep.metric("parsim.rank_imbalance", rank_imbalance(x, last.par.plan));
    rep.metric("parsim.distribute_s", distribute_seconds(x, last.par.plan));
  }

  // Traced solves, after the untraced ones above.
  mtk::TraceSession solve_trace;
  solve_trace.start();
  std::vector<double> traced;
  for (int i = 0; i < reps; ++i) {
    const Solve r = run_one("traced solve");
    if (std::isnan(r.seconds)) return 1;
    traced.push_back(r.seconds);
  }
  solve_trace.stop();
  const double traced_s = median(traced);
  const LayerTimes lt = analyze_trace(solve_trace.events(), x.order(), kRank);
  rep.metric("obs.trace_overhead", traced_s / decomp_s - 1.0);
  rep.metric("obs.coverage", lt.coverage());
  rep.metric("mttkrp.kernel_s", lt.kernel_s * per);
  rep.metric("mttkrp.calls", static_cast<double>(lt.kernel_calls) * per);
  rep.metric("mttkrp.kernel_share", lt.kernel_s * per / traced_s);
  rep.metric("mttkrp.gflops_computed",
             lt.kernel_s > 0.0 ? lt.kernel_flops / lt.kernel_s / 1e9 : 0.0);

  double cp_self = lt.self_s.count("cp") ? lt.self_s.at("cp") * per : 0.0;
  if (p.par) {
    mtk::OmpThreadCountGuard one(1);
    time_epilogue(x, last.model, o.sweeps, false, rep);
  } else {
    time_epilogue(x, last.model, o.sweeps, true, rep);
    rep.metric("mttkrp.parallel_efficiency",
               parallel_efficiency(x, last.model, o.omp_threads));
  }
  if (p.sampled) {
    // The sweep span's self time also holds the unspanned sampled kernel
    // and sketched Gram; move them to the sketch layer.
    cp_self = std::max(0.0, cp_self - time_sketch(x, last.model, o.sweeps,
                                                  o.seed, rep));
    rep.metric("sketch.leverage_rebuilds",
               static_cast<double>(last.leverage_rebuilds));
  }
  rep.metric("cp.epilogue_share", cp_self / traced_s);
  return 0;
}

}  // namespace e2e
