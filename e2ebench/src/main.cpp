// e2e_bench: the end-to-end benchmark program.
//
//   e2e_bench gen --scale S --seed N --out FILE
//       Writes the amazon-preset tensor at scale S for seed N as FROSTT
//       .tns (make_frostt_like + save_tensor_tns). The workloads only ever
//       see the file.
//   e2e_bench run --workload W --tns FILE --seed N --seconds T --trace 0|1
//                 [--scale S] [--sweeps K] [--requests Q]
//       Runs one workload in this process and prints the context stamp
//       (`# ...` lines) followed by the result object as the last line.
//
// e2ebench/run.py builds this program and calls both; see README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "e2ebench/src/common.hpp"
#include "e2ebench/src/workloads.hpp"
#include "src/io/frostt_presets.hpp"
#include "src/io/tensor_io.hpp"
#include "src/support/omp_threads.hpp"
#include "src/tensor/sparse_tensor.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "e2e_bench: %s\n", why);
  std::exit(2);
}

int gen(int argc, char** argv) {
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::string out;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k == "--scale") scale = std::atof(argv[i + 1]);
    else if (k == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (k == "--out") out = argv[i + 1];
    else usage(("unknown gen flag " + k).c_str());
  }
  if (out.empty() || scale <= 0.0) usage("gen needs --out and --scale > 0");
  const mtk::FrosttPreset* amazon = mtk::find_frostt_preset("amazon");
  const mtk::SparseTensor x =
      mtk::make_frostt_like(mtk::scale_frostt_preset(*amazon, scale), seed);
  mtk::save_tensor_tns(x, out);
  return 0;
}

// Extents from the writer's `# dims:` comment, nnz from the entry lines.
bool tns_shape(const std::string& path, std::vector<long long>& dims,
               long long& nnz) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[4096];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] != '#') {
      ++nnz;
    } else if (std::strncmp(line, "# dims:", 7) == 0) {
      char* p = line + 7;
      char* end = nullptr;
      for (long long d = std::strtoll(p, &end, 10); end != p;
           d = std::strtoll(p, &end, 10)) {
        dims.push_back(d);
        p = end;
      }
    }
  }
  std::fclose(f);
  return !dims.empty();
}

// The OpenMP team each workload pins: the batch CP-ALS runs use every
// core; par_cp_als runs one thread per transport rank (4 ranks) and the
// server two workers with serial kernels, so no workload has more
// runnable threads than cores.
int omp_threads_for(const std::string& workload) {
  if (workload == "als-exact" || workload == "als-sampled") return 4;
  return 1;
}

// Timed decompositions per run. Fixed by the run length alone, never by
// measured speed: both sides of a comparison then solve the same number of
// times. The divisors are the seed commit's decomposition times on a
// 4-core machine, so a run measures about --seconds there.
int default_reps(const std::string& workload, int seconds) {
  const double nominal_s = workload == "par-als-threads" ? 0.60
                           : workload == "als-sampled"   ? 0.41
                                                         : 0.34;
  return std::max(5, static_cast<int>(std::lround(seconds / nominal_s)));
}

// Untimed decompositions before the timed ones. par_cp_als solves run
// slow for the first few in a process (thread pools and heap growing into
// their steady size); sequential ones settle sooner.
int default_warmup(const std::string& workload) {
  return workload == "par-als-threads" ? 5 : 3;
}

// Requests per measured serving load, fixed by run length the same way:
// at least 1,000 so p99 has ten samples beyond it.
int default_requests(int seconds) { return std::max(1000, 150 * seconds); }

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "gen") == 0) {
    try {
      return gen(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e_bench gen: %s\n", e.what());
      return 1;
    }
  }
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) {
    usage("expected `gen` or `run`");
  }
  e2e::Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--tns") o.tns = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atoi(v);
    else if (k == "--trace") o.trace = std::atoi(v) != 0;
    else if (k == "--scale") o.scale = std::atof(v);
    else if (k == "--sweeps") o.sweeps = std::atoi(v);
    else if (k == "--requests") o.requests = std::atoi(v);
    else usage(("unknown flag " + k).c_str());
  }
  const bool known = o.workload == "als-exact" || o.workload == "als-sampled" ||
                     o.workload == "par-als-threads" ||
                     o.workload == "serve-mixed";
  if (!known) usage(("unknown workload '" + o.workload + "'").c_str());
  if (o.tns.empty() || o.seconds < 1 || o.sweeps < 1) {
    usage("need --tns, --seconds >= 1, --sweeps >= 1");
  }
  // Timing an unoptimized build measures the compiler, not the program.
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "e2e_bench: refusing a %s build; configure Release\n",
                 E2E_BUILD_TYPE);
    return 3;
  }
  o.reps = default_reps(o.workload, o.seconds);
  o.warmup = default_warmup(o.workload);
  if (o.requests <= 0) o.requests = default_requests(o.seconds);
  o.omp_threads = omp_threads_for(o.workload);
  // Pinned here, not inherited from the environment.
  mtk::OmpThreadCountGuard team(o.omp_threads);

  e2e::Report rep;
  rep.stamp("workload", o.workload);
  rep.stamp("seed", std::to_string(o.seed));
  rep.stamp("trace", o.trace ? "1 (per-layer run)" : "0 (end-to-end run)");
  rep.stamp("build type", E2E_BUILD_TYPE);
  rep.stamp("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  rep.stamp("hardware_concurrency",
            static_cast<double>(std::thread::hardware_concurrency()));
  rep.stamp("omp threads", o.omp_threads);
  rep.stamp("load average at start", e2e::load_average());
  // The allocator variables are not set by run.py; a user who sets them
  // changes the figures, so the stamp shows it.
  for (const char* var : {"OMP_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_",
                          "MALLOC_TRIM_THRESHOLD_"}) {
    const char* v = std::getenv(var);
    rep.stamp(std::string("env ") + var, v == nullptr ? "(unset)" : v);
  }
  {
    // Dims, nnz and the computed working set of the solve: COO (N indices
    // + value per nonzero), the CSF forest (about N trees of the same
    // size), and the factors. Next to L3 it tells whether the run is
    // cache-resident. Read from the file's text, without loading it, so
    // the stamp leaves no trace in peak_rss_mb.
    std::vector<long long> dims;
    long long nnz = 0;
    if (!tns_shape(o.tns, dims, nnz)) usage("cannot read the --tns file");
    std::string shape;
    double factor_bytes = 0.0;
    for (std::size_t k = 0; k < dims.size(); ++k) {
      shape += (k ? "x" : "") + std::to_string(dims[k]);
      factor_bytes += static_cast<double>(dims[k]) * 16.0 * 8.0;
    }
    const double order = static_cast<double>(dims.size());
    const double coo_bytes = static_cast<double>(nnz) * (order + 1) * 8.0;
    rep.stamp("tensor", shape + ", nnz " + std::to_string(nnz) +
                            (o.scale > 0.0 ? ", amazon x" + std::to_string(o.scale)
                                           : ""));
    rep.stamp("working set bytes (computed)",
              coo_bytes * (1 + order) + factor_bytes);
    rep.stamp("L3 bytes", static_cast<double>(e2e::l3_bytes()));
  }
  if (o.workload != "serve-mixed") {
    rep.stamp("sweeps", o.sweeps);
  } else {
    rep.stamp("requests per load", o.requests);
  }
  rep.stamp("set-ups", o.setups);

  int rc = 0;
  try {
    rc = o.workload == "serve-mixed" ? e2e::run_serve(o, rep)
                                     : e2e::run_decomposition(o, rep);
  } catch (const std::exception& e) {
    rep.attempt(false, std::string("workload threw: ") + e.what());
    rc = 1;
  }
  rep.stamp("peak_rss_mb (at exit)", e2e::peak_rss_mb());
  rep.stamp("load average at end", e2e::load_average());
  rep.print(o.trace);
  return rc;
}
