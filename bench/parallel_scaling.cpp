// Parallel scaling study, in two layers matching the runtime's two layers.
//
// Thread scaling (the shared-memory execution layer, docs/PARALLELISM.md):
// wall-clock of the three thread-parallel kernels — IPM matching,
// contraction, k-way refinement — on cage14-like at full scale (~30k
// vertices) for 1/2/4/8 threads, plus the determinism cross-check that
// every thread count reproduced the single-thread result bit for bit.
// --json=FILE emits hgr-bench-v1 with per-kernel per-thread-count
// TrialStats and parallel_speedup_t4 (best kernel speedup at 4 threads);
// tools/bench_report.py tracks both. On a single-core container the
// speedup hovers near (or below) 1 — the metric is meaningful on the
// multi-core perf-smoke runner.
//
// Rank scaling (the message-passing skeleton): wall-clock scalability is
// not observable on one core (DESIGN.md §2), so the rank study reports
// what *is* machine-independent — solution quality and communication
// traffic as the rank count grows — and the paper's Section 6 local-IPM
// trade.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/workspace.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/contract.hpp"
#include "partition/kway_refine.hpp"
#include "partition/matching_ipm.hpp"
#include "partition/partitioner.hpp"
#include "workload/datasets.hpp"

namespace {

using namespace hgr;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct Options {
  std::string json_path;
  double scale = 1.0;  // cage14-like at 1.0 is the issue's ~30k vertices
  Index trials = 3;
  std::uint64_t seed = 7;
};

/// Per-kernel timing series: seconds[thread count] over the trials.
struct KernelSeries {
  const char* name;
  std::vector<double> seconds[std::size(kThreadCounts)] = {};

  double mean(std::size_t ti) const {
    return bench::TrialStats::of(seconds[ti]).mean;
  }
  /// t1.mean / t4.mean (0 when either series is missing).
  double speedup_t4() const {
    const double t1 = mean(0);
    const double t4 = mean(2);
    return t1 > 0.0 && t4 > 0.0 ? t1 / t4 : 0.0;
  }
  std::string to_json() const {
    std::string out = "{";
    for (std::size_t ti = 0; ti < std::size(kThreadCounts); ++ti) {
      if (ti > 0) out += ',';
      out += "\"t" + std::to_string(kThreadCounts[ti]) +
             "\":" + bench::TrialStats::of(seconds[ti]).to_json();
    }
    out += '}';
    return out;
  }
};

/// Runs the three kernels at every thread count, checking that each
/// thread count reproduces the single-thread result exactly.
struct ThreadStudy {
  KernelSeries matching{"matching"};
  KernelSeries contract_k{"contract"};
  KernelSeries kway{"kway_refine"};

  double best_speedup_t4() const {
    double best = 0.0;
    for (const KernelSeries* s : {&matching, &contract_k, &kway})
      best = std::max(best, s->speedup_t4());
    return best;
  }
};

ThreadStudy run_thread_study(const Hypergraph& h, const Options& opt) {
  ThreadStudy study;

  PartitionConfig cfg;
  cfg.num_parts = 8;
  cfg.epsilon = 0.1;

  // Fixed inputs shared by every thread count and trial: the matching that
  // contraction consumes and the starting partition refinement improves.
  Rng match_rng(derive_seed(opt.seed, 1));
  const IdVector<VertexId, VertexId> fixed_match =
      ipm_matching(h, 0, match_rng);
  Partition start(cfg.num_parts, h.num_vertices());
  Rng part_rng(derive_seed(opt.seed, 2));
  for (const VertexId v : start.vertices())
    start[v] = PartId{static_cast<Index>(
        part_rng.below(static_cast<std::uint64_t>(cfg.num_parts)))};

  IdVector<VertexId, VertexId> match_t1;
  IdVector<VertexId, VertexId> coarse_map_t1;
  Partition refined_t1(cfg.num_parts, h.num_vertices());

  for (std::size_t ti = 0; ti < std::size(kThreadCounts); ++ti) {
    const int threads = kThreadCounts[ti];
    ThreadPool pool(threads);
    Workspace ws;
    ws.set_pool(&pool);
    for (Index trial = 0; trial < opt.trials; ++trial) {
      // Matching.
      Rng rng(derive_seed(opt.seed, 10));
      WallTimer timer;
      const IdVector<VertexId, VertexId> match =
          ipm_matching(h, 0, rng, &ws);
      study.matching.seconds[ti].push_back(timer.seconds());

      // Contraction (of the shared fixed matching).
      timer.reset();
      CoarseLevel level = contract(h, fixed_match, &ws);
      study.contract_k.seconds[ti].push_back(timer.seconds());

      // K-way refinement (of the shared starting partition).
      Partition p = start;
      timer.reset();
      kway_refine(h, p, cfg, 4, &ws);
      study.kway.seconds[ti].push_back(timer.seconds());

      if (ti == 0 && trial == 0) {
        match_t1 = match;
        coarse_map_t1 = level.fine_to_coarse;
        refined_t1 = p;
      } else if (match != match_t1 ||
                 level.fine_to_coarse != coarse_map_t1 ||
                 p.assignment != refined_t1.assignment) {
        std::fprintf(stderr,
                     "FATAL: kernel result differs at %d threads — the "
                     "determinism contract is broken\n",
                     threads);
        std::exit(1);
      }
    }
  }
  return study;
}

void print_thread_study(const ThreadStudy& study) {
  std::printf("\n=== Thread scaling (per-kernel seconds, mean of trials) "
              "===\n");
  std::printf("%-14s", "kernel");
  for (const int t : kThreadCounts) std::printf("  t=%-8d", t);
  std::printf("  speedup(t4)\n");
  for (const KernelSeries* s :
       {&study.matching, &study.contract_k, &study.kway}) {
    std::printf("%-14s", s->name);
    for (std::size_t ti = 0; ti < std::size(kThreadCounts); ++ti)
      std::printf("  %-10.4f", s->mean(ti));
    std::printf("  %.2fx\n", s->speedup_t4());
  }
  std::printf("best speedup at 4 threads: %.2fx  (all thread counts "
              "bit-identical)\n",
              study.best_speedup_t4());
}

int run_json(const Hypergraph& h, const Options& opt) {
  const ThreadStudy study = run_thread_study(h, opt);
  print_thread_study(study);

  bench::BenchJson doc("parallel_scaling");
  doc.add_string("dataset", "cage14-like");
  char config[160];
  std::snprintf(config, sizeof(config),
                "{\"scale\":%.9g,\"trials\":%lld,\"seed\":%llu,"
                "\"vertices\":%lld}",
                opt.scale, static_cast<long long>(opt.trials),
                static_cast<unsigned long long>(opt.seed),
                static_cast<long long>(h.num_vertices()));
  doc.add_raw("config", config);
  std::string metrics = "{";
  metrics += "\"matching_seconds\":" + study.matching.to_json();
  metrics += ",\"contract_seconds\":" + study.contract_k.to_json();
  metrics += ",\"kway_seconds\":" + study.kway.to_json();
  char speedup[64];
  std::snprintf(speedup, sizeof(speedup), ",\"parallel_speedup_t4\":%.4g}",
                study.best_speedup_t4());
  metrics += speedup;
  doc.add_raw("metrics", metrics);
  if (!doc.write(opt.json_path)) {
    std::fprintf(stderr, "error: could not write %s\n",
                 opt.json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote bench json to %s\n", opt.json_path.c_str());
  return 0;
}

void run_rank_study(const Hypergraph& h) {
  PartitionConfig base;
  base.num_parts = 16;
  base.epsilon = 0.05;
  base.seed = 7;

  const Partition serial = partition_hypergraph(h, base);
  std::printf("%-8s cut=%-8lld imb=%.3f  (serial reference)\n", "p=1*",
              static_cast<long long>(connectivity_cut(h, serial)),
              imbalance(h.vertex_weights(), serial));

  std::printf("\n%-6s %10s %8s %14s %12s %12s\n", "ranks", "cut", "imb",
              "bytes", "messages", "collectives");
  for (const int ranks : {1, 2, 4, 8}) {
    ParallelPartitionConfig cfg;
    cfg.num_ranks = ranks;
    cfg.base = base;
    const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
    std::printf("%-6d %10lld %8.3f %14llu %12llu %12llu\n", ranks,
                static_cast<long long>(connectivity_cut(h, r.partition)),
                imbalance(h.vertex_weights(), r.partition),
                static_cast<unsigned long long>(r.traffic.bytes_sent),
                static_cast<unsigned long long>(r.traffic.messages_sent),
                static_cast<unsigned long long>(r.traffic.collectives));
  }

  // The paper's future-work proposal: local IPM instead of global IPM
  // ("We plan to improve this performance by using local heuristics ...
  // to reduce global communication"). Traffic drops sharply; quality
  // gives back a little.
  std::printf("\nglobal vs local IPM (the paper's Section 6 proposal):\n");
  for (const int ranks : {2, 8}) {
    for (const bool local : {false, true}) {
      ParallelPartitionConfig cfg;
      cfg.num_ranks = ranks;
      cfg.base = base;
      cfg.local_matching = local;
      const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
      std::printf("ranks=%d matching=%-6s cut=%-8lld bytes=%llu\n", ranks,
                  local ? "local" : "global",
                  static_cast<long long>(connectivity_cut(h, r.partition)),
                  static_cast<unsigned long long>(r.traffic.bytes_sent));
    }
  }

  // Ranks x threads: threading each rank's kernels must not perturb the
  // rank-level algorithm — same cut, same traffic.
  std::printf("\nranks x threads compose (2 ranks):\n");
  for (const Index threads : {1, 4}) {
    ParallelPartitionConfig cfg;
    cfg.num_ranks = 2;
    cfg.base = base;
    cfg.base.num_threads = threads;
    const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
    std::printf("ranks=2 threads=%lld cut=%lld bytes=%llu\n",
                static_cast<long long>(threads),
                static_cast<long long>(connectivity_cut(h, r.partition)),
                static_cast<unsigned long long>(r.traffic.bytes_sent));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool json_mode = false;
  double rank_scale = 0.3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--json") {
      opt.json_path = value;
      json_mode = true;
    } else if (key == "--scale") {
      opt.scale = std::stod(value);
      rank_scale = opt.scale;
    } else if (key == "--trials") {
      opt.trials = static_cast<Index>(std::stol(value));
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    }
  }

  if (json_mode) {
    const Graph g = make_dataset("cage14-like", opt.scale, opt.seed);
    const Hypergraph h = graph_to_hypergraph(g);
    std::printf("=== Thread scaling (cage14-like, %s) ===\n",
                h.summary().c_str());
    return run_json(h, opt);
  }

  // Human-readable mode: the thread study on the full-scale instance plus
  // the classic rank study on a smaller one (it runs 1..8 emulated ranks).
  {
    const Graph g = make_dataset("cage14-like", opt.scale, opt.seed);
    const Hypergraph h = graph_to_hypergraph(g);
    std::printf("=== Thread scaling (cage14-like, %s) ===\n",
                h.summary().c_str());
    print_thread_study(run_thread_study(h, opt));
  }
  const Graph g = make_dataset("auto-like", rank_scale, 5);
  const Hypergraph h = graph_to_hypergraph(g);
  std::printf("\n=== Rank scaling (auto-like, %s, k=16) ===\n",
              h.summary().c_str());
  run_rank_study(h);
  return 0;
}
