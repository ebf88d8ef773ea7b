// Shared plumbing of the end-to-end benchmark: run options, the in-memory
// span recorder and order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace epochbench {

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Input scale factor under --tiny.
constexpr double kTinyScale = 0.05;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every input so a run takes seconds; the benchmark's own tests
  /// use it. Never used for measurements.
  bool tiny = false;
  /// Where a traced run writes its spans (empty: no file).
  std::string trace_out;
  /// Scratch directory for generated inputs (serve tenants' hMETIS files).
  std::string work_dir = ".";
  /// Opaque JSON object describing machine and build, copied into the
  /// trace file so results from different setups are never mixed up.
  std::string stamp = "{}";
  /// Test hook: added to the expected cut in the halo identity check, so a
  /// test can prove the check fails when the model and the wire disagree.
  hgr::Weight cut_offset = 0;
};

/// A correctness violation. The run fails with it instead of reporting
/// metrics.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// One recorded span. `parent` indexes the recorder's span list (-1 for a
/// root); spans of one epoch or request share `id`.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  int parent = -1;
  double start = 0.0;  // seconds since the recorder's origin
  double end = 0.0;
};

/// Spans kept in memory and written out once, at the end of a traced run.
/// Disabled recorders ignore every call, so untraced runs pay one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its handle (-1 when disabled).
  int begin(const char* name, std::uint64_t id, int parent = -1);
  void end(int handle);
  /// Records a span whose interval is already known.
  int add(const char* name, std::uint64_t id, int parent,
          Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the part of it covered by its children.
  std::vector<double> self_seconds() const;

  /// name -> self seconds of every span with that name.
  std::map<std::string, std::vector<double>> self_seconds_by_name() const;

  /// Writes {"stamp": ..., "spans": [...], "self_seconds": {...}}.
  void write_json(const std::string& path, const std::string& stamp) const;

 private:
  double since_origin(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// The tail percentile reported for a sample of n: p99, or the highest
/// one with at least twenty samples beyond it when n < 2000 (fewer make
/// the tail swing from run to run).
double tail_quantile(std::size_t n);

/// Seconds summed over every phase-tree node called `name` (same-named
/// scopes on rank threads add up, so this is CPU-seconds on the rank path).
double phase_seconds(const hgr::obs::PhaseSnapshot& node,
                     std::string_view name);

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Metric name -> value, names as in BENCHMARK.json. Every end-to-end
  /// metric must be set; per-layer metrics a workload does not exercise
  /// are left out and read 0.
  std::map<std::string, double> values;
  /// Regime self-report lines, printed on every run.
  std::vector<std::string> notes;
};

/// Workload entry points. Each throws CheckFailure on a correctness
/// violation.
RunResult run_epoch_workload(const Options& opt);
RunResult run_serve_workload(const Options& opt);

}  // namespace epochbench
