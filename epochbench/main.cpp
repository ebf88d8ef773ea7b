// epochbench: the end-to-end epoch benchmark (README.md in this directory).
//
//   epochbench --workload amr-repart|drift-halo|serve-mixed --seed N
//              --seconds S --trace 0|1 [--trace-out FILE] [--work-dir DIR]
//              [--stamp JSON] [--tiny] [--cut-offset N]
//
// Prints regime notes as '#' lines, then one JSON line
//   {"attempted": N, "failed": F, "values": {"<metric>": <value>, ...}}
// which run.py turns into the benchmark's result line, taking names and
// units from BENCHMARK.json. A correctness violation exits 3 with the
// violation on stderr.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench_common.hpp"
#include "common/assert.hpp"

namespace {

using epochbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "epochbench: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--stamp") {
      opt.stamp = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--cut-offset") {
      opt.cut_offset = std::strtoll(value().c_str(), nullptr, 10);
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload != "amr-repart" && opt.workload != "drift-halo" &&
      opt.workload != "serve-mixed")
    usage("--workload must be amr-repart, drift-halo or serve-mixed");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  epochbench::RunResult r;
  try {
    r = opt.workload == "serve-mixed" ? epochbench::run_serve_workload(opt)
                                      : epochbench::run_epoch_workload(opt);
  } catch (const epochbench::CheckFailure& e) {
    std::fprintf(stderr, "epochbench: CHECK FAILED: %s\n", e.what());
    return 3;
  } catch (const hgr::AssertionError& e) {
    // A library assertion (validate_payloads, halo routing) fired.
    std::fprintf(stderr, "epochbench: CHECK FAILED: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epochbench: error: %s\n", e.what());
    return 4;
  }
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("{\"attempted\": %lld, \"failed\": %lld, \"values\": {",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, value] : r.values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
