// The main() of the micro benches that write a BENCH_*.json report before
// running their google-benchmark suite. Flags:
//   --json-out=PATH, --json-out PATH  where the report goes; also forces the
//                    report when a --benchmark_filter would skip it
//   --json-reps=N, --json-steps=N     the report's repetition count, for the
//                    benches that take one (at least 1)
// The report is written unless a --benchmark_filter is given without
// --json-out. Every argument is then passed on to google-benchmark.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>

namespace neo::bench {

/// Runs one micro bench: `write_json(path, count)` writes the report and
/// returns false when it could not (or when the bench's own check failed);
/// main then exits 1 without running the google-benchmark suite.
/// `count_flag` is "--json-reps" or "--json-steps", or null for a bench
/// without a count.
inline int JsonBenchMain(int argc, char** argv, std::string path,
                         const char* count_flag, int count,
                         const std::function<bool(const std::string&, int)>& write_json) {
  const std::string count_prefix =
      count_flag == nullptr ? std::string() : std::string(count_flag) + "=";
  bool filtered = false;
  bool json_requested = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json-out=", 0) == 0) {
      json_requested = true;
      path = arg.substr(std::string("--json-out=").size());
    } else if (arg == "--json-out") {
      json_requested = true;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        path = argv[++i];
      }
    } else if (!count_prefix.empty() && arg.rfind(count_prefix, 0) == 0) {
      count = std::max(1, std::atoi(arg.c_str() + count_prefix.size()));
    } else if (arg.rfind("--benchmark_filter", 0) == 0) {
      filtered = true;
    }
  }
  if ((!filtered || json_requested) && !write_json(path, count)) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace neo::bench
