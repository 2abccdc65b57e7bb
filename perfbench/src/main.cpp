// The repo benchmark: drives the public API of every layer from outside
// on one of three workloads and prints, as its last stdout line, one JSON
// object with the run's end-to-end metrics (untraced) or per-layer
// metrics (--trace 1). Exits 1 when a correctness gate fails and 2 on a
// usage or runtime error (no result line then).
//
//   snaple_perfbench --workload fit-batch|serve-zipf|churn-uniform
//                    --seed N --seconds S --trace 0|1
//                    [--scale F] [--workdir DIR]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "snaple_perfbench: " << why
            << "\nusage: snaple_perfbench --workload fit-batch|serve-zipf|"
               "churn-uniform --seed N --seconds S --trace 0|1 [--scale F] "
               "[--workdir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--scale") {
        opt.scale = std::stod(value);
      } else if (flag == "--workdir") {
        opt.workdir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0) || !(opt.scale > 0.0)) {
    usage("--seconds and --scale must be positive");
  }
  return opt;
}

void print_metrics(const std::vector<Result::Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Result out;
  try {
    if (opt.workload == "fit-batch") {
      run_fit_batch(opt, out);
    } else if (opt.workload == "serve-zipf") {
      run_serve_zipf(opt, out);
    } else if (opt.workload == "churn-uniform") {
      run_churn_uniform(opt, out);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "snaple_perfbench: " << opt.workload << " failed: "
              << e.what() << "\n";
    return 2;
  }
  const auto& metrics = opt.trace ? out.per_layer : out.end_to_end;
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_metrics(metrics);
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
