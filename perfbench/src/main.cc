// perfbench_driver --workload <serve_read|serve_write|paper_embedded>
//                  --seed <n> --seconds <n> --trace <0|1>
//                  [--short] [--trace-dir <dir>]
//
// Runs one workload and prints a summary followed by one line
// `PERFBENCH_RESULT {...}` holding every metric, the per-class counts and
// whether every answer was correct. Exit status: 0 correct, 1 a check
// failed, 2 bad arguments or set-up failure. perfbench/run.py builds this
// binary and turns its result line into the benchmark's output.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (a != flag || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--workload")) {
      opts.workload = v;
    } else if (const char* v = value("--seed")) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      opts.seconds = std::atoi(v);
    } else if (const char* v = value("--trace")) {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (const char* v = value("--trace-dir")) {
      opts.trace_dir = v;
    } else if (a == "--short") {
      opts.quick = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 2;
    }
  }
  if (opts.seconds < 1) {
    std::fprintf(stderr, "--seconds must be at least 1\n");
    return 2;
  }
  if (opts.workload == "serve_read" || opts.workload == "serve_write") {
    return perfbench::RunServed(opts);
  }
  if (opts.workload == "paper_embedded") return perfbench::RunEmbedded(opts);
  std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
  return 2;
}
