// The repo benchmark's binary. perfbench/run.py builds it and runs
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--source-digest HEX] [--spans-out PATH]
// It prints one line per metric, a stamp line, and last a JSON result line
// with `correct`, `attempted`, `failed` and `metrics`. It exits 1 when any
// correctness check failed and 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"
#include "nn/matrix.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "single_cold|fleet_open|threads_shared --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--source-digest HEX] "
               "[--spans-out PATH]\n",
               why);
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string git_sha = "unknown", source_digest = "unknown", spans_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && ctx.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      ctx.traced = std::strcmp(value, "1") == 0;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  void (*run)(const RunContext&, Report*) = nullptr;
  if (ctx.workload == "single_cold") run = RunSingleCold;
  if (ctx.workload == "fleet_open") run = RunFleetOpen;
  if (ctx.workload == "threads_shared") run = RunThreadsShared;
  if (run == nullptr) Usage("unknown workload");

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  ctx.threads = nproc > 0 ? static_cast<unsigned>(nproc) : 1;
  SpanRecorder spans;
  if (ctx.traced) ctx.spans = &spans;

  Report report;
  run(ctx, &report);
  Conform(&report, ctx.traced ? LayerMetrics() : EndToEndMetrics(),
          /*zero_missing=*/ctx.traced);
  if (report.attempted == 0) report.Fail("no operation was attempted");
  if (ctx.traced && !spans_out.empty() && !spans.WriteChromeTrace(spans_out)) {
    report.Fail("cannot write spans to " + spans_out);
  }

  // 0 on every healthy run, so not a metric the result line can bound.
  report.Note("failed_frac",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<uint64_t>(report.attempted, 1)),
              "ratio", report.attempted);
  for (const auto* list : {&report.metrics(), &report.notes()}) {
    for (const Report::Metric& m : *list) {
      std::printf("%-44s %16.6f %-12s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.samples > 0) std::printf(" n=%zu", m.samples);
      std::printf(list == &report.notes() ? " (not in the result)\n" : "\n");
    }
  }
  for (const std::string& f : report.failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  std::printf(
      "{\"stamp\": {\"git_sha\": %s, \"source_digest\": %s, \"nproc\": %ld, "
      "\"hardware_concurrency\": %u, \"simd_kernels\": %s, \"build_type\": "
      "%s, \"workload\": %s, \"seed\": %" PRIu64
      ", \"seconds\": %g, \"traced\": %s, \"virtual_digest\": \"%016" PRIx64
      "\"}}\n",
      JsonString(git_sha).c_str(), JsonString(source_digest).c_str(), nproc,
      std::thread::hardware_concurrency(),
      pythia::nn::SimdKernelsEnabled() ? "true" : "false",
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(ctx.workload).c_str(), ctx.seed, ctx.seconds,
      ctx.traced ? "true" : "false", report.virtual_digest);

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Report::Metric& m = report.metrics()[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
