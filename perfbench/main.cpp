// hs_perfbench: the repository benchmark (build and run it through run.py).
//
//   hs_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                --work-dir=DIR [--spans=FILE] [--expect-digest=HEX]
//
// Runs one workload for S seconds, checks its outputs, prints a table of
// every metric with its unit and sample count, and ends with one JSON line:
// the gated end-to-end metrics (--trace=0) or the per-layer metrics of the
// traced run (--trace=1). Exit status: 0 when every output was correct,
// 1 when any was wrong, 2 when the run could not be made at all.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "perfbench.h"
#include "util/subprocess.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

/// Gated end-to-end metrics: every workload reports each of them.
const std::vector<std::pair<std::string, std::string>>& GatedMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kGated = {
      {"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"peak_rss_mb", "MB"}};
  return kGated;
}

/// Per-layer metrics of the traced run, in report order. A workload that
/// does not exercise a layer reports it as 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"workload.trace_build_s", "s"},
      {"workload.trace_jobs", "count"},
      {"core.prime_s", "s"},
      {"core.event_dispatch_s", "s"},
      {"sim.events", "count"},
      {"sched.pass_s", "s"},
      {"sched.passes", "count"},
      {"sched.pass_us_p50", "us"},
      {"sched.pass_us_p99", "us"},
      {"sched.pass_effective_ratio", "ratio"},
      {"sched.queue_len_mean", "count"},
      {"sim.loop_self_s", "s"},
      {"metrics.finalize_s", "s"},
      {"exp.sink_s", "s"},
      {"exp.cell_s_p50", "s"},
      {"exp.cell_s_max", "s"},
      {"exp.pool_busy_frac", "ratio"},
      {"exp.shard_plan_s", "s"},
      {"exp.shard_io_s", "s"},
      {"fabric.local_overhead_ms_per_cell", "ms"},
      {"fabric.tcp_overhead_ms_per_cell", "ms"},
      {"fabric.first_row_ms", "ms"},
      {"fabric.row_gap_ms_p50", "ms"},
      {"fabric.row_gap_ms_p99", "ms"},
      {"fabric.workers_launched", "count"},
      {"fabric.conn_failures", "count"},
      {"fabric.retries", "count"},
      {"fabric.useful_ratio", "ratio"},
      {"service.dispatch_whatif_ms_p50", "ms"},
      {"service.dispatch_replay_whatif_ms_p50", "ms"},
      {"service.dispatch_mutate_ms_p50", "ms"},
      {"service.dispatch_query_ms_p50", "ms"},
      {"service.wire_whatif_ms", "ms"},
      {"service.wire_query_ms", "ms"},
      {"exp.fork_ms_p50", "ms"},
      {"service.replay_ms_p50", "ms"},
      {"service.parse_us_p50", "us"},
      {"service.reply_lines_mean", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return kLayers;
}

/// `--key=value` arguments; unknown keys are an error.
std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  static const std::set<std::string> kKnown = {"workload", "seed",     "seconds",
                                               "trace",    "work-dir", "spans",
                                               "expect-digest"};
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    if (kKnown.count(key) == 0) throw std::invalid_argument("unknown flag --" + key);
    args[key] = arg.substr(eq + 1);
  }
  return args;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6g %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
}

/// The result line's metric set: `names` in order, each found in `have`
/// (or 0 when `zero_fill`); throws when a required one is missing.
std::vector<Metric> Select(const std::vector<std::pair<std::string, std::string>>& names,
                           const std::vector<Metric>& have, bool zero_fill) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : names) {
    const auto it = std::find_if(have.begin(), have.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == have.end()) {
      if (!zero_fill) throw std::logic_error("workload did not report " + name);
      out.push_back({name, 0.0, unit, 0});
      continue;
    }
    if (it->unit != unit || !std::isfinite(it->value)) {
      throw std::logic_error("metric " + name + " has unit '" + it->unit +
                             "' or a non-finite value");
    }
    out.push_back(*it);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  Report report;
  try {
    const auto args = ParseArgs(argc, argv);
    const auto get = [&](const std::string& key, const std::string& def) {
      const auto it = args.find(key);
      return it == args.end() ? def : it->second;
    };
    options.workload = get("workload", "");
    options.seed = std::stoull(get("seed", "1"));
    options.seconds = std::stod(get("seconds", "10"));
    options.trace = get("trace", "0") == "1";
    options.work_dir = get("work-dir", "");
    options.spans_path = get("spans", "");
    options.expect_digest = get("expect-digest", "");
    options.bin_dir = hs::SelfExeDir();
    options.width = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    if (options.work_dir.empty() || options.bin_dir.empty() || options.seconds <= 0) {
      throw std::invalid_argument("--work-dir and a positive --seconds are required");
    }
    std::filesystem::create_directories(options.work_dir);

    std::printf("=== hs_perfbench workload=%s seed=%llu seconds=%g trace=%d width=%d\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, options.width);
    if (options.workload == "paper_grid") {
      perfbench::RunPaperGrid(options, report);
    } else if (options.workload == "aimix_storm") {
      perfbench::RunAimixStorm(options, report);
    } else if (options.workload == "fabric_grid") {
      perfbench::RunFabricGrid(options, report);
    } else if (options.workload == "service_mix") {
      perfbench::RunServiceMix(options, report);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "' (paper_grid, aimix_storm, fabric_grid, service_mix)");
    }

    const std::vector<Metric> result =
        options.trace ? Select(LayerMetrics(), report.layers, /*zero_fill=*/true)
                      : Select(GatedMetrics(), report.gated, /*zero_fill=*/false);
    if (options.trace) {
      PrintTable("per-layer metrics (traced run):", result);
      std::printf("self time by layer:\n%s", report.layer_table.c_str());
    } else {
      PrintTable("end-to-end metrics:", report.detail);
      PrintTable("gated end-to-end metrics:", result);
    }
    for (const std::string& error : report.errors) std::printf("FAILED: %s\n", error.c_str());

    const bool correct = report.failed == 0 && report.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (std::size_t i = 0; i < result.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  result[i].name.c_str(), result[i].value, result[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "hs_perfbench: %s\n", e.what());
    return 2;
  }
}
