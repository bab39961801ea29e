// Shared types of the repository benchmark (hs_perfbench).
//
// A workload runs for Options::seconds and fills a Report: the gated
// end-to-end metrics (BENCHMARK.json "end_to_end", the same four on every
// workload), the workload's own end-to-end detail metrics (printed in the
// table with sample counts, not gated), and — in the traced run — the
// per-layer metrics (BENCHMARK.json "per_layer").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory of the benchmark binary; hs_worker, hs_agent and hs_server
  /// sit next to it.
  std::string bin_dir;
  /// Scratch directory for shard files, agent work dirs, port files and
  /// snapshots (inside the checkout).
  std::string work_dir;
  /// Where the traced run writes its span dump (empty: not written).
  std::string spans_path;
  /// Recorded digest of the default-seed grid CSV (paper_grid, aimix_storm);
  /// empty skips that check and only prints the digest.
  std::string expect_digest;
  /// Pool width and local shard count: min(4, nproc).
  int width = 4;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> gated;
  std::vector<Metric> detail;
  std::vector<Metric> layers;
  /// Self-time table of the traced run (already formatted).
  std::string layer_table;

  void Fail(const std::string& why, std::uint64_t count = 1) {
    failed += count;
    if (errors.size() < 20) errors.push_back(why);
  }
  void Gate(const std::string& name, double value, const std::string& unit,
            std::size_t samples) {
    gated.push_back({name, value, unit, samples});
  }
  void Detail(const std::string& name, double value, const std::string& unit,
              std::size_t samples) {
    detail.push_back({name, value, unit, samples});
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 0) {
    layers.push_back({name, value, unit, samples});
  }
};

/// The grid workloads (grid_workloads.cpp).
void RunPaperGrid(const Options& options, Report& report);
void RunAimixStorm(const Options& options, Report& report);
void RunFabricGrid(const Options& options, Report& report);

/// The service workload (service_workload.cpp).
void RunServiceMix(const Options& options, Report& report);

}  // namespace perfbench
