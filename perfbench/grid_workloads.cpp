// paper_grid, aimix_storm and fabric_grid: whole experiment grids.
//
// Untimed parts of a run (the correctness re-runs) count in `attempted`
// but not in any rate. Round r of workload seed n uses scenario seeds
// n*1000 + r*seeds_per_round onwards, so a run averages over as many
// traces as it completes rounds and the same seed replays the same inputs.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "core/hybrid_scheduler.h"
#include "core/mechanism.h"
#include "exp/runner.h"
#include "exp/shard_io.h"
#include "exp/shard_plan.h"
#include "exp/sharded_runner.h"
#include "metrics/collector.h"
#include "perfbench.h"
#include "sched/policy.h"
#include "sim/simulator.h"
#include "spans.h"
#include "stats.h"
#include "util/subprocess.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

/// Largest resident set, in MB, of this process (`children` false) or of
/// any reaped descendant (`children` true).
double PeakRssMb(bool children) {
  rusage usage{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

using hs::SimSpec;
using hs::SpecResult;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupReps = 51;

struct GridShape {
  std::vector<std::string> mechanisms;
  std::vector<std::string> policies;
  std::string preset;
  std::map<std::string, std::string> overrides;
  int weeks = 1;
  /// Copies of the mechanism x policy grid in one round.
  int replicas = 1;
  /// True: every cell of a round gets its own scenario seed. False: the
  /// cells of one replica share one seed (and one trace).
  bool trace_per_cell = false;
};

// Per-trace cost varies about 2x between seeds (backlog dynamics), so the
// cell grids give every cell its own trace: a round then averages over as
// many traces as it has cells, and a run over a few hundred. aimix_storm
// keeps 1-week cells (the pass is still ~94% of cell time) so a run holds
// enough of them to average out its heavy-tailed cell cost.
GridShape PaperShape() {
  return {hs::MechanismNames(), hs::PolicyNames(), "paper", {}, 13, 1, true};
}

GridShape AimixShape() {
  return {{"baseline", "N&PAA", "CUP&SPAA"}, {"FCFS", "WFP3"}, "aimix",
          {{"ai_frac", "0.5"}}, 1, 8, true};
}

// fabric_grid measures dispatch, not cells: replicas share a trace each,
// the way a seeds sweep does.
GridShape FabricShape() {
  return {hs::MechanismNames(), hs::PolicyNames(), "tiny", {}, 1, 4, false};
}

std::vector<SimSpec> RoundSpecs(const GridShape& shape, std::uint64_t workload_seed,
                                std::size_t round) {
  const std::size_t grid = shape.mechanisms.size() * shape.policies.size();
  const std::size_t replicas = static_cast<std::size_t>(shape.replicas);
  const std::size_t seeds_per_round = shape.trace_per_cell ? grid * replicas : replicas;
  const std::uint64_t first = workload_seed * 1000000 + round * seeds_per_round;
  std::vector<SimSpec> specs;
  for (std::size_t r = 0; r < replicas; ++r) {
    for (const std::string& mechanism : shape.mechanisms) {
      for (const std::string& policy : shape.policies) {
        SimSpec spec;
        spec.mechanism = mechanism;
        spec.policy = policy;
        spec.notice_mix = "W5";
        spec.preset = shape.preset;
        spec.weeks = shape.weeks;
        spec.seed = first + (shape.trace_per_cell ? specs.size() : r);
        spec.overrides = shape.overrides;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

/// Median wall time of building the spec vector and the pool; leaves the
/// last pool and spec vector in place for the run.
double TimedGridSetup(const GridShape& shape, const Options& options,
                      std::unique_ptr<hs::ThreadPool>& pool, std::vector<SimSpec>& specs) {
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    pool.reset();
    const Clock::time_point t0 = Clock::now();
    specs = RoundSpecs(shape, options.seed, 0);
    pool = std::make_unique<hs::ThreadPool>(static_cast<std::size_t>(options.width));
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }
  return Median(setups);
}

struct GridRun {
  std::string csv;  // wall-clock-stripped, canonical order
  std::vector<SpecResult> rows;
  double wall_s = 0.0;
};

/// Every simulation-content field of `rows`, doubles with all 17 digits and
/// the two wall-clock fields left out: the exact comparison the 6-digit CSV
/// cannot make, through none of the library's own formatters.
std::string ExactRows(const std::vector<SpecResult>& rows) {
  std::string out;
  char buf[32];
  for (const SpecResult& row : rows) {
    const hs::SimResult& r = row.result;
    out += row.spec.ToString() + " " + row.trace_name;
    for (const double v :
         {r.avg_turnaround_h, r.rigid_turnaround_h, r.malleable_turnaround_h,
          r.od_turnaround_h, r.avg_wait_h, r.od_instant_rate, r.od_instant_rate_strict,
          r.od_avg_delay_s, r.rigid_preempt_ratio, r.malleable_preempt_ratio,
          r.malleable_shrink_ratio, r.utilization, r.useful_utilization,
          r.allocated_utilization, r.window_utilization, r.lost_node_hours,
          r.setup_node_hours, r.checkpoint_node_hours}) {
      std::snprintf(buf, sizeof buf, " %.17g", v);
      out += buf;
    }
    for (const std::size_t v : {r.jobs_completed, r.jobs_killed, r.od_jobs, r.preemptions,
                                r.failures, r.shrinks, r.expands, r.decisions}) {
      out += " " + std::to_string(v);
    }
    out += " " + std::to_string(r.makespan) + "\n";
  }
  return out;
}

/// True when two runs of the same specs produced the same CSV bytes and the
/// same rows at full precision.
bool SameRows(const GridRun& a, const GridRun& b) {
  return a.csv == b.csv && ExactRows(a.rows) == ExactRows(b.rows);
}

/// The wall-clock-stripped CSV of one grid, captured in memory.
struct CsvCapture {
  std::ostringstream out;
  hs::CsvResultSink csv{out, hs::CsvSinkOptions{false}};
};

/// Checks rows the runner returned; counts missing or implausible ones.
void CheckRows(const std::vector<SimSpec>& specs, const std::vector<SpecResult>& rows,
               const std::string& leg, Report& report) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i >= rows.size() || !(rows[i].spec == specs[i]) ||
        rows[i].result.jobs_completed == 0) {
      ++bad;
    }
  }
  if (bad > 0) report.Fail(leg + ": " + std::to_string(bad) + " wrong rows", bad);
}

/// One grid through the in-process ExperimentRunner, untraced.
GridRun RunInProcess(hs::ThreadPool& pool, const std::vector<SimSpec>& specs,
                     Report& report) {
  report.attempted += specs.size();
  CsvCapture capture;
  hs::MergingResultSink merge(capture.csv, specs.size());
  hs::ExperimentRunner runner(pool);
  GridRun run;
  const Clock::time_point t0 = Clock::now();
  try {
    run.rows = runner.Run(specs, &merge);
    run.wall_s = SecondsBetween(t0, Clock::now());
    CheckRows(specs, run.rows, "in-process", report);
  } catch (const std::exception& e) {
    run.wall_s = SecondsBetween(t0, Clock::now());
    const std::size_t missing = std::max<std::size_t>(merge.MissingIndices().size(), 1);
    report.Fail(std::string("in-process grid: ") + e.what(), missing);
  }
  run.csv = capture.out.str();
  return run;
}

// --- traced assembly ---------------------------------------------------------

/// Per-layer sums over the traced rounds (CPU seconds across pool threads).
struct LayerSums {
  std::mutex mutex;
  double trace_build_s = 0.0, prime_s = 0.0, dispatch_s = 0.0, pass_s = 0.0;
  double run_s = 0.0, finalize_s = 0.0, sink_s = 0.0;
  double trace_jobs = 0.0, events = 0.0, passes = 0.0, effective = 0.0;
  double queue_len_sum = 0.0;
  std::vector<double> cell_s;
  LogHistogram pass_ns;
  std::size_t rounds = 0;
  double traced_wall_s = 0.0, untraced_wall_s = 0.0, busy_den_s = 0.0;
};

/// The benchmark's event handler: forwards to the scheduler exactly as
/// SimulationSession does, timing each call.
class LayerHandler final : public hs::EventHandler {
 public:
  hs::HybridScheduler* sched = nullptr;
  Clock::duration dispatch{};
  Clock::duration pass{};
  std::uint64_t events = 0;
  std::uint64_t passes = 0;
  std::uint64_t effective = 0;
  double queue_len_sum = 0.0;
  LogHistogram pass_ns;

  void HandleEvent(const hs::Event& event, hs::Simulator& sim) override {
    const Clock::time_point t0 = Clock::now();
    sched->HandleEvent(event, sim);
    dispatch += Clock::now() - t0;
    ++events;
  }

  void OnQuiescent(hs::SimTime now, hs::Simulator& sim) override {
    hs::ExecutionEngine& engine = sched->engine();
    const std::uint64_t cluster_epoch = engine.cluster().epoch();
    const std::uint64_t queue_epoch = engine.queue().epoch();
    queue_len_sum += static_cast<double>(engine.queue().size());
    const Clock::time_point t0 = Clock::now();
    sched->OnQuiescent(now, sim);
    const Clock::duration d = Clock::now() - t0;
    pass += d;
    pass_ns.Add(static_cast<double>(std::chrono::nanoseconds(d).count()));
    ++passes;
    if (engine.cluster().epoch() != cluster_epoch || engine.queue().epoch() != queue_epoch) {
      ++effective;
    }
  }
};

double Secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// One cell assembled from public parts, the way SimulationSession's
/// constructor, Run() and Finalize() assemble it.
SpecResult RunTracedCell(const SimSpec& spec, const std::shared_ptr<const hs::Trace>& trace,
                         std::int64_t cell_id, std::int64_t cell_span, SpanRecorder& spans,
                         LayerSums& sums) {
  const hs::HybridConfig config = spec.BuildConfig();
  hs::Collector collector(config.instant_threshold);
  LayerHandler handler;
  hs::Simulator sim(handler);
  hs::HybridScheduler sched(*trace, config, collector, sim);
  handler.sched = &sched;
  const std::string error = config.Validate();
  if (!error.empty()) throw std::invalid_argument("invalid config: " + error);

  const Clock::time_point p0 = Clock::now();
  sched.Prime();
  const Clock::time_point r0 = Clock::now();
  sim.Run();
  const Clock::time_point f0 = Clock::now();
  hs::SimResult result =
      collector.Finalize(trace->num_nodes, sched.engine().cluster().busy_node_seconds());
  result.window_utilization = sched.utilization_tracker().MeanBusyFraction(
      trace->FirstSubmit(), trace->LastSubmit());
  const Clock::time_point f1 = Clock::now();

  spans.Add("core.prime", cell_id, cell_span, p0, r0, SecondsBetween(p0, r0));
  const std::int64_t run_span =
      spans.Add("sim.run", cell_id, cell_span, r0, f0, SecondsBetween(r0, f0));
  spans.Add("core.event_dispatch", cell_id, run_span, r0, f0, Secs(handler.dispatch),
            handler.events);
  spans.Add("sched.pass", cell_id, run_span, r0, f0, Secs(handler.pass), handler.passes);
  spans.Add("metrics.finalize", cell_id, cell_span, f0, f1, SecondsBetween(f0, f1));

  std::lock_guard<std::mutex> lock(sums.mutex);
  sums.prime_s += SecondsBetween(p0, r0);
  sums.run_s += SecondsBetween(r0, f0);
  sums.dispatch_s += Secs(handler.dispatch);
  sums.pass_s += Secs(handler.pass);
  sums.finalize_s += SecondsBetween(f0, f1);
  sums.events += static_cast<double>(handler.events);
  sums.passes += static_cast<double>(handler.passes);
  sums.effective += static_cast<double>(handler.effective);
  sums.queue_len_sum += handler.queue_len_sum;
  sums.pass_ns.Merge(handler.pass_ns);
  return SpecResult{spec, trace->name, result};
}

/// One grid through the traced assembly on the same pool: traces built once
/// per distinct ScenarioKey() in parallel, then the cells, rows streamed
/// through MergingResultSink -> CsvResultSink.
GridRun RunTraced(hs::ThreadPool& pool, const std::vector<SimSpec>& specs,
                  std::int64_t round_id, SpanRecorder& spans, LayerSums& sums,
                  Report& report) {
  report.attempted += specs.size();
  const Clock::time_point t0 = Clock::now();
  const std::int64_t round_span = spans.Open("exp.grid", round_id, -1);

  std::map<std::string, std::size_t> trace_index;
  std::vector<const SimSpec*> trace_specs;
  std::vector<std::size_t> spec_to_trace(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto [it, inserted] = trace_index.emplace(specs[i].ScenarioKey(), trace_specs.size());
    if (inserted) trace_specs.push_back(&specs[i]);
    spec_to_trace[i] = it->second;
  }
  std::vector<std::shared_ptr<const hs::Trace>> traces(trace_specs.size());
  pool.ParallelFor(trace_specs.size(), [&](std::size_t t) {
    const Clock::time_point b0 = Clock::now();
    try {
      traces[t] = std::make_shared<const hs::Trace>(trace_specs[t]->BuildTrace());
    } catch (const std::exception&) {
      return;  // the cells that need it fail below
    }
    const Clock::time_point b1 = Clock::now();
    spans.Add("workload.trace_build", static_cast<std::int64_t>(t), round_span, b0, b1,
              SecondsBetween(b0, b1));
    std::lock_guard<std::mutex> lock(sums.mutex);
    sums.trace_build_s += SecondsBetween(b0, b1);
    sums.trace_jobs += static_cast<double>(traces[t]->jobs.size());
  });

  CsvCapture capture;
  hs::MergingResultSink merge(capture.csv, specs.size());
  std::mutex sink_mutex;
  std::vector<std::string> errors(specs.size());
  std::vector<double> cell_s(specs.size(), 0.0);
  std::vector<SpecResult> rows(specs.size());
  pool.ParallelFor(specs.size(), [&](std::size_t i) {
    const std::int64_t cell_id = round_id * 100000 + static_cast<std::int64_t>(i);
    const std::int64_t cell_span = spans.Open("exp.cell", cell_id, round_span);
    const Clock::time_point c0 = Clock::now();
    SpecResult row;
    try {
      const auto& trace = traces[spec_to_trace[i]];
      if (trace == nullptr) throw std::runtime_error("trace build failed");
      row = RunTracedCell(specs[i], trace, cell_id, cell_span, spans, sums);
    } catch (const std::exception& e) {
      errors[i] = e.what();
      spans.Close(cell_span);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(sink_mutex);
      const Clock::time_point s0 = Clock::now();
      merge.OnResult(i, row);
      const Clock::time_point s1 = Clock::now();
      spans.Add("exp.sink", cell_id, cell_span, s0, s1, SecondsBetween(s0, s1));
      std::lock_guard<std::mutex> sums_lock(sums.mutex);
      sums.sink_s += SecondsBetween(s0, s1);
    }
    cell_s[i] = SecondsBetween(c0, Clock::now());
    spans.Close(cell_span);
    rows[i] = std::move(row);
  });
  spans.Close(round_span);

  GridRun run;
  run.wall_s = SecondsBetween(t0, Clock::now());
  run.csv = capture.out.str();
  run.rows = std::move(rows);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!errors[i].empty()) report.Fail("traced cell " + specs[i].ToString() + ": " + errors[i]);
  }
  std::lock_guard<std::mutex> lock(sums.mutex);
  sums.cell_s.insert(sums.cell_s.end(), cell_s.begin(), cell_s.end());
  ++sums.rounds;
  sums.traced_wall_s += run.wall_s;
  sums.busy_den_s += run.wall_s * static_cast<double>(pool.size());
  return run;
}

void ReportCellLayers(const LayerSums& sums, Report& report) {
  const double rounds = std::max<double>(1.0, static_cast<double>(sums.rounds));
  double cell_total = 0.0;
  for (const double s : sums.cell_s) cell_total += s;
  const std::size_t cells = sums.cell_s.size();
  report.Layer("workload.trace_build_s", sums.trace_build_s / rounds, "s");
  report.Layer("workload.trace_jobs", sums.trace_jobs / rounds, "count");
  report.Layer("core.prime_s", sums.prime_s / rounds, "s");
  report.Layer("core.event_dispatch_s", sums.dispatch_s / rounds, "s");
  report.Layer("sim.events", sums.events / rounds, "count");
  report.Layer("sched.pass_s", sums.pass_s / rounds, "s");
  report.Layer("sched.passes", sums.passes / rounds, "count");
  report.Layer("sched.pass_us_p50", sums.pass_ns.Percentile(50.0) / 1e3, "us",
               sums.pass_ns.count());
  report.Layer("sched.pass_us_p99", sums.pass_ns.Percentile(99.0) / 1e3, "us",
               sums.pass_ns.count());
  report.Layer("sched.pass_effective_ratio",
               sums.passes > 0 ? sums.effective / sums.passes : 0.0, "ratio");
  report.Layer("sched.queue_len_mean", sums.passes > 0 ? sums.queue_len_sum / sums.passes : 0.0,
               "count");
  report.Layer("sim.loop_self_s", (sums.run_s - sums.dispatch_s - sums.pass_s) / rounds, "s");
  report.Layer("metrics.finalize_s", sums.finalize_s / rounds, "s");
  report.Layer("exp.sink_s", sums.sink_s / rounds, "s");
  report.Layer("exp.cell_s_p50", Median(sums.cell_s), "s", cells);
  report.Layer("exp.cell_s_max",
               cells > 0 ? *std::max_element(sums.cell_s.begin(), sums.cell_s.end()) : 0.0, "s",
               cells);
  report.Layer("exp.pool_busy_frac", sums.busy_den_s > 0 ? cell_total / sums.busy_den_s : 0.0,
               "ratio");
  report.Layer("trace.overhead_frac",
               sums.untraced_wall_s > 0 ? sums.traced_wall_s / sums.untraced_wall_s - 1.0 : 0.0,
               "ratio", sums.rounds);
}

/// Checks the default-seed grid against the recorded digest.
void CheckGridDigest(const GridShape& shape, const Options& options, hs::ThreadPool& pool,
                     const std::string& round0_csv, Report& report) {
  const std::string default_csv =
      options.seed == kDefaultSeed
          ? round0_csv
          : RunInProcess(pool, RoundSpecs(shape, kDefaultSeed, 0), report).csv;
  const std::string digest = Fnv1aHex(default_csv);
  std::printf("default-seed grid digest: %s\n", digest.c_str());
  if (!options.expect_digest.empty() && digest != options.expect_digest) {
    report.Fail("default-seed grid digest " + digest + " != recorded " +
                options.expect_digest);
  }
}

Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

void RunCellGrid(const GridShape& shape, const Options& options, Report& report) {
  std::unique_ptr<hs::ThreadPool> pool;
  std::vector<SimSpec> specs;
  const double setup_s = TimedGridSetup(shape, options, pool, specs);
  // Untimed warm-up: a process's first grid pays first-touch allocation
  // (up to 2x slower). Its rows are the reference the timed round 0 must
  // reproduce byte for byte.
  const GridRun warm = RunInProcess(*pool, specs, report);
  const Clock::time_point deadline = DeadlineAfter(options.seconds);

  if (!options.trace) {
    std::vector<double> round_s;
    std::size_t cells = 0;
    for (std::size_t r = 0;; ++r) {
      if (r > 0) specs = RoundSpecs(shape, options.seed, r);
      const GridRun run = RunInProcess(*pool, specs, report);
      if (r == 0 && !SameRows(run, warm)) report.Fail("round 0 differs from its warm-up run");
      round_s.push_back(run.wall_s);
      cells += specs.size();
      if (Clock::now() >= deadline) break;
    }
    double wall = 0.0;
    for (const double s : round_s) wall += s;
    const double cells_per_s = static_cast<double>(cells) / wall;
    CheckGridDigest(shape, options, *pool, warm.csv, report);
    report.Gate("setup_s", setup_s, "s", kSetupReps);
    report.Gate("ops_per_s", cells_per_s, "1/s", round_s.size());
    report.Gate("op_p50_ms", Median(round_s) * 1e3, "ms", round_s.size());
    report.Gate("peak_rss_mb", PeakRssMb(false), "MB", 1);
    report.Detail("setup_s", setup_s, "s", kSetupReps);
    report.Detail("cells_per_s", cells_per_s, "1/s", cells);
    report.Detail("failed_ratio",
                  static_cast<double>(report.failed) / static_cast<double>(report.attempted),
                  "ratio", report.attempted);
    report.Detail("peak_rss_mb", PeakRssMb(false), "MB", 1);
    return;
  }

  // Traced run: each round runs untraced and traced on the same specs,
  // alternating which goes first.
  SpanRecorder spans;
  LayerSums sums;
  for (std::size_t r = 0;; ++r) {
    if (r > 0) specs = RoundSpecs(shape, options.seed, r);
    GridRun plain;
    GridRun traced;
    if (r % 2 == 0) plain = RunInProcess(*pool, specs, report);
    traced = RunTraced(*pool, specs, static_cast<std::int64_t>(r), spans, sums, report);
    if (r % 2 == 1) plain = RunInProcess(*pool, specs, report);
    sums.untraced_wall_s += plain.wall_s;
    if (!SameRows(traced, plain)) {
      report.Fail("round " + std::to_string(r) + ": traced rows differ from untraced rows");
    }
    if (r == 0 && !SameRows(plain, warm)) report.Fail("round 0 differs from its warm-up run");
    if (Clock::now() >= deadline) break;
  }
  ReportCellLayers(sums, report);
  report.layer_table = FormatSelfTimeTable(spans);
  if (!options.spans_path.empty()) spans.WriteJsonl(options.spans_path);
  CheckGridDigest(shape, options, *pool, warm.csv, report);
}

// --- fabric_grid ---------------------------------------------------------------

constexpr std::size_t kAgents = 2;
constexpr std::size_t kTcpUnits = 24;

/// Two loopback hs_agent daemons (one worker thread each).
class Agents {
 public:
  Agents(const Options& options, const std::string& dir) {
    std::filesystem::create_directories(dir);
    for (std::size_t a = 0; a < kAgents; ++a) {
      const std::string stem = dir + "/agent" + std::to_string(a);
      port_files_.push_back(stem + ".port");
      std::filesystem::remove(port_files_.back());
      procs_.push_back(hs::Subprocess::Spawn(
          {options.bin_dir + "/hs_agent", "--port=0", "--port-file=" + port_files_.back(),
           "--threads=1", "--work-dir=" + stem + ".work",
           "--worker-bin=" + options.bin_dir + "/hs_worker"},
          stem + ".out", stem + ".err"));
    }
  }
  Agents(const Agents&) = delete;
  Agents& operator=(const Agents&) = delete;
  ~Agents() { Stop(); }

  /// Waits until every agent published its port; returns the host list.
  std::string WaitReady() {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    std::string hosts;
    for (std::size_t a = 0; a < kAgents; ++a) {
      while (!std::filesystem::exists(port_files_[a])) {
        if (procs_[a].Poll() || Clock::now() > deadline) {
          throw std::runtime_error("hs_agent " + std::to_string(a) + " did not start");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      std::ifstream in(port_files_[a]);
      int port = 0;
      in >> port;
      if (!hosts.empty()) hosts += ",";
      hosts += "127.0.0.1:" + std::to_string(port);
    }
    return hosts;
  }

  void Stop() {
    for (hs::Subprocess& p : procs_) {
      if (p.running()) p.Kill(SIGTERM);
      p.Wait();
    }
  }

 private:
  std::vector<std::string> port_files_;
  std::vector<hs::Subprocess> procs_;
};

/// Sink that stamps each row's arrival (the legs' row timeline).
class StampingSink final : public hs::ResultSink {
 public:
  explicit StampingSink(hs::ResultSink& inner) : inner_(inner) {}
  void OnResult(std::size_t spec_index, const SpecResult& row) override {
    stamps.push_back(Clock::now());
    inner_.OnResult(spec_index, row);
  }
  std::vector<Clock::time_point> stamps;

 private:
  hs::ResultSink& inner_;
};

struct LegRun {
  GridRun grid;
  Clock::time_point start;
  std::vector<Clock::time_point> stamps;
  hs::FabricReport fabric;
};

LegRun RunLeg(const std::vector<SimSpec>& specs, const std::string& hosts,
              const std::string& work_dir, const Options& options, Report& report) {
  report.attempted += specs.size();
  hs::ShardedRunnerOptions sharded;
  sharded.shards = hosts.empty() ? static_cast<std::size_t>(options.width) : kTcpUnits;
  sharded.worker_threads = 1;
  sharded.work_dir = work_dir;
  sharded.hosts = hosts;
  sharded.worker_cmd = options.bin_dir + "/hs_worker";
  hs::ShardedRunner runner(sharded);
  CsvCapture capture;
  StampingSink stamping(capture.csv);
  LegRun leg;
  const std::string name = hosts.empty() ? "local leg" : "tcp leg";
  leg.start = Clock::now();
  try {
    leg.grid.rows = runner.Run(specs, &stamping);
    leg.grid.wall_s = SecondsBetween(leg.start, Clock::now());
    CheckRows(specs, leg.grid.rows, name, report);
  } catch (const std::exception& e) {
    leg.grid.wall_s = SecondsBetween(leg.start, Clock::now());
    const std::size_t missing = specs.size() - std::min(specs.size(), stamping.stamps.size());
    report.Fail(name + ": " + e.what(), std::max<std::size_t>(missing, 1));
  }
  leg.fabric = runner.last_report();
  const std::size_t unmerged = leg.fabric.wasted_cells();
  if (unmerged > 0) {
    report.Fail(name + ": " + std::to_string(unmerged) + " cells scattered but not merged",
                unmerged);
  }
  leg.grid.csv = capture.out.str();
  leg.stamps = std::move(stamping.stamps);
  std::error_code ignored;
  std::filesystem::remove_all(work_dir, ignored);
  return leg;
}

struct FabricSums {
  double ref_s = 0.0, local_s = 0.0, tcp_s = 0.0;
  std::size_t cells = 0, rounds = 0;
  std::vector<double> local_round_s;
  double plan_s = 0.0, io_s = 0.0;
  std::vector<double> first_row_ms, row_gap_ms;
  double launched = 0.0, conn_failures = 0.0, retries = 0.0, scattered = 0.0, merged = 0.0;
};

void AddLegTimeline(const LegRun& leg, FabricSums& sums) {
  if (leg.stamps.empty()) return;
  sums.first_row_ms.push_back(SecondsBetween(leg.start, leg.stamps.front()) * 1e3);
  for (std::size_t i = 1; i < leg.stamps.size(); ++i) {
    sums.row_gap_ms.push_back(SecondsBetween(leg.stamps[i - 1], leg.stamps[i]) * 1e3);
  }
  sums.launched += static_cast<double>(leg.fabric.workers_launched);
  sums.conn_failures += static_cast<double>(leg.fabric.conn_failures);
  sums.retries += static_cast<double>(leg.fabric.retries);
  sums.scattered += static_cast<double>(leg.fabric.cells_scattered);
  sums.merged += static_cast<double>(leg.fabric.rows_merged);
}

/// Times the shard wire formats over the whole grid: every spec through
/// WriteShardFile/ReadShardFile and every row through
/// WriteWorkerRow/ParseWorkerRow.
double TimeShardIo(const std::vector<SimSpec>& specs, const std::vector<SpecResult>& rows,
                   Report& report) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::size_t> indices(specs.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  std::stringstream shard;
  hs::WriteShardFile(shard, indices, specs);
  const std::vector<hs::IndexedSpec> back = hs::ReadShardFile(shard);
  std::size_t bad = back.size() == specs.size() ? 0 : 1;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::ostringstream line;
    hs::WriteWorkerRow(line, i, rows[i]);
    std::string text = line.str();
    if (!text.empty() && text.back() == '\n') text.pop_back();
    if (hs::ParseWorkerRow(text).index != i) ++bad;
  }
  const double s = SecondsBetween(t0, Clock::now());
  if (bad > 0) report.Fail("shard wire round trip lost entries", bad);
  return s;
}

void RunFabric(const Options& options, Report& report) {
  const GridShape shape = FabricShape();
  const std::string dir = options.work_dir + "/fabric";

  // Setup: agent spawn until both port files exist (median of several),
  // plus the spec vector and the in-process reference pool.
  std::vector<double> setups;
  std::unique_ptr<Agents> agents;
  std::string hosts;
  for (int i = 0; i < 5; ++i) {
    agents.reset();
    const Clock::time_point t0 = Clock::now();
    agents = std::make_unique<Agents>(options, dir + "/agents");
    hosts = agents->WaitReady();
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }
  std::unique_ptr<hs::ThreadPool> pool;
  std::vector<SimSpec> specs;
  const double grid_setup_s = TimedGridSetup(shape, options, pool, specs);
  const double setup_s = Median(setups) + grid_setup_s;

  const Clock::time_point deadline = DeadlineAfter(options.seconds);
  FabricSums sums;
  SpanRecorder spans;
  LayerSums cell_sums;
  for (std::size_t r = 0;; ++r) {
    if (r > 0) specs = RoundSpecs(shape, options.seed, r);
    const std::int64_t round_id = static_cast<std::int64_t>(r);
    const GridRun ref = RunInProcess(*pool, specs, report);
    sums.ref_s += ref.wall_s;
    if (options.trace) {
      const GridRun traced = RunTraced(*pool, specs, round_id, spans, cell_sums, report);
      cell_sums.untraced_wall_s += ref.wall_s;
      if (!SameRows(traced, ref)) report.Fail("traced rows differ from untraced rows");
      const Clock::time_point p0 = Clock::now();
      const hs::ShardPlan plan = hs::MakeShardPlan(
          specs, static_cast<std::size_t>(options.width), hs::ShardStrategy::kCostWeighted);
      const Clock::time_point p1 = Clock::now();
      spans.Add("exp.shard_plan", round_id, -1, p0, p1, SecondsBetween(p0, p1));
      sums.plan_s += SecondsBetween(p0, p1);
      if (plan.spec_count != specs.size()) report.Fail("shard plan lost specs");
      const Clock::time_point io0 = Clock::now();
      const double io_s = TimeShardIo(specs, ref.rows, report);
      spans.Add("exp.shard_io", round_id, -1, io0, Clock::now(), io_s);
      sums.io_s += io_s;
    }
    const auto run_leg = [&](const char* span_name, const std::string& leg_hosts,
                             const std::string& leg_dir) {
      const std::int64_t span = options.trace ? spans.Open(span_name, round_id, -1) : -1;
      LegRun leg = RunLeg(specs, leg_hosts, leg_dir, options, report);
      if (options.trace) spans.Close(span);
      if (!SameRows(leg.grid, ref)) {
        report.Fail("round " + std::to_string(r) + ": " + span_name +
                        " rows differ from the in-process rows",
                    specs.size());
      }
      return leg;
    };
    const LegRun local = run_leg("fabric.local_leg", "", dir + "/local");
    const LegRun tcp = run_leg("fabric.tcp_leg", hosts, dir + "/tcp");
    sums.local_s += local.grid.wall_s;
    sums.tcp_s += tcp.grid.wall_s;
    sums.local_round_s.push_back(local.grid.wall_s);
    sums.cells += specs.size();
    ++sums.rounds;
    AddLegTimeline(local, sums);
    AddLegTimeline(tcp, sums);
    if (Clock::now() >= deadline) break;
  }
  agents->Stop();

  const double cells = static_cast<double>(sums.cells);
  const double rounds = static_cast<double>(sums.rounds);
  if (!options.trace) {
    report.Gate("setup_s", setup_s, "s", setups.size());
    report.Gate("ops_per_s", cells / sums.local_s, "1/s", sums.rounds);
    report.Gate("op_p50_ms", Median(sums.local_round_s) * 1e3, "ms", sums.rounds);
    report.Gate("peak_rss_mb", PeakRssMb(true), "MB", 1);
    report.Detail("setup_s", setup_s, "s", setups.size());
    report.Detail("cells_per_s", cells / sums.local_s, "1/s", sums.cells);
    report.Detail("tcp_cells_per_s", cells / sums.tcp_s, "1/s", sums.cells);
    report.Detail("failed_ratio",
                  static_cast<double>(report.failed) / static_cast<double>(report.attempted),
                  "ratio", report.attempted);
    report.Detail("peak_rss_mb", PeakRssMb(true), "MB", 1);
    return;
  }
  ReportCellLayers(cell_sums, report);
  report.Layer("exp.shard_plan_s", sums.plan_s / rounds, "s", sums.rounds);
  report.Layer("exp.shard_io_s", sums.io_s / rounds, "s", sums.rounds);
  report.Layer("fabric.local_overhead_ms_per_cell", (sums.local_s - sums.ref_s) / cells * 1e3,
               "ms", sums.rounds);
  report.Layer("fabric.tcp_overhead_ms_per_cell", (sums.tcp_s - sums.ref_s) / cells * 1e3, "ms",
               sums.rounds);
  report.Layer("fabric.first_row_ms", Median(sums.first_row_ms), "ms", sums.first_row_ms.size());
  report.Layer("fabric.row_gap_ms_p50", Percentile(sums.row_gap_ms, 50.0), "ms",
               sums.row_gap_ms.size());
  report.Layer("fabric.row_gap_ms_p99", Percentile(sums.row_gap_ms, 99.0), "ms",
               sums.row_gap_ms.size());
  report.Layer("fabric.workers_launched", sums.launched / rounds, "count", sums.rounds);
  report.Layer("fabric.conn_failures", sums.conn_failures / rounds, "count", sums.rounds);
  report.Layer("fabric.retries", sums.retries / rounds, "count", sums.rounds);
  report.Layer("fabric.useful_ratio", sums.scattered > 0 ? sums.merged / sums.scattered : 0.0,
               "ratio", sums.rounds);
  report.layer_table = FormatSelfTimeTable(spans);
  if (!options.spans_path.empty()) spans.WriteJsonl(options.spans_path);
}

}  // namespace

void RunPaperGrid(const Options& options, Report& report) {
  RunCellGrid(PaperShape(), options, report);
}

void RunAimixStorm(const Options& options, Report& report) {
  RunCellGrid(AimixShape(), options, report);
}

void RunFabricGrid(const Options& options, Report& report) { RunFabric(options, report); }

}  // namespace perfbench
