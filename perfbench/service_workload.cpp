// service_mix: the real hs_server on a preset=paper session, driven over
// loopback TCP by two closed-loop clients (each waits for its reply before
// sending the next request).
//
//   writer  advance by=D, submit ...               (exclusive session lock)
//   reader  whatif mechanisms=<live> ..., query-metrics, and every
//           kReplayEvery-th round whatif mechanisms=all (shared lock)
//
// A barrier closes every round, so the virtual-time trajectory — and with
// it the replay cost — does not depend on how fast either client runs.
// Every kEpisodeRounds rounds the writer restores the post-warm-up
// snapshot, so a faster server replays more episodes, not longer ones.
// A run serves kSessions sessions in turn, each on its own machine trace:
// what-if and replay cost vary with the trace, and a run covers several.
#include <atomic>
#include <barrier>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "exp/sim_spec.h"
#include "perfbench.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service_session.h"
#include "spans.h"
#include "stats.h"
#include "util/socket.h"
#include "util/subprocess.h"

namespace perfbench {
namespace {

constexpr const char* kLiveMechanism = "CUP&SPAA";
constexpr int kWeeks = 13;
constexpr std::int64_t kWarmupTo = 7 * 86400;  // one simulated week in
constexpr std::int64_t kAdvanceBy = 2 * 3600;
constexpr int kEpisodeRounds = 40;
constexpr int kReplayEvery = 8;
constexpr std::size_t kHeadroom = kEpisodeRounds + 8;
constexpr int kSessions = 4;
constexpr double kReplyTimeoutS = 60.0;

enum class Kind { kWhatIf, kReplayWhatIf, kMutate, kQuery, kRestore };
constexpr int kKinds = 5;
const char* const kKindNames[kKinds] = {"whatif", "replay_whatif", "mutate", "query",
                                        "restore"};

struct Line {
  Kind kind;
  std::string text;
};

std::string SessionSpec(std::uint64_t seed) {
  hs::SimSpec spec;
  spec.mechanism = kLiveMechanism;
  spec.policy = "FCFS";
  spec.notice_mix = "W5";
  spec.preset = "paper";
  spec.weeks = kWeeks;
  spec.seed = seed;
  return spec.ToString();
}

/// The deterministic request stream: round r's writer and reader lines.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::string snapshot_path)
      : seed_(seed), snapshot_path_(std::move(snapshot_path)) {}

  std::vector<Line> Writer(std::size_t round) const {
    std::mt19937_64 rng(seed_ * 1000003 + round * 2);
    std::vector<Line> lines;
    if (round > 0 && round % kEpisodeRounds == 0) {
      lines.push_back({Kind::kRestore, "restore path=" + hs::EscapeField(snapshot_path_)});
    }
    lines.push_back({Kind::kMutate, "advance by=" + std::to_string(kAdvanceBy)});
    const int size = 16 << (rng() % 5);  // 16..256 nodes
    const bool malleable = rng() % 3 == 0;
    std::string submit = "submit class=" + std::string(malleable ? "malleable" : "rigid") +
                         " size=" + std::to_string(size);
    if (malleable) submit += " min=" + std::to_string(size / 2);
    submit += " compute=" + std::to_string(600 + rng() % 7200) +
              " submit=+" + std::to_string(60 + rng() % 600);
    lines.push_back({Kind::kMutate, submit});
    return lines;
  }

  std::vector<Line> Reader(std::size_t round) const {
    std::mt19937_64 rng(seed_ * 1000003 + round * 2 + 1);
    const std::string probe = " class=rigid size=" + std::to_string(32 << (rng() % 4)) +
                              " compute=" + std::to_string(1800 + rng() % 3600) +
                              " submit=+600";
    std::vector<Line> lines;
    lines.push_back(
        {Kind::kWhatIf, "whatif mechanisms=" + hs::EscapeField(kLiveMechanism) + probe});
    lines.push_back({Kind::kQuery, "query-metrics"});
    if (round % kReplayEvery == kReplayEvery - 1) {
      lines.push_back({Kind::kReplayWhatIf, "whatif mechanisms=all" + probe});
    }
    return lines;
  }

 private:
  std::uint64_t seed_;
  std::string snapshot_path_;
};

/// One client connection speaking `# hs-session v1`.
class Client {
 public:
  explicit Client(std::uint16_t port) : socket_(hs::ConnectLoopback(port)) {
    if (Recv() != hs::kWireGreeting) throw std::runtime_error("hs_server sent no greeting");
  }

  /// Sends `line`; returns every reply line (multi-line replies are framed
  /// `ok n=K` / K lines / `end`).
  std::vector<std::string> Call(const std::string& line) {
    hs::SendLine(socket_, line);
    std::vector<std::string> reply{Recv()};
    if (reply[0].rfind("ok n=", 0) == 0) {
      const std::size_t n = std::stoul(reply[0].substr(5));
      for (std::size_t i = 0; i <= n; ++i) reply.push_back(Recv());
    }
    return reply;
  }

 private:
  std::string Recv() {
    std::string line;
    if (socket_.RecvLineWithTimeout(kReplyTimeoutS, &line) != hs::RecvLineStatus::kLine) {
      throw std::runtime_error("hs_server reply timed out or the connection closed");
    }
    return line;
  }

  hs::Socket socket_;
};

bool ReplyOk(const std::vector<std::string>& reply) {
  return !reply.empty() && reply[0].rfind("ok", 0) == 0 &&
         (reply[0].rfind("ok n=", 0) != 0 || reply.back() == "end");
}

/// A spawned hs_server with its two client connections.
struct Server {
  hs::Subprocess process;
  std::unique_ptr<Client> writer;
  std::unique_ptr<Client> reader;

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { Stop(); }

  /// Peak RSS (VmHWM) of the server, read just before it is stopped.
  double peak_rss_mb = 0.0;

  /// Sends `shutdown` (when connected) and reaps the process; false when
  /// it did not exit cleanly.
  bool Stop() {
    if (process.running()) {
      std::ifstream status("/proc/" + std::to_string(process.pid()) + "/status");
      for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) peak_rss_mb = std::stod(line.substr(6)) / 1024.0;
      }
    }
    bool clean = writer != nullptr;
    if (writer != nullptr) {
      try {
        clean = writer->Call("shutdown") == std::vector<std::string>{"ok bye"};
      } catch (const std::exception&) {
        clean = false;
      }
    }
    if (!clean && process.running()) process.Kill();
    writer.reset();
    reader.reset();
    if (process.running() && !process.WaitFor(30.0)) {
      process.Kill();
      clean = false;
    }
    return process.Wait().ok() && clean;
  }
};

/// Spawns the server and connects both clients (the timed set-up).
std::unique_ptr<Server> StartServer(const Options& options, const std::string& dir,
                                    std::uint64_t session_seed) {
  const std::string port_file = dir + "/server.port";
  std::filesystem::remove(port_file);
  auto server = std::make_unique<Server>();
  server->process = hs::Subprocess::Spawn(
      {options.bin_dir + "/hs_server", "--spec=" + SessionSpec(session_seed),
       "--port-file=" + port_file, "--headroom=" + std::to_string(kHeadroom)},
      dir + "/server.out", dir + "/server.err");
  // hs_server writes the port file in place, so wait for a complete line.
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  int port = 0;
  for (;;) {
    std::stringstream text;
    text << std::ifstream(port_file).rdbuf();
    if (!text.str().empty() && text.str().back() == '\n') {
      port = std::stoi(text.str());
      break;
    }
    if (server->process.Poll() || Clock::now() > deadline) {
      throw std::runtime_error("hs_server did not start (see " + dir + "/server.err)");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  server->writer = std::make_unique<Client>(static_cast<std::uint16_t>(port));
  server->reader = std::make_unique<Client>(static_cast<std::uint16_t>(port));
  return server;
}

struct Samples {
  std::vector<double> ms[kKinds];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::size_t rounds = 0;
  double wall_s = 0.0;

  std::vector<double> All() const {
    std::vector<double> all;
    for (const auto& v : ms) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  void Merge(const Samples& other) {
    for (int k = 0; k < kKinds; ++k) {
      ms[k].insert(ms[k].end(), other.ms[k].begin(), other.ms[k].end());
    }
    attempted += other.attempted;
    failed += other.failed;
    if (first_error.empty()) first_error = other.first_error;
    rounds += other.rounds;
    wall_s += other.wall_s;
  }
};

/// Drives both clients for `seconds` of rounds.
Samples DriveClients(Server& server, const RequestStream& stream, double seconds) {
  Samples per_client[2];
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::size_t rounds = 0;
  auto on_round = [&]() noexcept {
    ++rounds;
    if (Clock::now() >= deadline) stop = true;
  };
  std::barrier barrier(2, on_round);
  auto drive = [&](int who) {
    Client& client = who == 0 ? *server.writer : *server.reader;
    Samples& out = per_client[who];
    try {
      for (std::size_t r = 0; !stop; ++r) {
        for (const Line& line : who == 0 ? stream.Writer(r) : stream.Reader(r)) {
          ++out.attempted;
          const Clock::time_point t0 = Clock::now();
          const std::vector<std::string> reply = client.Call(line.text);
          out.ms[static_cast<int>(line.kind)].push_back(SecondsBetween(t0, Clock::now()) * 1e3);
          if (!ReplyOk(reply)) {
            ++out.failed;
            if (out.first_error.empty()) out.first_error = line.text + " -> " + reply[0];
          }
        }
        barrier.arrive_and_wait();
      }
    } catch (const std::exception& e) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = e.what();
      stop = true;
      barrier.arrive_and_drop();
    }
  };
  std::thread writer(drive, 0);
  std::thread reader(drive, 1);
  writer.join();
  reader.join();

  Samples all;
  for (const Samples& s : per_client) all.Merge(s);
  all.wall_s = SecondsBetween(start, Clock::now());
  all.rounds = rounds;
  return all;
}

/// Snapshot of the live server restored in process must answer
/// query-metrics byte-identically to the live server.
void CheckSnapshot(Server& server, const std::string& dir, Report& report) {
  const std::string path = dir + "/final.snap";
  report.attempted += 3;
  const auto snap = server.writer->Call("snapshot path=" + hs::EscapeField(path));
  const auto live = server.writer->Call("query-metrics");
  if (!ReplyOk(snap) || !ReplyOk(live)) {
    report.Fail("final snapshot/query-metrics refused: " + snap[0] + " / " + live[0], 2);
    return;
  }
  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  try {
    const auto restored = hs::ServiceSession::RestoreText(text.str());
    if (hs::HandleRequestLine(*restored, "query-metrics").lines != live) {
      report.Fail("restored snapshot query-metrics differs from the live server");
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("final snapshot does not restore: ") + e.what());
  }
}

void AddDetail(Report& report, const std::string& name, const std::vector<double>& ms) {
  report.Detail(name, Median(ms), "ms", ms.size());
}

void AddTail(Report& report, const std::string& name, const std::vector<double>& ms) {
  const TailPercentile tail = HighestTail(ms);
  char label[64];
  std::snprintf(label, sizeof label, "%s (p%g)", name.c_str(), tail.p);
  report.Detail(tail.p > 0 ? label : name + " (too few samples)", tail.value, "ms", ms.size());
}

// --- traced run: the same stream dispatched in process ------------------------

struct DispatchTrace {
  std::vector<double> dispatch_ms[kKinds];
  std::vector<double> parse_us, fork_ms, replay_ms;
  std::vector<std::string> replies;
  double lines[kKinds] = {};
  double wall_s = 0.0;

  void Merge(const DispatchTrace& other) {
    for (int k = 0; k < kKinds; ++k) {
      dispatch_ms[k].insert(dispatch_ms[k].end(), other.dispatch_ms[k].begin(),
                            other.dispatch_ms[k].end());
    }
    for (auto [to, from] : {std::pair{&parse_us, &other.parse_us}, {&fork_ms, &other.fork_ms},
                            {&replay_ms, &other.replay_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    replies.insert(replies.end(), other.replies.begin(), other.replies.end());
    for (int k = 0; k < kKinds; ++k) lines[k] += other.lines[k];
    wall_s += other.wall_s;
  }
};

/// Dispatches `rounds` rounds of the stream on a fresh session in a fixed
/// interleaving (writer lines, then reader lines). With `spans` null the
/// calls run bare; otherwise each is timed and the Fork()/replay layers are
/// timed beside it.
DispatchTrace Dispatch(std::uint64_t session_seed, const RequestStream& stream,
                       std::size_t rounds, SpanRecorder* spans) {
  hs::ServiceSession session(hs::SimSpec::Parse(SessionSpec(session_seed)), kHeadroom);
  hs::HandleRequestLine(session, "advance to=" + std::to_string(kWarmupTo));
  DispatchTrace out;
  std::int64_t id = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<Line> lines = stream.Writer(r);
    for (Line& line : stream.Reader(r)) lines.push_back(std::move(line));
    for (const Line& line : lines) {
      const int k = static_cast<int>(line.kind);
      if (spans == nullptr) {
        const auto reply = hs::HandleRequestLine(session, line.text).lines;
        out.lines[k] += static_cast<double>(reply.size());
        for (const std::string& l : reply) out.replies.push_back(l);
        continue;
      }
      const std::int64_t request = spans->Open("service.request", id, -1);
      const Clock::time_point p0 = Clock::now();
      const hs::Request req = hs::Request::Parse(line.text);
      if (req.verb() == "submit" || req.verb() == "whatif") hs::ParseJobFields(req, session.now());
      const Clock::time_point d0 = Clock::now();
      const auto reply = hs::HandleRequestLine(session, line.text).lines;
      const Clock::time_point d1 = Clock::now();
      spans->Close(request);
      spans->Add("service.parse", id, request, p0, d0, SecondsBetween(p0, d0));
      spans->Add("service.dispatch", id, request, d0, d1, SecondsBetween(d0, d1));
      out.parse_us.push_back(SecondsBetween(p0, d0) * 1e6);
      out.dispatch_ms[k].push_back(SecondsBetween(d0, d1) * 1e3);
      out.lines[k] += static_cast<double>(reply.size());
      for (const std::string& l : reply) out.replies.push_back(l);
      if (line.kind == Kind::kWhatIf) {
        const Clock::time_point f0 = Clock::now();
        const auto fork = session.live().Fork();
        const Clock::time_point f1 = Clock::now();
        spans->Add("exp.fork", id, -1, f0, f1, SecondsBetween(f0, f1));
        out.fork_ms.push_back(SecondsBetween(f0, f1) * 1e3);
      } else if (line.kind == Kind::kReplayWhatIf) {
        const Clock::time_point f0 = Clock::now();
        const auto replayed = hs::ServiceSession::RestoreText(session.SnapshotText());
        const Clock::time_point f1 = Clock::now();
        spans->Add("service.replay", id, -1, f0, f1, SecondsBetween(f0, f1));
        out.replay_ms.push_back(SecondsBetween(f0, f1) * 1e3);
      }
      ++id;
    }
  }
  out.wall_s = SecondsBetween(start, Clock::now());
  if (spans != nullptr) {
    // The probes beside the dispatch are not part of the traced request path.
    for (const auto* v : {&out.fork_ms, &out.replay_ms}) {
      for (const double ms : *v) out.wall_s -= ms / 1e3;
    }
  }
  return out;
}

}  // namespace

void RunServiceMix(const Options& options, Report& report) {
  const double seconds_per_session =
      (options.trace ? options.seconds / 2 : options.seconds) / kSessions;
  std::vector<double> setups;
  std::vector<double> rss;
  Samples samples;
  SpanRecorder spans;
  DispatchTrace bare;
  DispatchTrace traced;
  for (int i = 0; i < kSessions; ++i) {
    // The machine traces are fixed (trace seeds 1..kSessions); the workload
    // seed drives the client traffic. Server memory and replay cost follow
    // the trace, so a run-to-run comparison then sees the traffic and the
    // code, not which traces a seed happened to draw.
    const std::uint64_t session_seed = static_cast<std::uint64_t>(i) + 1;
    const std::uint64_t traffic_seed = options.seed * kSessions + static_cast<std::uint64_t>(i);
    const std::string dir = options.work_dir + "/service" + std::to_string(i);
    std::filesystem::create_directories(dir);
    const std::string snapshot = std::filesystem::absolute(dir + "/warm.snap").string();
    const RequestStream stream(traffic_seed, snapshot);

    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Server> server = StartServer(options, dir, session_seed);
    setups.push_back(SecondsBetween(t0, Clock::now()));
    // Untimed warm-up: one simulated week, then the snapshot episodes restore.
    report.attempted += 2;
    const auto warm = server->writer->Call("advance to=" + std::to_string(kWarmupTo));
    const auto snap = server->writer->Call("snapshot path=" + hs::EscapeField(snapshot));
    if (!ReplyOk(warm) || !ReplyOk(snap)) {
      report.Fail("warm-up refused: " + warm[0] + " / " + snap[0], 2);
    }
    const Samples session = DriveClients(*server, stream, seconds_per_session);
    samples.Merge(session);
    CheckSnapshot(*server, dir, report);
    if (!server->Stop()) report.Fail("hs_server did not shut down cleanly");
    rss.push_back(server->peak_rss_mb);
    if (options.trace) {
      // The same rounds dispatched in process, bare and then traced.
      const std::size_t rounds = std::max<std::size_t>(session.rounds, 1);
      bare.Merge(Dispatch(session_seed, stream, rounds, nullptr));
      traced.Merge(Dispatch(session_seed, stream, rounds, &spans));
    }
  }
  report.attempted += samples.attempted;
  if (samples.failed > 0) report.Fail("request failed: " + samples.first_error, samples.failed);
  const double setup_s = Median(setups);
  const auto& ms = samples.ms;
  const auto mutate = ms[static_cast<int>(Kind::kMutate)];
  const auto whatif = ms[static_cast<int>(Kind::kWhatIf)];
  const auto query = ms[static_cast<int>(Kind::kQuery)];

  if (!options.trace) {
    const std::vector<double> all = samples.All();
    const double req_per_s = static_cast<double>(all.size()) / samples.wall_s;
    report.Gate("setup_s", setup_s, "s", setups.size());
    report.Gate("ops_per_s", req_per_s, "1/s", all.size());
    // The headline operation of the service is the what-if answer.
    report.Gate("op_p50_ms", Median(whatif), "ms", whatif.size());
    report.Gate("peak_rss_mb", Median(rss), "MB", rss.size());
    report.Detail("setup_s", setup_s, "s", setups.size());
    report.Detail("req_per_s", req_per_s, "1/s", all.size());
    AddDetail(report, "whatif_p50_ms", whatif);
    AddTail(report, "whatif_p99_ms", whatif);
    AddDetail(report, "replay_whatif_p50_ms", ms[static_cast<int>(Kind::kReplayWhatIf)]);
    AddDetail(report, "mutate_p50_ms", mutate);
    AddTail(report, "mutate_p99_ms", mutate);
    AddDetail(report, "query_p50_ms", query);
    AddDetail(report, "restore_p50_ms", ms[static_cast<int>(Kind::kRestore)]);
    report.Detail("failed_ratio",
                  static_cast<double>(report.failed) / static_cast<double>(report.attempted),
                  "ratio", report.attempted);
    report.Detail("peak_rss_mb", Median(rss), "MB", rss.size());
    report.Detail("rounds", static_cast<double>(samples.rounds), "count", samples.rounds);
    return;
  }

  const auto& d = traced.dispatch_ms;
  const std::size_t rounds = samples.rounds;
  std::size_t requests = 0;
  for (const auto& v : d) requests += v.size();
  report.attempted += 2 * requests;
  if (traced.replies != bare.replies) report.Fail("traced replies differ from untraced replies");
  for (const std::string& line : traced.replies) {
    if (line.rfind("err", 0) == 0) {
      report.Fail("in-process dispatch refused a request: " + line);
      break;
    }
  }
  const double whatif_dispatch = Median(d[static_cast<int>(Kind::kWhatIf)]);
  const double query_dispatch = Median(d[static_cast<int>(Kind::kQuery)]);
  report.Layer("service.dispatch_whatif_ms_p50", whatif_dispatch, "ms",
               d[static_cast<int>(Kind::kWhatIf)].size());
  report.Layer("service.dispatch_replay_whatif_ms_p50",
               Median(d[static_cast<int>(Kind::kReplayWhatIf)]), "ms",
               d[static_cast<int>(Kind::kReplayWhatIf)].size());
  report.Layer("service.dispatch_mutate_ms_p50", Median(d[static_cast<int>(Kind::kMutate)]), "ms",
               d[static_cast<int>(Kind::kMutate)].size());
  report.Layer("service.dispatch_query_ms_p50", query_dispatch, "ms",
               d[static_cast<int>(Kind::kQuery)].size());
  report.Layer("service.wire_whatif_ms", Median(whatif) - whatif_dispatch, "ms", whatif.size());
  report.Layer("service.wire_query_ms", Median(query) - query_dispatch, "ms", query.size());
  report.Layer("exp.fork_ms_p50", Median(traced.fork_ms), "ms", traced.fork_ms.size());
  report.Layer("service.replay_ms_p50", Median(traced.replay_ms), "ms", traced.replay_ms.size());
  report.Layer("service.parse_us_p50", Median(traced.parse_us), "us", traced.parse_us.size());
  double lines_total = 0.0;
  for (const double n : traced.lines) lines_total += n;
  report.Layer("service.reply_lines_mean", lines_total / static_cast<double>(requests), "count",
               requests);
  report.Layer("trace.overhead_frac", traced.wall_s / bare.wall_s - 1.0, "ratio", rounds);

  std::ostringstream table;
  char line[160];
  std::snprintf(line, sizeof line, "  %-16s %8s %12s %16s %14s\n", "verb class", "count",
                "reply_lines", "dispatch_p50_ms", "client_p50_ms");
  table << line;
  for (int k = 0; k < kKinds; ++k) {
    const double count = static_cast<double>(d[k].size());
    std::snprintf(line, sizeof line, "  %-16s %8zu %12.3f %16.4f %14.4f\n", kKindNames[k],
                  d[k].size(), count > 0 ? traced.lines[k] / count : 0.0, Median(d[k]),
                  Median(ms[k]));
    table << line;
  }
  table << "\n" << FormatSelfTimeTable(spans);
  report.layer_table = table.str();
  if (!options.spans_path.empty()) spans.WriteJsonl(options.spans_path);
}

}  // namespace perfbench
