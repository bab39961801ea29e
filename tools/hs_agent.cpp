// hs_agent: the remote end of the `# hs-fabric v1` TCP transport.
//
//   hs_agent [--port=N] [--port-file=FILE] [--worker-bin=PATH]
//            [--work-dir=DIR] [--threads=N] [--bind-any]
//
// One daemon per host. It accepts one orchestrator connection at a time
// (the orchestrator opens one connection per work unit), receives the
// unit's cells, execs the local hs_worker against a scratch shard file,
// and streams the worker's output back live:
//
//   agent:        # hs-fabric v1                      greeting on accept
//   orchestrator: unit origin=K attempt=N cells=M [threads=T]
//                 <global index>\t<canonical spec>    x M
//                 end
//   agent:        row <worker JSONL row>              per completed cell
//                 # hs-progress ...                   heartbeats, verbatim
//                 log <worker stderr line>            diagnostics
//                 done exit=C | done signal=S         terminal status
//                 err msg=<reason>                    agent-side failure
//
// The agent closes the connection after `done`/`err` and goes back to
// accept. If the orchestrator hangs up mid-unit, the agent kills its
// worker and goes back to accept — a unit has no meaning without its
// orchestrator.
//
// Port discovery: --port=0 (default) binds an ephemeral port;
// --port-file=FILE atomically publishes the bound port (written to a temp
// file and renamed), so test harnesses and CI can start agents and learn
// their ports without a race.
//
// Fault injection: HS_FAULT's network tokens (drop-conn-at-cell,
// kill-agent-at-cell, torn-frame-at-cell, stall-at-cell — see
// exp/fault_plan.h) fire here, gated on the unit's attempt number, when
// the agent is about to forward the named cell's row. Worker-level tokens
// ride through untouched: the spawned hs_worker reads HS_FAULT itself.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/fault_plan.h"
#include "exp/transport.h"
#include "util/cli.h"
#include "util/file_util.h"
#include "util/socket.h"
#include "util/subprocess.h"

namespace {

using namespace hs;

/// Incrementally tails a growing file: Drain() returns every newly
/// completed line since the last call; the trailing unterminated fragment
/// stays pending (readable via partial() once the writer is done).
class FileTail {
 public:
  explicit FileTail(std::string path) : path_(std::move(path)) {}

  std::vector<std::string> Drain() {
    std::ifstream in(path_, std::ios::binary);
    std::vector<std::string> lines;
    if (!in) return lines;
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size <= offset_) return lines;
    in.seekg(offset_);
    std::string chunk(static_cast<std::size_t>(size - offset_), '\0');
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    chunk.resize(static_cast<std::size_t>(in.gcount()));
    offset_ += static_cast<std::streamoff>(chunk.size());
    pending_ += chunk;
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = pending_.find('\n', start);
      if (nl == std::string::npos) break;
      lines.push_back(pending_.substr(start, nl - start));
      start = nl + 1;
    }
    pending_.erase(0, start);
    return lines;
  }

  const std::string& partial() const { return pending_; }

 private:
  std::string path_;
  std::streamoff offset_ = 0;
  std::string pending_;
};

/// Kills + reaps the worker on every exit path — a thrown SendAll (the
/// orchestrator reset the connection) must not trip the Subprocess
/// zombie assert.
class Reaper {
 public:
  explicit Reaper(Subprocess& proc) : proc_(proc) {}
  ~Reaper() {
    if (proc_.running()) {
      proc_.Kill();
      proc_.Wait();
    }
  }

 private:
  Subprocess& proc_;
};

/// Global spec index of a worker JSONL row (`{"index":N,...`), or -1 when
/// the line is not a row (the agent forwards it anyway; the orchestrator
/// classifies it).
long long CellIndexOf(const std::string& line) {
  constexpr const char* kPrefix = "{\"index\":";
  if (line.rfind(kPrefix, 0) != 0) return -1;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(line.c_str() + 9, &end, 10);
  if (end == line.c_str() + 9 || errno == ERANGE || value < 0) return -1;
  return value;
}

struct UnitHeader {
  std::size_t origin = 0;
  int attempt = 1;
  std::size_t cells = 0;
  int threads = 0;
};

UnitHeader ParseUnitHeader(const std::string& line) {
  // "unit origin=K attempt=N cells=M [threads=T]"
  UnitHeader header;
  bool saw_cells = false;
  std::size_t pos = 5;  // past "unit "
  while (pos < line.size()) {
    std::size_t space = line.find(' ', pos);
    if (space == std::string::npos) space = line.size();
    const std::string token = line.substr(pos, space - pos);
    pos = space + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("bad unit header token '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const long long value = std::stoll(token.substr(eq + 1));
    if (value < 0) throw std::runtime_error("negative value in '" + token + "'");
    if (key == "origin") {
      header.origin = static_cast<std::size_t>(value);
    } else if (key == "attempt") {
      header.attempt = static_cast<int>(value);
    } else if (key == "cells") {
      header.cells = static_cast<std::size_t>(value);
      saw_cells = true;
    } else if (key == "threads") {
      header.threads = static_cast<int>(value);
    } else {
      throw std::runtime_error("unknown unit header key '" + key + "'");
    }
  }
  if (!saw_cells) throw std::runtime_error("unit header missing cells=");
  return header;
}

struct AgentConfig {
  std::string worker_bin;
  std::string work_dir;
  int threads = 0;
};

/// Serves one unit on `conn`. Throws on protocol violations and send
/// failures; the caller answers with `err msg=` when the connection still
/// works and drops it otherwise.
void ServeUnit(Socket& conn, const AgentConfig& config, std::size_t unit_seq) {
  SendLine(conn, kFabricGreeting);

  std::string header_line;
  const RecvLineStatus header_status = conn.RecvLineWithTimeout(30.0, &header_line);
  if (header_status != RecvLineStatus::kLine) return;  // silent/idle probe: drop
  if (header_line.rfind("unit ", 0) != 0) {
    throw std::runtime_error("expected 'unit ...' header, got '" + header_line + "'");
  }
  const UnitHeader header = ParseUnitHeader(header_line);

  std::string shard_body = "# hs-shard v1\n";
  for (std::size_t i = 0; i < header.cells; ++i) {
    std::string cell_line;
    if (conn.RecvLineWithTimeout(10.0, &cell_line) != RecvLineStatus::kLine) {
      throw std::runtime_error("connection ended mid-unit (cell " +
                               std::to_string(i) + " of " +
                               std::to_string(header.cells) + ")");
    }
    if (cell_line.find('\t') == std::string::npos) {
      throw std::runtime_error("bad cell line (want '<index>\\t<spec>'): '" +
                               cell_line + "'");
    }
    shard_body += cell_line;
    shard_body += '\n';
  }
  std::string end_line;
  if (conn.RecvLineWithTimeout(10.0, &end_line) != RecvLineStatus::kLine ||
      end_line != "end") {
    throw std::runtime_error("expected 'end' after " +
                             std::to_string(header.cells) + " cells");
  }

  FaultPlan fault = FaultPlanFromEnv();
  if (!fault.ActiveOn(header.attempt)) fault = FaultPlan{};  // healed on retry

  const std::string unit_dir = config.work_dir + "/unit_" + std::to_string(unit_seq);
  std::filesystem::create_directories(unit_dir);
  const std::string stem = unit_dir + "/shard";
  WriteTextFile(stem + ".specs", shard_body);

  std::vector<std::string> argv = {config.worker_bin, "--shard=" + stem + ".specs",
                                   "--out=" + stem + ".jsonl",
                                   "--attempt=" + std::to_string(header.attempt)};
  const int threads = header.threads > 0 ? header.threads : config.threads;
  if (threads > 0) argv.push_back("--threads=" + std::to_string(threads));
  Subprocess proc = Subprocess::Spawn(argv, stem + ".stdout", stem + ".stderr");
  Reaper reaper(proc);

  FileTail out_tail(stem + ".jsonl");
  FileTail err_tail(stem + ".stderr");
  bool worker_done = false;
  // Each drain pass goes out as one write. A network fault first flushes
  // the frames queued ahead of its cell: the fault contract is that every
  // frame before the faulted row reaches the wire.
  std::vector<std::string> frames;
  for (;;) {
    frames.clear();
    for (const std::string& line : out_tail.Drain()) {
      const long long global = CellIndexOf(line);
      if (global >= 0 && fault.kill_agent_at_cell == global) {
        // A dead host: the whole agent vanishes, taking its worker along
        // (the worker dies with the process group is not guaranteed, so
        // kill it first for hygiene).
        SendLines(conn, frames);
        proc.Kill();
        proc.Wait();
        std::raise(SIGKILL);
      }
      if (global >= 0 && fault.drop_conn_at_cell == global) {
        SendLines(conn, frames);
        return;  // Reaper kills the worker; the orchestrator sees EOF
      }
      if (global >= 0 && fault.torn_frame_at_cell == global) {
        std::string wire;
        for (const std::string& frame : frames) wire += frame + "\n";
        const std::string framed = "row " + line + "\n";
        wire += framed.substr(0, framed.size() / 2);
        conn.SendAll(wire);
        return;  // torn frame on the wire, then EOF
      }
      if (global >= 0 && fault.stall_at_cell == global) {
        // Keep the connection open but go silent: only the orchestrator's
        // inactivity monitor can end this unit. Its hangup releases us.
        SendLines(conn, frames);
        proc.Kill();
        proc.Wait();
        while (!conn.PeerClosed()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        return;
      }
      frames.push_back("row " + line);
    }
    for (std::string& line : err_tail.Drain()) {
      // Heartbeats travel verbatim; other stderr lines become diagnostics.
      frames.push_back(line.rfind("# hs-progress", 0) == 0 ? std::move(line)
                                                            : "log " + line);
    }
    SendLines(conn, frames);
    const bool forwarded = !frames.empty();
    if (worker_done) break;
    if (proc.Poll()) {
      worker_done = true;  // one more drain pass for the final rows
      continue;
    }
    if (!forwarded) {
      if (conn.PeerClosed()) return;  // orchestrator gave up on this unit
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  // A trailing unterminated fragment is a torn write: forward it as-is —
  // the orchestrator's malformed-final-row rule classifies it. It shares
  // the final write with the terminal status.
  frames.clear();
  if (!out_tail.partial().empty()) frames.push_back("row " + out_tail.partial());

  const ProcessStatus status = proc.Wait();
  if (!status.spawned) {
    frames.push_back("err msg=worker spawn failed: " + status.error);
  } else if (status.signaled) {
    frames.push_back("done signal=" + std::to_string(status.term_signal));
  } else {
    frames.push_back("done exit=" + std::to_string(status.exit_code));
  }
  SendLines(conn, frames);
  if (status.ok()) RemoveTreeBestEffort(unit_dir);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    const std::uint16_t port =
        static_cast<std::uint16_t>(args.GetInt("port", 0));
    const std::string port_file = args.GetString("port-file", "");
    AgentConfig config;
    config.worker_bin = args.GetString("worker-bin", "");
    config.work_dir = args.GetString("work-dir", "");
    config.threads = static_cast<int>(args.GetInt("threads", 0));
    const bool bind_any = args.GetBool("bind-any", false);
    args.RejectUnknown();

    if (config.worker_bin.empty()) {
      const std::string dir = SelfExeDir();
      config.worker_bin = dir.empty() ? std::string("hs_worker") : dir + "/hs_worker";
    }
    if (config.work_dir.empty()) {
      config.work_dir = MakeTempDir("hs-agent-");
    } else {
      std::filesystem::create_directories(config.work_dir);
    }

    TcpListener listener(port, bind_any);
    if (!port_file.empty()) {
      // Atomic publish: harnesses poll for the file, then read the port.
      const std::string tmp = port_file + ".tmp";
      WriteTextFile(tmp, std::to_string(listener.port()) + "\n");
      if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
        std::fprintf(stderr, "hs_agent: cannot publish port file %s\n",
                     port_file.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "hs_agent: listening on %s:%u, worker %s\n",
                 bind_any ? "0.0.0.0" : "127.0.0.1", listener.port(),
                 config.worker_bin.c_str());

    for (std::size_t unit_seq = 0;; ++unit_seq) {
      Socket conn = listener.Accept();
      try {
        ServeUnit(conn, config, unit_seq);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "hs_agent: unit %zu failed: %s\n", unit_seq, e.what());
        try {
          SendLine(conn, std::string("err msg=") + e.what());
        } catch (const std::exception&) {
          // The connection is gone; the orchestrator sees EOF instead.
        }
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "hs_agent: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hs_agent: %s\n", e.what());
    return 1;
  }
}
