// ScheduleServer: the hs-session v1 verb dispatcher + concurrent serve loop.
//
// The dispatcher is a pure function from (session, request line) to
// response lines, so tests drive it without a socket and hs_client's
// --oracle-snapshot mode reuses it verbatim against a restored session.
// Responses are one `ok`/`err` line, except `whatif` and `watch`, which
// are framed `ok n=K` / K body lines / `end` (multi-line responses end
// with a sentinel so clients never guess).
//
// Concurrency model (docs/SERVER.md has the full story):
//   * one thread per accepted connection (ThreadGroup harness);
//   * a shared_mutex over the session: mutating verbs (submit/cancel/
//     advance/restore) take it exclusively — the op log totally orders
//     them, so snapshot-replay stays the oracle — while read verbs
//     (ping/query-*/snapshot) share it and never queue behind each other;
//   * `whatif` forks the live session and copies a replay basis under the
//     read lock, then replays and steps the private copies with no lock
//     held — a long probe or replay never blocks the writer;
//   * `watch` streams metric ticks from its own connection thread,
//     sampling under the read lock and sleeping off it;
//   * per-connection send/recv failures drop that connection only.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "service/service_session.h"
#include "util/socket.h"
#include "util/thread_group.h"

namespace hs {

/// Dispatcher knobs. `force_replay` answers every what-if through op-log
/// replay even for the live mechanism — hs_client's oracle mode, which the
/// CI smoke diffs against the live server's fork-path answers.
struct DispatchOptions {
  bool force_replay = false;
};

struct WireResponse {
  std::vector<std::string> lines;
  bool shutdown = false;  // the `shutdown` verb was accepted
};

/// Handles one request line. Never throws: errors come back as `err ...`.
/// Single-threaded — the concurrent server wraps it in the appropriate
/// lock per verb; tests and the snapshot oracle call it directly.
WireResponse HandleRequestLine(ServiceSession& session, const std::string& line,
                               const DispatchOptions& options = {});

/// Serves `session` on 127.0.0.1:`port` (0 = ephemeral; port() tells).
class ScheduleServer {
 public:
  ScheduleServer(ServiceSession& session, std::uint16_t port);

  std::uint16_t port() const { return listener_.port(); }

  /// Greets each connection with `# hs-session v1` and answers its request
  /// lines on a dedicated thread until that client disconnects. Returns
  /// once a `shutdown` verb arrives on any connection and every connection
  /// thread has drained.
  void Serve();

  /// Wall-clock interval between `watch` poll samples (tests shrink it).
  void set_watch_poll_ms(int ms) { watch_poll_ms_ = ms; }

 private:
  void ServeConnection(Socket client);
  /// Dispatches one request line on `client`; true when it was `shutdown`.
  bool HandleOne(Socket& client, const std::string& line);
  /// The `watch` verb: streams `tick ...` lines until `count` ticks, the
  /// client hangs up, or the server stops.
  void HandleWatch(Socket& client, const std::string& line);
  /// Flags the serve loop to stop and wakes it out of Accept().
  void RequestStop();

  ServiceSession* session_;
  TcpListener listener_;
  std::shared_mutex session_mutex_;
  std::atomic<bool> stopping_{false};
  std::mutex conn_mutex_;
  std::vector<int> live_fds_;  // open connection fds, for stop-time wakeup
  ThreadGroup threads_;
  int watch_poll_ms_ = 10;
};

}  // namespace hs
