// Loopback socket primitive tests: ephemeral binding, line framing across
// split writes, CRLF tolerance, EOF semantics, bounded line reads,
// partial-write resilience under a slow-draining peer, TCP_NODELAY on every
// connected socket, and multi-line messages in one write (SendLines).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "util/socket.h"

namespace hs {
namespace {

TEST(SocketTest, EphemeralListenerReportsItsPort) {
  TcpListener listener(0);
  EXPECT_GT(listener.port(), 0);
  // A second ephemeral listener gets its own port.
  TcpListener other(0);
  EXPECT_NE(other.port(), listener.port());
}

TEST(SocketTest, LineRoundTripOverLoopback) {
  TcpListener listener(0);
  std::thread echo([&listener] {
    Socket peer = listener.Accept();
    for (;;) {
      const std::optional<std::string> line = peer.RecvLine();
      if (!line.has_value()) break;
      SendLine(peer, "echo:" + *line);
    }
  });

  Socket client = ConnectLoopback(listener.port());
  SendLine(client, "hello world");
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:hello world"));

  // Several lines in one send still come back one at a time.
  client.SendAll("a\nb\nc\n");
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:a"));
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:b"));
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:c"));

  // A line split across writes arrives whole; '\r\n' is stripped to the line.
  client.SendAll("split");
  client.SendAll(" line\r\n");
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("echo:split line"));

  client.Close();
  echo.join();
}

TEST(SocketTest, CleanEofIsNulloptPartialLineIsReturned) {
  TcpListener listener(0);
  std::thread writer([&listener] {
    Socket peer = listener.Accept();
    peer.SendAll("complete\npartial");  // no trailing newline, then close
  });

  Socket client = ConnectLoopback(listener.port());
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("complete"));
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("partial"));
  EXPECT_EQ(client.RecvLine(), std::nullopt);
  writer.join();
}

TEST(SocketTest, ConnectToClosedPortThrows) {
  // Bind-then-drop guarantees the port is currently closed.
  std::uint16_t dead_port = 0;
  { dead_port = TcpListener(0).port(); }
  EXPECT_THROW(ConnectLoopback(dead_port), std::runtime_error);
}

TEST(SocketTest, RecvLineWithTimeoutTimesOutThenDelivers) {
  TcpListener listener(0);
  Socket client = ConnectLoopback(listener.port());
  Socket peer = listener.Accept();

  // A silent peer: the zero-timeout poll and a short bounded wait both
  // report kTimeout without consuming anything.
  std::string line;
  EXPECT_EQ(client.RecvLineWithTimeout(0.0, &line), RecvLineStatus::kTimeout);
  EXPECT_EQ(client.RecvLineWithTimeout(0.05, &line), RecvLineStatus::kTimeout);

  // Bytes without a newline stay buffered across kTimeout returns; the
  // line is delivered whole once the terminator arrives.
  peer.SendAll("hal");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(client.RecvLineWithTimeout(0.05, &line), RecvLineStatus::kTimeout);
  peer.SendAll("f and rest\r\n");
  EXPECT_EQ(client.RecvLineWithTimeout(5.0, &line), RecvLineStatus::kLine);
  EXPECT_EQ(line, "half and rest");
}

TEST(SocketTest, RecvLineWithTimeoutEofSemanticsMatchRecvLine) {
  TcpListener listener(0);
  Socket client = ConnectLoopback(listener.port());
  {
    Socket peer = listener.Accept();
    peer.SendAll("complete\npartial");  // no trailing newline, then close
  }
  std::string line;
  EXPECT_EQ(client.RecvLineWithTimeout(5.0, &line), RecvLineStatus::kLine);
  EXPECT_EQ(line, "complete");
  // The unterminated final fragment still counts as a line at EOF...
  EXPECT_EQ(client.RecvLineWithTimeout(5.0, &line), RecvLineStatus::kLine);
  EXPECT_EQ(line, "partial");
  // ...and only a clean EOF with nothing buffered is kEof.
  EXPECT_EQ(client.RecvLineWithTimeout(5.0, &line), RecvLineStatus::kEof);
}

TEST(SocketTest, SendAllSurvivesPartialWritesToSlowReader) {
  // A payload far beyond the kernel socket buffers forces send(2) to
  // return short writes; SendAll must keep going until every byte is out,
  // and the slow-draining reader must see the exact bytes.
  const std::size_t kBytes = 4 * 1024 * 1024;
  std::string payload(kBytes, 'x');
  for (std::size_t i = 0; i < payload.size(); i += 4096) payload[i] = 'y';
  payload.back() = '\n';

  TcpListener listener(0);
  std::string received;
  std::thread reader([&listener, &received, kBytes] {
    Socket peer = listener.Accept();
    std::string line;
    while (received.size() < kBytes) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));  // drain slowly
      const RecvLineStatus status = peer.RecvLineWithTimeout(10.0, &line);
      if (status != RecvLineStatus::kLine) break;
      received += line;
      received += '\n';
    }
  });
  Socket client = ConnectLoopback(listener.port());
  client.SendAll(payload);
  client.Close();
  reader.join();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

TEST(SocketTest, SendAllToHungUpPeerThrowsInsteadOfSigpipe) {
  TcpListener listener(0);
  Socket client = ConnectLoopback(listener.port());
  { (void)listener.Accept(); }  // accept, then immediately close
  // The first sends may land in the kernel buffer; keep writing until the
  // RST surfaces. A SIGPIPE would kill the process before the throw.
  EXPECT_THROW(
      {
        for (int i = 0; i < 10000; ++i) client.SendAll(std::string(4096, 'z'));
      },
      std::runtime_error);
}

int NoDelayOf(const Socket& socket) {
  int value = -1;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(SocketTest, EveryConnectedSocketHasNagleOff) {
  TcpListener listener(0);
  Socket loopback = ConnectLoopback(listener.port());
  Socket accepted_loopback = listener.Accept();
  Socket tcp = ConnectTcp("127.0.0.1", listener.port());
  Socket accepted_tcp = listener.Accept();
  Socket bounded = ConnectTcp("localhost", listener.port(), /*connect_timeout_s=*/5.0);
  Socket accepted_bounded = listener.Accept();
  EXPECT_EQ(NoDelayOf(loopback), 1);
  EXPECT_EQ(NoDelayOf(accepted_loopback), 1);
  EXPECT_EQ(NoDelayOf(tcp), 1);
  EXPECT_EQ(NoDelayOf(accepted_tcp), 1);
  EXPECT_EQ(NoDelayOf(bounded), 1);
  EXPECT_EQ(NoDelayOf(accepted_bounded), 1);
}

TEST(SocketTest, SendLinesDeliversEveryLineInOrder) {
  const std::string big(6000, 'b');  // one line over 4 KiB (the recv chunk)
  const std::vector<std::string> message = {"ok n=3", "", big, "tail x=1", "end"};
  TcpListener listener(0);
  Socket client = ConnectLoopback(listener.port());
  Socket peer = listener.Accept();

  SendLines(peer, {});  // an empty message writes nothing
  SendLines(peer, message);
  SendLine(peer, "after");
  for (const std::string& want : message) {
    EXPECT_EQ(client.RecvLine(), std::optional<std::string>(want));
  }
  EXPECT_EQ(client.RecvLine(), std::optional<std::string>("after"));
  peer.Close();
  EXPECT_EQ(client.RecvLine(), std::nullopt);
}

TEST(SocketTest, MovedFromSocketIsInvalid) {
  TcpListener listener(0);
  std::thread accepter([&listener] { (void)listener.Accept(); });
  Socket a = ConnectLoopback(listener.port());
  EXPECT_TRUE(a.valid());
  Socket b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  accepter.join();
}

}  // namespace
}  // namespace hs
