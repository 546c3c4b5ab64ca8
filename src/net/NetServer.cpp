//===- net/NetServer.cpp --------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "net/NetServer.h"

#include "support/FaultInjector.h"
#include "support/Tracing.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

using namespace seer;
using namespace seer::net;

namespace {

/// How long join() lets replies still in flight flush before it cuts the
/// connections that remain. Bounds the stop against a peer that stopped
/// reading while its reply exceeds the socket buffers.
constexpr std::chrono::seconds DrainGrace{2};

} // namespace

// -- Connection state ------------------------------------------------------

/// One connection: its socket, shared between its serving thread, the
/// accept thread (which shuts the read side on stop) and join() (which
/// cuts it after the drain grace), and that thread. Sock is closed and
/// Thread moved out only under ConnMutex.
struct NetServer::Conn {
  uint64_t Id = 0;
  Socket Sock;
  std::thread Thread;
};

// -- Lifecycle -------------------------------------------------------------

NetServer::NetServer(FrameHandler &Handler, NetServerConfig Config,
                     Socket Listener, uint16_t BoundPort)
    : Handler(Handler), Config(std::move(Config)),
      Registry(this->Config.Metrics ? *this->Config.Metrics
                                    : MetricsRegistry::process()),
      ConnectionsTotal(Registry.counter("seer_net_connections_total")),
      RequestsTotal(Registry.counter("seer_net_requests_total")),
      ProtocolErrors(Registry.counter("seer_net_protocol_errors_total")),
      BytesReadTotal(Registry.counter("seer_net_bytes_read_total")),
      BytesWrittenTotal(Registry.counter("seer_net_bytes_written_total")),
      OpenConnections(Registry.gauge("seer_net_open_connections")),
      RequestUs(Registry.histogram("seer_net_request_us")),
      Listener(std::move(Listener)), BoundPort(BoundPort) {}

Expected<std::unique_ptr<NetServer>> NetServer::start(FrameHandler &Handler,
                                                      NetServerConfig Config) {
  auto ListenerOr = Socket::listenOn(Config.Host, Config.Port);
  if (!ListenerOr.ok())
    return ListenerOr.status();
  auto PortOr = ListenerOr->localPort();
  if (!PortOr.ok())
    return PortOr.status();

  std::unique_ptr<NetServer> Server(new NetServer(
      Handler, std::move(Config), std::move(*ListenerOr), *PortOr));

  int Fds[2];
  if (::pipe2(Fds, O_NONBLOCK | O_CLOEXEC) != 0)
    return Status::internal(std::string("pipe2 failed: ") +
                            std::strerror(errno));
  Server->WakeRead = Fds[0];
  Server->WakeWrite = Fds[1];

  NetServer *Raw = Server.get();
  Raw->AcceptThread = std::thread([Raw] { Raw->acceptLoop(); });
  return Server;
}

NetServer::~NetServer() {
  requestStop();
  join();
  if (WakeRead >= 0)
    ::close(WakeRead);
  if (WakeWrite >= 0)
    ::close(WakeWrite);
}

void NetServer::requestStop() {
  // Async-signal-safe on purpose: one lock-free atomic store plus one
  // write(2) to the self-pipe. No locks, no allocation — a SIGTERM
  // handler may call this directly.
  StopFlag.store(true, std::memory_order_release);
  wake();
}

void NetServer::wake() {
  if (WakeWrite < 0)
    return;
  const char Byte = 1;
  // A full pipe means a wakeup is already pending; nothing to do.
  [[maybe_unused]] const ssize_t W = ::write(WakeWrite, &Byte, 1);
}

void NetServer::join() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  // The accept thread is gone, so no connection is added or reaped any
  // more, and every live one has had its read side shut. Replies in
  // flight get DrainGrace to flush; the connections still open after it
  // are cut both ways, because a write to a peer that stopped reading
  // would otherwise block — and this join with it — forever.
  std::vector<std::thread> ToJoin;
  {
    MutexLock L(ConnMutex);
    const auto Deadline = std::chrono::steady_clock::now() + DrainGrace;
    while (ActiveConns > 0 && ConnEnded.waitUntil(L, Deadline)) {
    }
    for (auto &KV : Conns) {
      KV.second->Sock.shutdownBoth(); // no-op once the thread closed it
      ToJoin.push_back(std::move(KV.second->Thread));
    }
    Conns.clear();
    Finished.clear();
  }
  for (std::thread &T : ToJoin)
    if (T.joinable())
      T.join();
}

// -- Dispatch --------------------------------------------------------------

std::string NetServer::dispatch(const std::shared_ptr<void> &State,
                                const std::string &Payload) {
  RequestsTotal.add();
  const uint64_t StartNs = SpanRecorder::nowNs();
  std::string Reply;
  {
    ScopedSpan Span(spanname::NetRequest);
    auto OpOr = frameOp(Payload);
    if (!OpOr.ok()) {
      ProtocolErrors.add();
      Reply = encodeStatusReply(OpOr.status());
    } else {
      switch (*OpOr) {
      case Op::Hello: {
        auto Version = decodeHello(Payload);
        if (!Version.ok()) {
          ProtocolErrors.add();
          Reply = encodeStatusReply(Version.status());
        } else if (*Version != WireVersion) {
          ProtocolErrors.add();
          Reply = encodeStatusReply(Status::failedPrecondition(
              "wire version mismatch: peer speaks v" +
              std::to_string(*Version) + ", server speaks v" +
              std::to_string(WireVersion)));
        } else {
          Reply = encodeHelloReply();
        }
        break;
      }
      case Op::Shutdown:
        // Ack first (the reply still flushes during the drain), then
        // begin shutdown.
        requestStop();
        Reply = encodeStatusReply(Status::okStatus());
        break;
      default:
        Reply = Handler.handleFrame(State, Payload);
        break;
      }
    }
  }
  RequestUs.record(double(SpanRecorder::nowNs() - StartNs) / 1000.0);
  return Reply;
}

// -- Connections -----------------------------------------------------------

void NetServer::acceptLoop() {
  while (!StopFlag.load(std::memory_order_acquire)) {
    pollfd Polled[2] = {{Listener.fd(), POLLIN, 0}, {WakeRead, POLLIN, 0}};
    const int N = ::poll(Polled, 2, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Polled[1].revents != 0) {
      char Buf[256];
      while (::read(WakeRead, Buf, sizeof(Buf)) > 0) {
      }
    }
    reapFinished();
    if (StopFlag.load(std::memory_order_acquire))
      break;
    if ((Polled[0].revents & POLLIN) == 0)
      continue;
    auto AcceptedOr = Listener.accept();
    if (!AcceptedOr.ok())
      continue; // injected net.accept fault or transient error
    auto C = std::make_shared<Conn>();
    C->Sock = std::move(*AcceptedOr);
    // Under the lock, the new thread cannot finish before it is listed.
    MutexLock L(ConnMutex);
    if (ActiveConns >= Config.MaxConnections)
      continue; // RAII-drop the accepted socket
    try {
      C->Thread = std::thread([this, C] { connectionLoop(*C); });
    } catch (const std::system_error &) {
      continue; // no thread to serve it: RAII-drop the connection
    }
    C->Id = NextConnId++;
    Conns.emplace(C->Id, C);
    ConnectionsTotal.add();
    OpenConnections.set(double(++ActiveConns));
  }
  Listener.close();
  // Wake every connection blocked between frames with EOF. Only the read
  // side: a reply still being written (the Shutdown op's ack included)
  // must flush, so in-flight frames are answered.
  MutexLock L(ConnMutex);
  for (const auto &KV : Conns)
    KV.second->Sock.shutdownRead();
}

void NetServer::reapFinished() {
  std::vector<std::thread> Done;
  {
    MutexLock L(ConnMutex);
    for (const uint64_t Id : Finished) {
      const auto It = Conns.find(Id);
      Done.push_back(std::move(It->second->Thread));
      Conns.erase(It);
    }
    Finished.clear();
  }
  for (std::thread &T : Done)
    T.join();
}

void NetServer::connectionLoop(Conn &C) {
  std::shared_ptr<void> State = Handler.connectionOpened();
  std::string Payload;
  while (!StopFlag.load(std::memory_order_acquire)) {
    bool CleanClose = false;
    const Status S =
        readFrame(C.Sock, Config.MaxFrameBytes, Payload, &CleanClose);
    if (!S.ok()) {
      if (S.code() == StatusCode::InvalidArgument) {
        // A bad length prefix (or injected net.frame fault): framing is
        // unrecoverable — answer with the typed error, then hang up.
        ProtocolErrors.add();
        (void)writeFrame(C.Sock, encodeStatusReply(S));
      }
      break; // UNAVAILABLE = torn connection; nothing to answer
    }
    if (CleanClose)
      break;
    BytesReadTotal.add(4 + Payload.size());
    const std::string Reply = dispatch(State, Payload);
    BytesWrittenTotal.add(4 + Reply.size());
    if (!writeFrame(C.Sock, Reply).ok())
      break;
  }
  Handler.connectionClosed(State);
  State.reset(); // the connection's state dies with it
  {
    MutexLock L(ConnMutex);
    C.Sock.close();
    Finished.push_back(C.Id);
    OpenConnections.set(double(--ActiveConns));
  }
  ConnEnded.notify_all(); // a draining join() waits on this
  wake(); // the accept thread joins us
}

// -- ServiceFrameHandler ---------------------------------------------------

ServiceFrameHandler::ServiceFrameHandler(SeerService &Service)
    : Service(Service),
      ProtocolErrors(
          Service.metrics().counter("seer_net_protocol_errors_total")) {}

std::shared_ptr<void> ServiceFrameHandler::connectionOpened() {
  // Only the connection's own thread touches its Session.
  return std::make_shared<Session>(Service);
}

std::string
ServiceFrameHandler::handleFrame(const std::shared_ptr<void> &State,
                                 const std::string &Payload) {
  auto Op = decodeRequest(Payload);
  if (!Op.ok()) {
    ProtocolErrors.add();
    return encodeStatusReply(Op.status());
  }
  auto Answer = static_cast<Session *>(State.get())->apply(std::move(*Op));
  if (!Answer.ok())
    return encodeStatusReply(Answer.status());
  return encodeReply(*Answer);
}
