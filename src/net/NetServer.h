//===- net/NetServer.h - Framed TCP server over SeerService ---------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving side of the binary transport: a TCP server that reads
/// net/Wire.h frames and dispatches each to a `FrameHandler`, one
/// in-flight frame per connection (the protocol is strictly
/// request-reply).
///
/// Serving is thread-per-connection and run-to-completion: one accept
/// thread owns the listener, and each accepted connection gets a
/// blocking thread that reads a frame, handles it, and writes the reply
/// — no other thread touches the request, so a wire request costs no
/// hand-off and no wakeup beyond the socket's own. Finished connection
/// threads are joined as they end, so a long-lived server holds threads
/// only for its live connections.
///
/// Hello (version handshake) and Shutdown are answered by the transport
/// itself in `dispatch()`; every other opcode goes to the handler.
/// `requestStop()` is async-signal-safe (an atomic store plus a
/// self-pipe write), so a SIGTERM handler can stop the server directly;
/// the accept thread then closes the listener and shuts the *read* side
/// of every connection, so a thread blocked between frames wakes with
/// EOF while a reply still being written — the Shutdown op's own ack
/// included — flushes. `join()` waits for that drain: in-flight frames
/// are answered, connections close, threads exit. The drain is bounded:
/// connections still open two seconds into it are shut both ways, so a
/// peer that stops reading a large reply cannot hold the stop forever.
///
/// `ServiceFrameHandler` is the production handler, the wire codec over
/// the session model (api/Session.h): each connection owns a `Session`,
/// and every frame is decoded into a `SessionOp`, applied on that
/// Session, and its `Reply` encoded — the same dispatcher the text front
/// ends use. Select/execute are served inline through
/// `SeerService::serveAdmitted()`, so the wire path keeps the service's
/// bounded admission — a full queue surfaces to the client as a typed
/// RESOURCE_EXHAUSTED RStatus frame, the same backpressure contract the
/// in-process API has. The Session is destroyed when its connection
/// closes, releasing the handles opened over it, so a dropped client
/// never leaks cache budget.
///
/// Telemetry: each served frame increments `seer_net_requests_total`,
/// times a `net.request` span and the `seer_net_request_us` histogram;
/// accepts count in `seer_net_connections_total` and the
/// `seer_net_open_connections` gauge; framing violations count in
/// `seer_net_protocol_errors_total`; framed traffic volume in
/// `seer_net_bytes_{read,written}_total`.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_NET_NETSERVER_H
#define SEER_NET_NETSERVER_H

#include "api/SeerService.h"
#include "api/Session.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "support/Metrics.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace seer::net {

/// Application-level frame processing plugged into a NetServer. One
/// handler instance serves every connection; per-connection state lives
/// in the opaque pointer the server threads through the callbacks.
class FrameHandler {
public:
  virtual ~FrameHandler() = default;

  /// Called once per accepted connection; the returned state rides along
  /// with every frame of that connection. May be null.
  virtual std::shared_ptr<void> connectionOpened() { return nullptr; }

  /// Handles one decoded-frame payload (opcode byte included) and
  /// returns the reply payload to send back. Must always return a reply
  /// — errors travel as RStatus frames, never as silence. Runs on the
  /// connection's own thread: calls for one connection are sequential,
  /// but calls for *different* connections are concurrent, so shared
  /// handler state needs its own synchronization.
  virtual std::string handleFrame(const std::shared_ptr<void> &State,
                                  const std::string &Payload) = 0;

  /// Called exactly once when the connection ends (clean close, torn
  /// connection, or server shutdown). The server drops its reference to
  /// the connection's state right after, so state that releases its
  /// resources on destruction needs no override.
  virtual void connectionClosed(const std::shared_ptr<void> &State) {
    (void)State;
  }
};

struct NetServerConfig {
  /// Numeric IPv4 listen address.
  std::string Host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with NetServer::port().
  uint16_t Port = 0;
  /// Connections beyond this are accepted and immediately closed.
  size_t MaxConnections = 256;
  /// Frame-length cap handed to the wire validator.
  size_t MaxFrameBytes = DefaultMaxFrameBytes;
  /// Registry for the seer_net_* instruments; null means the
  /// process-wide registry. seer-serve passes its service's registry so
  /// net counters land in the same exposition as serving metrics.
  MetricsRegistry *Metrics = nullptr;
};

/// The framed TCP server. Construction binds and starts serving;
/// requestStop()+join() (or destruction) stops it.
class NetServer {
public:
  /// Binds Config.Host:Config.Port and starts the accept thread.
  /// UNAVAILABLE / INVALID_ARGUMENT on bind failures.
  static Expected<std::unique_ptr<NetServer>> start(FrameHandler &Handler,
                                                    NetServerConfig Config);

  ~NetServer();
  NetServer(const NetServer &) = delete;
  NetServer &operator=(const NetServer &) = delete;

  /// The bound listen port (resolves ephemeral port 0).
  uint16_t port() const { return BoundPort; }

  /// Requests shutdown: async-signal-safe (one atomic store + one
  /// self-pipe write), callable from a SIGTERM handler and from
  /// connection threads (the wire Shutdown opcode lands here).
  /// Idempotent.
  void requestStop();

  /// Blocks until the server has fully stopped: listener closed,
  /// in-flight frames answered, connections closed (with
  /// connectionClosed fired for each), threads joined. A frame whose
  /// reply has not flushed within the drain grace (two seconds) has its
  /// connection cut instead of being waited for. Does not itself
  /// initiate shutdown — pair with requestStop(), a signal, or the wire
  /// Shutdown op.
  void join();

private:
  struct Conn;

  NetServer(FrameHandler &Handler, NetServerConfig Config, Socket Listener,
            uint16_t BoundPort);

  /// Transport-level dispatch: answers Hello and Shutdown, forwards
  /// everything else to the handler; wraps the call in the net.request
  /// span + request metrics.
  std::string dispatch(const std::shared_ptr<void> &State,
                       const std::string &Payload);

  void wake();
  void acceptLoop();
  void connectionLoop(Conn &C);
  /// Joins the threads of connections that have ended.
  void reapFinished();

  FrameHandler &Handler;
  NetServerConfig Config;
  MetricsRegistry &Registry;
  Counter &ConnectionsTotal;
  Counter &RequestsTotal;
  Counter &ProtocolErrors;
  Counter &BytesReadTotal;
  Counter &BytesWrittenTotal;
  Gauge &OpenConnections;
  Histogram &RequestUs;

  Socket Listener;
  uint16_t BoundPort = 0;
  int WakeRead = -1;
  int WakeWrite = -1;
  std::atomic<bool> StopFlag{false};

  /// Connections by id (the accept thread shuts their read sides on
  /// stop), the ids of those whose thread has ended and awaits a join,
  /// and how many are still being served. ConnEnded signals each end.
  seer::Mutex ConnMutex;
  seer::CondVar ConnEnded;
  uint64_t NextConnId SEER_GUARDED_BY(ConnMutex) = 1;
  size_t ActiveConns SEER_GUARDED_BY(ConnMutex) = 0;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>>
      Conns SEER_GUARDED_BY(ConnMutex);
  std::vector<uint64_t> Finished SEER_GUARDED_BY(ConnMutex);

  std::thread AcceptThread;
};

/// The production FrameHandler: decode -> Session::apply -> encode, with
/// one Session per connection (see the file comment).
class ServiceFrameHandler : public FrameHandler {
public:
  explicit ServiceFrameHandler(SeerService &Service);

  std::shared_ptr<void> connectionOpened() override;
  std::string handleFrame(const std::shared_ptr<void> &State,
                          const std::string &Payload) override;

private:
  SeerService &Service;
  Counter &ProtocolErrors;
};

} // namespace seer::net

#endif // SEER_NET_NETSERVER_H
