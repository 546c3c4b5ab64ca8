//===- net/NetClient.cpp --------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "net/NetClient.h"

using namespace seer;
using namespace seer::net;

namespace {

/// Round-trips \p Request and decodes a reply that should carry a T
/// (RResponse / RBatch / ROpen / RText / RHello): an RStatus answer
/// resolves to the typed Status it carries instead.
template <typename T, typename DecodeFn>
Expected<T> roundTrip(NetClient &Client, const std::string &Request,
                      DecodeFn Decode) {
  auto Reply = Client.call(Request);
  if (!Reply.ok())
    return Reply.status();
  auto OpOr = frameOp(*Reply);
  if (!OpOr.ok())
    return OpOr.status();
  if (*OpOr == Op::RStatus) {
    Status Carried = Status::okStatus();
    if (Status S = decodeStatusReply(*Reply, Carried); !S.ok())
      return S;
    if (Carried.ok())
      return Status::internal(
          "server acknowledged where a typed reply was expected");
    return Carried;
  }
  return Decode(*Reply);
}

/// Round-trips \p Request whose reply is an ack: RStatus carrying OK (or
/// the typed failure it carries).
Status ackCall(NetClient &Client, const std::string &Request) {
  auto Reply = Client.call(Request);
  if (!Reply.ok())
    return Reply.status();
  Status Carried = Status::okStatus();
  if (Status S = decodeStatusReply(*Reply, Carried); !S.ok())
    return S;
  return Carried;
}

} // namespace

Expected<NetClient> NetClient::connect(const std::string &Host,
                                       uint16_t Port, size_t MaxFrameBytes) {
  auto SockOr = Socket::connectTo(Host, Port);
  if (!SockOr.ok())
    return SockOr.status();
  NetClient Client(std::move(*SockOr), MaxFrameBytes);
  auto VersionOr =
      roundTrip<uint32_t>(Client, encodeHello(), decodeHelloReply);
  if (!VersionOr.ok())
    return VersionOr.status();
  if (*VersionOr != WireVersion)
    return Status::failedPrecondition(
        "wire version mismatch: server speaks v" +
        std::to_string(*VersionOr) + ", client speaks v" +
        std::to_string(WireVersion));
  return Client;
}

Expected<std::string> NetClient::call(const std::string &RequestPayload) {
  if (Status S = writeFrame(Sock, RequestPayload); !S.ok())
    return S;
  std::string Reply;
  bool CleanClose = false;
  if (Status S = readFrame(Sock, MaxFrameBytes, Reply, &CleanClose);
      !S.ok())
    return S;
  if (CleanClose)
    return Status::unavailable("server closed the connection");
  return Reply;
}

Expected<Reply> NetClient::open(const std::string &Name,
                                const CsrMatrix &Matrix) {
  return roundTrip<Reply>(*this, encodeOpen(Name, Matrix), decodeOpenReply);
}

Status NetClient::close(uint64_t Handle) {
  return ackCall(*this, encodeClose(Handle));
}

Expected<ServeResponse> NetClient::select(uint64_t Handle,
                                          uint32_t Iterations) {
  return roundTrip<ServeResponse>(*this, encodeSelect(Handle, Iterations),
                                  decodeResponseReply);
}

Expected<ServeResponse> NetClient::execute(uint64_t Handle,
                                           uint32_t Iterations, bool Verify,
                                           const std::vector<double> &Operand) {
  return roundTrip<ServeResponse>(
      *this, encodeExecute(Handle, Iterations, Verify, Operand),
      decodeResponseReply);
}

Expected<BatchResponse> NetClient::batch(uint64_t Handle, uint32_t Count,
                                         uint32_t Iterations) {
  return roundTrip<BatchResponse>(*this, encodeBatch(Handle, Count, Iterations),
                                  decodeBatchReply);
}

Status NetClient::fault(const std::string &Spec) {
  return ackCall(*this, encodeFault(Spec));
}

Expected<std::string> NetClient::statsText() {
  return roundTrip<std::string>(*this, encodeStats(), decodeTextReply);
}

Expected<std::string> NetClient::metricsText() {
  return roundTrip<std::string>(*this, encodeMetrics(), decodeTextReply);
}

Status NetClient::shutdownServer() { return ackCall(*this, encodeShutdown()); }

Expected<Reply> NetClient::apply(const SessionOp &Op) {
  Reply R;
  Status S = Status::okStatus();
  switch (Op.Type) {
  case SessionOp::Kind::Open: {
    // A shared CSR input is encoded as is; any other form is materialized
    // here, so its ingestion errors surface before anything is sent.
    const auto *Shared =
        std::get_if<std::shared_ptr<const CsrMatrix>>(&Op.Matrix);
    Expected<CsrMatrix> Built = CsrMatrix();
    if (!Shared || !*Shared)
      Built = materializeMatrixInput(Op.Matrix);
    if (!Built)
      return Built.status();
    return open(Op.Name, Shared && *Shared ? **Shared : *Built);
  }
  case SessionOp::Kind::Close:
    S = close(Op.Handle);
    break;
  case SessionOp::Kind::Fault:
    S = fault(Op.FaultSpec);
    break;
  case SessionOp::Kind::Select:
  case SessionOp::Kind::Execute: {
    auto Response = Op.Type == SessionOp::Kind::Select
                        ? select(Op.Handle, Op.Iterations)
                        : execute(Op.Handle, Op.Iterations, Op.Verify,
                                  Op.Operand);
    if (!Response)
      return Response.status();
    R.Type = Reply::Kind::Response;
    R.Response = std::move(*Response);
    return R;
  }
  case SessionOp::Kind::Batch: {
    auto Batch = batch(Op.Handle, Op.Count, Op.Iterations);
    if (!Batch)
      return Batch.status();
    R.Type = Reply::Kind::Batch;
    R.Batch = std::move(*Batch);
    return R;
  }
  case SessionOp::Kind::Stats:
  case SessionOp::Kind::Metrics: {
    auto Text = Op.Type == SessionOp::Kind::Stats ? statsText() : metricsText();
    if (!Text)
      return Text.status();
    R.Type = Reply::Kind::Text;
    R.Text = std::move(*Text);
    return R;
  }
  }
  if (!S.ok())
    return S;
  return R; // an Ack
}
