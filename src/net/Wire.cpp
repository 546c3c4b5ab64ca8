//===- net/Wire.cpp -------------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"

#include "support/FaultInjector.h"

#include <cstring>

using namespace seer;
using namespace seer::net;

namespace {

// -- Little-endian primitive writers ---------------------------------------

void putU8(std::string &Out, uint8_t V) {
  Out.push_back(static_cast<char>(V));
}

void putU32(std::string &Out, uint32_t V) {
  for (int Shift = 0; Shift < 32; Shift += 8)
    Out.push_back(static_cast<char>((V >> Shift) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    Out.push_back(static_cast<char>((V >> Shift) & 0xff));
}

void putF64(std::string &Out, double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Out, Bits);
}

void putString(std::string &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

void putF64Vec(std::string &Out, const std::vector<double> &V) {
  putU64(Out, V.size());
  for (double D : V)
    putF64(Out, D);
}

/// Bounds-checked little-endian reader over one frame payload. Every read
/// fails with INVALID_ARGUMENT once the payload runs short, which is how
/// truncated frames become typed errors.
class Reader {
public:
  explicit Reader(const std::string &Payload)
      : Data(reinterpret_cast<const uint8_t *>(Payload.data())),
        Size(Payload.size()) {}

  Status need(size_t Bytes) {
    if (Size - Pos < Bytes)
      return Status::invalidArgument("truncated frame body");
    return Status::okStatus();
  }

  Status u8(uint8_t &Out) {
    if (Status S = need(1); !S.ok())
      return S;
    Out = Data[Pos++];
    return Status::okStatus();
  }

  Status u32(uint32_t &Out) {
    if (Status S = need(4); !S.ok())
      return S;
    Out = 0;
    for (int Shift = 0; Shift < 32; Shift += 8)
      Out |= static_cast<uint32_t>(Data[Pos++]) << Shift;
    return Status::okStatus();
  }

  Status u64(uint64_t &Out) {
    if (Status S = need(8); !S.ok())
      return S;
    Out = 0;
    for (int Shift = 0; Shift < 64; Shift += 8)
      Out |= static_cast<uint64_t>(Data[Pos++]) << Shift;
    return Status::okStatus();
  }

  Status f64(double &Out) {
    uint64_t Bits = 0;
    if (Status S = u64(Bits); !S.ok())
      return S;
    std::memcpy(&Out, &Bits, sizeof(Out));
    return Status::okStatus();
  }

  Status str(std::string &Out) {
    uint32_t Len = 0;
    if (Status S = u32(Len); !S.ok())
      return S;
    if (Status S = need(Len); !S.ok())
      return S;
    Out.assign(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return Status::okStatus();
  }

  /// Reads a counted f64 vector; the count is validated against the
  /// remaining bytes *before* the allocation.
  Status f64Vec(std::vector<double> &Out) {
    uint64_t Count = 0;
    if (Status S = u64(Count); !S.ok())
      return S;
    return f64Vec(Out, Count);
  }

  /// Reads \p Count f64s whose count another field already carries (the
  /// CSR values array, counted by nnz).
  Status f64Vec(std::vector<double> &Out, uint64_t Count) {
    if (Count > (Size - Pos) / 8)
      return Status::invalidArgument("vector count exceeds frame size");
    Out.resize(static_cast<size_t>(Count));
    for (double &D : Out)
      if (Status S = f64(D); !S.ok())
        return S;
    return Status::okStatus();
  }

  Status u64Vec(std::vector<uint64_t> &Out, uint64_t Count) {
    if (Count > (Size - Pos) / 8)
      return Status::invalidArgument("vector count exceeds frame size");
    Out.resize(static_cast<size_t>(Count));
    for (uint64_t &V : Out)
      if (Status S = u64(V); !S.ok())
        return S;
    return Status::okStatus();
  }

  Status u32Vec(std::vector<uint32_t> &Out, uint64_t Count) {
    if (Count > (Size - Pos) / 4)
      return Status::invalidArgument("vector count exceeds frame size");
    Out.resize(static_cast<size_t>(Count));
    for (uint32_t &V : Out)
      if (Status S = u32(V); !S.ok())
        return S;
    return Status::okStatus();
  }

  /// Rejects unconsumed bytes: a frame that decodes but carries a tail is
  /// a framing bug, not a request.
  Status finish() const {
    if (Pos != Size)
      return Status::invalidArgument("trailing bytes in frame");
    return Status::okStatus();
  }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

/// Checks the payload's opcode byte and positions a Reader past it.
Status expectOp(Reader &R, Op Want) {
  uint8_t Code = 0;
  if (Status S = R.u8(Code); !S.ok())
    return S;
  if (Code != static_cast<uint8_t>(Want))
    return Status::invalidArgument("unexpected frame opcode");
  return Status::okStatus();
}

std::string requestHeader(Op Code, uint64_t Handle) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Code));
  putU64(Out, Handle);
  return Out;
}

} // namespace

Expected<Op> seer::net::frameOp(const std::string &Payload) {
  if (Payload.empty())
    return Status::invalidArgument("empty frame");
  const auto Code = static_cast<uint8_t>(Payload[0]);
  switch (static_cast<Op>(Code)) {
  case Op::Hello:
  case Op::Open:
  case Op::Close:
  case Op::Select:
  case Op::Execute:
  case Op::Batch:
  case Op::Fault:
  case Op::Stats:
  case Op::Metrics:
  case Op::Shutdown:
  case Op::RHello:
  case Op::ROpen:
  case Op::RStatus:
  case Op::RResponse:
  case Op::RBatch:
  case Op::RText:
    return static_cast<Op>(Code);
  }
  return Status::invalidArgument("unknown frame opcode " +
                                 std::to_string(Code));
}

Status seer::net::validateFrameLength(uint64_t Length, size_t MaxBytes) {
  if (Status F = FaultInjector::instance().check(faultsite::NetFrame);
      !F.ok())
    return F;
  if (Length == 0)
    return Status::invalidArgument("zero-length frame");
  if (Length > MaxBytes)
    return Status::invalidArgument(
        "frame length " + std::to_string(Length) + " exceeds the " +
        std::to_string(MaxBytes) + "-byte cap");
  return Status::okStatus();
}

void seer::net::appendFrame(std::string &Out, const std::string &Payload) {
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  Out.append(Payload);
}

// -- Request encoders ------------------------------------------------------

std::string seer::net::encodeHello(uint32_t Version) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Op::Hello));
  putU32(Out, Version);
  return Out;
}

std::string seer::net::encodeOpen(const std::string &Name,
                                  const CsrMatrix &Matrix) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Op::Open));
  putString(Out, Name);
  putU32(Out, Matrix.numRows());
  putU32(Out, Matrix.numCols());
  putU64(Out, Matrix.nnz());
  for (uint64_t Offset : Matrix.rowOffsets())
    putU64(Out, Offset);
  for (uint32_t Col : Matrix.columnIndices())
    putU32(Out, Col);
  for (double V : Matrix.values())
    putF64(Out, V);
  return Out;
}

std::string seer::net::encodeClose(uint64_t Handle) {
  return requestHeader(Op::Close, Handle);
}

std::string seer::net::encodeSelect(uint64_t Handle, uint32_t Iterations) {
  std::string Out = requestHeader(Op::Select, Handle);
  putU32(Out, Iterations);
  return Out;
}

std::string seer::net::encodeExecute(uint64_t Handle, uint32_t Iterations,
                                     bool Verify,
                                     const std::vector<double> &Operand) {
  std::string Out = requestHeader(Op::Execute, Handle);
  putU32(Out, Iterations);
  putU8(Out, Verify ? 1 : 0);
  putF64Vec(Out, Operand);
  return Out;
}

std::string seer::net::encodeBatch(uint64_t Handle, uint32_t Count,
                                   uint32_t Iterations) {
  std::string Out = requestHeader(Op::Batch, Handle);
  putU32(Out, Count);
  putU32(Out, Iterations);
  return Out;
}

std::string seer::net::encodeFault(const std::string &Spec) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Op::Fault));
  putString(Out, Spec);
  return Out;
}

std::string seer::net::encodeStats() {
  return std::string(1, static_cast<char>(Op::Stats));
}

std::string seer::net::encodeMetrics() {
  return std::string(1, static_cast<char>(Op::Metrics));
}

std::string seer::net::encodeShutdown() {
  return std::string(1, static_cast<char>(Op::Shutdown));
}

// -- Reply encoders --------------------------------------------------------

std::string seer::net::encodeHelloReply(uint32_t Version) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Op::RHello));
  putU32(Out, Version);
  return Out;
}

std::string seer::net::encodeOpenReply(uint64_t Handle,
                                       const HandleInfo &Info) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Op::ROpen));
  putU64(Out, Handle);
  putU64(Out, Info.Fingerprint);
  putU32(Out, Info.NumRows);
  putU32(Out, Info.NumCols);
  putU64(Out, Info.Nnz);
  putU8(Out, Info.AnalysisReused ? 1 : 0);
  return Out;
}

std::string seer::net::encodeStatusReply(const Status &S) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Op::RStatus));
  putU8(Out, static_cast<uint8_t>(S.code()));
  putString(Out, S.message());
  return Out;
}

std::string seer::net::encodeResponseReply(const ServeResponse &R) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Op::RResponse));
  putU64(Out, R.Selection.KernelIndex);
  putU8(Out, R.Selection.UsedGatheredModel ? 1 : 0);
  putF64(Out, R.Selection.FeatureCollectionMs);
  putF64(Out, R.Selection.InferenceMs);
  putF64(Out, R.ModeledCollectionMs);
  putU64(Out, R.Fingerprint);
  putU8(Out, R.CacheHit ? 1 : 0);
  putU32(Out, R.Iterations);
  putU8(Out, R.Executed ? 1 : 0);
  putU8(Out, R.PreprocessAmortized ? 1 : 0);
  putF64(Out, R.PreprocessMs);
  putF64(Out, R.ModeledPreprocessMs);
  putF64(Out, R.IterationMs);
  putF64Vec(Out, R.Y);
  putU8(Out, R.OracleChecked ? 1 : 0);
  putU64(Out, R.OracleKernelIndex);
  putU8(Out, R.Mispredicted ? 1 : 0);
  putF64(Out, R.RegretMs);
  putF64(Out, R.ServiceMicros);
  putU8(Out, R.Degraded ? 1 : 0);
  return Out;
}

std::string seer::net::encodeBatchReply(const BatchResponse &R) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Op::RBatch));
  putU64(Out, R.Selection.KernelIndex);
  putU8(Out, R.Selection.UsedGatheredModel ? 1 : 0);
  putF64(Out, R.Selection.FeatureCollectionMs);
  putF64(Out, R.Selection.InferenceMs);
  putF64(Out, R.ModeledCollectionMs);
  putU64(Out, R.Fingerprint);
  putU8(Out, R.CacheHit ? 1 : 0);
  putU32(Out, R.Iterations);
  putU8(Out, R.PreprocessAmortized ? 1 : 0);
  putF64(Out, R.PreprocessMs);
  putF64(Out, R.ModeledPreprocessMs);
  putF64(Out, R.IterationMs);
  putU64(Out, R.Y.size());
  for (const std::vector<double> &Y : R.Y)
    putF64Vec(Out, Y);
  putF64(Out, R.ServiceMicros);
  putU8(Out, R.Degraded ? 1 : 0);
  return Out;
}

std::string seer::net::encodeTextReply(Op Kind, const std::string &Text) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(Kind));
  putString(Out, Text);
  return Out;
}

// -- Decoders --------------------------------------------------------------

Expected<uint32_t> seer::net::decodeHello(const std::string &Payload) {
  Reader R(Payload);
  uint32_t Version = 0;
  if (Status S = expectOp(R, Op::Hello); !S.ok())
    return S;
  if (Status S = R.u32(Version); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Version;
}

Expected<OpenRequest> seer::net::decodeOpen(const std::string &Payload) {
  Reader R(Payload);
  if (Status S = expectOp(R, Op::Open); !S.ok())
    return S;
  OpenRequest Out;
  uint32_t Rows = 0, Cols = 0;
  uint64_t Nnz = 0;
  if (Status S = R.str(Out.Name); !S.ok())
    return S;
  if (Status S = R.u32(Rows); !S.ok())
    return S;
  if (Status S = R.u32(Cols); !S.ok())
    return S;
  if (Status S = R.u64(Nnz); !S.ok())
    return S;
  std::vector<uint64_t> Offsets;
  std::vector<uint32_t> Columns;
  std::vector<double> Values;
  if (Status S = R.u64Vec(Offsets, uint64_t(Rows) + 1); !S.ok())
    return S;
  if (Status S = R.u32Vec(Columns, Nnz); !S.ok())
    return S;
  if (Status S = R.f64Vec(Values, Nnz); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  // Validate the invariants fromArrays asserts, so a hostile frame gets a
  // typed error instead of tripping a debug assert (or building a matrix
  // that violates kernel preconditions in release builds).
  if (Values.size() != Nnz || Columns.size() != Nnz)
    return Status::invalidArgument("CSR array sizes disagree with nnz");
  if (Offsets.empty() || Offsets.front() != 0 || Offsets.back() != Nnz)
    return Status::invalidArgument("CSR row offsets malformed");
  for (size_t I = 0; I + 1 < Offsets.size(); ++I)
    if (Offsets[I] > Offsets[I + 1])
      return Status::invalidArgument("CSR row offsets not monotone");
  for (uint32_t Col : Columns)
    if (Col >= Cols)
      return Status::invalidArgument("CSR column index out of range");
  Out.Matrix = CsrMatrix::fromArrays(Rows, Cols, std::move(Offsets),
                                     std::move(Columns), std::move(Values));
  std::string Why;
  if (!Out.Matrix.verify(&Why))
    return Status::invalidArgument("invalid CSR payload: " + Why);
  return Out;
}

Expected<SessionOp> seer::net::decodeClose(const std::string &Payload) {
  Reader R(Payload);
  SessionOp Out;
  Out.Type = SessionOp::Kind::Close;
  if (Status S = expectOp(R, Op::Close); !S.ok())
    return S;
  if (Status S = R.u64(Out.Handle); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Out;
}

Expected<SessionOp> seer::net::decodeSelect(const std::string &Payload) {
  Reader R(Payload);
  SessionOp Out;
  Out.Type = SessionOp::Kind::Select;
  if (Status S = expectOp(R, Op::Select); !S.ok())
    return S;
  if (Status S = R.u64(Out.Handle); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Out;
}

Expected<SessionOp> seer::net::decodeExecute(const std::string &Payload) {
  Reader R(Payload);
  SessionOp Out;
  Out.Type = SessionOp::Kind::Execute;
  uint8_t Verify = 0;
  if (Status S = expectOp(R, Op::Execute); !S.ok())
    return S;
  if (Status S = R.u64(Out.Handle); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.u8(Verify); !S.ok())
    return S;
  if (Status S = R.f64Vec(Out.Operand); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  Out.Verify = Verify != 0;
  return Out;
}

Expected<SessionOp> seer::net::decodeBatch(const std::string &Payload) {
  Reader R(Payload);
  SessionOp Out;
  Out.Type = SessionOp::Kind::Batch;
  if (Status S = expectOp(R, Op::Batch); !S.ok())
    return S;
  if (Status S = R.u64(Out.Handle); !S.ok())
    return S;
  if (Status S = R.u32(Out.Count); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Out;
}

Expected<SessionOp> seer::net::decodeFault(const std::string &Payload) {
  Reader R(Payload);
  SessionOp Out;
  Out.Type = SessionOp::Kind::Fault;
  if (Status S = expectOp(R, Op::Fault); !S.ok())
    return S;
  if (Status S = R.str(Out.FaultSpec); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Out;
}

Expected<uint32_t> seer::net::decodeHelloReply(const std::string &Payload) {
  Reader R(Payload);
  uint32_t Version = 0;
  if (Status S = expectOp(R, Op::RHello); !S.ok())
    return S;
  if (Status S = R.u32(Version); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Version;
}

Expected<Reply> seer::net::decodeOpenReply(const std::string &Payload) {
  Reader R(Payload);
  Reply Out;
  Out.Type = Reply::Kind::Opened;
  uint8_t Reused = 0;
  if (Status S = expectOp(R, Op::ROpen); !S.ok())
    return S;
  if (Status S = R.u64(Out.Handle); !S.ok())
    return S;
  if (Status S = R.u64(Out.Info.Fingerprint); !S.ok())
    return S;
  if (Status S = R.u32(Out.Info.NumRows); !S.ok())
    return S;
  if (Status S = R.u32(Out.Info.NumCols); !S.ok())
    return S;
  if (Status S = R.u64(Out.Info.Nnz); !S.ok())
    return S;
  if (Status S = R.u8(Reused); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  Out.Info.AnalysisReused = Reused != 0;
  return Out;
}

Status seer::net::decodeStatusReply(const std::string &Payload,
                                    Status &Decoded) {
  Reader R(Payload);
  uint8_t Code = 0;
  std::string Message;
  if (Status S = expectOp(R, Op::RStatus); !S.ok())
    return S;
  if (Status S = R.u8(Code); !S.ok())
    return S;
  if (Status S = R.str(Message); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  if (Code > static_cast<uint8_t>(StatusCode::DeadlineExceeded))
    return Status::invalidArgument("unknown status code on the wire");
  if (static_cast<StatusCode>(Code) == StatusCode::Ok)
    Decoded = Status::okStatus();
  else
    Decoded = Status(static_cast<StatusCode>(Code), std::move(Message));
  return Status::okStatus();
}

Expected<ServeResponse>
seer::net::decodeResponseReply(const std::string &Payload) {
  Reader R(Payload);
  ServeResponse Out;
  uint64_t Kernel = 0, OracleKernel = 0;
  uint8_t Gathered = 0, CacheHit = 0, Executed = 0, Amortized = 0;
  uint8_t OracleChecked = 0, Mispredicted = 0, Degraded = 0;
  if (Status S = expectOp(R, Op::RResponse); !S.ok())
    return S;
  if (Status S = R.u64(Kernel); !S.ok())
    return S;
  if (Status S = R.u8(Gathered); !S.ok())
    return S;
  if (Status S = R.f64(Out.Selection.FeatureCollectionMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.Selection.InferenceMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ModeledCollectionMs); !S.ok())
    return S;
  if (Status S = R.u64(Out.Fingerprint); !S.ok())
    return S;
  if (Status S = R.u8(CacheHit); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.u8(Executed); !S.ok())
    return S;
  if (Status S = R.u8(Amortized); !S.ok())
    return S;
  if (Status S = R.f64(Out.PreprocessMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ModeledPreprocessMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.IterationMs); !S.ok())
    return S;
  if (Status S = R.f64Vec(Out.Y); !S.ok())
    return S;
  if (Status S = R.u8(OracleChecked); !S.ok())
    return S;
  if (Status S = R.u64(OracleKernel); !S.ok())
    return S;
  if (Status S = R.u8(Mispredicted); !S.ok())
    return S;
  if (Status S = R.f64(Out.RegretMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ServiceMicros); !S.ok())
    return S;
  if (Status S = R.u8(Degraded); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  Out.Selection.KernelIndex = static_cast<size_t>(Kernel);
  Out.Selection.UsedGatheredModel = Gathered != 0;
  Out.CacheHit = CacheHit != 0;
  Out.Executed = Executed != 0;
  Out.PreprocessAmortized = Amortized != 0;
  Out.OracleChecked = OracleChecked != 0;
  Out.OracleKernelIndex = static_cast<size_t>(OracleKernel);
  Out.Mispredicted = Mispredicted != 0;
  Out.Degraded = Degraded != 0;
  return Out;
}

Expected<BatchResponse>
seer::net::decodeBatchReply(const std::string &Payload) {
  Reader R(Payload);
  BatchResponse Out;
  uint64_t Kernel = 0, Operands = 0;
  uint8_t Gathered = 0, CacheHit = 0, Amortized = 0, Degraded = 0;
  if (Status S = expectOp(R, Op::RBatch); !S.ok())
    return S;
  if (Status S = R.u64(Kernel); !S.ok())
    return S;
  if (Status S = R.u8(Gathered); !S.ok())
    return S;
  if (Status S = R.f64(Out.Selection.FeatureCollectionMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.Selection.InferenceMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ModeledCollectionMs); !S.ok())
    return S;
  if (Status S = R.u64(Out.Fingerprint); !S.ok())
    return S;
  if (Status S = R.u8(CacheHit); !S.ok())
    return S;
  if (Status S = R.u32(Out.Iterations); !S.ok())
    return S;
  if (Status S = R.u8(Amortized); !S.ok())
    return S;
  if (Status S = R.f64(Out.PreprocessMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.ModeledPreprocessMs); !S.ok())
    return S;
  if (Status S = R.f64(Out.IterationMs); !S.ok())
    return S;
  if (Status S = R.u64(Operands); !S.ok())
    return S;
  Out.Y.resize(0);
  Out.Y.reserve(static_cast<size_t>(Operands < 4096 ? Operands : 4096));
  for (uint64_t I = 0; I < Operands; ++I) {
    std::vector<double> Y;
    if (Status S = R.f64Vec(Y); !S.ok())
      return S;
    Out.Y.push_back(std::move(Y));
  }
  if (Status S = R.f64(Out.ServiceMicros); !S.ok())
    return S;
  if (Status S = R.u8(Degraded); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  Out.Selection.KernelIndex = static_cast<size_t>(Kernel);
  Out.Selection.UsedGatheredModel = Gathered != 0;
  Out.CacheHit = CacheHit != 0;
  Out.PreprocessAmortized = Amortized != 0;
  Out.Degraded = Degraded != 0;
  return Out;
}

Expected<std::string> seer::net::decodeTextReply(const std::string &Payload) {
  Reader R(Payload);
  uint8_t Code = 0;
  std::string Text;
  if (Status S = R.u8(Code); !S.ok())
    return S;
  if (Code != static_cast<uint8_t>(Op::RText))
    return Status::invalidArgument("expected a text reply frame");
  if (Status S = R.str(Text); !S.ok())
    return S;
  if (Status S = R.finish(); !S.ok())
    return S;
  return Text;
}

// -- The session model over frames -----------------------------------------

Expected<SessionOp> seer::net::decodeRequest(const std::string &Payload) {
  const auto Code = frameOp(Payload);
  if (!Code)
    return Code.status();
  SessionOp Decoded;
  switch (*Code) {
  case Op::Open: {
    auto Req = decodeOpen(Payload);
    if (!Req)
      return Req.status();
    Decoded.Type = SessionOp::Kind::Open;
    Decoded.Name = std::move(Req->Name);
    Decoded.Matrix = std::move(Req->Matrix);
    return Decoded;
  }
  case Op::Close:
    return decodeClose(Payload);
  case Op::Select:
    return decodeSelect(Payload);
  case Op::Execute:
    return decodeExecute(Payload);
  case Op::Batch:
    return decodeBatch(Payload);
  case Op::Fault:
    return decodeFault(Payload);
  case Op::Stats:
  case Op::Metrics:
    Decoded.Type = *Code == Op::Stats ? SessionOp::Kind::Stats
                                      : SessionOp::Kind::Metrics;
    return Decoded;
  default:
    return Status::invalidArgument("unexpected opcode in request: " +
                                   std::to_string(unsigned(*Code)));
  }
}

std::string seer::net::encodeReply(const Reply &R) {
  switch (R.Type) {
  case Reply::Kind::Opened:
    return encodeOpenReply(R.Handle, R.Info);
  case Reply::Kind::Ack:
    break;
  case Reply::Kind::Response:
    return encodeResponseReply(R.Response);
  case Reply::Kind::Batch:
    return encodeBatchReply(R.Batch);
  case Reply::Kind::Text:
    return encodeTextReply(Op::RText, R.Text);
  }
  return encodeStatusReply(Status::okStatus());
}

Expected<uint64_t> seer::net::requestHandle(const std::string &Payload) {
  const auto Code = frameOp(Payload);
  if (!Code)
    return Code.status();
  switch (*Code) {
  case Op::Close:
  case Op::Select:
  case Op::Execute:
  case Op::Batch:
    break;
  default:
    return Status::invalidArgument("frame carries no handle");
  }
  if (Payload.size() < 9)
    return Status::invalidArgument("frame too short for a handle");
  uint64_t Handle = 0;
  for (int I = 0; I < 8; ++I)
    Handle |= static_cast<uint64_t>(static_cast<uint8_t>(Payload[1 + I]))
              << (8 * I);
  return Handle;
}

Status seer::net::rewriteRequestHandle(std::string &Payload,
                                       uint64_t NewHandle) {
  if (auto Old = requestHandle(Payload); !Old)
    return Old.status();
  for (int I = 0; I < 8; ++I)
    Payload[1 + I] = static_cast<char>((NewHandle >> (8 * I)) & 0xff);
  return Status::okStatus();
}
