//===- tests/net_test.cpp - Wire protocol and networked serving -----------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The networked-serving contract: every wire frame round-trips bit-
// exactly (doubles travel as IEEE-754 bit patterns), every malformed
// frame — truncated body, trailing bytes, unknown opcode, hostile
// declared length, CSR invariant violations — decodes to a typed
// INVALID_ARGUMENT instead of a misparse, the in-place handle rewrite
// the shard balancer relies on really does leave the rest of the frame
// untouched, wire-level faults (net.accept / net.read / net.write /
// net.frame sites, short reads, mid-stream drops) surface as the typed
// Status the fault plan or the transport dictates, loopback
// NetServer+NetClient sessions — one or several concurrent — produce
// responses bit-identical to the in-process API, wire requests pass the
// service's admission control, stopping answers the frame in flight yet
// cannot be held forever by a peer that stops reading, finished
// connection threads are reaped, the consistent-hash shard router is
// deterministic, covering, and honored end-to-end by the balancer
// handler, and at a fixed per-shard byte budget more shards re-analyze
// strictly less under churn.
//
//===----------------------------------------------------------------------===//

#include "api/MatrixInput.h"
#include "api/SeerService.h"
#include "core/Seer.h"
#include "net/NetClient.h"
#include "net/NetServer.h"
#include "net/ShardRouter.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "serve/RequestTrace.h"
#include "support/StringUtils.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <pthread.h>
#include <sys/socket.h>

using namespace seer;
using namespace seer::net;

namespace {

/// Every armed plan must be scoped: the injector is process-wide and the
/// next test expects a quiet one.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm(); }
};

/// Parses and arms \p PlanText, failing the test on any defect.
void armPlan(const std::string &PlanText) {
  const auto Plan = FaultPlan::parse(PlanText);
  ASSERT_TRUE(Plan) << Plan.status().toString();
  const Status Armed = FaultInjector::instance().arm(*Plan);
  ASSERT_TRUE(Armed.ok()) << Armed.toString();
}

/// A tiny but diverse collection for fast serving tests.
std::vector<MatrixSpec> tinyCollection() {
  CollectionConfig Config;
  Config.MaxRows = 4096;
  Config.VariantsPerCell = 2;
  Config.IncludeReplicas = false;
  return buildCollection(Config);
}

/// Models trained once on the tiny collection (shared across tests).
const SeerModels &tinyModels() {
  static const SeerModels Models = [] {
    const KernelRegistry Registry;
    const GpuSimulator Sim(DeviceModel::mi100());
    BenchmarkConfig Protocol;
    Protocol.Parallelism = 0;
    const Benchmarker Runner(Registry, Sim, Protocol);
    TrainerConfig Trainer;
    Trainer.Parallelism = 0;
    return trainSeerModels(Runner.benchmarkCollection(tinyCollection()),
                           Registry.names(), Trainer);
  }();
  return Models;
}

/// A deterministic matrix per seed, small enough for fast loopback runs.
CsrMatrix genMatrix(double Seed) {
  auto M = materializeMatrixInput(
      GeneratorSpec{"powerlaw", {512, 1.8, 1, 64, Seed}});
  EXPECT_TRUE(M) << M.status().toString();
  return std::move(*M);
}

/// Doubles whose bit patterns catch lossy round-trips: negative zero,
/// denormals, and values with no short decimal representation.
std::vector<double> trickyDoubles() {
  return {0.0, -0.0, 1.0 / 3.0, 5e-324, -2.2250738585072014e-308,
          1.7976931348623157e308, 123.4567891011121314};
}

bool bitsEqual(const std::vector<double> &A, const std::vector<double> &B) {
  if (A.size() != B.size())
    return false;
  return A.empty() ||
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

//===----------------------------------------------------------------------===//
// Codec round-trips
//===----------------------------------------------------------------------===//

TEST(WireCodec, HelloRoundTripsAndRejectsNothing) {
  const std::string Req = encodeHello(7);
  const auto Version = decodeHello(Req);
  ASSERT_TRUE(Version) << Version.status().toString();
  EXPECT_EQ(*Version, 7u);
  const auto Reply = decodeHelloReply(encodeHelloReply(9));
  ASSERT_TRUE(Reply);
  EXPECT_EQ(*Reply, 9u);
}

TEST(WireCodec, OpenRoundTripsBitExactly) {
  const CsrMatrix M = genMatrix(11);
  const std::string Payload = encodeOpen("web", M);
  const auto Decoded = decodeOpen(Payload);
  ASSERT_TRUE(Decoded) << Decoded.status().toString();
  EXPECT_EQ(Decoded->Name, "web");
  EXPECT_EQ(Decoded->Matrix.numRows(), M.numRows());
  EXPECT_EQ(Decoded->Matrix.numCols(), M.numCols());
  EXPECT_EQ(Decoded->Matrix.nnz(), M.nnz());
  EXPECT_EQ(Decoded->Matrix.rowOffsets(), M.rowOffsets());
  EXPECT_EQ(Decoded->Matrix.columnIndices(), M.columnIndices());
  EXPECT_TRUE(bitsEqual(Decoded->Matrix.values(), M.values()));
}

TEST(WireCodec, RequestsRoundTrip) {
  const auto Close = decodeClose(encodeClose(42));
  ASSERT_TRUE(Close);
  EXPECT_EQ(Close->Type, SessionOp::Kind::Close);
  EXPECT_EQ(Close->Handle, 42u);

  const auto Select = decodeSelect(encodeSelect(7, 19));
  ASSERT_TRUE(Select);
  EXPECT_EQ(Select->Handle, 7u);
  EXPECT_EQ(Select->Iterations, 19u);
  EXPECT_FALSE(Select->Verify);
  EXPECT_TRUE(Select->Operand.empty());

  const std::vector<double> Operand = trickyDoubles();
  const auto Exec = decodeExecute(encodeExecute(9, 3, true, Operand));
  ASSERT_TRUE(Exec);
  EXPECT_EQ(Exec->Handle, 9u);
  EXPECT_EQ(Exec->Iterations, 3u);
  EXPECT_TRUE(Exec->Verify);
  EXPECT_TRUE(bitsEqual(Exec->Operand, Operand));

  const auto Batch = decodeBatch(encodeBatch(5, 64, 2));
  ASSERT_TRUE(Batch);
  EXPECT_EQ(Batch->Handle, 5u);
  EXPECT_EQ(Batch->Count, 64u);
  EXPECT_EQ(Batch->Iterations, 2u);

  const auto Fault = decodeFault(encodeFault("net.read nth=1 status=INTERNAL"));
  ASSERT_TRUE(Fault);
  EXPECT_EQ(Fault->FaultSpec, "net.read nth=1 status=INTERNAL");

  // The bodyless requests are just their opcode byte.
  for (Op Kind : {Op::Stats, Op::Metrics, Op::Shutdown}) {
    const std::string Payload(1, static_cast<char>(Kind));
    const auto Decoded = frameOp(Payload);
    ASSERT_TRUE(Decoded);
    EXPECT_EQ(*Decoded, Kind);
  }
}

TEST(WireCodec, RepliesRoundTrip) {
  HandleInfo Info;
  Info.Fingerprint = 0xdeadbeefcafe1234ull;
  Info.NumRows = 512;
  Info.NumCols = 512;
  Info.Nnz = 4097;
  Info.AnalysisReused = true;
  const auto Open = decodeOpenReply(encodeOpenReply(77, Info));
  ASSERT_TRUE(Open) << Open.status().toString();
  EXPECT_EQ(Open->Handle, 77u);
  EXPECT_EQ(Open->Info.Fingerprint, Info.Fingerprint);
  EXPECT_EQ(Open->Info.Nnz, Info.Nnz);
  EXPECT_TRUE(Open->Info.AnalysisReused);

  Status Carried = Status::okStatus();
  ASSERT_TRUE(decodeStatusReply(encodeStatusReply(Status::okStatus()), Carried)
                  .ok());
  EXPECT_TRUE(Carried.ok());
  ASSERT_TRUE(decodeStatusReply(
                  encodeStatusReply(Status::notFound("no handle 9")), Carried)
                  .ok());
  EXPECT_EQ(Carried.code(), StatusCode::NotFound);
  EXPECT_EQ(Carried.message(), "no handle 9");

  ServeResponse R;
  R.Selection.KernelIndex = 3;
  R.Selection.UsedGatheredModel = true;
  R.Selection.FeatureCollectionMs = 0.25;
  R.Selection.InferenceMs = 1.0 / 3.0;
  R.ModeledCollectionMs = 0.5;
  R.Fingerprint = 0x123456789abcdef0ull;
  R.CacheHit = true;
  R.Iterations = 19;
  R.Executed = true;
  R.PreprocessAmortized = true;
  R.PreprocessMs = 0.0625;
  R.ModeledPreprocessMs = 0.125;
  R.IterationMs = 0.0078125;
  R.Y = trickyDoubles();
  R.OracleChecked = true;
  R.OracleKernelIndex = 5;
  R.Mispredicted = true;
  R.RegretMs = 0.03125;
  R.ServiceMicros = 42.5;
  R.Degraded = true;
  const auto Decoded = decodeResponseReply(encodeResponseReply(R));
  ASSERT_TRUE(Decoded) << Decoded.status().toString();
  EXPECT_EQ(Decoded->Selection.KernelIndex, R.Selection.KernelIndex);
  EXPECT_TRUE(Decoded->Selection.UsedGatheredModel);
  EXPECT_EQ(Decoded->Fingerprint, R.Fingerprint);
  EXPECT_EQ(Decoded->Iterations, R.Iterations);
  EXPECT_TRUE(Decoded->Executed);
  EXPECT_TRUE(Decoded->PreprocessAmortized);
  EXPECT_TRUE(bitsEqual(Decoded->Y, R.Y));
  EXPECT_TRUE(Decoded->OracleChecked);
  EXPECT_EQ(Decoded->OracleKernelIndex, R.OracleKernelIndex);
  EXPECT_TRUE(Decoded->Mispredicted);
  EXPECT_TRUE(Decoded->Degraded);
  const double Fields[] = {R.Selection.FeatureCollectionMs,
                           R.Selection.InferenceMs, R.ModeledCollectionMs,
                           R.PreprocessMs, R.ModeledPreprocessMs,
                           R.IterationMs, R.RegretMs, R.ServiceMicros};
  const double Back[] = {Decoded->Selection.FeatureCollectionMs,
                         Decoded->Selection.InferenceMs,
                         Decoded->ModeledCollectionMs, Decoded->PreprocessMs,
                         Decoded->ModeledPreprocessMs, Decoded->IterationMs,
                         Decoded->RegretMs, Decoded->ServiceMicros};
  EXPECT_EQ(0, std::memcmp(Fields, Back, sizeof(Fields)));

  BatchResponse B;
  B.Selection.KernelIndex = 2;
  B.Fingerprint = 99;
  B.Iterations = 4;
  B.IterationMs = 2.0 / 7.0;
  B.Y = {trickyDoubles(), {1.5, -2.5}, {}};
  const auto BDecoded = decodeBatchReply(encodeBatchReply(B));
  ASSERT_TRUE(BDecoded) << BDecoded.status().toString();
  EXPECT_EQ(BDecoded->Selection.KernelIndex, 2u);
  ASSERT_EQ(BDecoded->Y.size(), 3u);
  EXPECT_TRUE(bitsEqual(BDecoded->Y[0], B.Y[0]));
  EXPECT_TRUE(bitsEqual(BDecoded->Y[1], B.Y[1]));
  EXPECT_TRUE(BDecoded->Y[2].empty());

  const auto Text = decodeTextReply(
      encodeTextReply(Op::RText, "stat requests 5\nstat hits 2\n"));
  ASSERT_TRUE(Text);
  EXPECT_EQ(*Text, "stat requests 5\nstat hits 2\n");
}

//===----------------------------------------------------------------------===//
// Malformed frames: typed errors, never misparses
//===----------------------------------------------------------------------===//

TEST(WireCodec, MalformedFramesAreTypedErrors) {
  // Empty payload and unknown opcode.
  EXPECT_EQ(frameOp("").status().code(), StatusCode::InvalidArgument);
  EXPECT_EQ(frameOp(std::string(1, '\x7f')).status().code(),
            StatusCode::InvalidArgument);

  // Truncated body: drop the last byte of each well-formed request.
  const CsrMatrix M = genMatrix(3);
  const std::string Frames[] = {
      encodeOpen("m", M), encodeClose(1), encodeSelect(1, 5),
      encodeExecute(1, 5, true, {1.0, 2.0}), encodeBatch(1, 8, 2),
      encodeFault("clear")};
  for (const std::string &Payload : Frames) {
    const std::string Short = Payload.substr(0, Payload.size() - 1);
    Status Worst = Status::okStatus();
    switch (*frameOp(Payload)) {
    case Op::Open:
      Worst = decodeOpen(Short).status();
      break;
    case Op::Close:
      Worst = decodeClose(Short).status();
      break;
    case Op::Select:
      Worst = decodeSelect(Short).status();
      break;
    case Op::Execute:
      Worst = decodeExecute(Short).status();
      break;
    case Op::Batch:
      Worst = decodeBatch(Short).status();
      break;
    case Op::Fault:
      Worst = decodeFault(Short).status();
      break;
    default:
      FAIL() << "unexpected opcode";
    }
    EXPECT_EQ(Worst.code(), StatusCode::InvalidArgument) << Worst.toString();
  }

  // Trailing bytes are rejected, not ignored.
  EXPECT_EQ(decodeClose(encodeClose(1) + "x").status().code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(decodeSelect(encodeSelect(1, 5) + std::string(2, '\0'))
                .status()
                .code(),
            StatusCode::InvalidArgument);

  // A hostile operand count cannot request memory the frame lacks.
  std::string Exec = encodeExecute(1, 5, false, {});
  // The empty operand's u64 count is the last 8 bytes; forge it huge.
  for (size_t I = 0; I < 8; ++I)
    Exec[Exec.size() - 1 - I] = '\xff';
  EXPECT_EQ(decodeExecute(Exec).status().code(), StatusCode::InvalidArgument);
}

TEST(WireCodec, FrameLengthValidation) {
  EXPECT_EQ(validateFrameLength(0, DefaultMaxFrameBytes).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(validateFrameLength(DefaultMaxFrameBytes + 1, DefaultMaxFrameBytes)
                .code(),
            StatusCode::InvalidArgument);
  EXPECT_TRUE(validateFrameLength(1, DefaultMaxFrameBytes).ok());
  EXPECT_TRUE(
      validateFrameLength(DefaultMaxFrameBytes, DefaultMaxFrameBytes).ok());
}

TEST(WireCodec, OpenRejectsInvariantViolations) {
  const CsrMatrix M = genMatrix(5);

  // Corrupt the final row offset (must equal nnz). Offsets start after
  // opcode + name (u32 len + bytes) + rows/cols (u32 each) + nnz (u64).
  std::string Payload = encodeOpen("m", M);
  const size_t OffsetsStart = 1 + 4 + 1 + 4 + 4 + 8;
  const size_t LastOffset = OffsetsStart + 8 * M.numRows();
  Payload[LastOffset] = static_cast<char>(Payload[LastOffset] + 1);
  const Status Bad = decodeOpen(Payload).status();
  EXPECT_EQ(Bad.code(), StatusCode::InvalidArgument) << Bad.toString();

  // A column index >= NumCols is rejected before fromArrays asserts.
  CsrMatrix Narrow = genMatrix(5);
  std::string Payload2 = encodeOpen("m", Narrow);
  const size_t ColumnsStart = OffsetsStart + 8 * (size_t(Narrow.numRows()) + 1);
  for (size_t I = 0; I < 4; ++I)
    Payload2[ColumnsStart + I] = '\xff';
  const Status BadCol = decodeOpen(Payload2).status();
  EXPECT_EQ(BadCol.code(), StatusCode::InvalidArgument) << BadCol.toString();
}

TEST(WireCodec, HandleRewriteTouchesOnlyTheHandle) {
  for (std::string Payload :
       {encodeClose(7), encodeSelect(7, 19),
        encodeExecute(7, 3, true, trickyDoubles()), encodeBatch(7, 64, 2)}) {
    const auto Before = requestHandle(Payload);
    ASSERT_TRUE(Before);
    EXPECT_EQ(*Before, 7u);
    const std::string Original = Payload;
    ASSERT_TRUE(rewriteRequestHandle(Payload, 0xfeedfacecafebeefull).ok());
    const auto After = requestHandle(Payload);
    ASSERT_TRUE(After);
    EXPECT_EQ(*After, 0xfeedfacecafebeefull);
    // Everything outside bytes [1, 9) is untouched.
    EXPECT_EQ(Payload[0], Original[0]);
    EXPECT_EQ(Payload.substr(9), Original.substr(9));
  }

  // Non-handle-bearing frames refuse the rewrite.
  std::string Hello = encodeHello();
  EXPECT_EQ(requestHandle(Hello).status().code(), StatusCode::InvalidArgument);
  EXPECT_EQ(rewriteRequestHandle(Hello, 1).code(),
            StatusCode::InvalidArgument);
  std::string Short(1, static_cast<char>(Op::Close));
  EXPECT_EQ(requestHandle(Short).status().code(), StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Wire-level faults and transport edge cases
//===----------------------------------------------------------------------===//

TEST(NetFaults, SitesAreRegistered) {
  const auto Names = faultSiteNames();
  for (const char *Site : {"net.accept", "net.read", "net.write", "net.frame"})
    EXPECT_TRUE(std::find(Names.begin(), Names.end(), std::string(Site)) !=
                Names.end())
        << Site;
}

TEST(NetFaults, FrameSiteForgesShortFrameFailures) {
  DisarmGuard Guard;
  armPlan("net.frame nth=1 status=UNAVAILABLE forged short frame");
  const Status Forged = validateFrameLength(64, DefaultMaxFrameBytes);
  EXPECT_EQ(Forged.code(), StatusCode::Unavailable) << Forged.toString();
  // The rule fired once; the next validation is clean.
  EXPECT_TRUE(validateFrameLength(64, DefaultMaxFrameBytes).ok());
}

/// A listener + connected-pair fixture for raw socket tests.
struct SocketPair {
  Socket Server; // accepted end
  Socket Client;

  static SocketPair make() {
    auto Listener = Socket::listenOn("127.0.0.1", 0);
    EXPECT_TRUE(Listener.ok()) << Listener.status().toString();
    const auto Port = Listener->localPort();
    EXPECT_TRUE(Port.ok());
    auto Client = Socket::connectTo("127.0.0.1", *Port);
    EXPECT_TRUE(Client.ok()) << Client.status().toString();
    auto Accepted = Listener->accept();
    EXPECT_TRUE(Accepted.ok()) << Accepted.status().toString();
    return SocketPair{std::move(*Accepted), std::move(*Client)};
  }
};

TEST(NetFaults, CleanCloseVsMidFrameDrop) {
  {
    // EOF at a frame boundary is a clean close, not an error.
    SocketPair Pair = SocketPair::make();
    Pair.Client = Socket(); // close without sending anything
    std::string Payload;
    bool CleanClose = false;
    const Status S =
        readFrame(Pair.Server, DefaultMaxFrameBytes, Payload, &CleanClose);
    EXPECT_TRUE(S.ok()) << S.toString();
    EXPECT_TRUE(CleanClose);
    EXPECT_TRUE(Payload.empty());
  }
  {
    // A connection torn mid-frame is UNAVAILABLE: the length prefix
    // promised bytes that never arrive.
    SocketPair Pair = SocketPair::make();
    const std::string Frame = [] {
      std::string Wire;
      appendFrame(Wire, encodeSelect(1, 5));
      return Wire;
    }();
    ASSERT_TRUE(Pair.Client.sendAll(Frame.data(), Frame.size() / 2).ok());
    Pair.Client = Socket(); // drop mid-frame
    std::string Payload;
    bool CleanClose = false;
    const Status S =
        readFrame(Pair.Server, DefaultMaxFrameBytes, Payload, &CleanClose);
    EXPECT_EQ(S.code(), StatusCode::Unavailable) << S.toString();
    EXPECT_FALSE(CleanClose);
  }
}

TEST(NetFaults, OversizedDeclaredLengthIsRejectedBeforeAllocation) {
  SocketPair Pair = SocketPair::make();
  // 4-byte little-endian length prefix declaring ~4 GiB.
  const unsigned char Huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(Pair.Client.sendAll(Huge, sizeof(Huge)).ok());
  std::string Payload;
  const Status S = readFrame(Pair.Server, DefaultMaxFrameBytes, Payload);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument) << S.toString();
}

TEST(NetFaults, ReadAndWriteSitesInject) {
  DisarmGuard Guard;
  SocketPair Pair = SocketPair::make();
  armPlan("net.read nth=1 status=UNAVAILABLE injected read fault\n"
          "net.write nth=1 status=UNAVAILABLE injected write fault");
  const char Byte = 'x';
  const Status W = Pair.Client.sendAll(&Byte, 1);
  EXPECT_EQ(W.code(), StatusCode::Unavailable) << W.toString();
  std::string Payload;
  const Status R = readFrame(Pair.Server, DefaultMaxFrameBytes, Payload);
  EXPECT_EQ(R.code(), StatusCode::Unavailable) << R.toString();
}

//===----------------------------------------------------------------------===//
// Loopback serving: NetServer + NetClient vs the in-process API
//===----------------------------------------------------------------------===//

/// Starts a loopback server over \p Handler and returns it.
std::unique_ptr<NetServer> startLoopback(FrameHandler &Handler) {
  NetServerConfig Config;
  Config.Host = "127.0.0.1";
  Config.Port = 0;
  auto Server = NetServer::start(Handler, Config);
  EXPECT_TRUE(Server.ok()) << Server.status().toString();
  return std::move(*Server);
}

TEST(NetServerTest, LoopbackBitIdentity) {
  SeerService Remote(tinyModels());
  ServiceFrameHandler Handler(Remote);
  auto Server = startLoopback(Handler);
  auto Client = NetClient::connect("127.0.0.1", Server->port());
  ASSERT_TRUE(Client.ok()) << Client.status().toString();

  // The in-process reference: same models, same matrices, same sequence.
  SeerService Local(tinyModels());

  for (double Seed : {2.0, 3.0, 4.0}) {
    const CsrMatrix M = genMatrix(Seed);
    const auto Open = Client->open("m", M);
    ASSERT_TRUE(Open) << Open.status().toString();
    auto LocalHandle = Local.registerMatrix(M);
    ASSERT_TRUE(LocalHandle);

    const auto RemoteSel = Client->select(Open->Handle, 19);
    ASSERT_TRUE(RemoteSel) << RemoteSel.status().toString();
    Request Req;
    Req.Handle = *LocalHandle;
    Req.Iterations = 19;
    const auto LocalSel = Local.serve(Req);
    ASSERT_TRUE(LocalSel);
    EXPECT_EQ(RemoteSel->Selection.KernelIndex,
              LocalSel->Selection.KernelIndex);
    EXPECT_EQ(RemoteSel->Fingerprint, LocalSel->Fingerprint);
    EXPECT_EQ(RemoteSel->Selection.UsedGatheredModel,
              LocalSel->Selection.UsedGatheredModel);

    const auto RemoteExec = Client->execute(Open->Handle, 19, true, {});
    ASSERT_TRUE(RemoteExec) << RemoteExec.status().toString();
    Req.Execute = true;
    Req.VerifyOracle = true;
    const auto LocalExec = Local.serve(Req);
    ASSERT_TRUE(LocalExec);
    EXPECT_EQ(RemoteExec->Selection.KernelIndex,
              LocalExec->Selection.KernelIndex);
    EXPECT_TRUE(bitsEqual(RemoteExec->Y, LocalExec->Y));
    EXPECT_EQ(RemoteExec->OracleKernelIndex, LocalExec->OracleKernelIndex);
    EXPECT_EQ(RemoteExec->Mispredicted, LocalExec->Mispredicted);

    const auto RemoteBatch = Client->batch(Open->Handle, 4, 19);
    ASSERT_TRUE(RemoteBatch) << RemoteBatch.status().toString();
    const auto LocalBatch = Local.executeBatch(
        *LocalHandle, buildBatchOperands(4, M.numCols()), 19);
    ASSERT_TRUE(LocalBatch);
    ASSERT_EQ(RemoteBatch->Y.size(), LocalBatch->Y.size());
    for (size_t I = 0; I < RemoteBatch->Y.size(); ++I)
      EXPECT_TRUE(bitsEqual(RemoteBatch->Y[I], LocalBatch->Y[I]));

    EXPECT_TRUE(Client->close(Open->Handle).ok());
    EXPECT_TRUE(Local.release(*LocalHandle).ok());
  }

  // Typed errors cross the wire as the same code the API returns.
  const auto Dead = Client->select(0xdead, 1);
  EXPECT_FALSE(Dead);
  EXPECT_EQ(Dead.status().code(), StatusCode::NotFound);

  // A garbage opcode is answered with INVALID_ARGUMENT and counted.
  const auto Garbage = Client->call(std::string(1, '\x6e'));
  ASSERT_TRUE(Garbage.ok()) << Garbage.status().toString();
  Status Carried = Status::okStatus();
  ASSERT_TRUE(decodeStatusReply(*Garbage, Carried).ok());
  EXPECT_EQ(Carried.code(), StatusCode::InvalidArgument);

  // Stats and metrics text flow through.
  const auto Stats = Client->statsText();
  ASSERT_TRUE(Stats);
  EXPECT_NE(Stats->find("stat requests "), std::string::npos);
  EXPECT_NE(Stats->find("stat net_requests "), std::string::npos);
  const auto Metrics = Client->metricsText();
  ASSERT_TRUE(Metrics);
  EXPECT_NE(Metrics->find("seer_requests_total"), std::string::npos);

  Server->requestStop();
  Server->join();
}

TEST(NetServerTest, ConcurrentClientsMatchTheLocalService) {
  SeerService Remote(tinyModels());
  ServiceFrameHandler Handler(Remote);
  auto Server = startLoopback(Handler);

  // One reference answer per (matrix, iterations), select and execute,
  // from the in-process API.
  const std::vector<double> Seeds = {20.0, 21.0, 22.0};
  const std::vector<uint32_t> Iterations = {1, 5, 19};
  std::vector<CsrMatrix> Matrices;
  std::vector<std::vector<ServeResponse>> Selects(Seeds.size()),
      Executes(Seeds.size());
  SeerService Local(tinyModels());
  for (size_t M = 0; M < Seeds.size(); ++M) {
    Matrices.push_back(genMatrix(Seeds[M]));
    auto Handle = Local.registerMatrix(Matrices.back());
    ASSERT_TRUE(Handle);
    for (const uint32_t Iters : Iterations) {
      auto Sel = Local.select(*Handle, Iters);
      auto Exec = Local.execute(*Handle, Iters);
      ASSERT_TRUE(Sel && Exec);
      Selects[M].push_back(std::move(*Sel));
      Executes[M].push_back(std::move(*Exec));
    }
  }

  // Four connections, each opening every matrix (concurrent registrations
  // of the same content share one cache entry) and interleaving selects
  // and executes in its own order.
  constexpr size_t Clients = 4;
  constexpr size_t OpsPerClient = 36;
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      auto Client = NetClient::connect("127.0.0.1", Server->port());
      ASSERT_TRUE(Client.ok()) << Client.status().toString();
      std::vector<uint64_t> Handles;
      for (const CsrMatrix &M : Matrices) {
        const auto Open = Client->open("m", M);
        ASSERT_TRUE(Open) << Open.status().toString();
        Handles.push_back(Open->Handle);
      }
      for (size_t Op = 0; Op < OpsPerClient; ++Op) {
        const size_t K = Op * 7 + C * 5;
        const size_t M = K % Matrices.size();
        const size_t I = (K / Matrices.size()) % Iterations.size();
        const bool Execute = (Op + C) % 2 == 1;
        const auto Got =
            Execute ? Client->execute(Handles[M], Iterations[I], false, {})
                    : Client->select(Handles[M], Iterations[I]);
        ASSERT_TRUE(Got) << Got.status().toString();
        const ServeResponse &Want = Execute ? Executes[M][I] : Selects[M][I];
        EXPECT_EQ(Got->Selection.KernelIndex, Want.Selection.KernelIndex)
            << "client " << C << " op " << Op;
        EXPECT_EQ(Got->Selection.UsedGatheredModel,
                  Want.Selection.UsedGatheredModel)
            << "client " << C << " op " << Op;
        EXPECT_EQ(Got->Fingerprint, Want.Fingerprint);
        EXPECT_EQ(Got->Executed, Execute);
        EXPECT_TRUE(bitsEqual(Got->Y, Want.Y))
            << "client " << C << " op " << Op;
      }
      for (const uint64_t Handle : Handles)
        EXPECT_TRUE(Client->close(Handle).ok());
    });
  for (std::thread &T : Threads)
    T.join();

  Server->requestStop();
  Server->join();
}

TEST(NetServerTest, WireRequestsPassServiceAdmission) {
  SeerService Service(tinyModels());
  ServiceFrameHandler Handler(Service);
  auto Server = startLoopback(Handler);
  auto Client = NetClient::connect("127.0.0.1", Server->port());
  ASSERT_TRUE(Client.ok()) << Client.status().toString();
  const auto Open = Client->open("m", genMatrix(8));
  ASSERT_TRUE(Open) << Open.status().toString();

  const ServerStats Before = Service.stats();
  const uint32_t Attempts = RetryPolicy().MaxAttempts;
  {
    DisarmGuard Guard;
    armPlan("queue.admit every=1 status=RESOURCE_EXHAUSTED admission shut\n");
    for (int I = 0; I < 2; ++I) {
      const auto Rejected = Client->select(Open->Handle, 5);
      ASSERT_FALSE(Rejected);
      EXPECT_EQ(Rejected.status().code(), StatusCode::ResourceExhausted)
          << Rejected.status().toString();
    }
  }
  const ServerStats Shut = Service.stats();
  // Each rejected select spent its whole retry budget on admission.
  EXPECT_EQ(Shut.AsyncRejected - Before.AsyncRejected, 2u);
  EXPECT_EQ(Shut.RetriesExhausted - Before.RetriesExhausted, 2u);
  EXPECT_EQ(Shut.Retries - Before.Retries, 2u * (Attempts - 1));
  EXPECT_EQ(Shut.AsyncAccepted, Before.AsyncAccepted);

  // Disarmed, the same request is admitted and served.
  const auto Served = Client->execute(Open->Handle, 5, false, {});
  ASSERT_TRUE(Served) << Served.status().toString();
  EXPECT_EQ(Service.stats().AsyncAccepted - Shut.AsyncAccepted, 1u);
  EXPECT_EQ(Service.stats().AsyncRejected, Shut.AsyncRejected);

  Server->requestStop();
  Server->join();
}

TEST(NetServerTest, ShutdownOpStopsTheServer) {
  SeerService Service(tinyModels());
  ServiceFrameHandler Handler(Service);
  auto Server = startLoopback(Handler);
  auto Client = NetClient::connect("127.0.0.1", Server->port());
  ASSERT_TRUE(Client.ok());
  EXPECT_TRUE(Client->shutdownServer().ok());
  Server->join(); // returns because the wire op stopped the server
}

TEST(NetServerTest, StopAnswersTheFrameInFlight) {
  SeerService Service(tinyModels());
  ServiceFrameHandler Handler(Service);
  auto Server = startLoopback(Handler);
  auto Client = NetClient::connect("127.0.0.1", Server->port());
  ASSERT_TRUE(Client.ok()) << Client.status().toString();
  const auto Open = Client->open("m", genMatrix(7));
  ASSERT_TRUE(Open) << Open.status().toString();

  DisarmGuard Guard;
  armPlan("plan.select nth=1 latency-ms=400\n");
  const uint64_t Admitted = Service.stats().AsyncAccepted;
  auto Reply = std::async(std::launch::async, [&] {
    return Client->select(Open->Handle, 5);
  });
  // Stop only once the select is inside the service, held by the
  // injected latency.
  for (int I = 0; I < 500 && Service.stats().AsyncAccepted == Admitted; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(Service.stats().AsyncAccepted, Admitted + 1);
  Server->requestStop();

  const auto Answered = Reply.get();
  EXPECT_TRUE(Answered) << Answered.status().toString();
  Server->join();
}

TEST(NetServerTest, StopCutsAReplyThePeerNeverReads) {
  SeerService Service(tinyModels());
  ServiceFrameHandler Handler(Service);
  MetricsRegistry Registry;
  NetServerConfig Config;
  Config.Metrics = &Registry;
  auto ServerOr = NetServer::start(Handler, Config);
  ASSERT_TRUE(ServerOr.ok()) << ServerOr.status().toString();
  std::unique_ptr<NetServer> Server = std::move(*ServerOr);

  auto Peer = Socket::connectTo("127.0.0.1", Server->port());
  ASSERT_TRUE(Peer.ok()) << Peer.status().toString();
  // A tiny receive buffer, locked against autotuning, so the reply below
  // overflows both socket buffers and the server's write blocks.
  const int Tiny = 4096;
  ASSERT_EQ(::setsockopt(Peer->fd(), SOL_SOCKET, SO_RCVBUF, &Tiny,
                         sizeof(Tiny)),
            0);
  ASSERT_TRUE(writeFrame(*Peer, encodeOpen("m", genMatrix(8))).ok());
  std::string Payload;
  ASSERT_TRUE(readFrame(*Peer, DefaultMaxFrameBytes, Payload).ok());
  const auto Open = decodeOpenReply(Payload);
  ASSERT_TRUE(Open) << Open.status().toString();

  // The largest batch: 4096 result vectors of 512 doubles, a 16 MiB
  // reply the peer never reads. The server counts a reply's bytes just
  // before writing it.
  Counter &Written = Registry.counter("seer_net_bytes_written_total");
  const uint64_t WrittenBefore = Written.value();
  ASSERT_TRUE(writeFrame(*Peer, encodeBatch(Open->Handle, 4096, 1)).ok());
  for (int I = 0; I < 1000 && Written.value() == WrittenBefore; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GT(Written.value(), WrittenBefore + (16u << 20));

  auto Stopped = std::async(std::launch::async, [&] {
    Server->requestStop();
    Server->join();
  });
  const bool InTime =
      Stopped.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  if (!InTime)
    Peer->close(); // unblock the stuck write so the test fails, not hangs
  Stopped.get();
  EXPECT_TRUE(InTime) << "join() waited on a reply the peer never reads";
}

/// Threads of this process, from /proc/self/task.
size_t taskCount() {
  size_t Count = 0;
  if (DIR *Dir = ::opendir("/proc/self/task")) {
    while (const dirent *Entry = ::readdir(Dir))
      Count += Entry->d_name[0] != '.';
    ::closedir(Dir);
  }
  return Count;
}

/// This process's mapped address space in bytes (VmSize). An ended but
/// unjoined thread keeps its stack mapped; a joined one returns it.
size_t mappedBytes() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmSize:", 0) == 0)
      return size_t(std::stoull(Line.substr(7))) * 1024;
  return 0;
}

TEST(NetServerTest, FinishedConnectionThreadsAreReaped) {
  SeerService Service(tinyModels());
  ServiceFrameHandler Handler(Service);
  auto Server = startLoopback(Handler);
  {
    // Warm up once so lazily created threads and cached stacks exist
    // before the baseline.
    auto Client = NetClient::connect("127.0.0.1", Server->port());
    ASSERT_TRUE(Client.ok());
    ASSERT_TRUE(Client->statsText());
  }
  const size_t TasksBefore = taskCount();
  const size_t BytesBefore = mappedBytes();

  constexpr int Cycles = 64;
  for (int I = 0; I < Cycles; ++I) {
    auto Client = NetClient::connect("127.0.0.1", Server->port());
    ASSERT_TRUE(Client.ok()) << Client.status().toString();
    ASSERT_TRUE(Client->statsText());
  }
  // The last connection thread ends and is joined shortly after its
  // client goes.
  for (int I = 0; I < 500 && taskCount() > TasksBefore + 2; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_LE(taskCount(), TasksBefore + 2);

  // A leaked thread keeps a whole stack mapped: 64 of them would add
  // 64 stacks, a reaped server at most a few.
  pthread_attr_t Attr;
  size_t StackBytes = 0;
  ASSERT_EQ(::pthread_getattr_default_np(&Attr), 0);
  ASSERT_EQ(::pthread_attr_getstacksize(&Attr, &StackBytes), 0);
  ::pthread_attr_destroy(&Attr);
  const size_t BytesAfter = mappedBytes();
  EXPECT_LT(BytesAfter, BytesBefore + 16 * StackBytes)
      << "grew " << (BytesAfter - BytesBefore) / 1024 << " KiB over "
      << Cycles << " connections";

  Server->requestStop();
  Server->join();
}

TEST(NetServerTest, ConnectionCloseReleasesHandles) {
  SeerService Service(tinyModels());
  ServiceFrameHandler Handler(Service);
  auto Server = startLoopback(Handler);
  {
    auto Client = NetClient::connect("127.0.0.1", Server->port());
    ASSERT_TRUE(Client.ok());
    const auto Open = Client->open("m", genMatrix(6));
    ASSERT_TRUE(Open);
    EXPECT_EQ(Service.stats().ActiveHandles, 1u);
  } // client dropped without Close
  // The server notices the close and releases the session's handles.
  for (int I = 0; I < 200 && Service.stats().ActiveHandles != 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Service.stats().ActiveHandles, 0u);
  Server->requestStop();
  Server->join();
}

//===----------------------------------------------------------------------===//
// One session model: the text codec over a local Session and over the wire
//===----------------------------------------------------------------------===//

/// Runs \p Lines through a text front end in \p Mode applying on
/// \p Apply — as a parsed trace replay, or line by line interactively —
/// and returns what it printed.
std::string frontEndOutput(const std::string &Lines, TextFrontEnd::Mode Mode,
                           SessionApplyFn Apply) {
  const KernelRegistry Registry;
  SpanSink Spans;
  std::ostringstream Out;
  TextFrontEnd FrontEnd(std::move(Apply), Registry, Spans, Mode, &Out);
  if (Mode == TextFrontEnd::Mode::Replay) {
    const auto Script = parseTrace(Lines);
    EXPECT_TRUE(Script) << Script.status().toString();
    if (Script)
      replayTrace(*Script, 1, FrontEnd);
  } else {
    std::istringstream In(Lines);
    std::string Line;
    while (std::getline(In, Line) && FrontEnd.runLine(Line)) {
    }
  }
  return Out.str();
}

/// The front end's output for \p Lines applied on a fresh local Session,
/// and applied over a loopback connection to a fresh served service.
std::pair<std::string, std::string> localAndWire(const std::string &Lines,
                                                 TextFrontEnd::Mode Mode) {
  SeerService LocalService(tinyModels());
  Session Local(LocalService);
  std::string LocalOut = frontEndOutput(Lines, Mode, [&](SessionOp Op) {
    return Local.apply(std::move(Op));
  });

  SeerService Remote(tinyModels());
  ServiceFrameHandler Handler(Remote);
  auto Server = startLoopback(Handler);
  auto Client = NetClient::connect("127.0.0.1", Server->port());
  EXPECT_TRUE(Client.ok()) << Client.status().toString();
  std::string WireOut = frontEndOutput(
      Lines, Mode, [&](SessionOp Op) { return Client->apply(Op); });
  Server->requestStop();
  Server->join();
  return {LocalOut, WireOut};
}

TEST(SessionCodecTest, TextFrontEndPrintsIdenticalLinesLocallyAndOverTheWire) {
  const std::string Trace = "seer-trace v2\n"
                            "gen a powerlaw 512 1.8 1 64 31\n"
                            "gen b banded 512 4 0.9 32\n"
                            "select a 5\n"
                            "execute b 19 verify\n"
                            "batch a 4 5\n"
                            "close a\n"
                            "select a 5\n" // closed
                            "open a\n"
                            "open a\n" // already open
                            "select a 19\n";
  const auto [Local, Wire] = localAndWire(Trace, TextFrontEnd::Mode::Replay);
  EXPECT_EQ(Local, Wire);

  // Four responses and two name-level errors, nothing else: a replay
  // prints no acks.
  const std::vector<std::string> Lines = splitString(Local, '\n');
  ASSERT_EQ(Lines.size(), 7u) << Local; // the trailing newline splits once more
  EXPECT_EQ(Lines[0].rfind("a kernel=", 0), 0u);
  EXPECT_NE(Lines[1].find(" oracle="), std::string::npos);
  EXPECT_NE(Lines[2].find(" batch=4 "), std::string::npos);
  EXPECT_EQ(Lines[3],
            "error FAILED_PRECONDITION matrix 'a' is closed (open it first)");
  EXPECT_EQ(Lines[4], "error ALREADY_EXISTS matrix 'a' is already open");
  EXPECT_EQ(Lines[5].rfind("a kernel=", 0), 0u);
  EXPECT_EQ(Lines[6], "");
}

TEST(SessionCodecTest, BatchCountOutOfRangeIsOneTypedErrorThroughBothCodecs) {
  // The binary codec: the same op applied on a local Session and through
  // NetClient -> ServiceFrameHandler -> Session.
  SeerService LocalService(tinyModels());
  Session Local(LocalService);
  SeerService Remote(tinyModels());
  ServiceFrameHandler Handler(Remote);
  auto Server = startLoopback(Handler);
  auto Client = NetClient::connect("127.0.0.1", Server->port());
  ASSERT_TRUE(Client.ok()) << Client.status().toString();

  SessionOp Open;
  Open.Type = SessionOp::Kind::Open;
  Open.Matrix = genMatrix(7);
  const auto LocalOpen = Local.apply(Open);
  const auto WireOpen = Client->apply(Open);
  ASSERT_TRUE(LocalOpen && WireOpen);
  for (const uint32_t Count : {0u, MaxBatchOperands + 1}) {
    SessionOp Batch;
    Batch.Type = SessionOp::Kind::Batch;
    Batch.Count = Count;
    Batch.Handle = LocalOpen->Handle;
    const auto LocalAnswer = Local.apply(Batch);
    Batch.Handle = WireOpen->Handle;
    const auto WireAnswer = Client->apply(Batch);
    ASSERT_FALSE(LocalAnswer);
    ASSERT_FALSE(WireAnswer);
    EXPECT_EQ(LocalAnswer.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(LocalAnswer.status().toString(), WireAnswer.status().toString());
  }
  Server->requestStop();
  Server->join();

  // The text codec: the parser rejects the same counts before any op
  // exists, with the same line in process and over the wire.
  const auto [LocalText, WireText] =
      localAndWire("gen a banded 256 4 0.9 1\n"
                   "batch a 0\n"
                   "batch a 4097\n"
                   "batch a 4096\n",
                   TextFrontEnd::Mode::Interactive);
  EXPECT_EQ(LocalText, WireText);
  EXPECT_NE(LocalText.find("error INVALID_ARGUMENT bad batch operand count "
                           "'0' (must be in [1, 4096])"),
            std::string::npos)
      << LocalText;
  EXPECT_NE(LocalText.find("'4097' (must be in [1, 4096])"),
            std::string::npos);
  EXPECT_NE(LocalText.find(" batch=4096 "), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Consistent-hash sharding
//===----------------------------------------------------------------------===//

TEST(ShardRouterTest, DeterministicAcrossInstances) {
  const ShardRouter A(4), B(4);
  for (uint64_t Fp = 1; Fp < 4096; Fp += 7)
    EXPECT_EQ(A.route(Fp * 0x9e3779b97f4a7c15ull),
              B.route(Fp * 0x9e3779b97f4a7c15ull));
}

TEST(ShardRouterTest, CoversAllShardsReasonablyEvenly) {
  const size_t Shards = 4;
  const ShardRouter Router(Shards);
  std::vector<size_t> Counts(Shards, 0);
  const size_t Keys = 10000;
  for (uint64_t Fp = 0; Fp < Keys; ++Fp) {
    const size_t Shard = Router.route(Fp * 0x9e3779b97f4a7c15ull + 1);
    ASSERT_LT(Shard, Shards);
    ++Counts[Shard];
  }
  // With 64 virtual nodes per shard the split stays within a loose band
  // of perfect balance — enough to guarantee linear aggregate capacity.
  for (size_t Shard = 0; Shard < Shards; ++Shard) {
    EXPECT_GT(Counts[Shard], Keys / Shards / 3) << "shard " << Shard;
    EXPECT_LT(Counts[Shard], Keys * 2 / Shards) << "shard " << Shard;
  }
}

TEST(ShardRouterTest, SingleShardRoutesEverything) {
  const ShardRouter Router(1);
  for (uint64_t Fp : {0ull, 1ull, 0xffffffffffffffffull})
    EXPECT_EQ(Router.route(Fp), 0u);
}

TEST(LbHandlerTest, RoutesSessionsAcrossShardsBitIdentically) {
  // Two real shard servers, each over its own service.
  SeerService ShardA(tinyModels()), ShardB(tinyModels());
  ServiceFrameHandler HandlerA(ShardA), HandlerB(ShardB);
  auto ServerA = startLoopback(HandlerA);
  auto ServerB = startLoopback(HandlerB);

  LbHandler Lb({ShardEndpoint{"127.0.0.1", ServerA->port()},
                ShardEndpoint{"127.0.0.1", ServerB->port()}});
  auto LbServer = startLoopback(Lb);
  auto Client = NetClient::connect("127.0.0.1", LbServer->port());
  ASSERT_TRUE(Client.ok()) << Client.status().toString();

  // The in-process reference.
  SeerService Local(tinyModels());

  std::vector<size_t> RoutedShard;
  for (double Seed : {10.0, 11.0, 12.0, 13.0, 14.0, 15.0}) {
    const CsrMatrix M = genMatrix(Seed);
    const auto Open = Client->open("m", M);
    ASSERT_TRUE(Open) << Open.status().toString();
    RoutedShard.push_back(Lb.router().route(Open->Info.Fingerprint));

    const auto Remote = Client->execute(Open->Handle, 19, false, {});
    ASSERT_TRUE(Remote) << Remote.status().toString();
    auto LocalHandle = Local.registerMatrix(M);
    ASSERT_TRUE(LocalHandle);
    Request Req;
    Req.Handle = *LocalHandle;
    Req.Iterations = 19;
    Req.Execute = true;
    const auto Reference = Local.serve(Req);
    ASSERT_TRUE(Reference);
    EXPECT_EQ(Remote->Selection.KernelIndex, Reference->Selection.KernelIndex);
    EXPECT_TRUE(bitsEqual(Remote->Y, Reference->Y));
    EXPECT_TRUE(Client->close(Open->Handle).ok());
    EXPECT_TRUE(Local.release(*LocalHandle).ok());
  }

  // Registrations really landed on the shard the ring names: each shard's
  // registration counter equals the number of fingerprints routed to it.
  const size_t ToA = static_cast<size_t>(
      std::count(RoutedShard.begin(), RoutedShard.end(), size_t(0)));
  EXPECT_EQ(ShardA.stats().Registrations, ToA);
  EXPECT_EQ(ShardB.stats().Registrations, RoutedShard.size() - ToA);

  // Stats and metrics concatenate one section per shard.
  const auto Stats = Client->statsText();
  ASSERT_TRUE(Stats);
  EXPECT_NE(Stats->find("# shard 0 127.0.0.1:"), std::string::npos);
  EXPECT_NE(Stats->find("# shard 1 127.0.0.1:"), std::string::npos);

  LbServer->requestStop();
  LbServer->join();
  ServerA->requestStop();
  ServerA->join();
  ServerB->requestStop();
  ServerB->join();
}

/// N loopback shards, each a service with one cache lock shard and a
/// byte budget of \p Budget, behind an in-process balancer. Destruction
/// stops the balancer, then the shards, so no test leaves one running.
struct ShardFleet {
  std::vector<std::unique_ptr<SeerService>> Services;
  std::vector<std::unique_ptr<ServiceFrameHandler>> Handlers;
  std::vector<std::unique_ptr<NetServer>> Servers;
  std::unique_ptr<LbHandler> Lb;
  std::unique_ptr<NetServer> LbServer;

  ShardFleet(size_t N, size_t Budget) {
    ServiceConfig Config;
    // The budget splits evenly across cache lock shards; one lock shard
    // keeps the whole budget in one slice that can hold whole entries.
    Config.Server.CacheShards = 1;
    Config.Server.CacheBudgetBytes = Budget;
    std::vector<ShardEndpoint> Endpoints;
    for (size_t I = 0; I < N; ++I) {
      Services.push_back(std::make_unique<SeerService>(tinyModels(), Config));
      Handlers.push_back(
          std::make_unique<ServiceFrameHandler>(*Services.back()));
      Servers.push_back(startLoopback(*Handlers.back()));
      Endpoints.push_back(ShardEndpoint{"127.0.0.1", Servers.back()->port()});
    }
    Lb = std::make_unique<LbHandler>(std::move(Endpoints));
    LbServer = startLoopback(*Lb);
  }

  ~ShardFleet() {
    LbServer->requestStop();
    LbServer->join();
    for (std::unique_ptr<NetServer> &Server : Servers) {
      Server->requestStop();
      Server->join();
    }
  }
};

/// 24 small irregular matrices cycling four generator families.
std::vector<CsrMatrix> churnPool() {
  std::vector<CsrMatrix> Pool;
  for (size_t I = 0; I < 24; ++I) {
    const uint32_t Rows = 256u << (I % 4); // 256 .. 2048
    const uint64_t Seed = 0x5e21e0ull + I;
    switch (I % 4) {
    case 0:
      Pool.push_back(genBanded(Rows, 8, 0.9, Seed));
      break;
    case 1:
      Pool.push_back(genPowerLaw(Rows, Rows, 1.8, 1, Rows / 4, Seed));
      break;
    case 2:
      Pool.push_back(genUniformRandom(Rows, Rows, 12.0, 0.5, Seed));
      break;
    default:
      Pool.push_back(genDenseRowOutlier(Rows, Rows, 6.0, 4, Rows / 8, Seed));
      break;
    }
  }
  return Pool;
}

TEST(LbHandlerTest, MoreShardsReanalyzeLessAtAFixedPerShardBudget) {
  // The scale-out cache-capacity claim, on exact counts. A serial client
  // cycles 24 matrices through the balancer, open -> select -> close, for
  // 4 passes; the close unpins the entry, so each shard's byte budget
  // (not the handle table) decides what survives to the next pass. The
  // budget is fixed per shard at 60% of the one-shard footprint: one
  // shard must evict and re-analyze, while 2 or 4 shards each hold only
  // their hash slice of the set and re-analyze strictly less.
  const std::vector<CsrMatrix> Pool = churnPool();
  const uint32_t IterationPattern[3] = {1, 5, 19};
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  std::vector<SelectionResult> Direct;
  for (size_t I = 0; I < Pool.size(); ++I)
    Direct.push_back(Reference.select(Pool[I], IterationPattern[I % 3]));

  // The select-only footprint of the whole set on one unbounded shard.
  uint64_t Footprint = 0;
  {
    ServiceConfig Config;
    Config.Server.CacheShards = 1;
    SeerService Shard(tinyModels(), Config);
    for (size_t I = 0; I < Pool.size(); ++I) {
      auto Handle = Shard.registerMatrix(Pool[I]);
      ASSERT_TRUE(Handle) << Handle.status().toString();
      ASSERT_TRUE(Shard.select(*Handle, IterationPattern[I % 3]));
      ASSERT_TRUE(Shard.release(*Handle).ok());
    }
    Footprint = Shard.stats().BytesCached;
  }
  ASSERT_GT(Footprint, 0u);
  const size_t Budget = static_cast<size_t>(Footprint * 3 / 5);

  std::vector<uint64_t> Reanalyses;
  for (const size_t Shards : {size_t(1), size_t(2), size_t(4)}) {
    SCOPED_TRACE(std::to_string(Shards) + " shards");
    ShardFleet Fleet(Shards, Budget);
    auto Client = NetClient::connect("127.0.0.1", Fleet.LbServer->port());
    ASSERT_TRUE(Client.ok()) << Client.status().toString();
    for (size_t Pass = 0; Pass < 4; ++Pass) {
      for (size_t I = 0; I < Pool.size(); ++I) {
        const auto Open = Client->open("m" + std::to_string(I), Pool[I]);
        ASSERT_TRUE(Open) << Open.status().toString();
        const auto Reply =
            Client->select(Open->Handle, IterationPattern[I % 3]);
        ASSERT_TRUE(Reply) << Reply.status().toString();
        EXPECT_EQ(Reply->Selection.KernelIndex, Direct[I].KernelIndex)
            << "pass " << Pass << " matrix " << I;
        EXPECT_EQ(Reply->Selection.UsedGatheredModel,
                  Direct[I].UsedGatheredModel)
            << "pass " << Pass << " matrix " << I;
        ASSERT_TRUE(Client->close(Open->Handle).ok());
      }
      for (const std::unique_ptr<SeerService> &Shard : Fleet.Services)
        EXPECT_LE(Shard->stats().BytesCached, Budget) << "pass " << Pass;
    }
    uint64_t Total = 0;
    for (const std::unique_ptr<SeerService> &Shard : Fleet.Services)
      Total += Shard->stats().Reanalyses;
    Reanalyses.push_back(Total);
  }
  EXPECT_GT(Reanalyses[0], 0u);
  EXPECT_LT(Reanalyses[1], Reanalyses[0]);
  EXPECT_LT(Reanalyses[2], Reanalyses[0]);
}

TEST(LbHandlerTest, UnknownHandleIsOneErrorWithOrWithoutTheBalancer) {
  // A handle nobody issued gets the same typed answer from a shard and
  // from the balancer in front of it, for a Close and for a request.
  SeerService Shard(tinyModels());
  ServiceFrameHandler Handler(Shard);
  auto ShardServer = startLoopback(Handler);
  LbHandler Lb({ShardEndpoint{"127.0.0.1", ShardServer->port()}});
  auto LbServer = startLoopback(Lb);
  auto Direct = NetClient::connect("127.0.0.1", ShardServer->port());
  auto Balanced = NetClient::connect("127.0.0.1", LbServer->port());
  ASSERT_TRUE(Direct.ok()) << Direct.status().toString();
  ASSERT_TRUE(Balanced.ok()) << Balanced.status().toString();

  const Status Want = unknownHandle(5);
  EXPECT_EQ(Want.code(), StatusCode::NotFound);
  for (const Status &Got : {Direct->close(5), Balanced->close(5),
                            Direct->select(5, 5).status(),
                            Balanced->select(5, 5).status()}) {
    EXPECT_EQ(Got.code(), Want.code()) << Got.toString();
    EXPECT_EQ(Got.message(), Want.message()) << Got.toString();
  }

  LbServer->requestStop();
  LbServer->join();
  ShardServer->requestStop();
  ShardServer->join();
}

} // namespace
