//===- tests/serve_test.cpp - Tests for the Seer serving layer ------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The serving-layer contract: concurrent clients get answers bit-identical
// to one-shot SeerRuntime calls, cache hits charge zero collection cost,
// the amortization ledger charges preprocessing once, telemetry counters
// add up, and the protocol/trace/bundle plumbing round-trips. The
// concurrency tests run real std::thread clients so the ThreadSanitizer CI
// job exercises the locking for data races.
//
//===----------------------------------------------------------------------===//

#include "api/SeerService.h"
#include "core/ModelBundle.h"
#include "core/Seer.h"
#include "serve/RequestTrace.h"
#include "serve/SeerServer.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <thread>

using namespace seer;

namespace {

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

/// A pool of request matrices with varied shapes.
const std::vector<CsrMatrix> &requestPool() {
  static const std::vector<CsrMatrix> Pool = [] {
    std::vector<CsrMatrix> P;
    P.push_back(genBanded(1024, 8, 0.9, 7));
    P.push_back(genPowerLaw(2048, 2048, 1.8, 1, 256, 11));
    P.push_back(genUniformRandom(512, 512, 12.0, 0.5, 13));
    P.push_back(genDiagonal(4096, 17));
    P.push_back(genDenseRowOutlier(1024, 1024, 6.0, 4, 128, 19));
    P.push_back(genConstantRowRandom(768, 768, 9, 23));
    return P;
  }();
  return Pool;
}

/// Zero-copy registration of a pool matrix (the pool outlives servers).
RegisteredMatrix registerAliased(SeerServer &Server, const CsrMatrix &M) {
  return Server.registerMatrix(
      std::shared_ptr<const CsrMatrix>(std::shared_ptr<void>(), &M));
}

/// One request the way every client issues it: register \p M, serve
/// against the registration, release it. Registration pays the analysis
/// on a cache miss and reuses it on a hit; the release re-polices the
/// cache budget, so a serial stream of these is within budget after
/// every call.
ServeResponse serveOnce(SeerServer &Server, const CsrMatrix &M,
                        const ServeOptions &Options) {
  const RegisteredMatrix Registered = registerAliased(Server, M);
  Expected<ServeResponse> Response =
      Server.handleRegistered(Registered, Options);
  Server.releaseMatrix(Registered);
  EXPECT_TRUE(Response) << Response.status().toString();
  return Response ? std::move(*Response) : ServeResponse();
}

/// ServeOptions for a batch over \p Operands at \p Iterations.
ServeOptions batchOptions(uint32_t Iterations,
                          const std::vector<std::vector<double>> &Operands) {
  ServeOptions Options;
  Options.Iterations = Iterations;
  Options.Operands = &Operands;
  return Options;
}

/// ServeOptions for \p Iterations, optionally executing and verifying.
ServeOptions options(uint32_t Iterations, bool Execute = false,
                     bool VerifyOracle = false) {
  ServeOptions Options;
  Options.Iterations = Iterations;
  Options.Execute = Execute;
  Options.VerifyOracle = VerifyOracle;
  return Options;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprinting
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, ContentAddressing) {
  const CsrMatrix A = genBanded(100, 4, 0.8, 1);
  const CsrMatrix SameContent = genBanded(100, 4, 0.8, 1);
  const CsrMatrix OtherSeed = genBanded(100, 4, 0.8, 2);
  const CsrMatrix OtherShape = genBanded(101, 4, 0.8, 1);
  EXPECT_EQ(matrixFingerprint(A), matrixFingerprint(SameContent));
  EXPECT_NE(matrixFingerprint(A), matrixFingerprint(OtherSeed));
  EXPECT_NE(matrixFingerprint(A), matrixFingerprint(OtherShape));
}

TEST(FingerprintTest, ValueSensitive) {
  // Same structure, one value changed: the fingerprint must differ.
  std::vector<Triplet> Entries = {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}};
  const CsrMatrix A = CsrMatrix::fromTriplets(2, 2, Entries);
  Entries[2].Value = 4.0;
  const CsrMatrix B = CsrMatrix::fromTriplets(2, 2, Entries);
  EXPECT_NE(matrixFingerprint(A), matrixFingerprint(B));
}

//===----------------------------------------------------------------------===//
// SeerServer: correctness vs. the one-shot runtime
//===----------------------------------------------------------------------===//

TEST(SeerServerTest, SelectionsMatchRuntimeSerially) {
  SeerServer Server(tinyModels());
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);

  for (const CsrMatrix &M : requestPool())
    for (const uint32_t Iterations : {1u, 5u, 19u}) {
      const SelectionResult Direct = Reference.select(M, Iterations);
      const ServeResponse Response = serveOnce(Server, M, options(Iterations));
      EXPECT_EQ(Response.Selection.KernelIndex, Direct.KernelIndex);
      EXPECT_EQ(Response.Selection.UsedGatheredModel,
                Direct.UsedGatheredModel);
    }
}

TEST(SeerServerTest, ConcurrentClientsBitIdentical) {
  // >= 8 client threads hammer one server with interleaved repeat
  // requests; every response must equal the serial one-shot answer.
  const std::vector<CsrMatrix> &Pool = requestPool();
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  const uint32_t IterationPattern[3] = {1, 5, 19};

  // Serial ground truth per (matrix, iterations).
  std::vector<std::vector<SelectionResult>> Direct(Pool.size());
  for (size_t M = 0; M < Pool.size(); ++M)
    for (uint32_t I : IterationPattern)
      Direct[M].push_back(Reference.select(Pool[M], I));

  SeerServer Server(tinyModels());
  constexpr size_t NumClients = 8;
  constexpr size_t RequestsPerClient = 60;
  std::vector<std::string> Failures(NumClients);
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      for (size_t R = 0; R < RequestsPerClient; ++R) {
        const size_t MatrixIndex = (C + R) % Pool.size();
        const size_t IterIndex = R % 3;
        const ServeResponse Response =
            serveOnce(Server, Pool[MatrixIndex],
                      options(IterationPattern[IterIndex]));
        const SelectionResult &Expected = Direct[MatrixIndex][IterIndex];
        if (Response.Selection.KernelIndex != Expected.KernelIndex ||
            Response.Selection.UsedGatheredModel !=
                Expected.UsedGatheredModel)
          Failures[C] = "client " + std::to_string(C) + " request " +
                        std::to_string(R) + " diverged";
      }
    });
  for (std::thread &T : Clients)
    T.join();
  for (const std::string &Failure : Failures)
    EXPECT_TRUE(Failure.empty()) << Failure;

  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.Requests, NumClients * RequestsPerClient);
  // The cache is probed once per registration; every distinct matrix
  // missed at least once (racing first registrations each miss).
  EXPECT_EQ(Stats.Registrations, Stats.CacheHits + Stats.CacheMisses);
  EXPECT_GE(Stats.CacheMisses, Pool.size());
  EXPECT_EQ(Stats.Requests, Stats.KnownRoutes + Stats.GatheredRoutes);
  EXPECT_EQ(Stats.CachedMatrices, Pool.size());
  EXPECT_EQ(Stats.LatencySamples, Stats.Requests);
  // Every request registered its matrix and released it again.
  EXPECT_EQ(Stats.Registrations, Stats.Requests);
  EXPECT_EQ(Stats.ActiveHandles, 0u);
  EXPECT_EQ(Stats.PinnedMatrices, 0u);
}

TEST(SeerServerTest, PreprocessingAmortizedAcrossRequests) {
  const CsrMatrix &M = requestPool()[1]; // power-law: irregular input
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  const std::vector<double> X(M.numCols(), 1.0);
  const ExecutionReport Direct = Reference.execute(M, X, 19);

  SeerServer Server(tinyModels());
  const ServeResponse First = serveOnce(Server, M, options(19, true));
  const ServeResponse Second = serveOnce(Server, M, options(19, true));

  // First execution pays exactly what the one-shot runtime pays.
  EXPECT_EQ(First.Selection.KernelIndex, Direct.Selection.KernelIndex);
  EXPECT_FALSE(First.PreprocessAmortized);
  EXPECT_EQ(First.PreprocessMs, Direct.PreprocessMs);
  EXPECT_EQ(First.IterationMs, Direct.IterationMs);
  EXPECT_EQ(First.Y, Direct.Y);

  // The repeat charges zero preprocessing and returns the identical
  // product (the cached kernel state is reused, not recomputed).
  EXPECT_TRUE(Second.PreprocessAmortized);
  EXPECT_EQ(Second.PreprocessMs, 0.0);
  EXPECT_EQ(Second.IterationMs, Direct.IterationMs);
  EXPECT_EQ(Second.Y, Direct.Y);

  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.Executions, 2u);
  EXPECT_EQ(Stats.PaidPreprocesses, 1u);
  EXPECT_EQ(Stats.AmortizedPreprocesses, 1u);
  if (Direct.PreprocessMs > 0.0) {
    EXPECT_GT(Stats.SavedPreprocessMs, 0.0);
  }
}

TEST(SeerServerTest, ConcurrentExecutionsShareTheLedger) {
  const CsrMatrix &M = requestPool()[1];
  SeerServer Server(tinyModels());
  constexpr size_t NumClients = 8;
  constexpr size_t PerClient = 10;
  std::vector<std::thread> Clients;
  std::vector<std::vector<double>> FirstY(NumClients);
  for (size_t C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      for (size_t R = 0; R < PerClient; ++R) {
        const ServeResponse Response = serveOnce(Server, M, options(5, true));
        if (R == 0)
          FirstY[C] = Response.Y;
      }
    });
  for (std::thread &T : Clients)
    T.join();
  for (size_t C = 1; C < NumClients; ++C)
    EXPECT_EQ(FirstY[C], FirstY[0]);

  // Exactly one request paid preprocessing for the (single) chosen kernel;
  // everyone else amortized.
  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.Executions, NumClients * PerClient);
  EXPECT_EQ(Stats.PaidPreprocesses, 1u);
  EXPECT_EQ(Stats.AmortizedPreprocesses, NumClients * PerClient - 1);
}

TEST(SeerServerTest, OracleFeedbackCountsMispredictions) {
  SeerServer Server(tinyModels());
  uint64_t ExpectedMispredictions = 0;
  for (const CsrMatrix &M : requestPool()) {
    const ServeResponse Response =
        serveOnce(Server, M, options(5, true, true));
    ASSERT_TRUE(Response.OracleChecked);
    EXPECT_EQ(Response.Mispredicted,
              Response.OracleKernelIndex != Response.Selection.KernelIndex);
    EXPECT_GE(Response.RegretMs, 0.0);
    if (!Response.Mispredicted) {
      EXPECT_EQ(Response.RegretMs, 0.0);
    }
    ExpectedMispredictions += Response.Mispredicted ? 1 : 0;
  }
  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.OracleChecks, requestPool().size());
  EXPECT_EQ(Stats.Mispredictions, ExpectedMispredictions);
  EXPECT_EQ(Stats.mispredictRate(),
            static_cast<double>(ExpectedMispredictions) /
                static_cast<double>(requestPool().size()));
}

TEST(SeerServerTest, StatsResetZeroesTelemetryButKeepsCache) {
  SeerServer Server(tinyModels());
  serveOnce(Server, requestPool()[0], options(1));
  Server.resetStats();
  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.Requests, 0u);
  EXPECT_EQ(Stats.LatencySamples, 0u);
  EXPECT_EQ(Stats.CachedMatrices, 1u); // the cache survives
  // And the next registration of the matrix reuses its cached analysis.
  const RegisteredMatrix Again = registerAliased(Server, requestPool()[0]);
  EXPECT_TRUE(Again.AnalysisReused);
  Server.releaseMatrix(Again);
  // Cache outcomes count registrations, which the reset keeps, so they
  // still add up across it: one miss, then one hit.
  const ServerStats After = Server.stats();
  EXPECT_EQ(After.Registrations, 2u);
  EXPECT_EQ(After.CacheMisses, 1u);
  EXPECT_EQ(After.CacheHits, 1u);
  EXPECT_DOUBLE_EQ(After.hitRate(), 0.5);
}

//===----------------------------------------------------------------------===//
// The Planner pipeline (core/ExecutionPlan.h)
//===----------------------------------------------------------------------===//

TEST(PlannerTest, StagesComposeToOneShotAnswers) {
  // The one pipeline every adapter drives: its explicit stages
  // (analyze/route/collect/select/prepare/run) must compose to exactly
  // what the one-shot SeerRuntime answers — same kernel, same route,
  // same charges, same product bits.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Runtime(tinyModels(), Registry, Sim);
  const Planner &P = Runtime.planner();
  for (const CsrMatrix &M : requestPool())
    for (const uint32_t Iterations : {1u, 5u, 19u}) {
      const SelectionResult Direct = Runtime.select(M, Iterations);
      const AnalyzedMatrix A = P.analyze(M, /*WithFingerprint=*/true);
      EXPECT_EQ(A.Fingerprint, matrixFingerprint(M));

      // route() is the selection's first stage.
      const RouteDecision Route = P.route(A.Stats.Known, Iterations);
      EXPECT_EQ(Route.UseGathered, Direct.UsedGatheredModel);

      // plan() fuses route+collect+select, bit-identical to the lazy
      // one-shot path.
      ExecutionPlan Plan =
          P.plan(A, Iterations, CollectionCharging::Charged);
      EXPECT_EQ(Plan.Iterations, Iterations);
      EXPECT_EQ(Plan.Selection.KernelIndex, Direct.KernelIndex);
      EXPECT_EQ(Plan.Selection.UsedGatheredModel, Direct.UsedGatheredModel);
      EXPECT_EQ(Plan.Selection.FeatureCollectionMs,
                Direct.FeatureCollectionMs);
      EXPECT_EQ(Plan.Selection.InferenceMs, Direct.InferenceMs);
      EXPECT_EQ(Plan.ModeledCollectionMs,
                Direct.UsedGatheredModel ? Direct.FeatureCollectionMs : 0.0);

      // Precollected charging zeroes the charge, never the decision or
      // the modeled cost.
      const ExecutionPlan Cached =
          P.plan(A, Iterations, CollectionCharging::Precollected);
      EXPECT_EQ(Cached.Selection.KernelIndex, Direct.KernelIndex);
      EXPECT_EQ(Cached.Selection.UsedGatheredModel,
                Direct.UsedGatheredModel);
      EXPECT_EQ(Cached.Selection.FeatureCollectionMs, 0.0);
      EXPECT_EQ(Cached.ModeledCollectionMs, Plan.ModeledCollectionMs);

      // prepare + run compose to the one-shot execute().
      const std::vector<double> X(M.numCols(), 1.0);
      const ExecutionReport Report = Runtime.execute(M, X, Iterations);
      P.prepare(Plan, A);
      const SpmvRun Run = P.run(Plan, A, X);
      EXPECT_EQ(Plan.PreprocessMs, Report.PreprocessMs);
      EXPECT_EQ(Plan.ModeledPreprocessMs, Report.PreprocessMs);
      EXPECT_FALSE(Plan.PreprocessAmortized);
      EXPECT_EQ(Run.Timing.TotalMs, Report.IterationMs);
      EXPECT_EQ(Run.Y, Report.Y);
    }
}

TEST(PlannerTest, PreparedPlanReuseChargesPerPayment) {
  // exportPrepared/reusePrepared are the serving layer's plan cache in
  // miniature: an exported fragment is Paid, reusing it amortized
  // charges zero; an unpaid stash is reusable but still owes the
  // one-time cost.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Runtime(tinyModels(), Registry, Sim);
  const Planner &P = Runtime.planner();
  const CsrMatrix &M = requestPool()[1]; // power-law: needs preprocessing
  const AnalyzedMatrix A = P.analyze(M);

  ExecutionPlan Fresh = P.plan(A, 19, CollectionCharging::Charged);
  P.prepare(Fresh, A);
  const PreparedKernel Fragment = P.exportPrepared(Fresh);
  EXPECT_TRUE(Fragment.Paid);
  EXPECT_EQ(Fragment.PreprocessMs, Fresh.PreprocessMs);
  EXPECT_EQ(Fragment.State, Fresh.State);

  // Amortized reuse: zero charge, shared state, identical product.
  ExecutionPlan Reused = P.plan(A, 19, CollectionCharging::Precollected);
  P.reusePrepared(Reused, Fragment, /*AlreadyPaid=*/true);
  EXPECT_TRUE(Reused.PreprocessAmortized);
  EXPECT_EQ(Reused.PreprocessMs, 0.0);
  EXPECT_EQ(Reused.ModeledPreprocessMs, Fresh.PreprocessMs);
  const std::vector<double> X(M.numCols(), 1.0);
  EXPECT_EQ(P.run(Reused, A, X).Y, P.run(Fresh, A, X).Y);

  // Unpaid stash: the state is reused, the charge is not waived.
  PreparedKernel Stash = Fragment;
  Stash.Paid = false;
  ExecutionPlan Charged = P.plan(A, 19, CollectionCharging::Precollected);
  P.reusePrepared(Charged, Stash, /*AlreadyPaid=*/false);
  EXPECT_FALSE(Charged.PreprocessAmortized);
  EXPECT_EQ(Charged.PreprocessMs, Fresh.PreprocessMs);

  // The batched-charge rule: overhead and preprocessing once per plan,
  // iterations per operand.
  EXPECT_EQ(Fresh.chargedTotalMs(0.25, 4),
            Fresh.Selection.overheadMs() + Fresh.PreprocessMs +
                4.0 * 19 * 0.25);
}

TEST(PlannerTest, RouteFlipsWithIterationCount) {
  // Sec. IV-E: collection cost amortizes over iterations, so the
  // classifier-selector's routing depends on the iteration count. Scan
  // it: the per-iteration route must always agree with the full
  // selection flow, and somewhere in the pool the route actually flips.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Runtime(tinyModels(), Registry, Sim);
  const Planner &P = Runtime.planner();
  // The pool plus larger/denser probes: the boundary region sits at
  // higher row/nnz scales than the small request pool covers.
  std::vector<CsrMatrix> Scan = requestPool();
  Scan.push_back(genUniformRandom(4096, 4096, 12.0, 0.5, 29));
  Scan.push_back(genPowerLaw(4096, 4096, 1.8, 1, 512, 31));
  Scan.push_back(genBanded(8192, 6, 0.9, 37));
  size_t Flips = 0;
  for (const CsrMatrix &M : Scan) {
    const AnalyzedMatrix A = P.analyze(M);
    bool Previous = P.route(A.Stats.Known, 1).UseGathered;
    EXPECT_EQ(P.select(M, 1).UsedGatheredModel, Previous);
    for (uint32_t Iterations = 2; Iterations <= 64; ++Iterations) {
      const bool Gathered = P.route(A.Stats.Known, Iterations).UseGathered;
      if (Gathered != Previous) {
        ++Flips;
        // Both sides of the boundary agree with the full pipeline (and
        // with the fused-analysis overload).
        EXPECT_EQ(P.select(M, Iterations - 1).UsedGatheredModel, Previous);
        EXPECT_EQ(P.select(M, Iterations).UsedGatheredModel, Gathered);
        EXPECT_EQ(P.plan(A, Iterations, CollectionCharging::Charged)
                      .Selection.UsedGatheredModel,
                  Gathered);
      }
      Previous = Gathered;
    }
  }
  EXPECT_GT(Flips, 0u)
      << "no known-vs-gathered routing boundary in 1..64 iterations";
}

//===----------------------------------------------------------------------===//
// Batched execution
//===----------------------------------------------------------------------===//

TEST(SeerServerTest, BatchExecutionBitIdenticalToSingleRequests) {
  const CsrMatrix &M = requestPool()[1];
  const auto Operands = buildBatchOperands(6, M.numCols());

  // Reference: the same operands as one self-contained request each.
  SeerServer Single(tinyModels());
  const RegisteredMatrix RegSingle = registerAliased(Single, M);
  std::vector<ServeResponse> Singles;
  for (const std::vector<double> &X : Operands) {
    ServeOptions Options;
    Options.Iterations = 5;
    Options.Execute = true;
    Options.Operand = &X;
    Singles.push_back(*Single.handleRegistered(RegSingle, Options));
  }
  Single.releaseMatrix(RegSingle);

  // One plan, one batch.
  SeerServer Batched(tinyModels());
  const RegisteredMatrix Reg = registerAliased(Batched, M);
  const BatchResponse B =
      *Batched.executeBatchRegistered(Reg, batchOptions(5, Operands));

  ASSERT_EQ(B.operands(), Operands.size());
  EXPECT_EQ(B.Selection.KernelIndex, Singles[0].Selection.KernelIndex);
  EXPECT_EQ(B.Selection.UsedGatheredModel,
            Singles[0].Selection.UsedGatheredModel);
  EXPECT_EQ(B.Fingerprint, Singles[0].Fingerprint);
  EXPECT_EQ(B.PreprocessMs, Singles[0].PreprocessMs);
  EXPECT_EQ(B.IterationMs, Singles[0].IterationMs);
  for (size_t K = 0; K < Operands.size(); ++K)
    EXPECT_EQ(B.Y[K], Singles[K].Y) << "operand " << K;

  // The batched-charge rule makes the batch strictly cheaper than the
  // request-per-operand stream: selection overhead is charged once
  // instead of N times (preprocessing amortizes on both paths).
  double SingleTotalMs = 0.0;
  for (const ServeResponse &R : Singles)
    SingleTotalMs += R.totalMs();
  EXPECT_LT(B.totalMs(), SingleTotalMs);

  // Telemetry: one request, one route, one preprocessing charge, one
  // plan — N operand executions.
  // The batch never probes the cache: its one registration paid the
  // analysis, a miss.
  const ServerStats Stats = Batched.stats();
  EXPECT_EQ(Stats.Requests, 1u);
  EXPECT_EQ(Stats.CacheHits, 0u);
  EXPECT_EQ(Stats.CacheMisses, 1u);
  EXPECT_EQ(Stats.Executions, Operands.size());
  EXPECT_EQ(Stats.PaidPreprocesses, 1u);
  EXPECT_EQ(Stats.AmortizedPreprocesses, 0u);
  EXPECT_EQ(Stats.PlansBuilt, 1u);
  EXPECT_EQ(Stats.PlansReused, 0u);
  EXPECT_EQ(Stats.BatchRequests, 1u);
  EXPECT_EQ(Stats.BatchedOperands, Operands.size());

  // The same plan served a second time is reused and amortized,
  // bit-identically.
  const BatchResponse Again =
      *Batched.executeBatchRegistered(Reg, batchOptions(5, Operands));
  EXPECT_TRUE(Again.PreprocessAmortized);
  EXPECT_EQ(Again.PreprocessMs, 0.0);
  EXPECT_EQ(Again.Y, B.Y);
  EXPECT_EQ(Batched.stats().PlansReused, 1u);
  EXPECT_EQ(Batched.stats().PlansBuilt, 1u);
  Batched.releaseMatrix(Reg);
}

//===----------------------------------------------------------------------===//
// Byte-budgeted eviction
//===----------------------------------------------------------------------===//

TEST(CacheBudgetTest, ZeroBudgetIsUnboundedButAccounted) {
  SeerServer Server(tinyModels());
  for (const CsrMatrix &M : requestPool())
    serveOnce(Server, M, options(1));
  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.CacheBudgetBytes, 0u);
  EXPECT_EQ(Stats.Evictions, 0u);
  EXPECT_EQ(Stats.Reanalyses, 0u);
  EXPECT_EQ(Stats.CachedMatrices, requestPool().size());
  // Accounting runs even without a budget, so an operator can size one.
  EXPECT_GT(Stats.BytesCached, 0u);
}

TEST(CacheBudgetTest, ChurnStaysWithinBudgetAndBitIdentical) {
  const std::vector<CsrMatrix> &Pool = requestPool();
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  std::vector<SelectionResult> Direct;
  for (const CsrMatrix &M : Pool)
    Direct.push_back(Reference.select(M, 5));

  // Size the budget from the measured working set: a third of it, so the
  // six-matrix pool churns hard through the bounded server.
  uint64_t WorkingSet = 0;
  {
    SeerServer Unbounded(tinyModels());
    for (const CsrMatrix &M : Pool)
      serveOnce(Unbounded, M, options(5));
    WorkingSet = Unbounded.stats().BytesCached;
  }

  ServerConfig Config;
  Config.CacheShards = 2;
  Config.CacheBudgetBytes = static_cast<size_t>(WorkingSet / 3);
  SeerServer Server(tinyModels(), Config);
  for (int Pass = 0; Pass < 3; ++Pass)
    for (size_t I = 0; I < Pool.size(); ++I) {
      const ServeResponse Response = serveOnce(Server, Pool[I], options(5));
      // Evicted-then-revisited matrices re-analyze deterministically: the
      // kernel choice never changes.
      EXPECT_EQ(Response.Selection.KernelIndex, Direct[I].KernelIndex);
      EXPECT_EQ(Response.Selection.UsedGatheredModel,
                Direct[I].UsedGatheredModel);
      // Strict after every request: serial, so the release that ends it
      // has re-policed the budget with nothing else pinned.
      EXPECT_LE(Server.stats().BytesCached, Config.CacheBudgetBytes);
    }

  const ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.CacheBudgetBytes, Config.CacheBudgetBytes);
  EXPECT_GT(Stats.Evictions, 0u);
  EXPECT_GT(Stats.BytesEvicted, 0u);
  EXPECT_GT(Stats.Reanalyses, 0u);
  EXPECT_LE(Stats.CachedMatrices, Pool.size());
}

TEST(CacheBudgetTest, EvictionRechargesPreprocessingPerResidency) {
  const CsrMatrix &A = requestPool()[1]; // power-law: needs preprocessing
  const CsrMatrix &B = requestPool()[4];

  // Measure one executed entry so the budget can hold exactly one.
  uint64_t OneEntryBytes = 0;
  {
    SeerServer Unbounded(tinyModels());
    serveOnce(Unbounded, A, options(19, true));
    OneEntryBytes = Unbounded.stats().BytesCached;
  }

  ServerConfig Config;
  Config.CacheShards = 1;
  // Exactly one executed entry fits; admitting B must evict A no matter
  // how their sizes compare.
  Config.CacheBudgetBytes = static_cast<size_t>(OneEntryBytes);
  SeerServer Server(tinyModels(), Config);

  const ServeResponse First = serveOnce(Server, A, options(19, true));
  EXPECT_FALSE(First.PreprocessAmortized);

  // B's registration pushes the shard over budget; A is the LRU victim.
  serveOnce(Server, B, options(19, true));
  EXPECT_LE(Server.stats().BytesCached, Config.CacheBudgetBytes);

  // A's return is a new residency: re-analyzed, re-charged, bit-identical.
  const RegisteredMatrix Returned = registerAliased(Server, A);
  EXPECT_FALSE(Returned.AnalysisReused);
  Server.releaseMatrix(Returned);
  const ServeResponse Second = serveOnce(Server, A, options(19, true));
  EXPECT_FALSE(Second.PreprocessAmortized);
  EXPECT_EQ(Second.Selection.KernelIndex, First.Selection.KernelIndex);
  EXPECT_EQ(Second.PreprocessMs, First.PreprocessMs);
  EXPECT_EQ(Second.IterationMs, First.IterationMs);
  EXPECT_EQ(Second.Y, First.Y);

  const ServerStats Stats = Server.stats();
  EXPECT_GE(Stats.Evictions, 1u);
  EXPECT_GE(Stats.Reanalyses, 1u);
  EXPECT_EQ(Stats.PaidPreprocesses, 3u); // A, B, then A's second residency
}

TEST(CacheBudgetTest, PlanReuseAcrossEvictionRebuildsBitIdentically) {
  // The plan cache obeys charge-once-per-residency: within a residency a
  // batch's plan is reused (amortized); after eviction the next
  // registration re-analyzes and the plan is rebuilt — charged afresh,
  // bit-identical output.
  const CsrMatrix &A = requestPool()[1]; // power-law: needs preprocessing
  const CsrMatrix &B = requestPool()[4];
  const auto Operands = buildBatchOperands(4, A.numCols());

  uint64_t OneEntryBytes = 0;
  {
    SeerServer Unbounded(tinyModels());
    serveOnce(Unbounded, A, options(19, true));
    OneEntryBytes = Unbounded.stats().BytesCached;
  }

  ServerConfig Config;
  Config.CacheShards = 1;
  Config.CacheBudgetBytes = static_cast<size_t>(OneEntryBytes);
  SeerServer Server(tinyModels(), Config);

  const RegisteredMatrix First = registerAliased(Server, A);
  const BatchResponse Built =
      *Server.executeBatchRegistered(First, batchOptions(19, Operands));
  EXPECT_FALSE(Built.PreprocessAmortized);
  const BatchResponse Reused =
      *Server.executeBatchRegistered(First, batchOptions(19, Operands));
  EXPECT_TRUE(Reused.PreprocessAmortized);
  EXPECT_EQ(Reused.Y, Built.Y);
  Server.releaseMatrix(First);

  // B's executed entry overflows the one-entry budget; A (no longer
  // pinned) is the victim.
  serveOnce(Server, B, options(19, true));

  // A's return is a new residency: deterministic re-analysis, plan
  // rebuilt and re-charged, identical bits.
  const RegisteredMatrix Second = registerAliased(Server, A);
  EXPECT_FALSE(Second.AnalysisReused);
  const BatchResponse Rebuilt =
      *Server.executeBatchRegistered(Second, batchOptions(19, Operands));
  EXPECT_FALSE(Rebuilt.PreprocessAmortized);
  EXPECT_EQ(Rebuilt.PreprocessMs, Built.PreprocessMs);
  EXPECT_EQ(Rebuilt.Selection.KernelIndex, Built.Selection.KernelIndex);
  EXPECT_EQ(Rebuilt.IterationMs, Built.IterationMs);
  EXPECT_EQ(Rebuilt.Y, Built.Y);
  Server.releaseMatrix(Second);

  const ServerStats Stats = Server.stats();
  EXPECT_GE(Stats.Evictions, 1u);
  EXPECT_GE(Stats.Reanalyses, 1u);
  EXPECT_EQ(Stats.PlansBuilt, 3u);  // A's first batch, B, A rebuilt
  EXPECT_EQ(Stats.PlansReused, 1u); // A's second batch
  EXPECT_EQ(Stats.BatchRequests, 3u);
  EXPECT_EQ(Stats.BatchedOperands, 3 * Operands.size());
}

TEST(CacheBudgetTest, OracleShedsBeforeWholeEntries) {
  const CsrMatrix &A = requestPool()[1];

  // Full = entry bytes with the oracle sweep and its stashed states
  // resident; a budget one byte below forces a shed, which must free the
  // recomputable bytes while keeping the entry (and its paid state).
  uint64_t FullBytes = 0;
  {
    SeerServer Unbounded(tinyModels());
    serveOnce(Unbounded, A, options(5, true, true));
    FullBytes = Unbounded.stats().BytesCached;
  }

  ServerConfig Config;
  Config.CacheShards = 1;
  Config.CacheBudgetBytes = static_cast<size_t>(FullBytes - 1);
  SeerServer Server(tinyModels(), Config);
  const ServeResponse First = serveOnce(Server, A, options(5, true, true));

  ServerStats Stats = Server.stats();
  EXPECT_LE(Stats.BytesCached, Config.CacheBudgetBytes);
  EXPECT_GE(Stats.PartialEvictions, 1u);
  EXPECT_EQ(Stats.Evictions, 0u);
  EXPECT_EQ(Stats.CachedMatrices, 1u);

  // The entry survived: the next registration reuses its analysis, the
  // selection is identical, and the next verify recomputes the
  // (deterministic) oracle to the same verdict.
  const RegisteredMatrix Again = registerAliased(Server, A);
  EXPECT_TRUE(Again.AnalysisReused);
  Server.releaseMatrix(Again);
  const ServeResponse Second = serveOnce(Server, A, options(5, true, true));
  EXPECT_EQ(Second.Selection.KernelIndex, First.Selection.KernelIndex);
  EXPECT_TRUE(Second.OracleChecked);
  EXPECT_EQ(Second.OracleKernelIndex, First.OracleKernelIndex);
  EXPECT_EQ(Second.Mispredicted, First.Mispredicted);
  EXPECT_EQ(Second.RegretMs, First.RegretMs);
  EXPECT_EQ(Second.Y, First.Y);
}

TEST(CacheBudgetTest, ConcurrentChurnRespectsBudgetAndStaysBitIdentical) {
  // Two inputs: a select-only stream, and an execute stream that also
  // verifies every selection against the oracle, so oracle sweeps are
  // computed, shed and recomputed while 8 clients race.
  const std::vector<CsrMatrix> &Pool = requestPool();
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);
  const uint32_t IterationPattern[3] = {1, 5, 19};
  for (const bool Execute : {false, true}) {
    SCOPED_TRACE(Execute ? "execute + verify" : "select");
    std::vector<std::vector<SelectionResult>> Direct(Pool.size());
    std::vector<std::vector<std::vector<double>>> DirectY(Pool.size());
    for (size_t M = 0; M < Pool.size(); ++M)
      for (uint32_t I : IterationPattern) {
        Direct[M].push_back(Reference.select(Pool[M], I));
        if (Execute)
          DirectY[M].push_back(
              Reference
                  .execute(Pool[M],
                           std::vector<double>(Pool[M].numCols(), 1.0), I)
                  .Y);
      }

    // The working set without oracle sweeps: what survives stage-1
    // shedding, so a third of it forces whole-entry evictions in both
    // inputs.
    uint64_t WorkingSet = 0;
    {
      SeerServer Unbounded(tinyModels());
      for (const CsrMatrix &M : Pool)
        serveOnce(Unbounded, M, options(1, Execute));
      WorkingSet = Unbounded.stats().BytesCached;
    }

    // Every client pins the entry it is serving, and pinned bytes count
    // against the budget by design (serve/FingerprintCache.h), so with 8
    // clients a sample taken mid-stream may read over budget. The strict
    // per-sample check lives on the unpinned cache path
    // (UnpinnedConcurrentChurnNeverExceedsBudget); here the answers must
    // stay bit-identical, the churn must really evict, and the cache must
    // be back within budget once every client has released and joined.
    //
    // Re-analysis does not depend on how the clients interleave: each
    // client cycles all six matrices, several times, against a budget of
    // a third of their working set, so every client overflows the budget
    // by itself and comes back to matrices the cache has had to drop.
    ServerConfig Config;
    Config.CacheShards = 2;
    Config.CacheBudgetBytes = static_cast<size_t>(WorkingSet / 3);
    SeerServer Server(tinyModels(), Config);
    constexpr size_t NumClients = 8;
    constexpr size_t RequestsPerClient = 40;
    std::vector<std::string> Failures(NumClients);
    std::vector<std::thread> Clients;
    for (size_t C = 0; C < NumClients; ++C)
      Clients.emplace_back([&, C] {
        for (size_t R = 0; R < RequestsPerClient; ++R) {
          const size_t MatrixIndex = (C + R) % Pool.size();
          const size_t IterIndex = R % 3;
          const ServeResponse Response = serveOnce(
              Server, Pool[MatrixIndex],
              options(IterationPattern[IterIndex], Execute, Execute));
          const SelectionResult &Expected = Direct[MatrixIndex][IterIndex];
          if (Response.Selection.KernelIndex != Expected.KernelIndex ||
              Response.Selection.UsedGatheredModel !=
                  Expected.UsedGatheredModel ||
              (Execute && Response.Y != DirectY[MatrixIndex][IterIndex]))
            Failures[C] = "client " + std::to_string(C) + " request " +
                          std::to_string(R) + " diverged under churn";
        }
      });
    for (std::thread &T : Clients)
      T.join();
    for (const std::string &Failure : Failures)
      EXPECT_TRUE(Failure.empty()) << Failure;

    const ServerStats Stats = Server.stats();
    EXPECT_EQ(Stats.Requests, NumClients * RequestsPerClient);
    EXPECT_EQ(Stats.PinnedMatrices, 0u);
    EXPECT_LE(Stats.BytesCached, Config.CacheBudgetBytes);
    EXPECT_GT(Stats.Evictions, 0u);
    EXPECT_GT(Stats.Reanalyses, 0u);
    if (Execute) {
      // Every request verified, and oracle sweeps were shed under the
      // budget before whole entries went.
      EXPECT_EQ(Stats.OracleChecks, NumClients * RequestsPerClient);
      EXPECT_GT(Stats.PartialEvictions, 0u);
    }
  }
}

TEST(CacheBudgetTest, UnpinnedConcurrentChurnNeverExceedsBudget) {
  // With no pins, every shard polices its slice under its own lock on
  // each insertion and each mutation, so no sample may ever read over
  // budget — however the 8 threads interleave. Odd requests also grow
  // their entry (a stand-in oracle sweep) and report it through
  // noteMutation, which drives both eviction stages.
  const std::vector<CsrMatrix> &Pool = requestPool();
  const size_t NumKernels = KernelRegistry().size();
  std::vector<uint64_t> Fingerprints;
  for (const CsrMatrix &M : Pool)
    Fingerprints.push_back(matrixFingerprint(M));

  uint64_t WorkingSet = 0;
  {
    FingerprintCache Unbounded(2);
    for (size_t I = 0; I < Pool.size(); ++I)
      Unbounded.lookupOrAnalyze(Fingerprints[I], Pool[I], NumKernels);
    WorkingSet = Unbounded.stats().BytesCached;
  }

  const size_t Budget = static_cast<size_t>(WorkingSet / 3);
  FingerprintCache Cache(2, Budget);
  constexpr size_t NumThreads = 8;
  constexpr size_t RequestsPerThread = 40;
  std::vector<std::string> Failures(NumThreads);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t R = 0; R < RequestsPerThread; ++R) {
        const size_t I = (T + R) % Pool.size();
        const std::shared_ptr<FingerprintCache::Entry> E =
            Cache.lookupOrAnalyze(Fingerprints[I], Pool[I], NumKernels,
                                  /*Pin=*/false)
                .first;
        if (R % 2 == 1) {
          {
            MutexLock Lock(E->Mutex);
            E->Oracle.assign(NumKernels, KernelMeasurement());
          }
          Cache.noteMutation(E);
        }
        if (Cache.stats().BytesCached > Budget)
          Failures[T] = "thread " + std::to_string(T) + " request " +
                        std::to_string(R) + " saw the cache over budget";
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &Failure : Failures)
    EXPECT_TRUE(Failure.empty()) << Failure;

  const FingerprintCache::Stats Stats = Cache.stats();
  EXPECT_LE(Stats.BytesCached, Budget);
  EXPECT_EQ(Stats.PinnedEntries, 0u);
  EXPECT_GT(Stats.Evictions, 0u);
  EXPECT_GT(Stats.PartialEvictions, 0u);
  EXPECT_GT(Stats.Reanalyses, 0u);
}

//===----------------------------------------------------------------------===//
// Latency histogram (the registry's Histogram, recording microseconds)
//===----------------------------------------------------------------------===//

TEST(ServeLatencyTest, PercentilesApproximateTheSamples) {
  Histogram H;
  for (int I = 1; I <= 100; ++I)
    H.record(static_cast<double>(I)); // 1..100 us, uniform
  EXPECT_EQ(H.samples(), 100u);
  EXPECT_NEAR(H.mean(), 50.5, 0.1);
  // Geometric buckets are ~20% wide; percentiles land within one bucket.
  EXPECT_NEAR(H.percentile(0.50), 50.0, 12.0);
  EXPECT_NEAR(H.percentile(0.99), 99.0, 25.0);
  EXPECT_LE(H.percentile(0.50), H.percentile(0.99));
  H.reset();
  EXPECT_EQ(H.samples(), 0u);
  EXPECT_EQ(H.percentile(0.5), 0.0);
}

TEST(ServeLatencyTest, RejectsNonFiniteAndNegativeSamples) {
  // NaN and negative durations used to land in bucket 0 and drag p50
  // toward the floor while the mean diverged from the bucket counts.
  Histogram H;
  H.record(std::numeric_limits<double>::quiet_NaN());
  H.record(-5.0);
  H.record(std::numeric_limits<double>::infinity());
  H.record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(H.samples(), 0u);
  EXPECT_EQ(H.rejected(), 4u);
  EXPECT_EQ(H.mean(), 0.0);
  EXPECT_EQ(H.percentile(0.5), 0.0);

  // Good samples around 100us: the rejected garbage must not have shifted
  // the percentiles or the mean.
  for (int I = 0; I < 10; ++I)
    H.record(100.0);
  H.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(H.samples(), 10u);
  EXPECT_EQ(H.rejected(), 5u);
  EXPECT_NEAR(H.mean(), 100.0, 0.1);
  EXPECT_NEAR(H.percentile(0.5), 100.0, 25.0);
  EXPECT_NEAR(H.percentile(0.99), 100.0, 25.0);

  H.reset();
  EXPECT_EQ(H.rejected(), 0u);
}

//===----------------------------------------------------------------------===//
// Trace protocol
//===----------------------------------------------------------------------===//

TEST(RequestTraceTest, ParsesCommandsAndRejectsGarbage) {
  TraceCommand Command;
  EXPECT_TRUE(parseTraceLine("", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Blank);
  EXPECT_TRUE(parseTraceLine("  # just a comment", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Blank);

  ASSERT_TRUE(parseTraceLine("gen web banded 1000 8 0.9 42", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Gen);
  EXPECT_EQ(Command.Name, "web");
  EXPECT_EQ(Command.GenFamily, "banded");
  EXPECT_EQ(Command.GenArgs.size(), 4u);

  ASSERT_TRUE(parseTraceLine("select web 19", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Select);
  EXPECT_EQ(Command.Iterations, 19u);
  EXPECT_FALSE(Command.Verify);

  ASSERT_TRUE(parseTraceLine("execute web 5 verify", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Execute);
  EXPECT_TRUE(Command.Verify);

  EXPECT_FALSE(parseTraceLine("select", Command).ok());
  EXPECT_FALSE(parseTraceLine("select web 0", Command).ok());
  EXPECT_FALSE(parseTraceLine("select web 5 verify", Command).ok());
  EXPECT_FALSE(parseTraceLine("frobnicate web", Command).ok());
  EXPECT_FALSE(parseTraceLine("gen web banded ten 8 0.9 42", Command).ok());

  // Counts above UINT32_MAX are rejected at parse time, naming the token,
  // instead of wrapping modulo 2^32 (4294967301 would serve 5 iterations).
  for (const std::string Line : {"execute m 4294967301", "select m 4294967296",
                                 "batch m 4 4294967296", "spans 4294967296"}) {
    const Status S = parseTraceLine(Line, Command);
    ASSERT_FALSE(S.ok()) << Line;
    EXPECT_EQ(S.code(), StatusCode::InvalidArgument) << Line;
    const std::string Token = Line.substr(Line.rfind(' ') + 1);
    EXPECT_NE(S.message().find("'" + Token + "'"), std::string::npos)
        << Line << ": " << S.message();
  }
  ASSERT_TRUE(parseTraceLine("select m 4294967295", Command).ok());
  EXPECT_EQ(Command.Iterations, std::numeric_limits<uint32_t>::max());
  ASSERT_TRUE(parseTraceLine("spans 4294967295", Command).ok());
  EXPECT_EQ(Command.SpanCount, std::numeric_limits<uint32_t>::max());
}

TEST(RequestTraceTest, ParsesBatchCommands) {
  TraceCommand Command;
  ASSERT_TRUE(parseTraceLine("batch web 32", Command).ok());
  EXPECT_EQ(Command.Command, TraceCommand::Kind::Batch);
  EXPECT_EQ(Command.Name, "web");
  EXPECT_EQ(Command.BatchCount, 32u);
  EXPECT_EQ(Command.Iterations, 1u);

  ASSERT_TRUE(parseTraceLine("batch web 8 19", Command).ok());
  EXPECT_EQ(Command.BatchCount, 8u);
  EXPECT_EQ(Command.Iterations, 19u);

  // Malformed counts and arities are typed errors.
  EXPECT_FALSE(parseTraceLine("batch web", Command).ok());
  EXPECT_FALSE(parseTraceLine("batch web 0", Command).ok());
  EXPECT_FALSE(parseTraceLine("batch web 5000", Command).ok());
  EXPECT_FALSE(parseTraceLine("batch web many", Command).ok());
  EXPECT_FALSE(parseTraceLine("batch web 4 5 verify", Command).ok());

  // In a trace, batch is a v2 command (like open/close)...
  const auto V1 = parseTrace("gen a banded 256 4 0.9 1\nbatch a 4\n");
  ASSERT_FALSE(V1);
  EXPECT_NE(V1.status().message().find("seer-trace v2"), std::string::npos);
  // ...and parses into a Batch command with its operand count under v2.
  const auto V2 = parseTrace("seer-trace v2\n"
                             "gen a banded 256 4 0.9 1\n"
                             "batch a 4 5\n");
  ASSERT_TRUE(V2) << V2.status().toString();
  ASSERT_EQ(V2->Commands.size(), 2u);
  EXPECT_EQ(V2->opCount(), 1u);
  EXPECT_EQ(V2->Commands[1].Command, TraceCommand::Kind::Batch);
  EXPECT_EQ(V2->Commands[1].BatchCount, 4u);
  EXPECT_EQ(V2->Commands[1].Iterations, 5u);
}

TEST(RequestTraceTest, BatchOperandsAreDeterministic) {
  const auto A = buildBatchOperands(3, 64);
  const auto B = buildBatchOperands(3, 64);
  ASSERT_EQ(A.size(), 3u);
  EXPECT_EQ(A, B); // bit-identical replays
  EXPECT_EQ(A[0].size(), 64u);
  EXPECT_NE(A[0], A[1]); // distinct operands per index
  for (const auto &Operand : A)
    for (double V : Operand) {
      EXPECT_GE(V, -1.0);
      EXPECT_LT(V, 1.0);
    }
}

TEST(RequestTraceTest, ParsesWholeTraceAndServesIt) {
  const std::string Text = "# two matrices, three requests\n"
                           "gen a banded 512 4 0.9 1\n"
                           "gen b powerlaw 512 1.8 1 64 2\n"
                           "select a 1\n"
                           "execute b 19\n"
                           "select a 5\n";
  const auto Script = parseTrace(Text);
  ASSERT_TRUE(Script) << Script.status().toString();
  EXPECT_EQ(Script->Version, 1);
  EXPECT_EQ(Script->Matrices.size(), 2u);
  // The setup lines stay in place, ahead of the three requests.
  ASSERT_EQ(Script->Commands.size(), 5u);
  EXPECT_EQ(Script->opCount(), 3u);
  EXPECT_EQ(Script->Commands[0].Command, TraceCommand::Kind::Gen);
  EXPECT_EQ(Script->Commands[2].Name, "a");
  EXPECT_EQ(Script->Commands[2].Command, TraceCommand::Kind::Select);
  EXPECT_EQ(Script->Commands[3].Command, TraceCommand::Kind::Execute);
  EXPECT_EQ(Script->Commands[3].Iterations, 19u);

  SeerServer Server(tinyModels());
  for (const TraceCommand &Op : Script->Commands) {
    if (Op.Command == TraceCommand::Kind::Gen)
      continue;
    const ServeResponse Response = serveOnce(
        Server, Script->Matrices[Script->matrixIndex(Op.Name)].second,
        options(Op.Iterations, Op.Command == TraceCommand::Kind::Execute));
    const std::string Line =
        formatResponseLine(Op.Name, Response, Server.registry());
    EXPECT_NE(Line.find("kernel="), std::string::npos);
  }
  EXPECT_EQ(Server.stats().Requests, 3u);
}

TEST(RequestTraceTest, ParsesV2HeaderAndHandleCommands) {
  const std::string Text = "seer-trace v2\n"
                           "gen a banded 256 4 0.9 1\n"
                           "select a 1\n"
                           "close a\n"
                           "select a 1\n"
                           "open a\n"
                           "execute a 5\n";
  const auto Script = parseTrace(Text);
  ASSERT_TRUE(Script) << Script.status().toString();
  EXPECT_EQ(Script->Version, 2);
  ASSERT_EQ(Script->Commands.size(), 6u);
  EXPECT_EQ(Script->opCount(), 5u);
  EXPECT_EQ(Script->Commands[2].Command, TraceCommand::Kind::Close);
  EXPECT_EQ(Script->Commands[4].Command, TraceCommand::Kind::Open);

  // open/close without the header are parse errors...
  const auto V1 = parseTrace("gen a banded 256 4 0.9 1\nclose a\n");
  ASSERT_FALSE(V1);
  EXPECT_EQ(V1.status().code(), StatusCode::InvalidArgument);
  EXPECT_NE(V1.status().message().find("seer-trace v2"), std::string::npos);
  // ...and the header must come first.
  EXPECT_FALSE(parseTrace("gen a banded 256 4 0.9 1\nseer-trace v2\n"));
  // Unknown versions are rejected.
  EXPECT_FALSE(parseTrace("seer-trace v3\n"));
}

TEST(RequestTraceTest, ErrorLinesCarryStatusCodes) {
  const std::string Line =
      formatErrorLine(Status::notFound("no handle for 'web'"));
  EXPECT_EQ(Line, "error NOT_FOUND no handle for 'web'");
  EXPECT_EQ(formatErrorLine(Status::resourceExhausted("queue full")),
            "error RESOURCE_EXHAUSTED queue full");
}

TEST(RequestTraceTest, StatsLinesCarryResidencyCounters) {
  ServerStats Stats;
  Stats.CacheBudgetBytes = 1 << 20;
  Stats.BytesCached = 12345;
  Stats.BytesEvicted = 678;
  Stats.Evictions = 9;
  Stats.PartialEvictions = 2;
  Stats.Reanalyses = 4;
  Stats.PlansBuilt = 7;
  Stats.PlansReused = 11;
  Stats.BatchRequests = 3;
  Stats.BatchedOperands = 96;
  const std::string Lines = formatStatsLines(Stats);
  EXPECT_NE(Lines.find("stat cache_budget_bytes 1048576"), std::string::npos);
  EXPECT_NE(Lines.find("stat bytes_cached 12345"), std::string::npos);
  EXPECT_NE(Lines.find("stat bytes_evicted 678"), std::string::npos);
  EXPECT_NE(Lines.find("stat evictions 9"), std::string::npos);
  EXPECT_NE(Lines.find("stat partial_evictions 2"), std::string::npos);
  EXPECT_NE(Lines.find("stat reanalyses 4"), std::string::npos);
  EXPECT_NE(Lines.find("stat plans_built 7"), std::string::npos);
  EXPECT_NE(Lines.find("stat plans_reused 11"), std::string::npos);
  EXPECT_NE(Lines.find("stat batch_requests 3"), std::string::npos);
  EXPECT_NE(Lines.find("stat batched_operands 96"), std::string::npos);
}

TEST(RequestTraceTest, BatchResponseLinesCarryPerBatchCharges) {
  SeerServer Server(tinyModels());
  const CsrMatrix &M = requestPool()[0];
  const RegisteredMatrix Reg = registerAliased(Server, M);
  const auto Operands = buildBatchOperands(3, M.numCols());
  const BatchResponse B =
      *Server.executeBatchRegistered(Reg, batchOptions(5, Operands));
  const std::string Line = formatBatchResponseLine("web", B,
                                                   Server.registry());
  EXPECT_EQ(Line.find("web kernel="), 0u);
  EXPECT_NE(Line.find(" batch=3"), std::string::npos);
  EXPECT_NE(Line.find(" iterations=5"), std::string::npos);
  EXPECT_NE(Line.find(" cache=hit"), std::string::npos);
  EXPECT_NE(Line.find(" preprocess_ms="), std::string::npos);
  EXPECT_NE(Line.find(" total_ms="), std::string::npos);
  Server.releaseMatrix(Reg);
}

TEST(RequestTraceTest, HandlePathBitIdenticalToOneShotRuntimeOnSameTrace) {
  // The serving answers stay the one-shot runtime's answers: one trace
  // replayed through session handles matches SeerRuntime request by
  // request in kernel choice, routing and product bits, while the ledger
  // amortizes the repeat execution's preprocessing.
  const std::string Text = "gen a banded 512 4 0.9 1\n"
                           "gen b powerlaw 512 1.8 1 64 2\n"
                           "gen c uniform 256 256 12 0.5 3\n"
                           "select a 1\n"
                           "execute b 19\n"
                           "select a 5\n"
                           "execute b 19\n" // amortized: b's plan is paid
                           "execute c 5 verify\n"
                           "select b 19\n";
  const auto Script = parseTrace(Text);
  ASSERT_TRUE(Script) << Script.status().toString();

  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(tinyModels(), Registry, Sim);

  SeerService Service(tinyModels());
  std::vector<MatrixHandle> Handles;
  for (const auto &[Name, M] : Script->Matrices) {
    auto Handle = Service.registerMatrix(M);
    ASSERT_TRUE(Handle) << Handle.status().toString();
    Handles.push_back(*Handle);
  }

  std::vector<const TraceCommand *> Ops;
  for (const TraceCommand &Command : Script->Commands)
    if (Command.Command != TraceCommand::Kind::Gen)
      Ops.push_back(&Command);
  std::vector<ServeResponse> Responses;
  for (size_t I = 0; I < Ops.size(); ++I) {
    const TraceCommand &Op = *Ops[I];
    const size_t MatrixIndex = Script->matrixIndex(Op.Name);
    const CsrMatrix &M = Script->Matrices[MatrixIndex].second;
    Request R;
    R.Handle = Handles[MatrixIndex];
    R.Iterations = Op.Iterations;
    R.Execute = Op.Command == TraceCommand::Kind::Execute;
    R.VerifyOracle = Op.Verify;
    const auto Response = Service.serve(R);
    ASSERT_TRUE(Response) << Response.status().toString();
    Responses.push_back(*Response);
    // Registration pays the analysis, so every handle request is a hit.
    EXPECT_TRUE(Response->CacheHit) << "op " << I;
    EXPECT_EQ(Response->Fingerprint, matrixFingerprint(M)) << "op " << I;
    EXPECT_EQ(Response->Executed, R.Execute) << "op " << I;
    EXPECT_EQ(Response->OracleChecked, Op.Verify) << "op " << I;

    const ExecutionReport Direct = Reference.execute(
        M, std::vector<double>(M.numCols(), 1.0), Op.Iterations);
    EXPECT_EQ(Response->Selection.KernelIndex, Direct.Selection.KernelIndex)
        << "op " << I;
    EXPECT_EQ(Response->Selection.UsedGatheredModel,
              Direct.Selection.UsedGatheredModel)
        << "op " << I;
    // Collection is never charged per request, even on the gathered
    // route; its modeled cost is still reported.
    EXPECT_EQ(Response->Selection.FeatureCollectionMs, 0.0) << "op " << I;
    EXPECT_EQ(Response->ModeledCollectionMs,
              Direct.Selection.FeatureCollectionMs)
        << "op " << I;
    if (!R.Execute)
      continue;
    EXPECT_EQ(Response->IterationMs, Direct.IterationMs) << "op " << I;
    EXPECT_EQ(Response->Y, Direct.Y) << "op " << I;
    if (!Response->PreprocessAmortized) {
      EXPECT_EQ(Response->PreprocessMs, Direct.PreprocessMs) << "op " << I;
    }
  }

  // The first `execute b 19` pays b's preprocessing; the second reuses it.
  EXPECT_FALSE(Responses[1].PreprocessAmortized);
  EXPECT_TRUE(Responses[3].PreprocessAmortized);
  EXPECT_EQ(Responses[3].PreprocessMs, 0.0);
  EXPECT_EQ(Responses[3].Y, Responses[1].Y);
  // Gathered-route requests saved their collection cost.
  const ServerStats Stats = Service.stats();
  if (Stats.GatheredRoutes > 0) {
    EXPECT_GT(Stats.SavedCollectionMs, 0.0);
  }

  for (MatrixHandle Handle : Handles)
    EXPECT_TRUE(Service.release(Handle).ok());
}

TEST(RequestTraceTest, RejectsBadTraces) {
  const auto Unknown = parseTrace("select nosuch 1\n");
  ASSERT_FALSE(Unknown);
  EXPECT_NE(Unknown.status().message().find("unknown matrix"),
            std::string::npos);
  const auto Duplicate =
      parseTrace("gen a banded 10 2 0.5 1\ngen a diagonal 10 1\n");
  ASSERT_FALSE(Duplicate);
  EXPECT_NE(Duplicate.status().message().find("duplicate"),
            std::string::npos);
  EXPECT_FALSE(parseTrace("stats\n"));
  EXPECT_FALSE(parseTrace("gen a warp 10 1\n"));
}

TEST(RequestTraceTest, GenArgumentsAreRangeChecked) {
  // Casting negative / huge / fractional doubles would be UB (and a
  // hostile line could otherwise make a long-running server allocate
  // gigabytes): all must fail cleanly.
  TraceCommand Command;
  for (const char *Line : {
           "gen a banded -1 8 0.9 7",      // negative rows
           "gen a banded 1e9 8 0.9 7",     // rows above the 2^24 cap
           "gen a banded 10.5 8 0.9 7",    // fractional rows
           "gen a banded 0 8 0.9 7",       // zero rows
           "gen a banded 100 8 0.9 -3",    // negative seed
           "gen a diagonal nan 1",         // non-finite (parse or build)
           "gen a powerlaw 100 1.8 1 1e30 7", // huge max row length
       }) {
    ASSERT_TRUE(parseTraceLine(Line, Command).ok() ||
                Command.Command == TraceCommand::Kind::Blank)
        << Line; // "nan" fails at parse time; the rest parse fine
    if (Command.Command == TraceCommand::Kind::Gen) {
      EXPECT_FALSE(buildTraceMatrix(Command)) << Line;
    }
  }
  // Half-band 0 stays legal (a pure diagonal band).
  ASSERT_TRUE(parseTraceLine("gen a banded 64 0 0.9 7", Command).ok());
  const auto Built = buildTraceMatrix(Command);
  EXPECT_TRUE(Built) << Built.status().toString();
}

TEST(RequestTraceTest, ReplayMatchesTheGoldenTranscript) {
  // A fixed v2 script replayed through the text front end over a local
  // Session: selects, verified executes, batches, close/reopen, and the
  // three stage fault sites armed before both a single execute and a
  // batch. Response lines carry modeled costs only, so the transcript is
  // deterministic; tests/golden/serve_transcript.txt pins it byte for
  // byte. On a mismatch the test writes this run's transcript to the temp
  // directory; copy it over the golden file only when a reply is meant to
  // change.
  struct DisarmGuard {
    ~DisarmGuard() { FaultInjector::instance().disarm(); }
  } Guard;
  const std::string Trace =
      "seer-trace v2\n"
      "gen web powerlaw 2048 1.8 1 256 11\n"
      "gen road banded 4096 4 0.95 7\n"
      "gen grid uniform 512 512 12 0.5 13\n"
      "gen prep1 banded 1024 8 0.9 21\n"
      "gen prep2 banded 1024 8 0.9 22\n"
      "select web 5\n"
      "select road 19\n"
      "select web 5\n"
      "execute web 5\n"
      "execute road 19 verify\n"
      "execute web 5 verify\n"
      "batch web 8 5\n"
      "batch road 4 19\n"
      "close web\n"
      "select web 5\n"   // closed
      "close web\n"      // already released
      "open web\n"
      "select web 5\n"
      "execute web 5\n"  // the ledger survived the reopen: amortized
      "batch web 3 19\n"
      "fault plan.select nth=1 status=INTERNAL selector down\n"
      "execute road 5\n" // degraded
      "fault clear\n"    // (a clear restarts the site's hit count)
      "fault plan.select nth=1 status=INTERNAL selector down\n"
      "batch road 2 5\n" // degraded
      "fault clear\n"
      "fault kernel.prepare nth=1 status=INTERNAL prepare down\n"
      "execute prep1 5\n" // degraded: prep1's plan was never prepared
      "fault clear\n"
      "fault kernel.prepare nth=1 status=INTERNAL prepare down\n"
      "batch prep2 4 5\n" // degraded: neither was prep2's
      "fault clear\n"
      "fault plan.run nth=1 status=INTERNAL run down\n"
      "execute grid 19\n" // degraded
      "fault clear\n"
      "fault plan.run nth=1 status=INTERNAL run down\n"
      "batch grid 4 19\n" // degraded
      "fault clear\n"
      "execute prep1 5\n"
      "batch prep2 2 5\n"
      "execute grid 19 verify\n"
      "batch road 2 5\n";
  const auto Script = parseTrace(Trace);
  ASSERT_TRUE(Script) << Script.status().toString();

  SeerService Service(tinyModels());
  Session Local(Service);
  SpanSink Spans;
  std::ostringstream Out;
  TextFrontEnd FrontEnd(
      [&](SessionOp Op) { return Local.apply(std::move(Op)); },
      Service.registry(), Spans, TextFrontEnd::Mode::Replay, &Out);
  replayTrace(*Script, 1, FrontEnd);

  const std::string GoldenPath =
      std::string(SEER_SOURCE_DIR) + "/tests/golden/serve_transcript.txt";
  std::ifstream In(GoldenPath);
  ASSERT_TRUE(In) << "cannot open " << GoldenPath;
  const std::string Golden((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());
  if (Out.str() != Golden) {
    const auto Actual =
        std::filesystem::temp_directory_path() / "serve_transcript.actual";
    std::ofstream(Actual) << Out.str();
    ADD_FAILURE() << "replay differs from " << GoldenPath
                  << "; this run's transcript is in " << Actual.string();
  }
  EXPECT_EQ(Out.str(), Golden);
}

//===----------------------------------------------------------------------===//
// Model bundle
//===----------------------------------------------------------------------===//

TEST(ModelBundleTest, RoundTripsThroughDisk) {
  const std::string Dir =
      (std::filesystem::temp_directory_path() / "seer_bundle_test").string();
  std::filesystem::create_directories(Dir);
  const SeerModels &Models = tinyModels();
  ASSERT_TRUE(storeModelBundle(Models, Dir).ok());
  const KernelRegistry Registry;
  const auto Loaded = loadModelBundle(Dir, Registry.names());
  ASSERT_TRUE(Loaded) << Loaded.status().toString();
  EXPECT_EQ(Loaded->Known.serialize(), Models.Known.serialize());
  EXPECT_EQ(Loaded->Gathered.serialize(), Models.Gathered.serialize());
  EXPECT_EQ(Loaded->Selector.serialize(), Models.Selector.serialize());
  EXPECT_EQ(Loaded->KernelNames, Registry.names());
  std::filesystem::remove_all(Dir);
}

TEST(ModelBundleTest, MissingAndMalformedFilesAreErrors) {
  const std::string Dir =
      (std::filesystem::temp_directory_path() / "seer_bundle_bad").string();
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const KernelRegistry Registry;
  const auto Missing = loadModelBundle(Dir, Registry.names());
  ASSERT_FALSE(Missing);
  EXPECT_EQ(Missing.status().code(), StatusCode::NotFound);
  EXPECT_NE(Missing.status().message().find("cannot open"),
            std::string::npos);

  ASSERT_TRUE(storeModelBundle(tinyModels(), Dir).ok());
  std::ofstream(Dir + "/seer_selector.tree") << "not a tree\n";
  const auto Malformed = loadModelBundle(Dir, Registry.names());
  ASSERT_FALSE(Malformed);
  EXPECT_NE(Malformed.status().message().find("malformed"),
            std::string::npos);
  std::filesystem::remove_all(Dir);
}
