//===- serve/SeerServer.cpp ------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "serve/SeerServer.h"

#include "support/FaultInjector.h"
#include "support/Tracing.h"

#include <cassert>
#include <chrono>

using namespace seer;

SeerServer::SeerServer(SeerModels Models, ServerConfig Config)
    : Models(std::move(Models)), Registry(), Sim(Config.Device),
      Runtime(this->Models, Registry, Sim),
      Cache(Config.CacheShards, Config.CacheBudgetBytes),
      Baseline(Registry.indexOf("CSR,TM")),
      SelectBreaker(Config.BreakerThreshold, Config.BreakerCooldown),
      PrepareBreaker(Config.BreakerThreshold, Config.BreakerCooldown),
      RunBreaker(Config.BreakerThreshold, Config.BreakerCooldown) {}

namespace {

uint64_t msToNanos(double Ms) {
  return Ms > 0 ? static_cast<uint64_t>(Ms * 1e6) : 0;
}

bool deadlineExpired(std::chrono::steady_clock::time_point Deadline) {
  return Deadline != std::chrono::steady_clock::time_point::min() &&
         std::chrono::steady_clock::now() >= Deadline;
}

double microsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Armed-only stage timer: no clock read when observability is off, so
/// the disarmed request path keeps its pre-instrumentation cost.
struct StageClock {
  explicit StageClock(bool Armed)
      : Armed(Armed), StartNs(Armed ? SpanRecorder::nowNs() : 0) {}
  /// Elapsed wall time, microseconds (0 when disarmed).
  double elapsedUs() const {
    return Armed
               ? static_cast<double>(SpanRecorder::nowNs() - StartNs) / 1000.0
               : 0.0;
  }
  bool Armed;
  uint64_t StartNs;
};

/// Records a stage's wall time and, when the stage ran with a non-zero
/// modeled cost, the wall/modeled ratio into the cost-model-error
/// histogram.
void recordStage(const StageClock &Clock, Histogram &WallUs,
                 Histogram *CostError, double ModeledMs) {
  if (!Clock.Armed)
    return;
  double Us = Clock.elapsedUs();
  WallUs.record(Us);
  if (CostError && ModeledMs > 0.0)
    CostError->record(Us * 1e-3 / ModeledMs);
}

} // namespace

RegisteredMatrix SeerServer::registerMatrix(
    std::shared_ptr<const CsrMatrix> Matrix) {
  assert(Matrix && "registration without a matrix");
  RegisteredMatrix R;
  R.Fingerprint = matrixFingerprint(*Matrix);
  const StageClock Probe(SpanRecorder::instance().armed());
  ScopedSpan ProbeSpan(spanname::CacheProbe);
  auto [Entry, Hit] = Cache.lookupOrAnalyze(R.Fingerprint, *Matrix,
                                            Registry.size(), /*Pin=*/true);
  ProbeSpan.tag("hit", Hit ? 1.0 : 0.0);
  recordStage(Probe, CacheProbeUs, nullptr, 0.0);
  R.Matrix = std::move(Matrix);
  R.Entry = std::move(Entry);
  R.AnalysisReused = Hit;
  // The one place the cache can miss: requests carry the pinned entry.
  // Counted after the registration (stats() relies on that order).
  Registrations.add();
  if (Hit)
    CacheHits.add();
  return R;
}

void SeerServer::releaseMatrix(const RegisteredMatrix &Registered) {
  assert(Registered.valid() && "releasing an empty registration");
  Cache.unpin(Registered.Entry);
  Releases.add();
}

bool SeerServer::preparePlan(
    ExecutionPlan &Plan, const AnalyzedMatrix &A,
    const std::shared_ptr<FingerprintCache::Entry> &Entry) {
  const Planner &Pipeline = Runtime.planner();

  // Plan reuse: rebuild the plan around the cached prepared fragment if
  // one exists. Check under the entry lock, do fresh work outside it,
  // and let the first finisher publish. Charge-once-per-residency:
  // eviction resets the fragments along with the entry.
  {
    ScopedSpan LedgerSpan(spanname::CacheLedger);
    MutexLock Lock(Entry->Mutex);
    FingerprintCache::KernelSlot &Slot = Entry->Kernels[Plan.kernelIndex()];
    if (Slot.Paid) {
      Pipeline.reusePrepared(Plan, Slot, /*AlreadyPaid=*/true);
      return true;
    }
    if (Slot.State) {
      // A fragment stashed by an oracle sweep but never charged: reuse
      // the (deterministic) state, but this plan owes the one-time cost —
      // the modeled charge is identical to recomputing preprocess().
      Pipeline.reusePrepared(Plan, Slot, /*AlreadyPaid=*/false);
      Slot.Paid = true;
      return true;
    }
  }

  Pipeline.prepare(Plan, A); // fresh, outside the entry lock
  bool Grew = false;
  bool Reused = false;
  {
    ScopedSpan LedgerSpan(spanname::CacheLedger);
    MutexLock Lock(Entry->Mutex);
    FingerprintCache::KernelSlot &Slot = Entry->Kernels[Plan.kernelIndex()];
    if (!Slot.Paid) {
      Slot = Pipeline.exportPrepared(Plan);
      Grew = true;
    } else {
      // A racing request published its plan first; this one rides along.
      Pipeline.reusePrepared(Plan, Slot, /*AlreadyPaid=*/true);
      Reused = true;
    }
  }
  if (Grew)
    Cache.noteMutation(Entry);
  return Reused;
}

SpmvRun SeerServer::runBaseline(const CsrMatrix &M, const MatrixStats &Stats,
                                const std::vector<double> &X) const {
  // Plain thread-mapped CSR: no preprocessing state, no Planner stages,
  // no fault sites — a failure in the degraded path itself would mean the
  // kernel registry is broken, which no fallback can paper over.
  return Registry.kernel(Baseline).run(M, Stats, /*State=*/nullptr, X, Sim);
}

Status SeerServer::finishError(Status Error,
                               std::chrono::steady_clock::time_point Start) {
  assert(!Error.ok() && "finishError on success");
  if (Error.code() == StatusCode::DeadlineExceeded)
    DeadlineExceededCount.add();
  // Failed requests cost service time too; Requests and its derived
  // invariants (hits + misses, known + gathered) count only answered
  // requests, so errors move the latency histogram and their own
  // counters, nothing else.
  Latency.record(microsSince(Start));
  return Error;
}

Expected<ServeResponse>
SeerServer::handleRegistered(const RegisteredMatrix &Registered,
                             const ServeOptions &Options) {
  assert(!Options.Operands && "a batch is served by executeBatchRegistered");
  ServeResponse R;
  if (Status S = serveStages(Registered, Options, R, &R.Y); !S.ok())
    return S;
  return R;
}

Expected<BatchResponse>
SeerServer::executeBatchRegistered(const RegisteredMatrix &Registered,
                                   const ServeOptions &Options) {
  assert(Options.Operands && !Options.Operands->empty() && "empty batch");
  BatchResponse B;
  B.Y.resize(Options.Operands->size());
  ServeResponse R;
  if (Status S = serveStages(Registered, Options, R, B.Y.data()); !S.ok())
    return S;
  B.Selection = R.Selection;
  B.ModeledCollectionMs = R.ModeledCollectionMs;
  B.Fingerprint = R.Fingerprint;
  B.CacheHit = R.CacheHit;
  B.Iterations = R.Iterations;
  B.PreprocessAmortized = R.PreprocessAmortized;
  B.PreprocessMs = R.PreprocessMs;
  B.ModeledPreprocessMs = R.ModeledPreprocessMs;
  B.IterationMs = R.IterationMs;
  B.ServiceMicros = R.ServiceMicros;
  B.Degraded = R.Degraded;
  return B;
}

Status SeerServer::serveStages(const RegisteredMatrix &Registered,
                               const ServeOptions &Options, ServeResponse &R,
                               std::vector<double> *Y) {
  assert(Registered.valid() && "request against an empty registration");
  const auto Start = std::chrono::steady_clock::now();
  const CsrMatrix &M = *Registered.Matrix;
  const std::shared_ptr<FingerprintCache::Entry> &Entry = Registered.Entry;
  const Planner &Pipeline = Runtime.planner();
  const AnalyzedMatrix A =
      Planner::adopt(M, Entry->Stats, Registered.Fingerprint);
  FaultInjector &Faults = FaultInjector::instance();

  // The request's operands: a batch's list, one for an execute (all ones
  // unless given), none for a select.
  const bool Batch = Options.Operands != nullptr;
  const size_t N = Batch ? Options.Operands->size() : Options.Execute ? 1 : 0;
  const std::vector<double> Ones(
      Options.Execute && !Options.Operand && !Batch ? M.numCols() : 0, 1.0);
  const std::vector<double> *X = Batch ? Options.Operands->data()
                                 : Options.Operand ? Options.Operand
                                                   : &Ones;

  // Per-request reset of this thread's plan-scratch arena, which every
  // stage draws its feature scratch from: on the repeat stream the whole
  // path allocates nothing (held by flat_tree_test's operator-new count).
  Planner::scratchArena().reset();

  // Observability: armed, mint a request id every nested span inherits
  // and time each stage into its histogram; disarmed, all of this is one
  // relaxed load plus two thread-local stores.
  const bool Obs = SpanRecorder::instance().armed();
  const uint64_t RequestId =
      Obs ? NextRequestId.fetch_add(1, std::memory_order_relaxed) + 1 : 0;
  ScopedRequestId IdScope(RequestId);
  ScopedSpan RequestSpan(Batch ? spanname::ServeBatch : spanname::Serve,
                         RequestId);
  if (Batch)
    RequestSpan.tag("operands", static_cast<double>(N));

  // Deadline checkpoint before selection: queue wait and admission count
  // against the deadline, and no pipeline work runs for an expired one.
  if (deadlineExpired(Options.Deadline))
    return finishError(
        Status::deadlineExceeded("deadline expired before selection"), Start);

  R.Iterations = Options.Iterations ? Options.Iterations : 1;
  R.Fingerprint = Registered.Fingerprint;
  R.CacheHit = true; // registration paid the analysis

  // Every stage below follows one rule: a retryable failure propagates
  // typed (the session layer's RetryPolicy may re-issue); a terminal
  // failure, an injected bad_alloc or an open breaker degrades the whole
  // request to the baseline kernel. Only a batch has a fault site of its
  // own, ahead of selection.
  bool Degraded = false;
  if (Batch) {
    try {
      if (Status F = Faults.check(faultsite::BatchExecute); !F.ok()) {
        if (F.isRetryable())
          return finishError(std::move(F), Start);
        Degraded = true;
      }
    } catch (const std::bad_alloc &) {
      Degraded = true;
    }
  }

  // Stage: route + collect + select. The features come from the entry
  // registration analyzed, so collection is never charged and the kernel
  // is bit-identical to the one-shot path. The plan is constructed in
  // place from the lambda (guaranteed elision), not move-assigned: the
  // select stage is on the sub-microsecond select-micro bench budget.
  Status SelectFailure = Status::okStatus();
  ExecutionPlan Plan = [&]() -> ExecutionPlan {
    if (Degraded || !SelectBreaker.allow()) {
      Degraded = true;
      return {};
    }
    const StageClock Select(Obs);
    try {
      Faults.checkOrThrow(faultsite::PlanSelect);
      ExecutionPlan P =
          Pipeline.plan(A, R.Iterations, CollectionCharging::Precollected);
      SelectBreaker.recordSuccess();
      recordStage(Select, StageSelectUs, &CostErrorSelect,
                  P.Selection.overheadMs());
      return P;
    } catch (const InjectedFaultError &E) {
      SelectBreaker.recordFailure();
      if (E.status().isRetryable())
        SelectFailure = E.status();
      else
        Degraded = true;
      return {};
    } catch (const std::bad_alloc &) {
      SelectBreaker.recordFailure();
      Degraded = true;
      return {};
    }
  }();
  if (!SelectFailure.ok())
    return finishError(std::move(SelectFailure), Start);

  // Telemetry: the modeled collection cost this request skipped (the
  // precollected collect stage evaluates only the cost formula).
  if (!Degraded && Plan.Selection.UsedGatheredModel)
    SavedCollectionNs.add(msToNanos(Plan.ModeledCollectionMs));

  // Deadline checkpoint after selection: expired work stops here instead
  // of paying for preparation and runs.
  if (deadlineExpired(Options.Deadline))
    return finishError(
        Status::deadlineExceeded("deadline expired after selection"), Start);

  // The operand loop of the planned and the degraded run, with the
  // per-operand deadline checkpoint: an expired request stops before its
  // next operand and discards what it ran (no prefix answers).
  const auto RunOperands = [&](const auto &RunOne) -> Status {
    for (size_t K = 0; K < N; ++K) {
      if (deadlineExpired(Options.Deadline))
        return Status::deadlineExceeded(
            "deadline expired after " + std::to_string(K) + " of " +
            std::to_string(N) + " operands");
      assert(X[K].size() == M.numCols() && "operand length mismatch");
      SpmvRun Run = RunOne(X[K]);
      R.IterationMs = Run.Timing.TotalMs;
      Y[K] = std::move(Run.Y);
    }
    return Status::okStatus();
  };

  // Stage: prepare, once per request (the kernel.prepare fault site lives
  // inside Planner::prepare and surfaces here as InjectedFaultError).
  bool PlanReused = false;
  if (!Degraded && N > 0) {
    if (!PrepareBreaker.allow()) {
      Degraded = true;
    } else {
      const StageClock Prepare(Obs);
      try {
        PlanReused = preparePlan(Plan, A, Entry);
        PrepareBreaker.recordSuccess();
        // Cost-model error only when this request actually ran the
        // preprocess kernel — a ledger reuse's wall time measures a map
        // lookup, not the modeled preprocessing.
        recordStage(Prepare, StagePrepareUs,
                    (!PlanReused && !Plan.PreprocessAmortized)
                        ? &CostErrorPrepare
                        : nullptr,
                    Plan.ModeledPreprocessMs);
        if (Plan.PreprocessAmortized)
          SavedPreprocessNs.add(msToNanos(Plan.ModeledPreprocessMs));
      } catch (const InjectedFaultError &E) {
        PrepareBreaker.recordFailure();
        if (E.status().isRetryable())
          return finishError(E.status(), Start);
        Degraded = true;
      } catch (const std::bad_alloc &) {
        PrepareBreaker.recordFailure();
        Degraded = true;
      }
    }
  }

  // Stage: run, every operand against the one prepared plan.
  if (!Degraded && N > 0) {
    if (!RunBreaker.allow()) {
      Degraded = true;
    } else {
      const StageClock RunClock(Obs);
      try {
        const Status Ran = RunOperands([&](const std::vector<double> &XK) {
          return Pipeline.run(Plan, A, XK);
        });
        // An expired deadline is no kernel failure: the breaker hears a
        // success, so a half-open probe cannot stay in flight forever.
        RunBreaker.recordSuccess();
        if (!Ran.ok())
          return finishError(Ran, Start);
        // One wall sample for the operand loop against the modeled
        // per-operand run times the operand count.
        recordStage(RunClock, StageRunUs, &CostErrorRun,
                    R.IterationMs * static_cast<double>(N));
      } catch (const InjectedFaultError &E) {
        RunBreaker.recordFailure();
        if (E.status().isRetryable())
          return finishError(E.status(), Start);
        Degraded = true;
      } catch (const std::bad_alloc &) {
        RunBreaker.recordFailure();
        Degraded = true;
      }
    }
  }

  if (Degraded) {
    // Graceful degradation to the deterministic baseline CSR kernel: no
    // model, no preprocessing, no cached state and none of the fault
    // sites above, so it works precisely when the pipeline does not. It
    // is charged as a baseline serve (no selection overhead, no
    // preprocessing), and every operand reruns so all of Y comes from one
    // kernel.
    Plan = ExecutionPlan();
    Plan.Selection.KernelIndex = Baseline;
    ScopedSpan DegradedSpan(spanname::ServeDegraded, RequestId);
    const Status Ran = RunOperands([&](const std::vector<double> &XK) {
      return runBaseline(M, Entry->Stats, XK);
    });
    if (!Ran.ok())
      return finishError(Ran, Start);
  }
  R.Degraded = Degraded;
  R.Executed = N > 0;
  R.Selection = Plan.Selection;
  R.ModeledCollectionMs = Plan.ModeledCollectionMs;
  R.PreprocessAmortized = Plan.PreprocessAmortized;
  R.PreprocessMs = Plan.PreprocessMs;
  R.ModeledPreprocessMs = Plan.ModeledPreprocessMs;
  if (!Degraded && !Batch && N > 0 && Options.VerifyOracle)
    verifyOracle(A, Entry, X[0], R);

  R.ServiceMicros = microsSince(Start);

  // Commit telemetry before returning so stats() is consistent once the
  // caller has its response. A request is one route, one preprocessing
  // charge and one plan whatever its operand count; the degraded path
  // charges no preprocessing and builds no plan.
  Requests.add();
  if (R.Selection.UsedGatheredModel)
    GatheredRoutes.add();
  if (R.Executed) {
    Executions.add(N);
    if (!R.Degraded) {
      (R.PreprocessAmortized ? AmortizedPreprocesses : PaidPreprocesses).add();
      (PlanReused ? PlansReused : PlansBuilt).add();
    }
  }
  if (R.OracleChecked) {
    OracleChecks.add();
    if (R.Mispredicted)
      Mispredictions.add();
  }
  if (R.Degraded)
    DegradedServes.add();
  if (Batch) {
    BatchRequests.add();
    BatchedOperands.add(N);
  }
  Latency.record(R.ServiceMicros);
  return Status::okStatus();
}

void SeerServer::verifyOracle(
    const AnalyzedMatrix &A,
    const std::shared_ptr<FingerprintCache::Entry> &Entry,
    const std::vector<double> &X, ServeResponse &R) {
  // Best-effort under injection: a fault here (the serve.oracle site, or
  // kernel.prepare/plan.run firing inside the probe sweep) skips
  // verification and serves the response unverified rather than failing
  // or degrading it.
  const Planner &Pipeline = Runtime.planner();
  const StageClock Clock(SpanRecorder::instance().armed());
  ScopedSpan OracleSpan(spanname::ServeOracle);
  try {
    FaultInjector::instance().checkOrThrow(faultsite::ServeOracle);
    std::vector<KernelMeasurement> Oracle;
    {
      MutexLock Lock(Entry->Mutex);
      Oracle = Entry->Oracle;
    }
    if (Oracle.empty()) {
      // The sweep: one planner-prepared plan per registry kernel.
      Oracle.resize(Registry.size());
      std::vector<ExecutionPlan> Probes;
      Probes.reserve(Registry.size());
      for (size_t K = 0; K < Registry.size(); ++K) {
        Probes.push_back(Pipeline.planForKernel(A, K));
        const SpmvRun Probe = Pipeline.run(Probes[K], A, X);
        Oracle[K].PreprocessMs = Probes[K].ModeledPreprocessMs;
        Oracle[K].IterationMs = Probe.Timing.TotalMs;
      }
      bool Grew = false;
      {
        MutexLock Lock(Entry->Mutex);
        if (Entry->Oracle.empty()) {
          Entry->Oracle = Oracle;
          Grew = true;
        }
        // Stash the sweep's by-product plans into empty ledger slots,
        // unpaid: a later execution of that kernel reuses the state but
        // still gets charged its one-time cost, and the byte-budgeted
        // cache sheds these first under pressure.
        for (size_t K = 0; K < Probes.size(); ++K) {
          FingerprintCache::KernelSlot &Slot = Entry->Kernels[K];
          if (!Slot.State && !Slot.Paid && Probes[K].State) {
            Slot.State = std::move(Probes[K].State);
            Slot.PreprocessMs = Probes[K].ModeledPreprocessMs;
            Slot.Thunk = Probes[K].Thunk;
            Grew = true;
          }
        }
      }
      if (Grew)
        Cache.noteMutation(Entry);
    }
    size_t Best = 0;
    for (size_t K = 1; K < Oracle.size(); ++K)
      if (Oracle[K].totalMs(R.Iterations) < Oracle[Best].totalMs(R.Iterations))
        Best = K;
    R.OracleChecked = true;
    R.OracleKernelIndex = Best;
    R.Mispredicted = Best != R.Selection.KernelIndex;
    R.RegretMs = Oracle[R.Selection.KernelIndex].totalMs(R.Iterations) -
                 Oracle[Best].totalMs(R.Iterations);
  } catch (const InjectedFaultError &) {
    // Verification skipped; the response itself is unaffected.
  } catch (const std::bad_alloc &) {
  }
  recordStage(Clock, StageOracleUs, nullptr, 0.0);
}

ServerStats SeerServer::stats() const {
  ServerStats S;
  S.Requests = Requests.value();
  S.GatheredRoutes = GatheredRoutes.value();
  S.KnownRoutes = S.Requests - S.GatheredRoutes;
  S.Executions = Executions.value();
  S.PaidPreprocesses = PaidPreprocesses.value();
  S.AmortizedPreprocesses = AmortizedPreprocesses.value();
  S.PlansBuilt = PlansBuilt.value();
  S.PlansReused = PlansReused.value();
  S.BatchRequests = BatchRequests.value();
  S.BatchedOperands = BatchedOperands.value();
  S.OracleChecks = OracleChecks.value();
  S.Mispredictions = Mispredictions.value();
  S.SavedCollectionMs = static_cast<double>(SavedCollectionNs.value()) / 1e6;
  S.SavedPreprocessMs = static_cast<double>(SavedPreprocessNs.value()) / 1e6;
  S.DeadlineExceeded = DeadlineExceededCount.value();
  S.DegradedServes = DegradedServes.value();
  S.BreakerOpens =
      SelectBreaker.opens() + PrepareBreaker.opens() + RunBreaker.opens();
  // Process-wide cumulative snapshot (the injector predates and outlives
  // any one server); resetStats() leaves it alone.
  S.FaultsInjected = FaultInjector::instance().injectedCount();
  const FingerprintCache::Stats Residency = Cache.stats();
  S.CachedMatrices = Residency.Entries;
  S.CacheBudgetBytes = Cache.budgetBytes();
  S.BytesCached = Residency.BytesCached;
  S.BytesEvicted = Residency.BytesEvicted;
  S.Evictions = Residency.Evictions;
  S.PartialEvictions = Residency.PartialEvictions;
  S.Reanalyses = Residency.Reanalyses;
  S.PinnedMatrices = Residency.PinnedEntries;
  // Cache hits and releases first: a registration (or register+release
  // pair) completing between the loads can then only make the misses or
  // the gauge transiently read high, never drive either past the
  // Registrations snapshot and wrap the unsigned subtraction (every hit
  // and every release is counted after its registration); the clamps
  // below cover reordering of the relaxed loads themselves.
  S.CacheHits = CacheHits.value();
  const uint64_t Released = Releases.value();
  S.Registrations = Registrations.value();
  S.ActiveHandles =
      S.Registrations >= Released ? S.Registrations - Released : 0;
  S.CacheMisses =
      S.Registrations >= S.CacheHits ? S.Registrations - S.CacheHits : 0;
  S.LatencySamples = Latency.samples();
  S.MeanLatencyUs = Latency.mean();
  S.P50LatencyUs = Latency.percentile(0.50);
  S.P99LatencyUs = Latency.percentile(0.99);
  S.NetConnections = NetConnections.value();
  S.NetRequests = NetRequests.value();
  S.NetProtocolErrors = NetProtocolErrors.value();

  // Publish the snapshot's derived ratios and externally-owned levels
  // (cache residency, breakers, fault injector) into the registry's
  // gauges, so a Prometheus/JSONL export taken after stats() carries the
  // complete ServerStats picture from the one source of truth.
  CacheMissesGauge.set(static_cast<double>(S.CacheMisses));
  KnownRoutesGauge.set(static_cast<double>(S.KnownRoutes));
  HitRateGauge.set(S.hitRate());
  MispredictRateGauge.set(S.mispredictRate());
  CachedMatricesGauge.set(static_cast<double>(S.CachedMatrices));
  CacheBudgetBytesGauge.set(static_cast<double>(S.CacheBudgetBytes));
  BytesCachedGauge.set(static_cast<double>(S.BytesCached));
  BytesEvictedGauge.set(static_cast<double>(S.BytesEvicted));
  EvictionsGauge.set(static_cast<double>(S.Evictions));
  PartialEvictionsGauge.set(static_cast<double>(S.PartialEvictions));
  ReanalysesGauge.set(static_cast<double>(S.Reanalyses));
  PinnedMatricesGauge.set(static_cast<double>(S.PinnedMatrices));
  ActiveHandlesGauge.set(static_cast<double>(S.ActiveHandles));
  FaultsInjectedGauge.set(static_cast<double>(S.FaultsInjected));
  BreakerOpensGauge.set(static_cast<double>(S.BreakerOpens));
  return S;
}

void SeerServer::resetStats() {
  Requests.reset();
  GatheredRoutes.reset();
  Executions.reset();
  PaidPreprocesses.reset();
  AmortizedPreprocesses.reset();
  PlansBuilt.reset();
  PlansReused.reset();
  BatchRequests.reset();
  BatchedOperands.reset();
  OracleChecks.reset();
  Mispredictions.reset();
  DeadlineExceededCount.reset();
  DegradedServes.reset();
  SavedCollectionNs.reset();
  SavedPreprocessNs.reset();
  NetConnections.reset();
  NetRequests.reset();
  NetProtocolErrors.reset();
  // Cache hits count registrations, which are session telemetry like the
  // registration counter itself, so both survive the reset and
  // cache_hits + cache_misses == registrations holds across it. Breaker
  // opens and the process-wide injected-fault counter are cumulative by
  // design and survive the reset, like the cache residency
  // counters. The stage and cost-model histograms are diagnostic rather
  // than request-wave telemetry and survive too.
  Latency.reset();
}
