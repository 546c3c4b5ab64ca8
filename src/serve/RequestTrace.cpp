//===- serve/RequestTrace.cpp ----------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "serve/RequestTrace.h"

#include "api/MatrixInput.h"
#include "kernels/KernelRegistry.h"
#include "sparse/MatrixMarket.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

using namespace seer;

namespace {

/// Splits a line into whitespace-separated tokens, dropping `#` comments.
/// A manual scan rather than istringstream: this runs once per trace
/// line, and stream construction plus locale-aware extraction dominated
/// parse time in profiles. Token boundaries match `Stream >> Token`
/// exactly (isspace on the default locale).
std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Tokens;
  const size_t Size = Line.size();
  size_t I = 0;
  while (I < Size) {
    while (I < Size &&
           std::isspace(static_cast<unsigned char>(Line[I])) != 0)
      ++I;
    if (I >= Size)
      break;
    size_t Begin = I;
    while (I < Size &&
           std::isspace(static_cast<unsigned char>(Line[I])) == 0)
      ++I;
    if (Line[Begin] == '#')
      break;
    Tokens.emplace_back(Line, Begin, I - Begin);
  }
  return Tokens;
}

/// Parses a count token that must lie in [1, Max]. Checked before the
/// narrowing cast, so an out-of-range count is rejected naming its token
/// instead of wrapping modulo 2^32.
Status parseCount(const std::string &Token, const char *What, int64_t Max,
                  uint32_t &Out) {
  int64_t Value = 0;
  if (!parseInt(Token, Value) || Value < 1 || Value > Max)
    return Status::invalidArgument(std::string("bad ") + What + " '" + Token +
                                   "' (must be in [1, " + std::to_string(Max) +
                                   "])");
  Out = static_cast<uint32_t>(Value);
  return Status::okStatus();
}

constexpr int64_t MaxCount = std::numeric_limits<uint32_t>::max();

Status parseIterations(const std::string &Token, uint32_t &Out) {
  return parseCount(Token, "iteration count", MaxCount, Out);
}

} // namespace

Status seer::parseTraceLine(const std::string &Line, TraceCommand &Out) {
  const auto Fail = [](const std::string &Message) {
    return Status::invalidArgument(Message);
  };
  Out = TraceCommand();
  const std::vector<std::string> Tokens = tokenize(Line);
  if (Tokens.empty())
    return Status::okStatus(); // blank or comment

  const std::string &Verb = Tokens[0];
  if (Verb == "seer-trace") {
    if (Tokens.size() != 2 || Tokens[1] != "v2")
      return Fail("unsupported trace version (only 'seer-trace v2')");
    Out.Command = TraceCommand::Kind::Version;
    Out.Version = 2;
    return Status::okStatus();
  }

  if (Verb == "stats" || Verb == "quit" || Verb == "metrics") {
    if (Tokens.size() != 1)
      return Fail("'" + Verb + "' takes no arguments");
    Out.Command = Verb == "stats" ? TraceCommand::Kind::Stats
                 : Verb == "quit" ? TraceCommand::Kind::Quit
                                  : TraceCommand::Kind::Metrics;
    return Status::okStatus();
  }

  if (Verb == "spans") {
    if (Tokens.size() != 2)
      return Fail("usage: spans N");
    Out.Command = TraceCommand::Kind::Spans;
    return parseCount(Tokens[1], "span count", MaxCount, Out.SpanCount);
  }

  if (Verb == "load") {
    if (Tokens.size() != 3)
      return Fail("usage: load NAME PATH");
    Out.Command = TraceCommand::Kind::Load;
    Out.Name = Tokens[1];
    Out.Path = Tokens[2];
    return Status::okStatus();
  }

  if (Verb == "gen") {
    if (Tokens.size() < 3)
      return Fail("usage: gen NAME FAMILY ARGS...");
    Out.Command = TraceCommand::Kind::Gen;
    Out.Name = Tokens[1];
    Out.GenFamily = Tokens[2];
    for (size_t I = 3; I < Tokens.size(); ++I) {
      double Value = 0.0;
      if (!parseDouble(Tokens[I], Value))
        return Fail("bad gen argument '" + Tokens[I] + "'");
      Out.GenArgs.push_back(Value);
    }
    return Status::okStatus();
  }

  if (Verb == "open" || Verb == "close") {
    if (Tokens.size() != 2)
      return Fail("usage: " + Verb + " NAME");
    Out.Command = Verb == "open" ? TraceCommand::Kind::Open
                                 : TraceCommand::Kind::Close;
    Out.Name = Tokens[1];
    return Status::okStatus();
  }

  if (Verb == "fault") {
    if (Tokens.size() < 2)
      return Fail("usage: fault SITE nth=N|every=K ACTION | fault seed N | "
                  "fault clear");
    Out.Command = TraceCommand::Kind::Fault;
    std::vector<std::string> Rest(Tokens.begin() + 1, Tokens.end());
    Out.FaultSpec = joinStrings(Rest, " ");
    return validateFaultSpec(Out.FaultSpec);
  }

  if (Verb == "batch") {
    if (Tokens.size() < 3 || Tokens.size() > 4)
      return Fail("usage: batch NAME COUNT [ITERATIONS]");
    Out.Command = TraceCommand::Kind::Batch;
    Out.Name = Tokens[1];
    if (const Status S =
            parseCount(Tokens[2], "batch operand count", MaxBatchOperands,
                       Out.BatchCount);
        !S.ok())
      return S;
    if (Tokens.size() == 4)
      if (const Status S = parseIterations(Tokens[3], Out.Iterations);
          !S.ok())
        return S;
    return Status::okStatus();
  }

  if (Verb == "select" || Verb == "execute") {
    if (Tokens.size() < 2)
      return Fail("usage: " + Verb + " NAME [ITERATIONS]");
    Out.Command = Verb == "select" ? TraceCommand::Kind::Select
                                   : TraceCommand::Kind::Execute;
    Out.Name = Tokens[1];
    size_t Next = 2;
    if (Next < Tokens.size() && Tokens[Next] != "verify") {
      if (const Status S = parseIterations(Tokens[Next], Out.Iterations);
          !S.ok())
        return S;
      ++Next;
    }
    if (Next < Tokens.size()) {
      if (Tokens[Next] != "verify" || Out.Command != TraceCommand::Kind::Execute)
        return Fail("unexpected token '" + Tokens[Next] + "'");
      Out.Verify = true;
      ++Next;
    }
    if (Next != Tokens.size())
      return Fail("trailing tokens after '" + Verb + "'");
    return Status::okStatus();
  }

  return Fail("unknown command '" + Verb + "'");
}

Expected<CsrMatrix> seer::buildTraceMatrix(const TraceCommand &Command) {
  // The gen validation (dimension caps, integral checks, seed range) is
  // shared with the registration API: a protocol line and a GeneratorSpec
  // are the same thing.
  return buildGeneratorMatrix(GeneratorSpec{Command.GenFamily,
                                            Command.GenArgs});
}

size_t TraceScript::matrixIndex(const std::string &Name) const {
  for (size_t I = 0; I < Matrices.size(); ++I)
    if (Matrices[I].first == Name)
      return I;
  return npos;
}

namespace {

bool isDefinition(const TraceCommand &Command) {
  return Command.Command == TraceCommand::Kind::Load ||
         Command.Command == TraceCommand::Kind::Gen;
}

} // namespace

size_t TraceScript::opCount() const {
  return static_cast<size_t>(
      std::count_if(Commands.begin(), Commands.end(),
                    [](const TraceCommand &C) { return !isDefinition(C); }));
}

Expected<TraceScript> seer::parseTrace(const std::string &Text) {
  const auto Fail = [](size_t LineNo, const std::string &Message) {
    return Status::invalidArgument("trace line " + std::to_string(LineNo) +
                                   ": " + Message);
  };

  TraceScript Script;
  bool SawCommand = false;
  const std::vector<std::string> Lines = splitString(Text, '\n');
  for (size_t LineNo = 1; LineNo <= Lines.size(); ++LineNo) {
    TraceCommand Command;
    const std::string &Line = Lines[LineNo - 1];
    if (const Status S = parseTraceLine(Line, Command); !S.ok())
      return Fail(LineNo, S.message());
    const auto Verb = [&Line] { return tokenize(Line)[0]; };
    const bool Defined =
        Script.matrixIndex(Command.Name) != TraceScript::npos;

    switch (Command.Command) {
    case TraceCommand::Kind::Blank:
      continue;
    case TraceCommand::Kind::Version:
      if (SawCommand)
        return Fail(LineNo, "'seer-trace v2' must be the first command");
      Script.Version = Command.Version;
      SawCommand = true;
      continue;
    case TraceCommand::Kind::Stats:
    case TraceCommand::Kind::Quit:
      return Fail(LineNo, "control commands are not allowed in traces");
    case TraceCommand::Kind::Load:
    case TraceCommand::Kind::Gen: {
      if (Defined)
        return Fail(LineNo, "duplicate matrix name '" + Command.Name + "'");
      auto M = Command.Command == TraceCommand::Kind::Load
                   ? readMatrixMarketFile(Command.Path)
                   : buildTraceMatrix(Command);
      if (!M)
        return Fail(LineNo, M.status().message());
      Script.Matrices.emplace_back(Command.Name, std::move(*M));
      break;
    }
    case TraceCommand::Kind::Fault:
    case TraceCommand::Kind::Metrics:
    case TraceCommand::Kind::Spans:
    case TraceCommand::Kind::Open:
    case TraceCommand::Kind::Close:
    case TraceCommand::Kind::Batch:
      if (Script.Version < 2)
        return Fail(LineNo,
                    "'" + Verb() + "' requires a 'seer-trace v2' header");
      if (!Command.Name.empty() && !Defined)
        return Fail(LineNo, "unknown matrix '" + Command.Name + "'");
      break;
    case TraceCommand::Kind::Select:
    case TraceCommand::Kind::Execute:
      if (!Defined)
        return Fail(LineNo, "unknown matrix '" + Command.Name + "'");
      break;
    }
    Script.Commands.push_back(std::move(Command));
    SawCommand = true;
  }
  return Script;
}

Expected<TraceScript> seer::readTraceFile(const std::string &Path) {
  std::ifstream Stream(Path);
  if (!Stream)
    return Status::notFound("cannot open trace file '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  return parseTrace(Buffer.str());
}

//===----------------------------------------------------------------------===//
// Output formatting
//===----------------------------------------------------------------------===//

std::string seer::formatBatchResponseLine(const std::string &Name,
                                          const BatchResponse &Response,
                                          const KernelRegistry &Registry) {
  char Buffer[512];
  const int Written = std::snprintf(
      Buffer, sizeof(Buffer),
      "%s kernel=%s route=%s cache=%s iterations=%u batch=%zu "
      "overhead_ms=%.6f preprocess_ms=%.6f amortized=%d iteration_ms=%.6f "
      "total_ms=%.6f",
      Name.c_str(),
      Registry.kernel(Response.Selection.KernelIndex).name().c_str(),
      Response.Selection.UsedGatheredModel ? "gathered" : "known",
      Response.CacheHit ? "hit" : "miss", Response.Iterations,
      Response.operands(), Response.Selection.overheadMs(),
      Response.PreprocessMs, Response.PreprocessAmortized ? 1 : 0,
      Response.IterationMs, Response.totalMs());
  // snprintf returns the untruncated would-be length: clamp so an
  // oversized NAME yields a truncated line, not an out-of-bounds read.
  const size_t Length =
      Written > 0 ? std::min(static_cast<size_t>(Written), sizeof(Buffer) - 1)
                  : 0;
  std::string Line(Buffer, Length);
  if (Response.Degraded)
    Line += " degraded=1";
  return Line;
}

std::string seer::formatResponseLine(const std::string &Name,
                                     const ServeResponse &Response,
                                     const KernelRegistry &Registry) {
  char Buffer[512];
  // As in formatBatchResponseLine: snprintf reports the untruncated
  // length, so clamp every chunk to what actually fits in the buffer.
  const auto Fitted = [&Buffer](int Written) {
    return Written > 0
               ? std::min(static_cast<size_t>(Written), sizeof(Buffer) - 1)
               : 0;
  };
  int Written = std::snprintf(
      Buffer, sizeof(Buffer),
      "%s kernel=%s route=%s cache=%s iterations=%u overhead_ms=%.6f",
      Name.c_str(),
      Registry.kernel(Response.Selection.KernelIndex).name().c_str(),
      Response.Selection.UsedGatheredModel ? "gathered" : "known",
      Response.CacheHit ? "hit" : "miss", Response.Iterations,
      Response.Selection.overheadMs());
  std::string Line(Buffer, Fitted(Written));
  if (Response.Executed) {
    Written = std::snprintf(
        Buffer, sizeof(Buffer),
        " preprocess_ms=%.6f amortized=%d iteration_ms=%.6f total_ms=%.6f",
        Response.PreprocessMs, Response.PreprocessAmortized ? 1 : 0,
        Response.IterationMs, Response.totalMs());
    Line.append(Buffer, Fitted(Written));
  }
  if (Response.OracleChecked) {
    Written = std::snprintf(
        Buffer, sizeof(Buffer), " oracle=%s mispredict=%d regret_ms=%.6f",
        Registry.kernel(Response.OracleKernelIndex).name().c_str(),
        Response.Mispredicted ? 1 : 0, Response.RegretMs);
    Line.append(Buffer, Fitted(Written));
  }
  if (Response.Degraded)
    Line += " degraded=1";
  return Line;
}

std::string seer::formatStatsLines(const ServerStats &Stats) {
  char Buffer[3584];
  const int Written = std::snprintf(
      Buffer, sizeof(Buffer),
      "stat requests %" PRIu64 "\n"
      "stat registrations %" PRIu64 "\n"
      "stat active_handles %" PRIu64 "\n"
      "stat cache_hits %" PRIu64 "\n"
      "stat cache_misses %" PRIu64 "\n"
      "stat hit_rate %.4f\n"
      "stat known_routes %" PRIu64 "\n"
      "stat gathered_routes %" PRIu64 "\n"
      "stat executions %" PRIu64 "\n"
      "stat paid_preprocesses %" PRIu64 "\n"
      "stat amortized_preprocesses %" PRIu64 "\n"
      "stat plans_built %" PRIu64 "\n"
      "stat plans_reused %" PRIu64 "\n"
      "stat batch_requests %" PRIu64 "\n"
      "stat batched_operands %" PRIu64 "\n"
      "stat oracle_checks %" PRIu64 "\n"
      "stat mispredictions %" PRIu64 "\n"
      "stat mispredict_rate %.4f\n"
      "stat saved_collection_ms %.6f\n"
      "stat saved_preprocess_ms %.6f\n"
      "stat cached_matrices %" PRIu64 "\n"
      "stat pinned_matrices %" PRIu64 "\n"
      "stat cache_budget_bytes %" PRIu64 "\n"
      "stat bytes_cached %" PRIu64 "\n"
      "stat bytes_evicted %" PRIu64 "\n"
      "stat evictions %" PRIu64 "\n"
      "stat partial_evictions %" PRIu64 "\n"
      "stat reanalyses %" PRIu64 "\n"
      "stat async_accepted %" PRIu64 "\n"
      "stat async_rejected %" PRIu64 "\n"
      "stat deadline_exceeded %" PRIu64 "\n"
      "stat retries %" PRIu64 "\n"
      "stat retries_exhausted %" PRIu64 "\n"
      "stat degraded_serves %" PRIu64 "\n"
      "stat faults_injected %" PRIu64 "\n"
      "stat breaker_opens %" PRIu64 "\n"
      "stat latency_samples %" PRIu64 "\n"
      "stat latency_mean_us %.3f\n"
      "stat latency_p50_us %.3f\n"
      "stat latency_p99_us %.3f\n"
      "stat net_connections %" PRIu64 "\n"
      "stat net_requests %" PRIu64 "\n"
      "stat net_protocol_errors %" PRIu64 "\n",
      Stats.Requests, Stats.Registrations, Stats.ActiveHandles,
      Stats.CacheHits, Stats.CacheMisses, Stats.hitRate(), Stats.KnownRoutes,
      Stats.GatheredRoutes, Stats.Executions, Stats.PaidPreprocesses,
      Stats.AmortizedPreprocesses, Stats.PlansBuilt, Stats.PlansReused,
      Stats.BatchRequests, Stats.BatchedOperands, Stats.OracleChecks,
      Stats.Mispredictions,
      Stats.mispredictRate(), Stats.SavedCollectionMs,
      Stats.SavedPreprocessMs, Stats.CachedMatrices, Stats.PinnedMatrices,
      Stats.CacheBudgetBytes, Stats.BytesCached, Stats.BytesEvicted,
      Stats.Evictions, Stats.PartialEvictions, Stats.Reanalyses,
      Stats.AsyncAccepted, Stats.AsyncRejected, Stats.DeadlineExceeded,
      Stats.Retries, Stats.RetriesExhausted, Stats.DegradedServes,
      Stats.FaultsInjected, Stats.BreakerOpens, Stats.LatencySamples,
      Stats.MeanLatencyUs, Stats.P50LatencyUs, Stats.P99LatencyUs,
      Stats.NetConnections, Stats.NetRequests, Stats.NetProtocolErrors);
  return std::string(Buffer, Written > 0 ? static_cast<size_t>(Written) : 0);
}

std::string seer::formatSpanLines(const std::vector<TraceSpan> &Spans,
                                  size_t MaxCount) {
  const size_t Count = std::min(MaxCount, Spans.size());
  std::string Out;
  // Newest spans are the most interesting ones: print the tail of the
  // start-time-sorted drain, oldest of the window first.
  for (size_t I = Spans.size() - Count; I < Spans.size(); ++I) {
    const TraceSpan &S = Spans[I];
    char Buffer[256];
    int Written = std::snprintf(Buffer, sizeof(Buffer),
                                "span %s start_ns=%" PRIu64 " dur_ns=%" PRIu64
                                " request_id=%" PRIu64 " tid=%" PRIu64,
                                S.Name, S.StartNs, S.DurNs, S.RequestId,
                                S.ThreadId);
    size_t Length =
        Written > 0 ? std::min(static_cast<size_t>(Written), sizeof(Buffer) - 1)
                    : 0;
    Out.append(Buffer, Length);
    if (S.TagKey) {
      Written = std::snprintf(Buffer, sizeof(Buffer), " %s=%g", S.TagKey,
                              S.TagValue);
      Length = Written > 0
                   ? std::min(static_cast<size_t>(Written), sizeof(Buffer) - 1)
                   : 0;
      Out.append(Buffer, Length);
    }
    Out += '\n';
  }
  Out += "ok spans " + std::to_string(Count) + "\n";
  return Out;
}

std::string seer::formatErrorLine(const Status &Error) {
  assert(!Error.ok() && "error line for an OK status");
  return std::string("error ") + statusCodeName(Error.code()) + " " +
         Error.message();
}

//===----------------------------------------------------------------------===//
// Span sink
//===----------------------------------------------------------------------===//

void SpanSink::drain() {
  std::vector<TraceSpan> Fresh = SpanRecorder::instance().drain();
  MutexLock Lock(M);
  Spans.insert(Spans.end(), Fresh.begin(), Fresh.end());
  std::sort(Spans.begin(), Spans.end(),
            [](const TraceSpan &A, const TraceSpan &B) {
              return A.StartNs != B.StartNs ? A.StartNs < B.StartNs
                                            : A.Seq < B.Seq;
            });
}

std::string SpanSink::spanLines(uint32_t Count) {
  drain();
  MutexLock Lock(M);
  return formatSpanLines(Spans, Count);
}

std::string SpanSink::chromeJson() {
  drain();
  MutexLock Lock(M);
  return SpanRecorder::chromeTraceJson(Spans);
}

//===----------------------------------------------------------------------===//
// Text front end
//===----------------------------------------------------------------------===//

TextFrontEnd::TextFrontEnd(SessionApplyFn Apply,
                           const KernelRegistry &Registry, SpanSink &Spans,
                           Mode M, std::ostream *Out)
    : Apply(std::move(Apply)), Registry(Registry), Spans(Spans),
      PrintMode(M), Out(Out) {}

void TextFrontEnd::print(const std::string &Text, bool Ack) {
  if (Out && (!Ack || PrintMode == Mode::Interactive))
    *Out << Text;
}

void TextFrontEnd::fail(const Status &Error) {
  ++Errors;
  print(formatErrorLine(Error) + "\n");
}

bool TextFrontEnd::open(NamedMatrix &M) {
  SessionOp Op;
  Op.Type = SessionOp::Kind::Open;
  Op.Name = M.Name;
  Op.Matrix = M.Source;
  const auto Opened = Apply(std::move(Op));
  if (!Opened) {
    fail(Opened.status());
    return false;
  }
  M.Handle = Opened->Handle;
  const HandleInfo &Info = Opened->Info;
  print("ok " + M.Name + " " + std::to_string(Info.NumRows) + "x" +
            std::to_string(Info.NumCols) + " " + std::to_string(Info.Nnz) +
            " nnz handle=" + std::to_string(M.Handle) + "\n",
        /*Ack=*/true);
  return true;
}

void TextFrontEnd::run(const TraceCommand &Command, const MatrixInput *Source) {
  using Kind = TraceCommand::Kind;
  const std::string &Name = Command.Name;
  auto Named =
      std::find_if(Names.begin(), Names.end(),
                   [&](const NamedMatrix &M) { return M.Name == Name; });
  const bool Defines =
      Command.Command == Kind::Load || Command.Command == Kind::Gen;
  // Every name-level error is decided here, before anything is applied.
  if (!Name.empty() && !Defines && Named == Names.end())
    return fail(Status::notFound("unknown matrix '" + Name + "'"));
  SessionOp Op;
  Op.Handle = Named == Names.end() ? 0 : Named->Handle;
  switch (Command.Command) {
  case Kind::Blank:
  case Kind::Quit:
    return;
  case Kind::Version:
    return print("ok seer-trace v2\n", /*Ack=*/true);
  case Kind::Spans:
    if (!Out)
      return Spans.drain(); // keep the rings from overwriting under load
    return print(Spans.spanLines(Command.SpanCount));
  case Kind::Load:
  case Kind::Gen:
    if (Named != Names.end())
      return fail(
          Status::alreadyExists("duplicate matrix name '" + Name + "'"));
    Names.push_back(
        {Name,
         Source ? *Source
         : Command.Command == Kind::Load
             ? MatrixInput(MatrixMarketSource{Command.Path})
             : MatrixInput(GeneratorSpec{Command.GenFamily, Command.GenArgs}),
         0});
    if (!open(Names.back()))
      Names.pop_back(); // forget a name that never opened
    return;
  case Kind::Open:
    if (Op.Handle != 0)
      return fail(
          Status::alreadyExists("matrix '" + Name + "' is already open"));
    open(*Named);
    return;
  case Kind::Close:
    if (Op.Handle == 0) // the service's answer to releasing handle 0
      return fail(unknownHandle(0));
    Op.Type = SessionOp::Kind::Close;
    Named->Handle = 0;
    break;
  case Kind::Select:
  case Kind::Execute:
  case Kind::Batch:
    if (Op.Handle == 0)
      return fail(Status::failedPrecondition("matrix '" + Name +
                                             "' is closed (open it first)"));
    Op.Type = Command.Command == Kind::Select    ? SessionOp::Kind::Select
              : Command.Command == Kind::Execute ? SessionOp::Kind::Execute
                                                 : SessionOp::Kind::Batch;
    Op.Iterations = Command.Iterations;
    Op.Verify = Command.Verify;
    Op.Count = Command.BatchCount;
    break;
  case Kind::Fault:
    Op.Type = SessionOp::Kind::Fault;
    Op.FaultSpec = Command.FaultSpec;
    break;
  case Kind::Stats:
  case Kind::Metrics:
    if (!Out)
      return; // an observation, not a request: only a printer asks
    Op.Type = Command.Command == Kind::Stats ? SessionOp::Kind::Stats
                                             : SessionOp::Kind::Metrics;
    break;
  }

  const auto Answer = Apply(std::move(Op));
  if (!Answer)
    return fail(Answer.status());
  if (!Out)
    return;
  switch (Answer->Type) {
  case Reply::Kind::Response:
    return print(formatResponseLine(Name, Answer->Response, Registry) + "\n");
  case Reply::Kind::Batch:
    return print(formatBatchResponseLine(Name, Answer->Batch, Registry) +
                 "\n");
  case Reply::Kind::Text:
    return print(Answer->Text);
  case Reply::Kind::Ack:
    if (Command.Command == Kind::Fault)
      return print("ok fault " + Command.FaultSpec + "\n");
    return print("ok closed " + Name + "\n", /*Ack=*/true);
  case Reply::Kind::Opened:
    return;
  }
}

bool TextFrontEnd::runLine(const std::string &Line) {
  TraceCommand Command;
  if (const Status S = parseTraceLine(Line, Command); !S.ok())
    fail(S);
  else if (Command.Command == TraceCommand::Kind::Quit)
    return false;
  else
    run(Command);
  if (Out)
    Out->flush();
  return true;
}

void TextFrontEnd::closeAll() {
  for (NamedMatrix &M : Names) {
    if (M.Handle == 0)
      continue;
    SessionOp Op;
    Op.Type = SessionOp::Kind::Close;
    Op.Handle = M.Handle;
    M.Handle = 0;
    (void)Apply(std::move(Op));
  }
}

uint64_t seer::replayTrace(const TraceScript &Script, unsigned Repeat,
                           TextFrontEnd &FrontEnd) {
  for (unsigned Pass = 0; Pass < Repeat; ++Pass)
    for (const TraceCommand &Command : Script.Commands) {
      if (!isDefinition(Command)) {
        FrontEnd.run(Command);
        continue;
      }
      if (Pass > 0)
        continue;
      // Zero-copy: every client shares the parser's matrix instead of
      // copying it (the caller keeps the script alive).
      const MatrixInput Shared = std::shared_ptr<const CsrMatrix>(
          std::shared_ptr<void>(),
          &Script.Matrices[Script.matrixIndex(Command.Name)].second);
      FrontEnd.run(Command, &Shared);
    }
  FrontEnd.closeAll();
  return FrontEnd.errors();
}
