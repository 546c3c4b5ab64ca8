//===- api/Session.cpp ----------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "api/Session.h"

#include "serve/RequestTrace.h"
#include "support/FaultInjector.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace seer;

Session::~Session() {
  for (const uint64_t Handle : Handles)
    (void)Service.release(MatrixHandle{Handle});
}

Expected<Reply> Session::apply(SessionOp Op) {
  Reply R; // an Ack unless set below
  switch (Op.Type) {
  case SessionOp::Kind::Open: {
    auto Handle = Service.registerMatrix(std::move(Op.Matrix));
    if (!Handle)
      return Handle.status();
    auto Info = Service.describe(*Handle);
    if (!Info) {
      (void)Service.release(*Handle);
      return Info.status();
    }
    Handles.push_back(Handle->Id);
    R.Type = Reply::Kind::Opened;
    R.Handle = Handle->Id;
    R.Info = *Info;
    return R;
  }
  case SessionOp::Kind::Close: {
    if (Status S = Service.release(MatrixHandle{Op.Handle}); !S.ok())
      return S;
    Handles.erase(std::remove(Handles.begin(), Handles.end(), Op.Handle),
                  Handles.end());
    return R;
  }
  case SessionOp::Kind::Select:
  case SessionOp::Kind::Execute: {
    Request Req;
    Req.Handle = MatrixHandle{Op.Handle};
    Req.Iterations = Op.Iterations;
    Req.Execute = Op.Type == SessionOp::Kind::Execute;
    Req.VerifyOracle = Op.Verify;
    Req.Operand = std::move(Op.Operand);
    // Under the service's bounded admission, on the caller's thread.
    auto Response = Service.serveAdmitted(Req);
    if (!Response)
      return Response.status();
    R.Type = Reply::Kind::Response;
    R.Response = std::move(*Response);
    return R;
  }
  case SessionOp::Kind::Batch: {
    if (Op.Count < 1 || Op.Count > MaxBatchOperands)
      return Status::invalidArgument(
          "batch operand count " + std::to_string(Op.Count) +
          " out of range [1, " + std::to_string(MaxBatchOperands) + "]");
    auto Info = Service.describe(MatrixHandle{Op.Handle});
    if (!Info)
      return Info.status();
    auto Batch = Service.executeBatch(
        MatrixHandle{Op.Handle}, buildBatchOperands(Op.Count, Info->NumCols),
        Op.Iterations);
    if (!Batch)
      return Batch.status();
    R.Type = Reply::Kind::Batch;
    R.Batch = std::move(*Batch);
    return R;
  }
  case SessionOp::Kind::Fault:
    if (Status S = applyFaultSpec(Op.FaultSpec); !S.ok())
      return S;
    return R;
  case SessionOp::Kind::Stats:
  case SessionOp::Kind::Metrics:
    R.Type = Reply::Kind::Text;
    R.Text = Op.Type == SessionOp::Kind::Stats
                 ? formatStatsLines(Service.stats())
                 : Service.metricsPrometheus();
    return R;
  }
  return Status::invalidArgument("unknown session op");
}

std::vector<std::vector<double>> seer::buildBatchOperands(uint32_t Count,
                                                          uint32_t Cols) {
  std::vector<std::vector<double>> Operands(Count);
  for (uint32_t K = 0; K < Count; ++K) {
    Rng OpRng(K);
    Operands[K].resize(Cols);
    for (double &V : Operands[K])
      V = OpRng.uniform(-1.0, 1.0);
  }
  return Operands;
}

namespace {

/// Parses a `fault` directive and, when \p Arm, applies it.
Status runFaultSpec(const std::string &Spec, bool Arm) {
  FaultInjector &Injector = FaultInjector::instance();
  if (Spec == "clear") {
    if (Arm)
      Injector.disarm();
    return Status::okStatus();
  }
  const std::vector<std::string> Words = splitString(Spec, ' ');
  if (!Words.empty() && Words[0] == "seed") {
    int64_t Seed = 0;
    if (Words.size() != 2 || !parseInt(Words[1], Seed) || Seed < 0)
      return Status::invalidArgument("usage: fault seed N");
    if (Arm)
      Injector.reseed(static_cast<uint64_t>(Seed));
    return Status::okStatus();
  }
  auto Rule = FaultPlan::parseRule(Spec);
  if (!Rule)
    return Rule.status();
  if (Arm)
    Injector.addRule(*Rule);
  return Status::okStatus();
}

} // namespace

Status seer::validateFaultSpec(const std::string &Spec) {
  return runFaultSpec(Spec, /*Arm=*/false);
}

Status seer::applyFaultSpec(const std::string &Spec) {
  return runFaultSpec(Spec, /*Arm=*/true);
}
