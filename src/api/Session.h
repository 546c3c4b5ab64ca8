//===- api/Session.h - One client's session over a SeerService ------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request model every serving front end shares: a `SessionOp` is one
/// client operation and a `Reply` its answer. `Session::apply()` is the
/// one dispatcher from ops to SeerService calls; the front ends are codecs
/// around it — net/Wire.h decodes frames into ops and encodes replies,
/// serve/RequestTrace.h's `TextFrontEnd` does the same for text lines.
/// Select and execute go through `SeerService::serveAdmitted()` and a
/// batch through `SeerService::executeBatch()`, both under the service's
/// bounded admission (in-flight cap, the queue.admit fault site, drain()),
/// so every front end's every request is admitted the same way.
///
/// A Session is one client's ordered op stream (not thread-safe; any
/// number of Sessions may share a service). It owns the handles it opened
/// and releases those still open when destroyed, so a client that goes
/// away never leaks cache pins.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_API_SESSION_H
#define SEER_API_SESSION_H

#include "api/MatrixInput.h"
#include "api/SeerService.h"
#include "api/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seer {

/// Most operands one batch may name. The serving side builds each
/// operand, so an unchecked count would let one request ask for
/// count*cols doubles.
inline constexpr uint32_t MaxBatchOperands = 4096;

/// One client operation. Only the fields of its Type are read.
struct SessionOp {
  enum class Kind : uint8_t {
    Open,
    Close,
    Select,
    Execute,
    Batch,
    Fault,
    Stats,
    Metrics
  };
  Kind Type = Kind::Select;
  /// Open: the client's name for the matrix (diagnostic only) and the
  /// matrix.
  std::string Name;
  MatrixInput Matrix;
  /// Close/Select/Execute/Batch.
  uint64_t Handle = 0;
  /// Select/Execute/Batch.
  uint32_t Iterations = 1;
  /// Execute: oracle verification and the operand (empty = all ones).
  bool Verify = false;
  std::vector<double> Operand;
  /// Batch: operand count, in [1, MaxBatchOperands].
  uint32_t Count = 0;
  /// Fault: a FaultPlan rule, `seed N`, or `clear`.
  std::string FaultSpec;
};

/// The answer to one successful SessionOp: Opened (Open), Ack (Close,
/// Fault), Response (Select, Execute), Batch, or Text (Stats, Metrics).
/// Only the fields of its Type are set.
struct Reply {
  enum class Kind : uint8_t { Opened, Ack, Response, Batch, Text };
  Kind Type = Kind::Ack;
  /// Opened: the new handle and what registration learned about it.
  uint64_t Handle = 0;
  HandleInfo Info;
  ServeResponse Response;
  BatchResponse Batch;
  /// The `stat NAME VALUE` snapshot or the Prometheus exposition.
  std::string Text;
};

/// One client's handle set over a SeerService.
class Session {
public:
  explicit Session(SeerService &Service) : Service(Service) {}
  /// Releases every handle this session opened and has not closed.
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Applies \p Op. Failures are the service's typed Status (NOT_FOUND
  /// for an unknown handle, INVALID_ARGUMENT for bad knobs or a batch
  /// count outside [1, MaxBatchOperands], RESOURCE_EXHAUSTED when
  /// admission stays full, ...).
  Expected<Reply> apply(SessionOp Op);

private:
  SeerService &Service;
  std::vector<uint64_t> Handles;
};

/// The deterministic operands of a batch: operand k (0-based) has
/// \p Cols elements drawn uniform(-1, 1) from a generator seeded with k,
/// so every replay executes the identical batch.
std::vector<std::vector<double>> buildBatchOperands(uint32_t Count,
                                                    uint32_t Cols);

/// Validates a `fault` directive (`clear`, `seed N`, or one FaultPlan
/// rule line) without arming anything. INVALID_ARGUMENT when malformed.
Status validateFaultSpec(const std::string &Spec);

/// Applies a `fault` directive to the process-wide FaultInjector: `clear`
/// disarms, `seed N` reseeds the every-K phases, a rule is added (hit
/// counters of armed rules are kept). INVALID_ARGUMENT on a malformed
/// spec, without arming anything.
Status applyFaultSpec(const std::string &Spec);

} // namespace seer

#endif // SEER_API_SESSION_H
