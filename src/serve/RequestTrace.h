//===- serve/RequestTrace.h - Line protocol and request traces ------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The text protocol of the serving tools: one command per line; `#`
/// starts a comment; blank lines are ignored. It is one of two codecs
/// over the session model of api/Session.h (the binary frames of
/// net/Wire.h are the other): `TextFrontEnd` turns a line into a
/// `SessionOp`, applies it on a local `Session` or on a `NetClient`, and
/// formats the `Reply`. That one front end serves seer-serve's stdin mode,
/// each client of its `--trace` replay, and seer-netclient, so a trace
/// prints the same lines in process and over the wire.
///
/// ## Protocol v2
///
/// A trace (or interactive session) may declare protocol v2 with a
/// versioned header as its first command line:
///
///   seer-trace v2
///
/// Defining a matrix opens a handle for it, and the handle lifecycle is
/// scriptable:
///
///   open NAME                        re-open NAME after a close
///   close NAME                       release NAME's handle
///
/// Requests against a closed name, and `open` of a name that is already
/// open, are answered with a typed error line (see below) instead of a
/// response line; the session continues. Traces without the header parse
/// as v1, a subset: only setup commands and select/execute, with
/// open/close/batch/fault/metrics/spans rejected at parse time. Both
/// dialects replay through the same front end, so a headerless trace and
/// the same trace behind a `seer-trace v2` header answer with identical
/// response lines (CI diffs the two).
///
/// Setup commands (define a named matrix; in v2 this also opens it):
///   load NAME PATH                   Matrix Market file
///   gen NAME banded ROWS HALFBAND FILL SEED
///   gen NAME powerlaw ROWS EXPONENT MINROW MAXROW SEED
///   gen NAME uniform ROWS COLS MEANROW JITTER SEED
///   gen NAME diagonal ROWS SEED
///
/// Request commands (hit the server):
///   select NAME [ITERATIONS]         selection only (default 1 iteration)
///   execute NAME [ITERATIONS] [verify]
///                                    also run the kernel; `verify` turns
///                                    on the oracle comparison
///   batch NAME COUNT [ITERATIONS]    v2 only: one ExecutionPlan (routing,
///                                    selection and preprocessing charged
///                                    once) executed over COUNT operands;
///                                    operand k is the deterministic
///                                    uniform(-1, 1) vector seeded with k
///                                    (buildBatchOperands), so replays are
///                                    reproducible; COUNT is at most
///                                    MaxBatchOperands (4096)
///
/// Fault command (v2 only; drives support/FaultInjector.h):
///   fault SITE nth=N|every=K ACTION  add one fault rule (FaultPlan rule
///                                    grammar: ACTION is `status=CODE
///                                    [message...]`, `latency-ms=X`, or
///                                    `bad-alloc`); hit counters of rules
///                                    already armed are preserved
///   fault seed N                     reseed the injector's every-K phases
///   fault clear                      disarm all fault rules
///
/// Observability commands (v2 traces and interactive mode):
///   metrics                          print the Prometheus exposition of
///                                    the unified metrics registry
///   spans N                          drain the span recorder and print
///                                    the most recent N spans as
///                                    `span NAME start_ns=... dur_ns=...`
///                                    lines (requires --trace-out or an
///                                    armed recorder; prints `ok spans 0`
///                                    when disarmed)
///
/// Control commands (interactive mode only):
///   stats                            print the telemetry snapshot
///   quit                             exit
///
/// Output lines are `NAME key=value...` response lines (with a
/// ` degraded=1` marker when the server answered from the baseline
/// fallback kernel), `stat NAME VALUE` telemetry lines, `ok ...`
/// acknowledgements (interactive mode acks the header, every open and
/// every close; replays print only `ok fault` and `ok spans`), and error
/// lines of the form
///
///   error CODE message...            e.g. `error NOT_FOUND no handle ...`
///
/// where CODE is the upper-case StatusCode name (api/Status.h).
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SERVE_REQUESTTRACE_H
#define SEER_SERVE_REQUESTTRACE_H

#include "api/Session.h"
#include "api/Status.h"
#include "serve/ServeTypes.h"
#include "sparse/CsrMatrix.h"
#include "support/ThreadAnnotations.h"
#include "support/Tracing.h"

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace seer {

class KernelRegistry;

/// One parsed protocol line.
struct TraceCommand {
  enum class Kind {
    Blank,
    Version, // the `seer-trace vN` header (v2 trace declaration)
    Load,
    Gen,
    Open,
    Close,
    Select,
    Execute,
    Batch,
    Fault,
    Metrics,
    Spans,
    Stats,
    Quit
  };
  Kind Command = Kind::Blank;
  /// Declared protocol version (Version).
  int Version = 1;
  /// Matrix name (Load/Gen/Open/Close/Select/Execute/Batch).
  std::string Name;
  /// File path (Load).
  std::string Path;
  /// Generator family and numeric arguments (Gen).
  std::string GenFamily;
  std::vector<double> GenArgs;
  /// Request parameters (Select/Execute/Batch).
  uint32_t Iterations = 1;
  bool Verify = false;
  /// Operand count (Batch).
  uint32_t BatchCount = 0;
  /// Span count to print (Spans).
  uint32_t SpanCount = 0;
  /// Everything after the `fault` verb (Fault): a FaultPlan rule,
  /// `seed N`, or `clear`. Validated at parse time.
  std::string FaultSpec;
};

/// Parses one protocol line. INVALID_ARGUMENT on a malformed line;
/// blank/comment lines parse as Kind::Blank.
Status parseTraceLine(const std::string &Line, TraceCommand &Out);

/// Materializes a Gen command into a matrix. INVALID_ARGUMENT on an
/// unknown family or bad arguments.
Expected<CsrMatrix> buildTraceMatrix(const TraceCommand &Command);

/// A fully parsed trace: the declared protocol version, the named
/// matrices (pre-built once, in definition order) and the validated
/// command sequence — every line but blanks, comments and the header,
/// with setup lines (load/gen) kept in place.
struct TraceScript {
  /// Declared protocol version (1 without a header line).
  int Version = 1;
  std::vector<std::pair<std::string, CsrMatrix>> Matrices;
  std::vector<TraceCommand> Commands;

  /// Index of the matrix named \p Name, or npos.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t matrixIndex(const std::string &Name) const;
  /// Commands that are not setup lines: what one replay pass serves.
  size_t opCount() const;
};

/// Parses a whole trace (header + setup + operations). Control commands
/// are rejected in traces, open/close/batch/fault/metrics/spans require a
/// v2 header, and every referenced name must be defined earlier.
/// INVALID_ARGUMENT with a 1-based line number on the first bad line.
Expected<TraceScript> parseTrace(const std::string &Text);

/// Reads and parses a trace file (NOT_FOUND / INVALID_ARGUMENT).
Expected<TraceScript> readTraceFile(const std::string &Path);

/// Formats one response as a single protocol output line, e.g.
///   `web1 kernel=CSR,WO route=gathered cache=hit overhead_ms=0 ...`.
std::string formatResponseLine(const std::string &Name,
                               const ServeResponse &Response,
                               const KernelRegistry &Registry);

/// Formats a batched-execution response as a single protocol output
/// line: the per-batch charges plus the operand count, e.g.
///   `web kernel=CSR,WO route=known cache=hit iterations=5 batch=32 ...`.
std::string formatBatchResponseLine(const std::string &Name,
                                    const BatchResponse &Response,
                                    const KernelRegistry &Registry);

/// Formats a stats snapshot as `stat NAME VALUE` lines.
std::string formatStatsLines(const ServerStats &Stats);

/// Formats the newest \p MaxCount entries of \p Spans (already sorted by
/// start time, as SpanRecorder::drain() returns them) as protocol lines:
///   `span plan.select start_ns=... dur_ns=... request_id=3 tid=1 ...`
/// followed by a `ok spans N` trailer giving the printed count.
std::string formatSpanLines(const std::vector<TraceSpan> &Spans,
                            size_t MaxCount);

/// Formats a failure as a protocol error line: `error CODE message`.
/// \p Error must not be OK.
std::string formatErrorLine(const Status &Error);

/// The spans drained so far, so the `spans` command (which empties the
/// recorder's rings) and an exit-time Chrome trace export see one
/// timeline. Thread-safe: concurrent replay clients drain into one sink.
class SpanSink {
public:
  /// Moves everything currently in the recorder into the sink, keeping
  /// the global (StartNs, Seq) order.
  void drain();
  /// The `spans N` response: the newest \p Count spans seen so far.
  std::string spanLines(uint32_t Count);
  /// Chrome trace-event JSON of every span seen so far.
  std::string chromeJson();

private:
  seer::Mutex M;
  std::vector<TraceSpan> Spans SEER_GUARDED_BY(M);
};

/// Where a text front end sends its ops: a local Session or a NetClient.
using SessionApplyFn = std::function<Expected<Reply>(SessionOp)>;

/// The text codec over the session model (api/Session.h): turns a
/// command into a SessionOp, resolves its name to the handle the name has
/// now, applies the op, and prints the Reply as a response, error or ack
/// line. It decides every name-level error (unknown, closed, already open)
/// before anything is applied, so a trace prints byte-identical lines
/// whether the ops go to a local Session or over the wire.
class TextFrontEnd {
public:
  /// What gets printed is the only difference between the modes:
  /// Interactive acks the header, every open and every close with an
  /// `ok ...` line; Replay omits those acks (handle ids differ per
  /// process). Both print the `ok fault` ack and the `ok spans` trailer.
  enum class Mode { Interactive, Replay };

  /// \p Registry names kernels in response lines. A null \p Out runs
  /// silently (replay clients beyond the first): errors are still
  /// counted, `stats`/`metrics` are skipped and `spans` only drains.
  TextFrontEnd(SessionApplyFn Apply, const KernelRegistry &Registry,
               SpanSink &Spans, Mode M, std::ostream *Out);

  /// Runs one parsed command. A load/gen defines its name and opens it,
  /// from \p Source when given (a replay's pre-built matrix), else from
  /// the command. Quit is the caller's to act on.
  void run(const TraceCommand &Command, const MatrixInput *Source = nullptr);

  /// Parses and runs one interactive line. \returns false on `quit`.
  bool runLine(const std::string &Line);

  /// Closes every open name (the end of a replay).
  void closeAll();

  /// Commands answered with an error line so far, printed or not.
  uint64_t errors() const { return Errors; }

private:
  /// A defined name: how to open it again, and its handle (0 = closed).
  struct NamedMatrix {
    std::string Name;
    MatrixInput Source;
    uint64_t Handle = 0;
  };

  /// Opens \p M and records its handle; false (error printed) on failure.
  bool open(NamedMatrix &M);
  void fail(const Status &Error);
  /// Prints \p Text; an \p Ack only in Interactive mode.
  void print(const std::string &Text, bool Ack = false);

  SessionApplyFn Apply;
  const KernelRegistry &Registry;
  SpanSink &Spans;
  Mode PrintMode;
  std::ostream *Out;
  std::vector<NamedMatrix> Names;
  uint64_t Errors = 0;
};

/// Replays \p Script \p Repeat times through \p FrontEnd, then closes
/// what is still open. Setup lines run in the first pass only and share
/// the script's pre-built matrices without copying (\p Script must
/// outlive the replay's registrations). \returns the error-line count.
uint64_t replayTrace(const TraceScript &Script, unsigned Repeat,
                     TextFrontEnd &FrontEnd);

} // namespace seer

#endif // SEER_SERVE_REQUESTTRACE_H
