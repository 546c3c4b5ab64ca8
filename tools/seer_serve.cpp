//===- tools/seer_serve.cpp - The Seer serving layer as a CLI -------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// Long-running counterpart of seer-predict: loads the trained model
// bundle once into a SeerService (serving API v2) and serves
// selection/execution requests through session handles. Three modes:
//
//   seer-serve --models DIR                     line protocol on stdin
//   seer-serve --models DIR --trace FILE        replay a scripted trace
//              [--clients N] [--repeat K]
//   seer-serve --models DIR --listen HOST:PORT  binary wire protocol
//
// Every mode is a codec over one session model (api/Session.h): each
// client is a Session that applies its ops and owns its handles. Stdin
// and trace replay run the text front end of serve/RequestTrace.h, which
// prints `ok ...` acks only on stdin; the listener decodes wire frames
// into the same ops (net/NetServer.h).
//
// Defining a matrix (load/gen) registers it with the service — the
// fingerprint and single-pass analysis are paid exactly once, there —
// and `close`/`open` script the handle lifecycle. Requests against a
// closed name, and `open` of an open one, are answered with a typed
// `error CODE ...` line and the session continues; nothing short of
// EOF/quit stops a server.
//
// In trace mode, N client threads each replay the trace K times
// concurrently against the shared service, each its own Session
// (concurrent registrations of the same content share one pinned cache
// entry), then the telemetry snapshot and a throughput summary are
// printed. A single client also prints its response lines, so a trace
// doubles as a readable demo. Replay requests pass admission like wire
// requests, with the capacity sized to at least N. A trace without a
// `seer-trace v2` header is the same replay restricted at parse time to
// setup, select and execute lines.
//
// The protocol grammar is documented in serve/RequestTrace.h and the
// README's "Serving" section.
//
//===----------------------------------------------------------------------===//

#include "ToolSupport.h"

#include "api/SeerService.h"
#include "api/Session.h"
#include "core/ModelBundle.h"
#include "net/NetServer.h"
#include "net/Socket.h"
#include "serve/RequestTrace.h"
#include "support/FaultInjector.h"
#include "support/Tracing.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <thread>

using namespace seer;
using namespace seer::tools;

namespace {

constexpr const char *Usage =
    "usage: seer-serve --models DIR [options]\n"
    "\n"
    "Serves Fig. 3 kernel selection from the .tree models in DIR. Without\n"
    "--trace, reads the line protocol from stdin (try 'gen m banded 1000 8\n"
    "0.9 1' then 'select m 5', 'stats', 'quit'). With --trace, replays the\n"
    "scripted request trace and prints telemetry. Every trace replays\n"
    "through session handles. A 'seer-trace v2' header unlocks open/close,\n"
    "'batch NAME COUNT [ITERATIONS]' (one execution plan over COUNT\n"
    "deterministic operands), fault, metrics and spans; a headerless trace\n"
    "may only define matrices and select/execute.\n"
    "\n"
    "options:\n"
    "  --models DIR        directory with seer_{known,gathered,selector}.tree\n"
    "  --trace FILE        request trace to replay (see serve/RequestTrace.h)\n"
    "  --clients N         concurrent client threads in trace mode (default 1)\n"
    "  --repeat K          times each client replays the trace (default 1)\n"
    "  --cache-budget B    fingerprint-cache byte budget (default 0 =\n"
    "                      unbounded); under pressure the server evicts\n"
    "                      oracle data and unpaid kernel states first,\n"
    "                      then whole entries — entries pinned by open\n"
    "                      handles always survive (see 'stats' counters)\n"
    "  --cache-shards N    fingerprint-cache lock shards (default 16); the\n"
    "                      byte budget splits evenly across shards, so a\n"
    "                      small budget needs a small shard count for the\n"
    "                      per-shard slice to hold whole entries\n"
    "  --fault-plan FILE   arm the deterministic fault injector with FILE\n"
    "                      (support/FaultInjector.h grammar) before serving;\n"
    "                      v2 traces and stdin sessions can also drive it\n"
    "                      with the 'fault' command\n"
    "  --metrics-out FILE  write the unified metrics registry at exit:\n"
    "                      Prometheus text exposition, or one JSON object\n"
    "                      per metric if FILE ends in .jsonl\n"
    "  --trace-out FILE    arm the span recorder and write the recorded\n"
    "                      spans at exit as Chrome trace-event JSON (load\n"
    "                      in chrome://tracing or Perfetto)\n"
    "  --strict            exit nonzero if the replay answered any request\n"
    "                      with an 'error CODE ...' line, exhausted a retry\n"
    "                      budget, or opened a circuit breaker (chaos-gate\n"
    "                      mode; degraded responses are not errors); the\n"
    "                      final metrics snapshot goes to stderr on failure\n"
    "  --listen HOST:PORT  serve the binary wire protocol (net/Wire.h) on a\n"
    "                      TCP listener instead of stdin/trace replay; port\n"
    "                      0 binds an ephemeral port. Each connection gets a\n"
    "                      thread that serves its requests inline, under the\n"
    "                      same admission bound as the async API (a full\n"
    "                      queue answers RESOURCE_EXHAUSTED). Stops on\n"
    "                      SIGTERM / SIGINT or the wire Shutdown op,\n"
    "                      answering in-flight requests before exit\n"
    "  --port-file FILE    with --listen: write the bound port to FILE once\n"
    "                      serving (how spawners using port 0 find us)\n"
    "\n"
    "Either output flag arms the span recorder, which also enables the\n"
    "armed-only per-stage histograms (seer_stage_*_us, seer_cost_model_*)\n"
    "and the 'metrics' / 'spans N' protocol commands.\n";

/// The process's span timeline: the `spans` command and the exit-time
/// --trace-out export read it.
SpanSink Sink;

/// Replays the trace with \p Clients concurrent clients, each its own
/// Session (handles) and text front end over the shared service, and
/// prints the telemetry snapshot plus a throughput summary. Only a single
/// client prints its response and error lines. \returns the total number
/// of error-line outcomes across all clients (the --strict gate).
uint64_t runTrace(SeerService &Service, const TraceScript &Script,
                  unsigned Clients, unsigned Repeat) {
  const auto Start = std::chrono::steady_clock::now();
  std::atomic<uint64_t> Errors{0};
  const auto RunClient = [&](std::ostream *Out) {
    Session Client(Service);
    TextFrontEnd FrontEnd(
        [&Client](SessionOp Op) { return Client.apply(std::move(Op)); },
        Service.registry(), Sink, TextFrontEnd::Mode::Replay, Out);
    Errors.fetch_add(replayTrace(Script, Repeat, FrontEnd),
                     std::memory_order_relaxed);
  };
  if (Clients <= 1) {
    RunClient(&std::cout);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&] { RunClient(nullptr); });
    for (std::thread &T : Threads)
      T.join();
  }
  const double WallSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - Start)
                                 .count();

  const ServerStats Stats = Service.stats();
  std::printf("%s", formatStatsLines(Stats).c_str());
  std::printf("replayed %zu ops x %u clients x %u in %.3fs "
              "(%.0f req/s, %llu errors)\n",
              Script.opCount(), Clients, Repeat, WallSeconds,
              WallSeconds > 0 ? static_cast<double>(Stats.Requests) /
                                    WallSeconds
                              : 0.0,
              static_cast<unsigned long long>(Errors.load()));
  return Errors.load();
}

/// The interactive line protocol on stdin, acknowledging every open and
/// close, until EOF or `quit`.
void runInteractive(SeerService &Service) {
  Session Client(Service);
  TextFrontEnd FrontEnd(
      [&Client](SessionOp Op) { return Client.apply(std::move(Op)); },
      Service.registry(), Sink, TextFrontEnd::Mode::Interactive,
      &std::cout);
  std::string Line;
  while (std::getline(std::cin, Line) && FrontEnd.runLine(Line)) {
  }
}

} // namespace

namespace {

/// Writes \p Content to \p Path, dying on I/O failure: a missing
/// metrics/trace file after a green exit would be a silent lie.
void writeFileOrDie(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path);
  Out << Content;
  Out.flush();
  if (!Out)
    fatal("cannot write '" + Path + "'");
}

bool endsWith(const std::string &Text, const std::string &Suffix) {
  return Text.size() >= Suffix.size() &&
         Text.compare(Text.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// The server a stop signal should interrupt. NetServer::requestStop is
/// async-signal-safe (atomic store + self-pipe write), so the handler
/// may call it directly.
std::atomic<seer::net::NetServer *> SignalTarget{nullptr};

extern "C" void onStopSignal(int) {
  if (seer::net::NetServer *Server =
          SignalTarget.load(std::memory_order_acquire))
    Server->requestStop();
}

/// Network serving: bind, publish the port, then block until SIGTERM /
/// SIGINT or a wire Shutdown op. join() returns once every connection
/// thread has answered its in-flight request and exited, so no admitted
/// work outlives it.
int runListen(SeerService &Service, const std::string &ListenSpec,
              const std::string &PortFile) {
  net::NetServerConfig Config;
  if (const Status S =
          net::parseHostPort(ListenSpec, Config.Host, Config.Port);
      !S.ok())
    fatal(S);
  // Share the service's registry so seer_net_* counters land in the same
  // exposition (and stats snapshot) as the serving metrics.
  Config.Metrics = &Service.metrics();

  net::ServiceFrameHandler Handler(Service);
  auto ServerOr = net::NetServer::start(Handler, Config);
  if (!ServerOr.ok())
    fatal(ServerOr.status());
  net::NetServer &Server = **ServerOr;

  SignalTarget.store(&Server, std::memory_order_release);
  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);

  if (!PortFile.empty())
    writeFileOrDie(PortFile, std::to_string(Server.port()) + "\n");
  std::fprintf(stderr, "seer-serve: listening on %s:%u\n",
               Config.Host.c_str(), unsigned(Server.port()));

  Server.join(); // blocks until a signal or the wire Shutdown op

  SignalTarget.store(nullptr, std::memory_order_release);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSpec Spec;
  Spec.Value = {"models",      "trace",     "fault-plan", "metrics-out",
                "trace-out",   "listen",    "port-file"};
  Spec.Int = {"clients", "repeat", "cache-budget", "cache-shards"};
  Spec.Bool = {"strict"};
  const CommandLine Cmd(Argc, Argv, Usage, Spec);
  if (const auto Early = Cmd.earlyExit())
    return *Early;
  const std::string ModelDir = Cmd.flag("models");
  if (ModelDir.empty())
    Cmd.exitWithUsage(1);

  if (const std::string PlanPath = Cmd.flag("fault-plan"); !PlanPath.empty()) {
    const auto Plan = FaultPlan::load(PlanPath);
    if (!Plan)
      fatal(Plan.status());
    if (const Status S = FaultInjector::instance().arm(*Plan); !S.ok())
      fatal(S);
  }

  const KernelRegistry Registry;
  auto Models = loadModelBundle(ModelDir, Registry.names());
  if (!Models)
    fatal(Models.status());
  const int64_t BudgetArg = Cmd.intFlag("cache-budget", 0);
  if (BudgetArg < 0)
    fatal("--cache-budget must be >= 0 (0 = unbounded)");
  ServiceConfig Config;
  Config.Server.CacheBudgetBytes = static_cast<size_t>(BudgetArg);
  const int64_t ShardsArg =
      Cmd.intFlag("cache-shards", int64_t(Config.Server.CacheShards));
  if (ShardsArg < 1 || ShardsArg > 4096)
    fatal("--cache-shards must be in [1, 4096]");
  Config.Server.CacheShards = static_cast<size_t>(ShardsArg);
  const std::string TracePath = Cmd.flag("trace");
  const int64_t ClientsArg = Cmd.intFlag("clients", 1);
  const int64_t RepeatArg = Cmd.intFlag("repeat", 1);
  if (!TracePath.empty()) {
    if (ClientsArg < 1 || ClientsArg > 4096 || RepeatArg < 1 ||
        RepeatArg > 1000000)
      fatal("--clients must be in [1, 4096] and --repeat in [1, 1000000]");
    // Each replay client holds at most one admitted request at a time,
    // so admission sized to the client count never turns one away.
    Config.AsyncQueueCapacity =
        std::max(Config.AsyncQueueCapacity, static_cast<size_t>(ClientsArg));
  }
  SeerService Service(std::move(*Models), Config);

  // Either observability output arms the recorder, which also switches
  // on the armed-only stage histograms the exports are meant to carry.
  const std::string MetricsOut = Cmd.flag("metrics-out");
  const std::string TraceOut = Cmd.flag("trace-out");
  if (!MetricsOut.empty() || !TraceOut.empty())
    SpanRecorder::instance().arm();

  const std::string ListenSpec = Cmd.flag("listen");
  int ExitCode = 0;
  uint64_t Errors = 0;
  if (!ListenSpec.empty()) {
    if (!TracePath.empty())
      fatal("--listen and --trace are mutually exclusive");
    ExitCode = runListen(Service, ListenSpec, Cmd.flag("port-file"));
  } else if (TracePath.empty()) {
    runInteractive(Service);
    // EOF/quit ends the session, but work admitted through the async
    // queue may still be in flight; finish it before the exit-time
    // metrics snapshot below (and before the service is destroyed) so
    // no submitted request is silently dropped.
    Service.drain();
  } else {
    const auto Script = readTraceFile(TracePath);
    if (!Script)
      fatal(Script.status());
    Errors = runTrace(Service, *Script, static_cast<unsigned>(ClientsArg),
                      static_cast<unsigned>(RepeatArg));
  }

  if (!MetricsOut.empty())
    writeFileOrDie(MetricsOut, endsWith(MetricsOut, ".jsonl")
                                   ? Service.metricsJson()
                                   : Service.metricsPrometheus());
  if (!TraceOut.empty())
    writeFileOrDie(TraceOut, Sink.chromeJson());

  if (!TracePath.empty() && Cmd.boolFlag("strict")) {
    // Chaos-gate mode: error lines are failures, and so are the quieter
    // bad signs — a retry budget that ran dry or a breaker that opened
    // mean the fault plan overwhelmed the resilience layer even if every
    // request eventually produced a line.
    const ServerStats Stats = Service.stats();
    if (Errors > 0 || Stats.RetriesExhausted > 0 || Stats.BreakerOpens > 0) {
      std::fprintf(stderr,
                   "seer-serve: --strict: %llu error line(s), %llu retry "
                   "budget(s) exhausted, %llu breaker open(s)\n",
                   static_cast<unsigned long long>(Errors),
                   static_cast<unsigned long long>(Stats.RetriesExhausted),
                   static_cast<unsigned long long>(Stats.BreakerOpens));
      std::fprintf(stderr, "%s", Service.metricsPrometheus().c_str());
      return 1;
    }
  }
  return ExitCode;
}
