//===- perfbench/seerbench.cpp - Measurement program of the benchmark -----===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload of the Seer benchmark and writes its raw measurements
// (latency samples, counters, /proc deltas, metrics exports, span files)
// as one JSON document; run.py turns that document into metrics.
//
//   seerbench WORKLOAD --seed N --seconds S --trace 0|1 --dir RUNDIR
//             --bin BINDIR --out RESULT.json
//
// WORKLOAD is wire-hot or inproc-cold (NOTES.md gives the rationale of
// each). Both first run the offline pipeline that trains the bundle they
// serve. Every layer is reached from outside: seerbench times calls
// into each module's public functions and reads /proc and the servers'
// own metrics exports. Nothing in the program under test is changed for
// the benchmark. Every answer is checked against a one-shot SeerRuntime
// computed in this process; a wrong answer counts as failed and makes
// seerbench exit nonzero.
//
//===----------------------------------------------------------------------===//

#include "api/SeerService.h"
#include "core/Seer.h"
#include "core/Features.h"
#include "net/NetClient.h"
#include "net/ShardRouter.h"
#include "net/Wire.h"
#include "sparse/CooMatrix.h"
#include "support/Fnv.h"
#include "support/ThreadPool.h"
#include "support/Tracing.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sched.h>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace seer;

namespace {

//===----------------------------------------------------------------------===//
// Fixed shape of the workloads
//===----------------------------------------------------------------------===//

/// Closed-loop clients of both workloads (NOTES.md: at one client the wire
/// select latency was bimodal).
constexpr unsigned Clients = 2;
/// Iteration counts cycled by every request stream, as in the trainer.
constexpr uint32_t IterationCycle[3] = {1, 5, 19};
/// wire-hot: pool size, and one execute per three selects.
constexpr size_t WirePoolSize = 64;
constexpr size_t WireMixPeriod = 4;
/// wire-hot: fleet set-ups per run. 48 x 64 opens keep >= 30 samples
/// beyond the open p99. The slowest opens are those of the largest
/// matrices, a few per set-up, so with 16 set-ups the p99 rested on a
/// dozen of them and one disturbed set-up could move it.
constexpr unsigned WireSetups = 48;
/// inproc-cold: pool size; the cache budget holds a quarter of the pool.
constexpr size_t ColdPoolSize = 32;
constexpr size_t ColdBudgetDivisor = 4;
/// inproc-cold: every request asks for 19 iterations, where preprocessed
/// formats win, so an evicted kernel state costs a real preprocess. With
/// 1/5/19 cycling, 96 (matrix, iterations) pairs each held ~1% of the
/// executes, and the execute p99 jumped between neighbouring pairs.
constexpr size_t ColdIterationIndex = 2;
/// inproc-cold repeats its set-up this often during the measured window
/// (median reported).
constexpr unsigned SetupPeriodUs = 100000;
/// Runs of the offline pipeline per run (median reported; the first
/// trains the bundle the workload serves).
constexpr unsigned Pipelines = 7;
/// Threads of the offline pipeline.
constexpr unsigned PipelineThreads = 4;
/// wire-hot cuts its measured window into this many rounds and repeats its
/// set-up and its pipeline between them, so the samples of every metric
/// span the whole run: a host disturbance of a few seconds moves a few
/// rounds' worth of them, not all of them. Run back to back, the set-ups
/// of a run all landed in the same two seconds. One round per set-up, so
/// set-ups are not run back to back either.
constexpr unsigned Rounds = WireSetups;
/// wire-hot's traced run serves this long on the spread layout.
constexpr double SpreadSeconds = 3.0;
/// inproc-cold cuts its measured window into one round per pipeline run
/// and runs the other pipelines between the rounds, each in a child
/// process. Run back to back before the window, the seven pipelines
/// sampled a few seconds of the host, and on a loaded host their median
/// spread by 0.31 of itself over seeds.
constexpr unsigned ColdRounds = Pipelines;

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

uint64_t nowNs() { return SpanRecorder::nowNs(); }

double secondsBetween(uint64_t StartNs, uint64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e9;
}

/// The spawned servers. Each is reaped on every exit path: stopChild,
/// reapAllChildren on die() and at the end of main, onFatalSignal on a
/// stop signal, and PR_SET_PDEATHSIG if seerbench is killed outright.
constexpr size_t MaxChildren = 8;
std::atomic<pid_t> ChildPids[MaxChildren];

extern "C" void onFatalSignal(int Sig) {
  for (auto &Slot : ChildPids) {
    const pid_t Pid = Slot.load();
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
    }
  }
  _exit(128 + Sig);
}

void reapAllChildren() {
  for (auto &Slot : ChildPids) {
    const pid_t Pid = Slot.exchange(0);
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
    }
  }
}

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "seerbench: %s\n", Message.c_str());
  reapAllChildren();
  std::exit(2);
}

std::string readFileText(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

/// Minimal JSON writer: seerbench emits objects of numbers, strings and
/// arrays.
class Json {
public:
  Json &key(const std::string &K) {
    sep();
    Out += quote(K) + ":";
    return *this;
  }
  Json &num(double V) { return raw(number(V)); }
  Json &integer(uint64_t V) { return raw(std::to_string(V)); }
  Json &str(const std::string &V) { return raw(quote(V)); }
  Json &boolean(bool V) { return raw(V ? "true" : "false"); }
  template <typename T> Json &array(const std::vector<T> &Values) {
    std::string A = "[";
    for (size_t I = 0; I < Values.size(); ++I) {
      if (I)
        A += ",";
      if constexpr (std::is_same_v<T, std::string>)
        A += quote(Values[I]);
      else
        A += number(static_cast<double>(Values[I]));
    }
    return raw(A + "]");
  }
  Json &begin() { return raw("{"); }
  Json &end() {
    Out += "}";
    return *this;
  }
  const std::string &text() const { return Out; }

private:
  Json &raw(const std::string &Value) {
    sep();
    Out += Value;
    return *this;
  }
  /// A comma goes before every member or value except the first of an
  /// object and a value right after its key.
  void sep() {
    if (!Out.empty() && Out.back() != '{' && Out.back() != ':')
      Out += ",";
  }
  static std::string number(double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(V) ? V : 0.0);
    return Buf;
  }
  static std::string quote(const std::string &S) {
    std::string Q = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\') {
        Q += '\\';
        Q += C;
      } else if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Q += Buf;
      } else {
        Q += C;
      }
    }
    return Q + "\"";
  }
  std::string Out;
};

//===----------------------------------------------------------------------===//
// Spans recorded around seerbench's calls into each layer
//===----------------------------------------------------------------------===//

struct BenchSpan {
  const char *Name = nullptr;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Request = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Tid = 0;
};

/// One thread's span log. Inert unless enabled, so untraced runs pay one
/// branch per call site; stops recording new spans at Cap so a traced
/// window's file stays small. Parents come from the stack of open spans.
class SpanLog {
public:
  static constexpr size_t Cap = 40000;

  SpanLog(uint32_t Tid, bool Enabled) : Tid(Tid), Enabled(Enabled) {}

  bool enabled() const { return Enabled && Spans.size() < Cap; }

  size_t open(const char *Name, uint64_t Request) {
    BenchSpan S;
    S.Name = Name;
    S.Id = (uint64_t(Tid) << 40) | (Spans.size() + 1);
    S.Parent = Stack.empty() ? 0 : Spans[Stack.back()].Id;
    S.Request = Request;
    S.Tid = Tid;
    S.StartNs = nowNs();
    Spans.push_back(S);
    Stack.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }
  void close(size_t Index) {
    Spans[Index].EndNs = nowNs();
    Stack.pop_back();
  }
  const std::vector<BenchSpan> &spans() const { return Spans; }

private:
  uint32_t Tid;
  bool Enabled;
  std::vector<BenchSpan> Spans;
  std::vector<size_t> Stack;
};

/// RAII span over one call into a layer.
class Timed {
public:
  Timed(SpanLog *Log, const char *Name, uint64_t Request = 0)
      : Log(Log && Log->enabled() ? Log : nullptr) {
    if (this->Log)
      Index = this->Log->open(Name, Request);
  }
  ~Timed() {
    if (Log)
      Log->close(Index);
  }
  Timed(const Timed &) = delete;
  Timed &operator=(const Timed &) = delete;

private:
  SpanLog *Log;
  size_t Index = 0;
};

/// Writes spans as Chrome trace-event JSON, the format of
/// `seer-serve --trace-out`, with the parent and request ids in args.
void writeChromeTrace(const std::string &Path,
                      const std::vector<const SpanLog *> &Logs) {
  uint64_t Base = UINT64_MAX;
  for (const SpanLog *L : Logs)
    for (const BenchSpan &S : L->spans())
      Base = std::min(Base, S.StartNs);
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  char Buf[320];
  for (const SpanLog *L : Logs)
    for (const BenchSpan &S : L->spans()) {
      std::snprintf(
          Buf, sizeof Buf,
          "%s\n{\"name\":\"%s\",\"cat\":\"seerbench\",\"ph\":\"X\","
          "\"pid\":0,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
          "\"id\":%llu,\"parent\":%llu,\"request_id\":%llu}}",
          First ? "" : ",", S.Name, S.Tid,
          static_cast<double>(S.StartNs - Base) / 1000.0,
          static_cast<double>(S.EndNs - S.StartNs) / 1000.0,
          static_cast<unsigned long long>(S.Id),
          static_cast<unsigned long long>(S.Parent),
          static_cast<unsigned long long>(S.Request));
      Out += Buf;
      First = false;
    }
  Out += "\n]}\n";
  std::ofstream(Path) << Out;
}

//===----------------------------------------------------------------------===//
// Process accounting from /proc
//===----------------------------------------------------------------------===//

struct ProcSample {
  double UserS = 0.0;
  double SysS = 0.0;
  uint64_t CtxSwitches = 0; ///< voluntary + involuntary, all threads
  double RssMb = 0.0;
};

double statusKb(const std::string &Status, const char *Field) {
  const size_t At = Status.find(Field);
  return At == std::string::npos
             ? 0.0
             : std::strtod(Status.c_str() + At + std::strlen(Field), nullptr);
}

ProcSample readProc(pid_t Pid) {
  ProcSample S;
  const std::string Dir = "/proc/" + std::to_string(Pid);
  const std::string Stat = readFileText(Dir + "/stat");
  // Fields after the parenthesized command: state is field 3, utime 14,
  // stime 15.
  const size_t Close = Stat.rfind(')');
  if (Close != std::string::npos) {
    std::istringstream In(Stat.substr(Close + 2));
    std::string Field;
    const double Tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    for (int I = 3; In >> Field; ++I) {
      if (I == 14)
        S.UserS = std::strtod(Field.c_str(), nullptr) / Tick;
      if (I == 15) {
        S.SysS = std::strtod(Field.c_str(), nullptr) / Tick;
        break;
      }
    }
  }
  const std::string Status = readFileText(Dir + "/status");
  S.RssMb = statusKb(Status, "VmRSS:") / 1024.0;
  if (DIR *Tasks = opendir((Dir + "/task").c_str())) {
    while (const dirent *E = readdir(Tasks)) {
      if (E->d_name[0] == '.')
        continue;
      const std::string T =
          readFileText(Dir + "/task/" + E->d_name + "/status");
      S.CtxSwitches +=
          static_cast<uint64_t>(statusKb(T, "voluntary_ctxt_switches:")) +
          static_cast<uint64_t>(statusKb(T, "nonvoluntary_ctxt_switches:"));
    }
    closedir(Tasks);
  }
  return S;
}

void emitProcDelta(Json &J, const std::string &Name, const ProcSample &Before,
                   const ProcSample &After) {
  J.key(Name).begin();
  J.key("user_s").num(After.UserS - Before.UserS);
  J.key("sys_s").num(After.SysS - Before.SysS);
  J.key("ctx_switches").integer(After.CtxSwitches - Before.CtxSwitches);
  J.end();
}

//===----------------------------------------------------------------------===//
// Spawning and stopping servers
//===----------------------------------------------------------------------===//

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  sched_getaffinity(0, sizeof Allowed, &Allowed);
  std::vector<int> Cpus;
  for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Allowed))
      Cpus.push_back(Cpu);
  return Cpus;
}

/// Who runs where in the wire workload. Fixed CPUs keep the layout the
/// same from run to run; unpinned, the scheduler's placement moved
/// throughput by a factor of three between identical runs.
enum class WireRole : size_t { Client = 0, Balancer = 1, Shards = 2 };
/// CPUs the wire workload may use: the last this many this process may use.
constexpr size_t WireRoles = 3;

/// Packed, used by every end-to-end figure: clients, balancer and shards
/// share the last CPU, so a request never waits for an idle virtual CPU to
/// be woken by the host. Spread, measured once in the traced run: each
/// role has a CPU of its own (shared when there are fewer), so a request
/// crosses CPUs at every hop and seer-lb's backend lock is contended by
/// two clients that really run in parallel. NOTES.md has the figures that
/// chose the packed layout for the bounded metrics.
enum class WireLayout { Packed, Spread };

cpu_set_t wireCpu(WireRole Role, WireLayout Layout) {
  const std::vector<int> Cpus = allowedCpus();
  const size_t Back =
      Layout == WireLayout::Packed
          ? 0
          : std::min(static_cast<size_t>(Role), Cpus.size() - 1);
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Cpus.size() - 1 - Back], &Set);
  return Set;
}

/// Moves the calling thread to the allowed CPUs the wire workload does not
/// use, when there are any.
void avoidWireCpus() {
  const std::vector<int> Cpus = allowedCpus();
  if (Cpus.size() <= WireRoles)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (size_t I = 0; I + WireRoles < Cpus.size(); ++I)
    CPU_SET(Cpus[I], &Set);
  pthread_setaffinity_np(pthread_self(), sizeof Set, &Set);
}

void pinClientThread(WireLayout Layout) {
  const cpu_set_t Set = wireCpu(WireRole::Client, Layout);
  pthread_setaffinity_np(pthread_self(), sizeof Set, &Set);
}

/// Samples the summed RSS of a set of processes every 20 ms on its own
/// thread, kept off the wire workload's CPUs. The reported peak is the 99th
/// percentile of the samples: the kernel's VmHWM of the in-process service
/// moved by half between identical runs, whenever the two clients' largest
/// registrations happened to overlap for an instant.
class RssMonitor {
public:
  explicit RssMonitor(std::vector<pid_t> Pids)
      : Pids(std::move(Pids)), Thread([this] { loop(); }) {}
  ~RssMonitor() { stop(); }
  RssMonitor(const RssMonitor &) = delete;
  RssMonitor &operator=(const RssMonitor &) = delete;

  /// Stops sampling and returns the samples in MB.
  std::vector<double> samples() {
    stop();
    return Samples;
  }

private:
  void stop() {
    Stop = true;
    if (Thread.joinable())
      Thread.join();
  }
  void loop() {
    avoidWireCpus();
    const double PageMb = static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
    while (!Stop) {
      double Mb = 0.0;
      for (pid_t Pid : Pids) {
        std::istringstream In(readFileText("/proc/" + std::to_string(Pid) +
                                           "/statm"));
        uint64_t Size = 0, Resident = 0;
        In >> Size >> Resident;
        Mb += static_cast<double>(Resident) * PageMb;
      }
      Samples.push_back(Mb);
      usleep(20000);
    }
  }

  std::vector<pid_t> Pids;
  std::vector<double> Samples;
  std::atomic<bool> Stop{false};
  std::thread Thread; ///< declared last: starts after the members it uses
};

/// The reported peak of RSS samples: their 99th percentile.
double peakMb(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  return Samples[(Samples.size() - 1) * 99 / 100];
}

/// Repeats a set-up every SetupPeriodUs on its own thread, off the wire
/// workload's CPUs, while a measured window runs, and keeps each one's
/// time. An in-process set-up takes microseconds. Back to back, all
/// repetitions of a run fell in whatever state the host was in for those
/// few milliseconds, and their median moved by a factor of two between
/// identical runs. Spread over the window, they sample the host the way
/// the window's requests do. What a set-up returns is destroyed after its
/// time is taken.
class SetupSampler {
public:
  using SetupFn = std::function<std::shared_ptr<void>()>;
  explicit SetupSampler(SetupFn Setup)
      : Setup(std::move(Setup)), Thread([this] { loop(); }) {}
  ~SetupSampler() { stop(); }
  SetupSampler(const SetupSampler &) = delete;
  SetupSampler &operator=(const SetupSampler &) = delete;

  /// Stops sampling and returns every set-up time in seconds.
  std::vector<double> stop() {
    Stop = true;
    if (Thread.joinable())
      Thread.join();
    return Samples;
  }

private:
  void loop() {
    avoidWireCpus();
    do {
      const uint64_t T0 = nowNs();
      std::shared_ptr<void> Made = Setup();
      Samples.push_back(secondsBetween(T0, nowNs()));
      Made.reset();
      for (unsigned Slept = 0; Slept < SetupPeriodUs && !Stop; Slept += 10000)
        usleep(10000);
    } while (!Stop);
  }

  SetupFn Setup;
  std::vector<double> Samples;
  std::atomic<bool> Stop{false};
  std::thread Thread; ///< declared last: starts after the members it uses
};

/// Spawns \p Argv with its output in \p LogPath, on the CPUs of \p Set.
pid_t spawnChild(const std::vector<std::string> &Argv,
                 const std::string &LogPath, const cpu_set_t &Set) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  const pid_t Parent = getpid();
  const pid_t Pid = fork();
  if (Pid < 0)
    die("fork failed");
  if (Pid == 0) {
    // Die with seerbench even if it is killed outright.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != Parent)
      _exit(127);
    sched_setaffinity(0, sizeof Set, &Set);
    const int Fd = open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (Fd >= 0) {
      dup2(Fd, 1);
      dup2(Fd, 2);
      close(Fd);
    }
    execv(Args[0], Args.data());
    _exit(127);
  }
  for (auto &Slot : ChildPids) {
    pid_t Empty = 0;
    if (Slot.compare_exchange_strong(Empty, Pid))
      return Pid;
  }
  kill(Pid, SIGKILL);
  waitpid(Pid, nullptr, 0);
  die("too many child processes");
}

/// Stops a child with SIGTERM (so a shard writes its exit-time exports)
/// and waits for it; SIGKILL after five seconds.
void stopChild(pid_t Pid) {
  if (Pid <= 0)
    return;
  kill(Pid, SIGTERM);
  bool Exited = false;
  for (int I = 0; I < 5000 && !Exited; ++I) {
    Exited = waitpid(Pid, nullptr, WNOHANG) == Pid;
    if (!Exited)
      usleep(1000);
  }
  if (!Exited) {
    kill(Pid, SIGKILL);
    waitpid(Pid, nullptr, 0);
  }
  for (auto &Slot : ChildPids) {
    pid_t Expected = Pid;
    Slot.compare_exchange_strong(Expected, 0);
  }
}

/// Waits for a child to exit by itself; true if it exited with status 0.
bool waitChild(pid_t Pid) {
  int Status = 0;
  const bool Reaped = waitpid(Pid, &Status, 0) == Pid;
  for (auto &Slot : ChildPids) {
    pid_t Expected = Pid;
    Slot.compare_exchange_strong(Expected, 0);
  }
  return Reaped && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

/// Waits for a spawned server to publish its bound port.
uint16_t waitForPort(const std::string &PortFile, pid_t Pid) {
  for (int I = 0; I < 150000; ++I) { // 30 s at 200 us
    const std::string Text = readFileText(PortFile);
    if (!Text.empty() && Text.back() == '\n')
      return static_cast<uint16_t>(std::strtoul(Text.c_str(), nullptr, 10));
    if (waitpid(Pid, nullptr, WNOHANG) == Pid)
      die("server exited before publishing its port (" + PortFile + ")");
    usleep(200);
  }
  die("timed out waiting for " + PortFile);
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One generated matrix of a workload's pool, in the families the
/// collection uses: banded, uniform random, power law, block diagonal.
/// \p R draws the family parameters, \p Seed the random structure.
/// Power-law rows are capped at 96 nonzeros. With longer rows the kernel
/// chosen for the largest matrices flipped with the seed; at 128 it was
/// stable, but its padded state outgrew the inproc-cold cache budget, so
/// a ~90 MB state was rebuilt and dropped on every use and the peak RSS
/// depended on whether two such rebuilds overlapped.
CsrMatrix genFamily(size_t Family, uint32_t Rows, Rng &R, uint64_t Seed) {
  switch (Family % 4) {
  case 0:
    return genBanded(Rows, 4 + static_cast<uint32_t>(R.uniform(0, 6)),
                     R.uniform(0.6, 0.9), Seed);
  case 1:
    return genUniformRandom(Rows, Rows, R.uniform(8.0, 16.0), 0.5, Seed);
  case 2:
    return genPowerLaw(Rows, Rows, R.uniform(2.0, 2.4), 1,
                       std::clamp<uint32_t>(Rows / 16, 8, 96), Seed);
  default:
    return genBlockDiagonal(Rows, 16, R.uniform(0.3, 0.6), Seed);
  }
}

/// A pool of \p Count matrices whose sizes step evenly over [MinRows,
/// MaxRows] on a log scale and whose families cycle. The shape of the pool
/// (sizes, family parameters) is the same for every seed; the seed only
/// changes each matrix's random structure, so pools of different seeds
/// carry nearly the same work.
std::vector<CsrMatrix> buildPool(size_t Count, uint32_t MinRows,
                                 uint32_t MaxRows, uint64_t Seed) {
  Rng Shape(0x5ee2b00cull);
  Rng Content(Seed);
  std::vector<CsrMatrix> Pool;
  const double Lo = std::log2(double(MinRows)), Hi = std::log2(double(MaxRows));
  for (size_t I = 0; I < Count; ++I) {
    const double Step = (static_cast<double>(I) + 0.5) / static_cast<double>(Count);
    const uint32_t Rows = static_cast<uint32_t>(std::exp2(Lo + (Hi - Lo) * Step));
    Pool.push_back(genFamily(I, Rows, Shape, Content.next()));
  }
  return Pool;
}

/// A per-client request order over \p Count pool indices.
std::vector<size_t> shuffledOrder(size_t Count, uint64_t Seed) {
  std::vector<size_t> Order(Count);
  for (size_t I = 0; I < Count; ++I)
    Order[I] = I;
  Rng R(Seed);
  for (size_t I = Count; I > 1; --I)
    std::swap(Order[I - 1], Order[static_cast<size_t>(R.next() % I)]);
  return Order;
}

//===----------------------------------------------------------------------===//
// The offline pipeline: collection spec -> trained model triple
//===----------------------------------------------------------------------===//

struct PipelineRun {
  SeerModels Models;
  double GenerateS = 0, SweepS = 0, AnalysisS = 0, TrainS = 0, EvalS = 0;
  double TotalS = 0;
  double SweepCpuS = 0, UserS = 0, SysS = 0;
  double Speedup = 0;
  uint64_t Launches = 0;
  uint64_t TreeDigest = 0;
  size_t Matrices = 0;
};

double processCpuS(double *UserS = nullptr, double *SysS = nullptr) {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  const double User = U.ru_utime.tv_sec + U.ru_utime.tv_usec / 1e6;
  const double Sys = U.ru_stime.tv_sec + U.ru_stime.tv_usec / 1e6;
  if (UserS)
    *UserS = User;
  if (SysS)
    *SysS = Sys;
  return User + Sys;
}

/// Every held-out matrix is one whose position in the canonical order is
/// 3 mod 4.
bool isHeldout(size_t Index) { return Index % 4 == 3; }

/// Generates the collection, sweeps every registry kernel over it under
/// the simulator (results verified), runs the single-pass analysis,
/// trains the triple on the training split and evaluates it on the
/// held-out split. No on-disk sweep memo is consulted. The collection is
/// fixed, so every run trains the same triple.
PipelineRun runPipeline(const CollectionConfig &Collection, SpanLog *Log) {
  PipelineRun Run;
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  double User0 = 0, Sys0 = 0;
  processCpuS(&User0, &Sys0);
  const uint64_t Start = nowNs();
  Timed Whole(Log, "pipeline");

  std::vector<MatrixSpec> Specs = buildCollection(Collection);
  std::vector<CsrMatrix> Matrices(Specs.size());
  uint64_t T = nowNs();
  {
    Timed S(Log, "sparse.generate");
    parallelFor(PipelineThreads, Specs.size(),
                [&](size_t I) { Matrices[I] = Specs[I].Build(); });
  }
  Run.GenerateS = secondsBetween(T, nowNs());

  BenchmarkConfig Protocol;
  Protocol.Parallelism = 1; // the sweep parallelizes across matrices
  Protocol.VerifyResults = true;
  const Benchmarker Runner(Registry, Sim, Protocol);
  std::vector<MatrixBenchmark> Benchmarks(Specs.size());
  const double Cpu0 = processCpuS();
  T = nowNs();
  {
    Timed S(Log, "core.sweep");
    parallelFor(PipelineThreads, Specs.size(), [&](size_t I) {
      Benchmarks[I] = Runner.benchmarkMatrix(Specs[I].Name, Matrices[I]);
    });
  }
  Run.SweepS = secondsBetween(T, nowNs());
  Run.SweepCpuS = processCpuS() - Cpu0;
  Run.Launches = static_cast<uint64_t>(Specs.size()) * Registry.size();

  T = nowNs();
  {
    Timed S(Log, "core.analysis");
    std::vector<double> CollectionMs(Specs.size());
    parallelFor(PipelineThreads, Specs.size(), [&](size_t I) {
      const MatrixStats Stats = computeMatrixStats(Matrices[I]);
      CollectionMs[I] =
          collectGatheredFeatures(Matrices[I], Sim, Stats.Gathered)
              .CollectionMs;
    });
  }
  Run.AnalysisS = secondsBetween(T, nowNs());

  std::vector<MatrixBenchmark> Train, Heldout;
  for (size_t I = 0; I < Benchmarks.size(); ++I) {
    if (isHeldout(I)) {
      Heldout.push_back(Benchmarks[I]);
    } else {
      Train.push_back(Benchmarks[I]);
    }
  }
  TrainerConfig Trainer;
  Trainer.Parallelism = PipelineThreads;
  T = nowNs();
  {
    Timed S(Log, "ml.train");
    Run.Models = trainSeerModels(Train, Registry.names(), Trainer);
  }
  Run.TrainS = secondsBetween(T, nowNs());

  // The headline: speedup over the best single kernel on the held-out
  // split, as the geometric mean over the trainer's iteration counts.
  T = nowNs();
  {
    Timed S(Log, "core.evaluate");
    double LogSum = 0.0;
    for (uint32_t Iters : IterationCycle)
      LogSum += std::log(
          evaluateAggregate(Run.Models, Heldout, Iters).SpeedupVsBestKernel);
    Run.Speedup = std::exp(LogSum / 3.0);
  }
  Run.EvalS = secondsBetween(T, nowNs());
  Run.TotalS = secondsBetween(Start, nowNs());
  double User1 = 0, Sys1 = 0;
  processCpuS(&User1, &Sys1);
  Run.UserS = User1 - User0;
  Run.SysS = Sys1 - Sys0;
  Run.Matrices = Specs.size();

  Fnv1a Digest;
  for (const DecisionTree *Tree :
       {&Run.Models.Known, &Run.Models.Gathered, &Run.Models.Selector})
    for (unsigned char C : Tree->serialize())
      Digest.add(static_cast<uint64_t>(C));
  Run.TreeDigest = Digest.value();
  return Run;
}

/// The collection every workload trains on: one matrix per synthetic
/// family and size cell up to 16k rows. The paper replicas are left out;
/// they have up to 250k rows.
CollectionConfig trainCollection() {
  CollectionConfig C;
  C.VariantsPerCell = 1;
  C.MaxRows = 16384;
  C.IncludeReplicas = false;
  return C;
}

void storeModels(const SeerModels &Models, const std::string &Dir) {
  std::filesystem::create_directories(Dir);
  if (const Status S = storeModelBundle(Models, Dir); !S.ok())
    die(S.toString());
}

void emitPipeline(Json &J, const PipelineRun &P, bool Traced) {
  J.begin();
  J.key("traced").boolean(Traced);
  J.key("generate_s").num(P.GenerateS);
  J.key("sweep_s").num(P.SweepS);
  J.key("analysis_s").num(P.AnalysisS);
  J.key("train_s").num(P.TrainS);
  J.key("eval_s").num(P.EvalS);
  J.key("total_s").num(P.TotalS);
  J.key("sweep_cpu_s").num(P.SweepCpuS);
  J.key("user_s").num(P.UserS);
  J.key("sys_s").num(P.SysS);
  J.key("threads").integer(PipelineThreads);
  J.key("matrices").integer(P.Matrices);
  J.key("launches").integer(P.Launches);
  J.key("selection_speedup").num(P.Speedup);
  char Digest[32];
  std::snprintf(Digest, sizeof Digest, "%016llx",
                static_cast<unsigned long long>(P.TreeDigest));
  J.key("tree_digest").str(Digest);
  J.end();
}

//===----------------------------------------------------------------------===//
// Reference answers and the per-layer probe
//===----------------------------------------------------------------------===//

struct Expected3 {
  size_t Kernel[3] = {0, 0, 0};
  bool Gathered[3] = {false, false, false};
  std::vector<double> Y[3];
  uint64_t Fingerprint = 0;
};

/// One-shot SeerRuntime answers for every (matrix, iteration count).
std::vector<Expected3> referenceAnswers(const SeerModels &Models,
                                        const std::vector<CsrMatrix> &Pool) {
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Runtime(Models, Registry, Sim);
  std::vector<Expected3> Answers(Pool.size());
  parallelFor(PipelineThreads, Pool.size(), [&](size_t I) {
    const std::vector<double> X(Pool[I].numCols(), 1.0);
    for (size_t K = 0; K < 3; ++K) {
      const ExecutionReport R = Runtime.execute(Pool[I], X, IterationCycle[K]);
      Answers[I].Kernel[K] = R.Selection.KernelIndex;
      Answers[I].Gathered[K] = R.Selection.UsedGatheredModel;
      Answers[I].Y[K] = R.Y;
    }
    Answers[I].Fingerprint = matrixFingerprint(Pool[I]);
  });
  return Answers;
}

bool matches(const SelectionResult &Got, const Expected3 &E, size_t K) {
  return Got.KernelIndex == E.Kernel[K] && Got.UsedGatheredModel == E.Gathered[K];
}

using LayerSamples = std::map<std::string, std::vector<double>>;

/// Mean time per call of \p Fn in nanoseconds: batches of calls double
/// until one batch lasts 100 us, so the two clock reads around it do not
/// count.
template <typename F> double timePerCallNs(F &&Fn) {
  for (uint64_t Batch = 1;; Batch *= 2) {
    const uint64_t Start = nowNs();
    for (uint64_t I = 0; I < Batch; ++I)
      Fn();
    const uint64_t Elapsed = nowNs() - Start;
    if (Elapsed >= 100000)
      return static_cast<double>(Elapsed) / static_cast<double>(Batch);
  }
}

/// Times the public entry points of sparse, core, kernels and ml on the
/// workload's own matrices, one span per call, and computes the modeled
/// per-call operation and byte counts from spmvcost.
void probeLayers(const SeerModels &Models, const std::vector<CsrMatrix> &Pool,
                 SpanLog &Log, LayerSamples &Out) {
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const Planner Plans(Models, Registry, Sim);
  std::vector<double> Features(features::KnownArity);
  volatile uint64_t Sink = 0;
  for (size_t I = 0; I < Pool.size(); ++I) {
    const CsrMatrix &M = Pool[I];
    const double Nnz = static_cast<double>(std::max<uint64_t>(1, M.nnz()));
    const CooMatrix Coo = CooMatrix::fromCsr(M);
    {
      Timed S(&Log, "sparse.coo_to_csr", I + 1);
      Out["sparse.coo_to_csr_ns_per_nnz"].push_back(
          timePerCallNs([&] { Sink = Sink + Coo.toCsr().nnz(); }) / Nnz);
    }
    {
      Timed S(&Log, "sparse.fingerprint", I + 1);
      Out["sparse.fingerprint_ns_per_nnz"].push_back(
          timePerCallNs([&] { Sink = Sink + matrixFingerprint(M); }) / Nnz);
    }
    {
      Timed S(&Log, "sparse.stats", I + 1);
      Out["sparse.stats_ns_per_nnz"].push_back(
          timePerCallNs(
              [&] { Sink = Sink + computeMatrixStats(M).MaxRowLength; }) /
          Nnz);
    }
    const AnalyzedMatrix A = Plans.analyze(M, /*WithFingerprint=*/true);
    {
      Timed S(&Log, "core.analyze", I + 1);
      Out["core.analyze_ns_per_nnz"].push_back(
          timePerCallNs([&] {
            Sink = Sink + Plans.analyze(M, true).Fingerprint;
          }) /
          Nnz);
    }
    for (size_t K = 0; K < 3; ++K) {
      const uint32_t Iters = IterationCycle[K];
      {
        Timed S(&Log, "core.plan", I + 1);
        Out["core.plan_us"].push_back(
            timePerCallNs([&] {
              Sink = Sink + Plans.plan(A, Iters, CollectionCharging::Charged)
                                .kernelIndex();
            }) /
            1000.0);
      }
      ExecutionPlan Plan = Plans.plan(A, Iters, CollectionCharging::Charged);
      {
        Timed S(&Log, "core.prepare", I + 1);
        Out["core.prepare_us"].push_back(
            timePerCallNs([&] {
              ExecutionPlan Fresh = Plan;
              Plans.prepare(Fresh, A);
              Sink = Sink + Fresh.Prepared;
            }) /
            1000.0);
      }
      {
        Timed S(&Log, "kernels.preprocess", I + 1);
        const SpmvKernel &Kernel = Registry.kernel(Plan.kernelIndex());
        Out["kernels.preprocess_us"].push_back(
            timePerCallNs([&] {
              Sink = Sink + (Kernel.preprocess(M, A.Stats, Sim).State != nullptr);
            }) /
            1000.0);
      }
      Plans.prepare(Plan, A);
      const std::vector<double> X(M.numCols(), 1.0);
      {
        Timed S(&Log, "core.run", I + 1);
        Out["core.run_ns_per_nnz"].push_back(
            timePerCallNs([&] { Sink = Sink + Plans.run(Plan, A, X).Y.size(); }) /
            Nnz);
      }
      features::knownVectorInto(A.Stats.Known, Iters, Features.data());
      {
        Timed S(&Log, "ml.predict", I + 1);
        Out["ml.predict_ns"].push_back(timePerCallNs([&] {
          Sink = Sink + Models.KnownFlat.predict(Features.data());
        }));
      }
    }
    // Modeled work of one SpMV call (spmvcost constants), not measured.
    Out["kernels.spmv_ops_per_call"].push_back(
        spmvcost::OpsPerNnz * Nnz +
        spmvcost::WaveReductionOps * static_cast<double>(M.numRows()));
    Out["kernels.spmv_bytes_per_call"].push_back(
        (spmvcost::StreamBytesPerNnz + spmvcost::GatherBytesPerNnz) * Nnz +
        spmvcost::StreamBytesPerRow * static_cast<double>(M.numRows()));
  }
}

//===----------------------------------------------------------------------===//
// Closed-loop measurement windows
//===----------------------------------------------------------------------===//

/// Outcome counts and latency samples of one window, merged over clients.
struct Window {
  std::map<std::string, std::vector<double>> LatencyUs; ///< per op
  uint64_t Attempted = 0;
  uint64_t Succeeded = 0;
  uint64_t Failed = 0;
  uint64_t Wrong = 0;
  uint64_t Requests = 0; ///< completed requests (throughput numerator)
  double WallS = 0.0;
  uint64_t WireBytes = 0;
  std::vector<std::string> Errors;

  void merge(const Window &O) {
    for (const auto &[Op, V] : O.LatencyUs)
      LatencyUs[Op].insert(LatencyUs[Op].end(), V.begin(), V.end());
    Attempted += O.Attempted;
    Succeeded += O.Succeeded;
    Failed += O.Failed;
    Wrong += O.Wrong;
    Requests += O.Requests;
    WallS += O.WallS;
    WireBytes += O.WireBytes;
    for (const std::string &E : O.Errors)
      if (Errors.size() < 8)
        Errors.push_back(E);
  }

  /// Records one latency sample of \p Op that ran from \p StartNs to
  /// \p EndNs.
  void sample(const std::string &Op, uint64_t StartNs, uint64_t EndNs) {
    LatencyUs[Op].push_back(static_cast<double>(EndNs - StartNs) / 1000.0);
  }

  /// Counts one operation; a wrong answer counts as failed.
  void count(bool Ok, bool WrongAnswer, const std::string &Why) {
    ++Attempted;
    if (Ok) {
      ++Succeeded;
      return;
    }
    ++Failed;
    Wrong += WrongAnswer;
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }
};

/// Reports every pipeline run; every run must reproduce the first one's
/// trees.
void emitPipelines(Json &J, Window &Total, const std::vector<PipelineRun> &Runs,
                   bool FirstTraced) {
  J.key("pipelines").begin();
  for (size_t N = 0; N < Runs.size(); ++N) {
    J.key(std::to_string(N));
    emitPipeline(J, Runs[N], N == 0 && FirstTraced);
    const bool Same = Runs[N].TreeDigest == Runs.front().TreeDigest;
    Total.count(Same, !Same, "pipeline: trees differ between runs");
  }
  J.end();
}

/// Whether one of \p Count events spread evenly over the rounds falls
/// after round \p Round.
bool dueAfter(unsigned Round, unsigned Count) {
  return (Round + 1) * Count / Rounds > Round * Count / Rounds;
}

/// First request index of a round's request stream. Successive rounds
/// start at different points of a client's order, so the partial pass at
/// the end of each round does not favour the same matrices every time.
uint64_t roundStart(unsigned Round) { return uint64_t(Round) * 7919; }

void emitWindow(Json &J, const std::string &Name, const Window &W) {
  J.key(Name).begin();
  J.key("attempted").integer(W.Attempted);
  J.key("succeeded").integer(W.Succeeded);
  J.key("failed").integer(W.Failed);
  J.key("wrong").integer(W.Wrong);
  J.key("requests").integer(W.Requests);
  J.key("wall_s").num(W.WallS);
  J.key("wire_bytes").integer(W.WireBytes);
  J.key("latency_us").begin();
  for (const auto &[Op, V] : W.LatencyUs)
    J.key(Op).array(V);
  J.end();
  J.key("errors").array(W.Errors);
  J.end();
}

//===----------------------------------------------------------------------===//
// Shared run context
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Dir;
  std::string Bin;
  std::string Out;
};

struct Report {
  Json J;
  Window Total; ///< every counted operation of the run
};

/// The figures of a pipeline run that emitPipeline reports, as one line
/// of text: what a pipeline run in a child process hands back.
std::string pipelineFigures(const PipelineRun &P) {
  std::ostringstream Out;
  Out.precision(17);
  Out << P.GenerateS << ' ' << P.SweepS << ' ' << P.AnalysisS << ' '
      << P.TrainS << ' ' << P.EvalS << ' ' << P.TotalS << ' ' << P.SweepCpuS
      << ' ' << P.UserS << ' ' << P.SysS << ' ' << P.Speedup << ' '
      << P.Launches << ' ' << P.TreeDigest << ' ' << P.Matrices << '\n';
  return Out.str();
}

/// Runs one pipeline in a child seerbench (`seerbench pipeline --out
/// FILE`), so that its heap is not this process's: the pipelines between
/// the rounds of inproc-cold would otherwise count in its peak RSS, and
/// wire-hot runs its own the same way so that both time the same thing.
/// The trained models stay in the child; only the figures come back.
PipelineRun runPipelineApart(const Options &O, size_t N) {
  const std::string Out = O.Dir + "/pipeline" + std::to_string(N) + ".txt";
  const std::vector<int> Cpus = allowedCpus();
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int Cpu : Cpus)
    CPU_SET(Cpu, &Set);
  const pid_t Pid = spawnChild({O.Bin + "/seerbench", "pipeline", "--out", Out},
                               O.Dir + "/pipeline.log", Set);
  if (!waitChild(Pid))
    die("the pipeline child failed; see " + O.Dir + "/pipeline.log");
  PipelineRun P;
  std::istringstream In(readFileText(Out));
  In >> P.GenerateS >> P.SweepS >> P.AnalysisS >> P.TrainS >> P.EvalS >>
      P.TotalS >> P.SweepCpuS >> P.UserS >> P.SysS >> P.Speedup >>
      P.Launches >> P.TreeDigest >> P.Matrices;
  if (!In)
    die("the pipeline child wrote no figures to " + Out);
  return P;
}

//===----------------------------------------------------------------------===//
// wire-hot: seer-lb in front of two seer-serve shards on loopback
//===----------------------------------------------------------------------===//

struct Fleet {
  WireLayout Layout = WireLayout::Packed;
  pid_t Shard[2] = {0, 0};
  pid_t Lb = 0;
  uint16_t ShardPort[2] = {0, 0};
  uint16_t LbPort = 0;
  std::string TraceFiles[2];

  void stop() {
    stopChild(Lb);
    stopChild(Shard[0]);
    stopChild(Shard[1]);
    Lb = Shard[0] = Shard[1] = 0;
  }
};

Fleet spawnFleet(const Options &O, const std::string &Models, bool Traced,
                 unsigned Index, WireLayout Layout = WireLayout::Packed) {
  Fleet F;
  F.Layout = Layout;
  const std::string Tag = O.Dir + "/fleet" + std::to_string(Index);
  for (int S = 0; S < 2; ++S) {
    const std::string P = Tag + "_shard" + std::to_string(S);
    std::vector<std::string> Argv = {O.Bin + "/seer-serve", "--models", Models,
                                     "--listen", "127.0.0.1:0", "--port-file",
                                     P + ".port"};
    if (Traced) {
      F.TraceFiles[S] = P + ".trace.json";
      Argv.insert(Argv.end(), {"--trace-out", F.TraceFiles[S], "--metrics-out",
                               P + ".metrics.jsonl"});
    }
    F.Shard[S] =
        spawnChild(Argv, P + ".log", wireCpu(WireRole::Shards, Layout));
  }
  for (int S = 0; S < 2; ++S)
    F.ShardPort[S] = waitForPort(
        Tag + "_shard" + std::to_string(S) + ".port", F.Shard[S]);
  const std::string Shards = "127.0.0.1:" + std::to_string(F.ShardPort[0]) +
                             ",127.0.0.1:" + std::to_string(F.ShardPort[1]);
  F.Lb = spawnChild({O.Bin + "/seer-lb", "--shards", Shards, "--listen",
                     "127.0.0.1:0", "--port-file", Tag + "_lb.port"},
                    Tag + "_lb.log", wireCpu(WireRole::Balancer, Layout));
  F.LbPort = waitForPort(Tag + "_lb.port", F.Lb);
  return F;
}

net::NetClient connectOrDie(uint16_t Port) {
  auto C = net::NetClient::connect("127.0.0.1", Port);
  if (!C.ok())
    die("connect: " + C.status().toString());
  return std::move(*C);
}

/// One client connection through the balancer with the half of the pool
/// it opened (client c owns pool indices c, c+2, ...).
struct WireClient {
  WireLayout Layout = WireLayout::Packed; ///< the fleet's
  std::unique_ptr<net::NetClient> Conn;
  std::vector<size_t> PoolIndex;
  std::vector<uint64_t> Handle;
};

/// Opens each client's half of the pool through the balancer, one open
/// at a time (so an open's latency is its own, not its share of another
/// client's), checking every open reply.
void openPool(std::vector<WireClient> &Cs, const std::vector<CsrMatrix> &Pool,
              const std::vector<Expected3> &Ref, Window &W) {
  std::thread([&] {
    pinClientThread(Cs.front().Layout);
    for (size_t C = 0; C < Cs.size(); ++C) {
      WireClient &Cl = Cs[C];
      for (size_t I = C; I < Pool.size(); I += Cs.size()) {
        const uint64_t T0 = nowNs();
        auto R = Cl.Conn->open("m" + std::to_string(I), Pool[I]);
        const uint64_t T1 = nowNs();
        if (!R.ok()) {
          W.count(false, false, "open: " + R.status().toString());
          continue;
        }
        const bool Ok = R->Info.Fingerprint == Ref[I].Fingerprint &&
                        R->Info.NumRows == Pool[I].numRows() &&
                        R->Info.Nnz == Pool[I].nnz();
        W.count(Ok, !Ok, "open: wrong handle info");
        W.sample("open", T0, T1);
        Cl.PoolIndex.push_back(I);
        Cl.Handle.push_back(R->Handle);
      }
    }
  }).join();
}

/// The closed loop of one client: 3 selects to 1 execute, iterations
/// cycling 1/5/19, over the client's handles in a seeded order. Stops
/// after \p Requests requests (0 = no limit) or at \p EndNs, whichever
/// comes first. Returns the modeled charge summed over the requests.
double wireLoop(WireClient &Cl, const std::vector<Expected3> &Ref,
                const std::vector<size_t> &Order, uint64_t EndNs,
                uint64_t First, uint64_t Requests, SpanLog *Log,
                uint64_t RequestBase, Window &W) {
  double ChargedMs = 0.0;
  for (uint64_t K = First;
       (!Requests || K < First + Requests) && nowNs() < EndNs; ++K) {
    // The slot advances one extra step per mix period, so with a pool half
    // whose size WireMixPeriod divides every matrix is both selected and
    // executed, not only the ones whose position lines up with the mix.
    const size_t Slot = Order[(K + K / WireMixPeriod) % Order.size()];
    const Expected3 &E = Ref[Cl.PoolIndex[Slot]];
    const size_t It = K % 3;
    const bool Execute = K % WireMixPeriod == WireMixPeriod - 1;
    const char *Op = Execute ? "execute" : "select";
    const uint64_t Req = RequestBase + K + 1;
    const uint64_t T0 = nowNs();
    std::string Payload;
    Expected<std::string> Reply = Status::unavailable("not sent");
    Expected<ServeResponse> Resp = Status::unavailable("not decoded");
    {
      Timed Whole(Log, Execute ? "client.execute" : "client.select", Req);
      {
        Timed S(Log, "net.encode", Req);
        Payload = Execute ? net::encodeExecute(Cl.Handle[Slot],
                                               IterationCycle[It], false, {})
                          : net::encodeSelect(Cl.Handle[Slot],
                                              IterationCycle[It]);
      }
      {
        Timed S(Log, "net.call", Req);
        Reply = Cl.Conn->call(Payload);
      }
      if (Reply.ok()) {
        Timed S(Log, "net.decode", Req);
        Resp = net::decodeResponseReply(*Reply);
      }
    }
    const uint64_t T1 = nowNs();
    if (!Reply.ok()) {
      W.count(false, false, std::string(Op) + ": " + Reply.status().toString());
      continue;
    }
    W.WireBytes += Payload.size() + Reply->size() + 8;
    if (!Resp.ok()) {
      Status Carried;
      if (net::decodeStatusReply(*Reply, Carried).ok())
        W.count(false, false, std::string(Op) + ": " + Carried.toString());
      else
        W.count(false, false, std::string(Op) + ": " + Resp.status().toString());
      continue;
    }
    const bool Ok = matches(Resp->Selection, E, It) &&
                    (!Execute || sameBits(Resp->Y, E.Y[It]));
    W.count(Ok, !Ok, std::string(Op) + ": answer differs from SeerRuntime");
    W.sample(Op, T0, T1);
    ++W.Requests;
    ChargedMs += Resp->totalMs();
  }
  return ChargedMs;
}

/// Runs every client's loop in parallel and merges the outcome.
Window wireWindow(std::vector<WireClient> &Cs, const std::vector<Expected3> &Ref,
                  const std::vector<std::vector<size_t>> &Orders,
                  double Seconds, uint64_t Requests,
                  std::vector<std::unique_ptr<SpanLog>> *Logs,
                  double *ChargedMs = nullptr, uint64_t First = 0) {
  std::vector<Window> Per(Cs.size());
  std::vector<double> Charged(Cs.size(), 0.0);
  const uint64_t Start = nowNs();
  const uint64_t End =
      Seconds > 0 ? Start + static_cast<uint64_t>(Seconds * 1e9) : UINT64_MAX;
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Cs.size(); ++C)
    Threads.emplace_back([&, C] {
      pinClientThread(Cs[C].Layout);
      Charged[C] = wireLoop(Cs[C], Ref, Orders[C], End, First, Requests,
                            Logs ? (*Logs)[C].get() : nullptr,
                            uint64_t(C) << 32, Per[C]);
    });
  for (std::thread &T : Threads)
    T.join();
  Window W;
  for (const Window &P : Per)
    W.merge(P);
  W.WallS = secondsBetween(Start, nowNs());
  if (ChargedMs) {
    double Sum = 0.0;
    for (double V : Charged)
      Sum += V;
    *ChargedMs = Sum;
  }
  return W;
}

std::vector<WireClient> connectClients(const Fleet &F) {
  std::vector<WireClient> Cs(Clients);
  for (WireClient &C : Cs) {
    C.Layout = F.Layout;
    C.Conn = std::make_unique<net::NetClient>(connectOrDie(F.LbPort));
  }
  return Cs;
}

std::string shardText(uint16_t Port, bool Metrics) {
  net::NetClient C = connectOrDie(Port);
  auto T = Metrics ? C.metricsText() : C.statsText();
  if (!T.ok())
    die("shard export: " + T.status().toString());
  return *T;
}

void emitShardExports(Json &J, const std::string &Name, const Fleet &F,
                      bool Metrics) {
  J.key(Name).begin();
  for (int S = 0; S < 2; ++S)
    J.key("shard" + std::to_string(S)).str(shardText(F.ShardPort[S], Metrics));
  J.end();
}

/// Client-observed select latency through the balancer against the same
/// select sent straight to the owning shard, interleaved on one client.
void measureLbHop(const Fleet &F, const std::vector<CsrMatrix> &Pool,
                  const std::vector<Expected3> &Ref, double Seconds,
                  Window &W) {
  net::NetClient ViaLb = connectOrDie(F.LbPort);
  net::NetClient Direct[2] = {connectOrDie(F.ShardPort[0]),
                              connectOrDie(F.ShardPort[1])};
  const net::ShardRouter Router(2);
  struct Pair {
    uint64_t LbHandle, ShardHandle;
    size_t Shard, Pool;
  };
  std::vector<Pair> Pairs;
  for (size_t I = 0; I < Pool.size(); I += 4) {
    auto A = ViaLb.open("hop" + std::to_string(I), Pool[I]);
    const size_t Shard = Router.route(Ref[I].Fingerprint);
    auto B = Direct[Shard].open("hop" + std::to_string(I), Pool[I]);
    if (!A.ok() || !B.ok()) {
      W.count(false, false, "hop open failed");
      continue;
    }
    Pairs.push_back({A->Handle, B->Handle, Shard, I});
  }
  if (Pairs.empty())
    return;
  const uint64_t End = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  for (uint64_t K = 0; nowNs() < End; ++K) {
    const Pair &P = Pairs[K % Pairs.size()];
    for (int Side = 0; Side < 2; ++Side) {
      const bool Lb = (Side == 0) == (K % 2 == 0); // alternate who goes first
      const uint64_t T0 = nowNs();
      auto R = Lb ? ViaLb.select(P.LbHandle, 1)
                  : Direct[P.Shard].select(P.ShardHandle, 1);
      const uint64_t T1 = nowNs();
      if (!R.ok()) {
        W.count(false, false, "hop select: " + R.status().toString());
        continue;
      }
      const bool Ok = matches(R->Selection, Ref[P.Pool], 0);
      W.count(Ok, !Ok, "hop select: answer differs from SeerRuntime");
      W.sample(Lb ? "hop_lb" : "hop_direct", T0, T1);
    }
  }
}

void runWireHot(const Options &O, Report &R) {
  Json &J = R.J;
  // Preparation (not set-up): train and store the bundle the shards
  // serve, generate the pool, compute the reference answers.
  std::unique_ptr<SpanLog> PrepLog = std::make_unique<SpanLog>(100, O.Trace);
  std::vector<PipelineRun> Pipes;
  Pipes.reserve(Pipelines); // P stays valid while the rest are added
  Pipes.push_back(runPipeline(trainCollection(), PrepLog.get()));
  const PipelineRun &P = Pipes.front();
  const std::string Models = O.Dir + "/models";
  storeModels(P.Models, Models);
  const std::vector<CsrMatrix> Pool =
      buildPool(WirePoolSize, 256, 2048, O.Seed * 7919 + 11);
  const std::vector<Expected3> Ref = referenceAnswers(P.Models, Pool);
  std::vector<std::vector<size_t>> Orders;
  for (unsigned C = 0; C < Clients; ++C)
    Orders.push_back(shuffledOrder(WirePoolSize / Clients, O.Seed + 31 * C));

  // Set-up: spawn the fleet, wait for both shards and the balancer to
  // serve, open the pool. The first fleet serves the measured window; the
  // set-up is repeated between its rounds on fleets that are stopped again.
  std::vector<double> SetupS;
  Window Opens;
  const auto SetUp = [&](Fleet &Into, std::vector<WireClient> &IntoCs) {
    const uint64_t T0 = nowNs();
    Into = spawnFleet(O, Models, false, static_cast<unsigned>(SetupS.size()));
    IntoCs = connectClients(Into);
    openPool(IntoCs, Pool, Ref, Opens);
    SetupS.push_back(secondsBetween(T0, nowNs()));
    if (Opens.Failed)
      die("opening the pool failed: " + Opens.Errors.front());
  };
  Fleet F;
  std::vector<WireClient> Cs;
  SetUp(F, Cs);

  // Warm-up: one full cycle of the mix per client, which is also the
  // fixed request set the modeled charge is averaged over.
  const uint64_t Cycle = (WirePoolSize / Clients) * 12;
  double ChargedMs = 0.0;
  Window Warm = wireWindow(Cs, Ref, Orders, 0, Cycle, nullptr, &ChargedMs);
  R.Total.merge(Warm);
  emitWindow(J, "warmup", Warm);
  J.key("charged_ms_per_request")
      .num(ChargedMs / static_cast<double>(std::max<uint64_t>(1, Warm.Requests)));

  const double MainS = O.Trace ? O.Seconds / 2 : O.Seconds;
  RssMonitor Rss({F.Lb, F.Shard[0], F.Shard[1]});
  std::string StatsBefore[2];
  if (O.Trace)
    for (int S = 0; S < 2; ++S)
      StatsBefore[S] = shardText(F.ShardPort[S], false);
  // /proc deltas summed over the rounds: client, balancer, shard 0, 1.
  const pid_t Pids[4] = {getpid(), F.Lb, F.Shard[0], F.Shard[1]};
  ProcSample Used[4];
  Window Main;
  std::vector<double> RoundRps;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    ProcSample Before[4];
    for (int I = 0; I < 4; ++I)
      Before[I] = readProc(Pids[I]);
    const Window One = wireWindow(Cs, Ref, Orders, MainS / Rounds, 0, nullptr,
                                  nullptr, roundStart(Round));
    RoundRps.push_back(static_cast<double>(One.Requests) / One.WallS);
    Main.merge(One);
    for (int I = 0; I < 4; ++I) {
      const ProcSample After = readProc(Pids[I]);
      Used[I].UserS += After.UserS - Before[I].UserS;
      Used[I].SysS += After.SysS - Before[I].SysS;
      Used[I].CtxSwitches += After.CtxSwitches - Before[I].CtxSwitches;
    }
    if (dueAfter(Round, WireSetups - 1)) {
      Fleet Again;
      std::vector<WireClient> AgainCs;
      SetUp(Again, AgainCs);
      AgainCs.clear();
      Again.stop();
    }
    if (dueAfter(Round, Pipelines - 1))
      Pipes.push_back(runPipelineApart(O, Pipes.size()));
  }
  R.Total.merge(Main);
  emitWindow(J, "window", Main);
  J.key("round_rps").array(RoundRps);
  J.key("proc").begin();
  const char *ProcNames[4] = {"client", "lb", "shard0", "shard1"};
  for (int I = 0; I < 4; ++I)
    emitProcDelta(J, ProcNames[I], ProcSample{}, Used[I]);
  J.end();
  J.key("peak_rss_mb").num(peakMb(Rss.samples()));
  J.key("setup_s").array(SetupS);
  emitWindow(J, "opens", Opens);
  R.Total.merge(Opens);
  emitPipelines(J, R.Total, Pipes, O.Trace);
  if (O.Trace) {
    J.key("stats_before").begin();
    for (int S = 0; S < 2; ++S)
      J.key("shard" + std::to_string(S)).str(StatsBefore[S]);
    J.end();
    emitShardExports(J, "stats_after", F, false);
    Window Hop;
    std::thread([&] {
      pinClientThread(F.Layout);
      measureLbHop(F, Pool, Ref, 1.0, Hop);
    }).join();
    R.Total.merge(Hop);
    emitWindow(J, "hop", Hop);
  }
  Cs.clear();
  F.stop();

  if (O.Trace) {
    // Traced window on a fleet whose shards record spans and the
    // armed-only histograms, with spans around every client call here.
    LayerSamples Layers;
    probeLayers(P.Models, Pool, *PrepLog, Layers);
    F = spawnFleet(O, Models, true, WireSetups);
    Cs = connectClients(F);
    Window Setup;
    openPool(Cs, Pool, Ref, Setup);
    Setup.merge(wireWindow(Cs, Ref, Orders, 0, Cycle, nullptr));
    R.Total.merge(Setup);
    emitShardExports(J, "metrics_before", F, true);
    std::vector<std::unique_ptr<SpanLog>> Logs;
    for (unsigned C = 0; C < Clients; ++C)
      Logs.push_back(std::make_unique<SpanLog>(C + 1, true));
    // Every request of the traced window is traced: it ends when a
    // client's span log is full or after half the run, whichever is first.
    Window Traced = wireWindow(Cs, Ref, Orders, O.Seconds / 2,
                               SpanLog::Cap / 5, &Logs);
    R.Total.merge(Traced);
    emitWindow(J, "traced_window", Traced);
    emitShardExports(J, "metrics_after", F, true);
    Cs.clear();
    F.stop(); // SIGTERM: the shards write their trace and metrics files
    J.key("shard_traces").begin();
    for (int S = 0; S < 2; ++S)
      J.key("shard" + std::to_string(S)).str(F.TraceFiles[S]);
    J.end();
    std::vector<const SpanLog *> All = {PrepLog.get()};
    for (const auto &L : Logs)
      All.push_back(L.get());
    writeChromeTrace(O.Dir + "/seerbench.trace.json", All);
    J.key("bench_trace").str(O.Dir + "/seerbench.trace.json");
    J.key("layers").begin();
    for (const auto &[Name, V] : Layers)
      J.key(Name).array(V);
    J.end();

    // The same untraced load on the spread layout, for the cross-CPU
    // figures the packed windows cannot show.
    F = spawnFleet(O, Models, false, WireSetups + 1, WireLayout::Spread);
    Cs = connectClients(F);
    Window SpreadSetup;
    openPool(Cs, Pool, Ref, SpreadSetup);
    SpreadSetup.merge(wireWindow(Cs, Ref, Orders, 0, Cycle, nullptr));
    R.Total.merge(SpreadSetup);
    const Window Spread = wireWindow(Cs, Ref, Orders,
                                     std::min(SpreadSeconds, O.Seconds / 2),
                                     0, nullptr);
    R.Total.merge(Spread);
    emitWindow(J, "spread_window", Spread);
    Cs.clear();
    F.stop();
  }
}

//===----------------------------------------------------------------------===//
// In-process serving: inproc-cold
//===----------------------------------------------------------------------===//

/// A request stream over a pool handed to SeerService as input objects:
/// even indices as COO, odd ones as shared CSR.
struct InprocPool {
  std::vector<CsrMatrix> Matrices;
  std::vector<CooMatrix> Coo;
  std::vector<std::shared_ptr<const CsrMatrix>> Shared;
  std::vector<Expected3> Ref;
  /// Seeds each client's request order.
  uint64_t OrderSeed;

  InprocPool(std::vector<CsrMatrix> M, const SeerModels &Models,
             uint64_t OrderSeed)
      : Matrices(std::move(M)), OrderSeed(OrderSeed) {
    Ref = referenceAnswers(Models, Matrices);
    for (size_t I = 0; I < Matrices.size(); ++I) {
      Coo.push_back(I % 2 == 0 ? CooMatrix::fromCsr(Matrices[I]) : CooMatrix());
      Shared.push_back(I % 2 == 1
                           ? std::make_shared<const CsrMatrix>(Matrices[I])
                           : nullptr);
    }
  }

  MatrixInput input(size_t I) const {
    if (I % 2 == 0)
      return Coo[I];
    return Shared[I];
  }
};

/// One request: register, select, execute, release. Every answer is
/// checked; the modeled charge of the execute is returned.
double inprocRequest(SeerService &Service, const InprocPool &P, size_t I,
                     size_t It, SpanLog *Log, uint64_t Req, Window &W) {
  MatrixInput In = P.input(I);
  const Expected3 &E = P.Ref[I];
  const uint64_t Start = nowNs();
  Timed Whole(Log, "client.request", Req);
  Expected<MatrixHandle> H = Status::unavailable("not registered");
  {
    Timed S(Log, "api.register", Req);
    H = Service.registerMatrix(std::move(In));
  }
  const uint64_t T1 = nowNs();
  if (!H.ok()) {
    W.count(false, false, "register: " + H.status().toString());
    return 0.0;
  }
  Expected<ServeResponse> Sel = Status::unavailable("not served");
  {
    Timed S(Log, "api.select", Req);
    Sel = Service.select(*H, IterationCycle[It]);
  }
  const uint64_t T2 = nowNs();
  Expected<ServeResponse> Exe = Status::unavailable("not served");
  {
    Timed S(Log, "api.execute", Req);
    Exe = Service.execute(*H, IterationCycle[It]);
  }
  const uint64_t T3 = nowNs();
  Status Released;
  {
    Timed S(Log, "api.release", Req);
    Released = Service.release(*H);
  }
  W.count(true, false, "register");
  W.sample("open", Start, T1);
  if (!Sel.ok()) {
    W.count(false, false, "select: " + Sel.status().toString());
  } else {
    const bool Ok = matches(Sel->Selection, E, It);
    W.count(Ok, !Ok, "select: answer differs from SeerRuntime");
    W.sample("select", T1, T2);
  }
  double Charged = 0.0;
  if (!Exe.ok()) {
    W.count(false, false, "execute: " + Exe.status().toString());
  } else {
    const bool Ok = matches(Exe->Selection, E, It) && sameBits(Exe->Y, E.Y[It]);
    W.count(Ok, !Ok, "execute: answer differs from SeerRuntime");
    W.sample("execute", T2, T3);
    Charged = Exe->totalMs();
  }
  W.count(Released.ok(), false, "release: " + Released.toString());
  if (Sel.ok() && Exe.ok() && Released.ok())
    ++W.Requests;
  return Charged;
}

Window inprocWindow(SeerService &Service, const InprocPool &P, double Seconds,
                    uint64_t Requests,
                    std::vector<std::unique_ptr<SpanLog>> *Logs,
                    double *ChargedMs = nullptr, uint64_t First = 0) {
  std::vector<Window> Per(Clients);
  std::vector<double> Charged(Clients, 0.0);
  const uint64_t Start = nowNs();
  const uint64_t End =
      Seconds > 0 ? Start + static_cast<uint64_t>(Seconds * 1e9) : UINT64_MAX;
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      // Each client rotates through the whole pool in its own order.
      const std::vector<size_t> Order =
          shuffledOrder(P.Matrices.size(), P.OrderSeed + 101 * C);
      SpanLog *Log = Logs ? (*Logs)[C].get() : nullptr;
      for (uint64_t K = 0; (!Requests || K < Requests) && nowNs() < End; ++K)
        Charged[C] += inprocRequest(Service, P,
                                    Order[(First + K) % Order.size()],
                                    ColdIterationIndex, Log,
                                    (uint64_t(C) << 32) + K + 1, Per[C]);
    });
  for (std::thread &T : Threads)
    T.join();
  Window W;
  for (const Window &Pw : Per)
    W.merge(Pw);
  W.WallS = secondsBetween(Start, nowNs());
  if (ChargedMs) {
    *ChargedMs = 0.0;
    for (double V : Charged)
      *ChargedMs += V;
  }
  return W;
}

void emitStats(Json &J, const std::string &Name, const ServerStats &A,
               const ServerStats &B) {
  J.key(Name).begin();
  J.key("requests").integer(B.Requests - A.Requests);
  J.key("cache_hits").integer(B.CacheHits - A.CacheHits);
  J.key("plans_built").integer(B.PlansBuilt - A.PlansBuilt);
  J.key("plans_reused").integer(B.PlansReused - A.PlansReused);
  J.key("reanalyses").integer(B.Reanalyses - A.Reanalyses);
  J.key("evictions").integer(B.Evictions - A.Evictions);
  J.key("bytes_evicted").integer(B.BytesEvicted - A.BytesEvicted);
  J.key("registrations").integer(B.Registrations - A.Registrations);
  J.key("async_rejected").integer(B.AsyncRejected - A.AsyncRejected);
  J.end();
}

/// Drains the in-process span recorder into a Chrome trace file.
std::string drainProgramSpans(const Options &O, const std::string &Name) {
  const std::string Path = O.Dir + "/" + Name;
  std::ofstream(Path) << SpanRecorder::chromeTraceJson(
      SpanRecorder::instance().drain());
  return Path;
}

/// Serves \p P from \p Service: a warm-up, the measured window (during
/// which \p Setup is repeated to give setup_s) and, when tracing, the
/// traced window.
/// Serves the pool in process. The measured window is cut into ColdRounds
/// rounds; \p BetweenRounds runs after each round but the last, while
/// no client, set-up or RSS sample runs. The peak RSS counts the growth
/// over \p BaselineMb during the rounds.
void serveInproc(const Options &O, Report &R, SeerService &Service,
                 const InprocPool &P, double Seconds, const SeerModels &Models,
                 const SetupSampler::SetupFn &Setup, double BaselineMb,
                 const std::function<void()> &BetweenRounds) {
  Json &J = R.J;
  const uint64_t Cycle = P.Matrices.size();
  double ChargedMs = 0.0;
  Window Warm = inprocWindow(Service, P, 0, Cycle, nullptr, &ChargedMs);
  R.Total.merge(Warm);
  J.key("charged_ms_per_request")
      .num(ChargedMs / static_cast<double>(std::max<uint64_t>(1, Warm.Requests)));

  const double MainS = O.Trace ? Seconds / 2 : Seconds;
  const ServerStats Before = Service.stats();
  Window Main;
  std::vector<double> RoundRps, SetupS, RssMb;
  for (unsigned Round = 0; Round < ColdRounds; ++Round) {
    {
      RssMonitor Rss({getpid()});
      SetupSampler Sampler(Setup);
      const Window One = inprocWindow(Service, P, MainS / ColdRounds, 0,
                                      nullptr, nullptr, roundStart(Round));
      RoundRps.push_back(static_cast<double>(One.Requests) / One.WallS);
      Main.merge(One);
      const std::vector<double> S = Sampler.stop();
      SetupS.insert(SetupS.end(), S.begin(), S.end());
      const std::vector<double> M = Rss.samples();
      RssMb.insert(RssMb.end(), M.begin(), M.end());
    }
    if (Round + 1 < ColdRounds)
      BetweenRounds();
  }
  J.key("setup_s").array(SetupS);
  R.Total.merge(Main);
  emitWindow(J, "window", Main);
  J.key("round_rps").array(RoundRps);
  J.key("peak_rss_mb").num(peakMb(RssMb) - BaselineMb);
  emitStats(J, "stats", Before, Service.stats());
  if (!O.Trace)
    return;

  LayerSamples Layers;
  SpanLog ProbeLog(100, true);
  probeLayers(Models, P.Matrices, ProbeLog, Layers);
  std::vector<std::unique_ptr<SpanLog>> Logs;
  for (unsigned C = 0; C < Clients; ++C)
    Logs.push_back(std::make_unique<SpanLog>(C + 1, true));
  SpanRecorder::instance().arm(1 << 16);
  Window Traced = inprocWindow(Service, P, Seconds / 2, 0, &Logs);
  SpanRecorder::instance().disarm();
  R.Total.merge(Traced);
  emitWindow(J, "traced_window", Traced);
  J.key("program_trace").str(drainProgramSpans(O, "program.trace.json"));
  std::vector<const SpanLog *> All = {&ProbeLog};
  for (const auto &L : Logs)
    All.push_back(L.get());
  writeChromeTrace(O.Dir + "/seerbench.trace.json", All);
  J.key("bench_trace").str(O.Dir + "/seerbench.trace.json");
  J.key("layers").begin();
  for (const auto &[Name, V] : Layers)
    J.key(Name).array(V);
  J.end();
}

void runInprocCold(const Options &O, Report &R) {
  Json &J = R.J;
  std::vector<PipelineRun> Pipes;
  Pipes.reserve(Pipelines); // Pl stays valid while the rest are added
  Pipes.push_back(runPipeline(trainCollection(), nullptr));
  const PipelineRun &Pl = Pipes.front();
  const std::string Models = O.Dir + "/models";
  storeModels(Pl.Models, Models);
  const InprocPool P(buildPool(ColdPoolSize, 8192, 65536, O.Seed * 7919 + 13),
                     Pl.Models, O.Seed);

  // The cache budget: a quarter of the pool's analyzed footprint, sized
  // once by registering the whole pool on an unbounded service and
  // executing each matrix at one iteration, which caches the analyses but
  // few kernel states. The 19-iteration states of the measured requests
  // then compete for a budget they cannot all fit in.
  size_t Footprint = 0;
  {
    SeerService Probe(Pl.Models);
    Window Ignored;
    for (size_t I = 0; I < P.Matrices.size(); ++I)
      inprocRequest(Probe, P, I, 0, nullptr, 0, Ignored);
    Footprint = Probe.stats().BytesCached;
  }
  ServiceConfig Config;
  Config.Server.CacheBudgetBytes = Footprint / ColdBudgetDivisor;
  // One cache shard, so the budget is one pool and not sixteen slices
  // smaller than the largest entry.
  Config.Server.CacheShards = 1;
  J.key("cache_budget_bytes").integer(Config.Server.CacheBudgetBytes);
  J.key("pool_footprint_bytes").integer(Footprint);

  // Set-up: load the bundle and construct the service. It is repeated
  // during the measured window, on services that serve nothing.
  const auto Setup = [&]() -> std::shared_ptr<SeerService> {
    auto Loaded = loadModelBundle(Models, KernelRegistry().names());
    if (!Loaded.ok())
      die(Loaded.status().toString());
    return std::make_shared<SeerService>(std::move(*Loaded), Config);
  };
  const double BaselineMb = readProc(getpid()).RssMb;
  const std::shared_ptr<SeerService> Service = Setup();
  serveInproc(O, R, *Service, P, O.Seconds, Pl.Models, Setup, BaselineMb,
              [&] { Pipes.push_back(runPipelineApart(O, Pipes.size())); });
  emitPipelines(J, R.Total, Pipes, false);
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

Options parseOptions(int Argc, char **Argv) {
  Options O;
  if (Argc < 2)
    die("usage: seerbench wire-hot|inproc-cold --seed N --seconds S "
        "--trace 0|1 --dir RUNDIR --bin BINDIR --out FILE");
  O.Workload = Argv[1];
  for (int I = 2; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--seed")
      O.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--dir")
      O.Dir = Value;
    else if (Flag == "--bin")
      O.Bin = Value;
    else if (Flag == "--out")
      O.Out = Value;
    else
      die("unknown flag " + Flag);
  }
  if (O.Dir.empty() || O.Bin.empty() || O.Out.empty() || O.Seconds <= 0)
    die("--dir, --bin, --out and a positive --seconds are required");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  // `seerbench pipeline --out FILE`: one pipeline run, for
  // runPipelineApart.
  if (Argc == 4 && std::string(Argv[1]) == "pipeline" &&
      std::string(Argv[2]) == "--out") {
    std::ofstream(Argv[3]) << pipelineFigures(
        runPipeline(trainCollection(), nullptr));
    return 0;
  }
  const Options O = parseOptions(Argc, Argv);
  // Stop signals may arrive blocked from the spawning parent; unblock them
  // so a stop always reaps the servers.
  sigset_t Stops;
  sigemptyset(&Stops);
  for (int Sig : {SIGTERM, SIGINT, SIGHUP, SIGPIPE}) {
    std::signal(Sig, onFatalSignal);
    sigaddset(&Stops, Sig);
  }
  sigprocmask(SIG_UNBLOCK, &Stops, nullptr);

  Report R;
  R.J.begin();
  R.J.key("workload").str(O.Workload);
  R.J.key("seed").integer(O.Seed);
  R.J.key("trace").boolean(O.Trace);
  R.J.key("seconds").num(O.Seconds);
  R.J.key("hardware_threads").integer(std::thread::hardware_concurrency());
  R.J.key("compiler").str(__VERSION__);
  if (O.Workload == "wire-hot")
    runWireHot(O, R);
  else if (O.Workload == "inproc-cold")
    runInprocCold(O, R);
  else
    die("unknown workload '" + O.Workload + "'");
  reapAllChildren();

  R.J.key("attempted").integer(R.Total.Attempted);
  R.J.key("succeeded").integer(R.Total.Succeeded);
  R.J.key("failed").integer(R.Total.Failed);
  R.J.key("wrong").integer(R.Total.Wrong);
  R.J.key("errors").array(R.Total.Errors);
  R.J.end();
  std::ofstream(O.Out) << R.J.text() << "\n";
  if (R.Total.Wrong) {
    std::fprintf(stderr, "seerbench: %llu wrong answer(s)\n",
                 static_cast<unsigned long long>(R.Total.Wrong));
    return 1;
  }
  return 0;
}
