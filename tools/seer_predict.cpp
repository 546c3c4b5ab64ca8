//===- tools/seer_predict.cpp - Runtime kernel selection as a CLI ---------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The Fig. 3 inference flow against trained model files:
//
//   seer-predict --models DIR [--iterations N] file.mtx [file.mtx ...]
//
// Loads the .tree bundle written by seer-train into a SeerService
// (serving API v2) and, per input file, opens the matrix in its own
// Session (api/Session.h), serves one handle-based selection (or
// execution with --execute), and lets the Session release the handle.
// The report quotes the *modeled* one-shot costs from the response
// (ModeledCollectionMs / ModeledPreprocessMs), so the numbers
// are the Fig. 3 breakdown even though the service charges registration
// work only once — human-readable by default, one JSON object per matrix
// with --json.
//
//===----------------------------------------------------------------------===//

#include "ToolSupport.h"

#include "api/SeerService.h"
#include "api/Session.h"
#include "core/ModelBundle.h"
#include "support/ThreadPool.h"

#include <filesystem>

using namespace seer;
using namespace seer::tools;

namespace {

constexpr const char *Usage =
    "usage: seer-predict --models DIR [options] file.mtx ...\n"
    "\n"
    "Selects the best SpMV kernel for each Matrix Market file using the\n"
    "models in DIR (written by seer-train) and prints the decision with\n"
    "its cost breakdown.\n"
    "\n"
    "options:\n"
    "  --models DIR       directory with seer_{known,gathered,selector}.tree\n"
    "  --iterations N     expected SpMV iteration count (default 1)\n"
    "  --execute          also run the chosen kernel and report simulated\n"
    "                     timings\n"
    "  --json             one JSON object per matrix on stdout instead of\n"
    "                     the human-readable report\n"
    "  --parallelism N    worker threads across input files: 0 = one per\n"
    "                     hardware thread, 1 = serial (default); feature\n"
    "                     collection for different matrices runs\n"
    "                     concurrently, output order is unchanged\n";

/// Everything printed for one input, computed possibly on a worker.
struct FileResult {
  std::string Name;
  std::string Error; // non-empty on failure
  uint32_t Rows = 0, Cols = 0;
  uint64_t Nnz = 0;
  ServeResponse Response;
  std::string KernelName;
};

/// The modeled one-shot selection overhead of \p R: collection (whether
/// or not the service charged it to this request) plus inference.
double modeledOverheadMs(const ServeResponse &R) {
  return R.ModeledCollectionMs + R.Selection.InferenceMs;
}

/// The modeled one-shot end-to-end cost of \p R at its iteration count.
double modeledTotalMs(const ServeResponse &R) {
  return modeledOverheadMs(R) + R.ModeledPreprocessMs +
         R.Iterations * R.IterationMs;
}

/// Escapes a string for a JSON literal (names come from file paths).
std::string jsonEscape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buffer[8];
      std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", C);
      Out += Buffer;
      continue;
    }
    Out += C;
  }
  return Out;
}

void printHuman(const FileResult &R, uint32_t Iterations) {
  std::printf("%s: %u x %u, %llu nnz, %u iteration%s\n", R.Name.c_str(),
              R.Rows, R.Cols, static_cast<unsigned long long>(R.Nnz),
              Iterations, Iterations == 1 ? "" : "s");
  std::printf("  route:  %s features (selector)\n",
              R.Response.Selection.UsedGatheredModel ? "gathered" : "known");
  std::printf("  kernel: %s\n", R.KernelName.c_str());
  std::printf("  selection overhead: %.4f ms (collection %.4f + "
              "inference %.4f)\n",
              modeledOverheadMs(R.Response), R.Response.ModeledCollectionMs,
              R.Response.Selection.InferenceMs);
  if (R.Response.Executed)
    std::printf("  simulated: preprocess %.4f ms + %u x %.4f ms = %.4f "
                "ms end to end\n",
                R.Response.ModeledPreprocessMs, R.Response.Iterations,
                R.Response.IterationMs, modeledTotalMs(R.Response));
}

void printJson(const FileResult &R, uint32_t Iterations) {
  std::printf("{\"name\": \"%s\", \"rows\": %u, \"cols\": %u, \"nnz\": %llu, "
              "\"iterations\": %u, \"route\": \"%s\", \"kernel\": \"%s\", "
              "\"selection_overhead_ms\": %.6f, \"collection_ms\": %.6f, "
              "\"inference_ms\": %.6f",
              jsonEscape(R.Name).c_str(), R.Rows, R.Cols,
              static_cast<unsigned long long>(R.Nnz), Iterations,
              R.Response.Selection.UsedGatheredModel ? "gathered" : "known",
              jsonEscape(R.KernelName).c_str(), modeledOverheadMs(R.Response),
              R.Response.ModeledCollectionMs, R.Response.Selection.InferenceMs);
  if (R.Response.Executed)
    std::printf(", \"preprocess_ms\": %.6f, \"iteration_ms\": %.6f, "
                "\"total_ms\": %.6f",
                R.Response.ModeledPreprocessMs, R.Response.IterationMs,
                modeledTotalMs(R.Response));
  std::printf("}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSpec Spec;
  Spec.Value = {"models"};
  Spec.Int = {"iterations", "parallelism"};
  Spec.Bool = {"execute", "json"};
  const CommandLine Cmd(Argc, Argv, Usage, Spec);
  if (const auto Early = Cmd.earlyExit())
    return *Early;
  const std::string ModelDir = Cmd.flag("models");
  if (ModelDir.empty() || Cmd.positional().empty())
    Cmd.exitWithUsage(1);
  const uint32_t Iterations =
      static_cast<uint32_t>(Cmd.intFlag("iterations", 1));
  const unsigned Parallelism =
      static_cast<unsigned>(Cmd.intFlag("parallelism", 1));
  const bool Execute = Cmd.boolFlag("execute");
  const bool Json = Cmd.boolFlag("json");

  const KernelRegistry Registry;
  auto Models = loadModelBundle(ModelDir, Registry.names());
  if (!Models)
    fatal(Models.status());
  SeerService Service(std::move(*Models));

  // Files are independent: each worker opens its file in its own
  // Session, serves it, and the Session releases the handle; results print
  // in input order. Repeat files share one cache entry (analysis paid
  // once).
  const std::vector<std::string> &Paths = Cmd.positional();
  std::vector<FileResult> Results(Paths.size());
  parallelFor(Parallelism, Paths.size(), [&](size_t I) {
    FileResult &R = Results[I];
    R.Name = std::filesystem::path(Paths[I]).stem().string();
    Session Client(Service);
    SessionOp Op;
    Op.Type = SessionOp::Kind::Open;
    Op.Matrix = MatrixMarketSource{Paths[I]};
    const auto Opened = Client.apply(std::move(Op));
    if (!Opened) {
      R.Error = Opened.status().toString();
      return;
    }
    R.Rows = Opened->Info.NumRows;
    R.Cols = Opened->Info.NumCols;
    R.Nnz = Opened->Info.Nnz;
    Op = SessionOp();
    Op.Type = Execute ? SessionOp::Kind::Execute : SessionOp::Kind::Select;
    Op.Handle = Opened->Handle;
    Op.Iterations = Iterations;
    const auto Served = Client.apply(std::move(Op));
    if (!Served) {
      R.Error = Served.status().toString();
      return;
    }
    R.Response = Served->Response;
    R.KernelName =
        Service.registry().kernel(R.Response.Selection.KernelIndex).name();
  });

  for (const FileResult &R : Results) {
    if (!R.Error.empty())
      fatal(R.Error);
    if (Json)
      printJson(R, Iterations);
    else
      printHuman(R, Iterations);
  }
  return 0;
}
