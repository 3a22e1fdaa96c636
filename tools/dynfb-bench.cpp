//===- tools/dynfb-bench.cpp - Experiment orchestration driver ------------===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// The driver over the src/exp experiment registry:
//
//   dynfb-bench list [--suite S] [--backend sim|native]
//       Lists the registered experiments, their grid sizes and which
//       backends each grid supports; --backend native filters to the
//       native-capable experiments.
//
//   dynfb-bench run [--suite S] [--exp NAME] [--backend sim|native]
//                   [--scale F] [--procs N]
//                   [--seed S] [--chunks K1,K2] [--jobs N] [--timeout SEC]
//                   [--retries N] [--cache DIR] [--no-cache] [--out FILE]
//       Expands the selected experiments' grids and runs the jobs across a
//       pool of crash-isolated worker processes, serving unchanged jobs
//       from the content-addressed result cache, then writes the
//       schema-versioned machine-readable summary (BENCH_results.json).
//       --scale multiplies each experiment's natural scale (0.25 = a
//       quarter-size sweep); exits nonzero when any job fails. --backend
//       native runs the grids on real host threads: sim-only experiments
//       are skipped (or rejected under an explicit --exp), and native jobs
//       get wall-clock timeouts derived from their workload scale instead
//       of the sim-tuned --timeout. A run selecting a single --exp also
//       renders that experiment's report and folds its gate into the exit
//       code.
//
//   dynfb-bench diff --baseline FILE --candidate FILE [--rel-tol F]
//                    [--abs-tol F] [--tol SUFFIX=F] [--allow-missing]
//       Noise-aware regression gate between two run summaries; exits
//       nonzero when any metric regresses beyond tolerance.
//
//===----------------------------------------------------------------------===//

#include "exp/Cache.h"
#include "exp/Diff.h"
#include "exp/Result.h"
#include "obs/Export.h"
#include "rt/MachineModel.h"
#include "support/BuildInfo.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

using namespace dynfb;
using namespace dynfb::exp;

namespace {

int usage(FILE *To) {
  std::fprintf(
      To,
      "usage: dynfb-bench <command> [options]\n"
      "\n"
      "commands:\n"
      "  list  [--suite S] [--backend sim|native]\n"
      "                            list registered experiments and grids\n"
      "  run   [--suite S] [--exp NAME] [--backend sim|native] [--scale F]\n"
      "        [--procs N] [--seed S]\n"
      "        [--chunks K1,K2] [--machine NAME] [--jobs N] [--timeout SEC]\n"
      "        [--retries N] [--cache DIR] [--no-cache] [--out FILE]\n"
      "                            run experiment grids in parallel\n"
      "  diff  --baseline FILE --candidate FILE [--rel-tol F] [--abs-tol F]\n"
      "        [--tol SUFFIX=F] [--allow-missing]\n"
      "                            gate a run against a baseline\n"
      "  --version                 print build hash and schema versions\n");
  return To == stdout ? 0 : 2;
}

void printVersion() {
  std::printf("dynfb-bench %s (result schema %lld, trace schema %lld)\n",
              buildHash(), static_cast<long long>(ResultSchemaVersion),
              static_cast<long long>(obs::TraceSchemaVersion));
}

//===----------------------------------------------------------------------===//
// list
//===----------------------------------------------------------------------===//

/// The distinct values of one grid axis across an experiment's probe jobs.
size_t axisArity(const std::vector<JobConfig> &Jobs,
                 const std::function<std::string(const JobConfig &)> &Axis) {
  std::set<std::string> Values;
  for (const JobConfig &C : Jobs)
    Values.insert(Axis(C));
  return Values.size();
}

/// "apps x versions x procs x scales x seeds x machines" of one
/// experiment's expanded grid. A "version" is the executable identity: the
/// flavour plus whichever of policy/version/variant the experiment uses to
/// distinguish executables.
std::string gridSummary(const std::vector<JobConfig> &Jobs) {
  return format(
      "%zux%zux%zux%zux%zux%zu",
      axisArity(Jobs, [](const JobConfig &C) { return C.getString("app"); }),
      axisArity(Jobs,
                [](const JobConfig &C) {
                  return C.getString("flavour") + "/" +
                         C.getString("policy") + "/" +
                         C.getString("version") + "/" +
                         C.getString("variant");
                }),
      axisArity(Jobs,
                [](const JobConfig &C) { return C.getString("procs"); }),
      axisArity(Jobs,
                [](const JobConfig &C) { return C.getString("scale"); }),
      axisArity(Jobs,
                [](const JobConfig &C) { return C.getString("seed"); }),
      axisArity(Jobs, [](const JobConfig &C) {
        return C.getString("machine", "dash-flat");
      }));
}

/// Validates a --backend value; "" and "sim" mean the simulator. Returns
/// false (after a one-line diagnostic) on anything else.
bool validateBackendFlag(const std::string &Backend) {
  if (Backend.empty() || Backend == "sim" || Backend == "native")
    return true;
  std::fprintf(stderr,
               "dynfb-bench: unknown backend '%s' (known: sim, native)\n",
               Backend.c_str());
  return false;
}

int cmdList(CommandLine &CL) {
  const std::string Suite = CL.getString("suite", "all");
  const std::string Backend = CL.getString("backend", "");
  if (!rejectUnknownFlags(CL, "dynfb-bench list", {"suite", "backend"},
                          "'dynfb-bench' (no arguments)"))
    return 2;
  if (!validateBackendFlag(Backend))
    return 2;
  const bool NativeOnly = Backend == "native";

  std::vector<const Experiment *> Selected = registry().suite(Suite);
  if (NativeOnly) {
    std::erase_if(Selected, [](const Experiment *E) {
      return !E->SupportsNativeBackend;
    });
  }
  if (Selected.empty()) {
    std::fprintf(stderr, "dynfb-bench: no experiments in suite '%s'%s\n",
                 Suite.c_str(),
                 NativeOnly ? " supporting the native backend" : "");
    return 2;
  }
  Table T(NativeOnly ? "Registered experiments (native-capable)"
                     : "Registered experiments");
  T.setHeader({"Name", "Suite", "Backends", "Jobs", "Grid", "Description"});
  for (const Experiment *E : Selected) {
    RunOptions Probe;
    Probe.Scale = E->DefaultScale;
    const std::vector<JobConfig> Jobs = E->MakeJobs(Probe);
    T.addRow({E->Name, E->Suite,
              E->SupportsNativeBackend ? "sim+native" : "sim",
              format("%zu", Jobs.size()), gridSummary(Jobs),
              E->Description});
  }
  std::fputs(T.renderText().c_str(), stdout);
  std::printf("grid = apps x versions x procs x scales x seeds x machines\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// run
//===----------------------------------------------------------------------===//

struct PlannedJob {
  const Experiment *Exp = nullptr;
  JobConfig Config;
  CacheKey Key;
  std::optional<JobResult> Cached;
};

int cmdRun(CommandLine &CL) {
  registerBuiltinExperiments();

  const std::string Suite = CL.getString("suite", "all");
  const std::string OnlyExp = CL.getString("exp", "");
  const double ScaleFactor = CL.getDouble("scale", 1.0);
  const unsigned Procs = static_cast<unsigned>(CL.getInt("procs", 0));
  const uint64_t Seed = static_cast<uint64_t>(CL.getInt("seed", 0));
  const std::string Chunks = CL.getString("chunks", "");
  const std::string Machine = CL.getString("machine", "");
  const std::string Backend = CL.getString("backend", "");
  const std::string OutPath = CL.getString("out", "BENCH_results.json");
  const bool NoCache = CL.getBool("no-cache", false);
  const std::string CacheDir =
      CL.getString("cache", ".dynfb-bench-cache");

  SchedulerOptions Sched;
  Sched.Workers = static_cast<unsigned>(CL.getInt("jobs", 0));
  Sched.TimeoutSeconds = CL.getDouble("timeout", 300.0);
  Sched.Retries = static_cast<unsigned>(CL.getInt("retries", 1));

  if (!rejectUnknownFlags(CL, "dynfb-bench run",
                          {"suite", "exp", "scale", "procs", "seed", "chunks",
                           "machine", "backend", "jobs", "timeout", "retries",
                           "cache", "no-cache", "out"},
                          "'dynfb-bench' (no arguments)"))
    return 2;
  if (!validateBackendFlag(Backend))
    return 2;
  const bool Native = Backend == "native";
  if (Native && !Machine.empty())
    std::fprintf(stderr,
                 "dynfb-bench: note: the native backend runs on real "
                 "hardware and ignores MachineModel pricing; --machine %s "
                 "has no effect on native jobs\n",
                 Machine.c_str());
  if (!Machine.empty() && !rt::createMachineModel(Machine)) {
    std::fprintf(stderr, "dynfb-bench: %s\n",
                 unknownName("machine model", Machine,
                             rt::machineModelNames(), "known")
                     .c_str());
    return 2;
  }

  std::vector<const Experiment *> Selected;
  if (!OnlyExp.empty()) {
    const Experiment *E = registry().find(OnlyExp);
    if (!E) {
      std::vector<std::string> Names;
      for (const Experiment &Reg : registry().all())
        Names.push_back(Reg.Name);
      std::fprintf(stderr, "dynfb-bench: %s\n",
                   unknownName("experiment", OnlyExp, Names).c_str());
      return 2;
    }
    if (Native && !E->SupportsNativeBackend) {
      std::fprintf(stderr,
                   "dynfb-bench: experiment '%s' is sim-only (its grid "
                   "sweeps simulator-priced dimensions); drop --backend "
                   "native or pick a native-capable experiment "
                   "(dynfb-bench list --backend native)\n",
                   OnlyExp.c_str());
      return 2;
    }
    Selected.push_back(E);
  } else {
    Selected = registry().suite(Suite);
    if (Native) {
      for (const Experiment *E : Selected)
        if (!E->SupportsNativeBackend)
          std::fprintf(stderr,
                       "dynfb-bench: skipping sim-only experiment '%s' "
                       "under --backend native\n",
                       E->Name.c_str());
      std::erase_if(Selected, [](const Experiment *E) {
        return !E->SupportsNativeBackend;
      });
    }
    if (Selected.empty()) {
      std::fprintf(stderr, "dynfb-bench: no experiments in suite '%s'%s\n",
                   Suite.c_str(),
                   Native ? " supporting the native backend" : "");
      return 2;
    }
  }

  // Expand every selected grid, then resolve cache hits up front so only
  // the misses occupy worker processes.
  const ResultCache Cache(CacheDir);
  std::vector<PlannedJob> Plan;
  std::vector<RunOptions> ExpOptions(Selected.size());
  for (size_t I = 0; I < Selected.size(); ++I) {
    const Experiment *E = Selected[I];
    RunOptions &Opts = ExpOptions[I];
    Opts.Scale = E->DefaultScale * ScaleFactor;
    Opts.Procs = Procs;
    Opts.Seed = Seed;
    Opts.Chunks = Chunks;
    Opts.Machine = Machine;
    Opts.Backend = Backend == "sim" ? "" : Backend;
    for (JobConfig &Config : E->MakeJobs(Opts)) {
      PlannedJob P;
      P.Exp = E;
      P.Key = makeCacheKey(*E, Config, buildHash());
      if (!NoCache)
        P.Cached = Cache.load(P.Key);
      P.Config = std::move(Config);
      Plan.push_back(std::move(P));
    }
  }

  std::vector<size_t> Misses;
  for (size_t I = 0; I < Plan.size(); ++I)
    if (!Plan[I].Cached)
      Misses.push_back(I);
  std::fprintf(stderr,
               "dynfb-bench: %zu jobs (%zu cached, %zu to run) across %zu "
               "experiments\n",
               Plan.size(), Plan.size() - Misses.size(), Misses.size(),
               Selected.size());

  // Native jobs run in real wall clock, so their budget scales with the
  // workload instead of inheriting the sim-tuned --timeout (a sim job's
  // wall clock is near-constant in the virtual workload size; a native
  // job's is proportional to it).
  const auto JobIsNative = [&](size_t Job) {
    return Plan[Misses[Job]].Config.getString("backend", "sim") == "native";
  };
  Sched.TimeoutForJob = [&, JobIsNative](size_t Job) -> double {
    if (!JobIsNative(Job))
      return 0; // Keep the invocation-wide --timeout.
    const double Scale = Plan[Misses[Job]].Config.getDouble("scale", 1.0);
    return std::max(30.0, 240.0 * Scale);
  };
  Sched.JobTag = [&, JobIsNative](size_t Job) {
    return JobIsNative(Job) ? std::string("native backend") : std::string();
  };

  size_t Settled = 0;
  Sched.OnSettled = [&](size_t Job, const JobOutcome &Outcome) {
    const PlannedJob &P = Plan[Misses[Job]];
    std::fprintf(stderr, "  [%zu/%zu] %s [%s] %s (%s%s)\n", ++Settled,
                 Misses.size(), P.Exp->Name.c_str(), P.Config.label().c_str(),
                 jobStatusName(Outcome.Status),
                 formatSeconds(Outcome.WallSeconds).c_str(),
                 Outcome.Attempts > 1
                     ? format(", %u attempts", Outcome.Attempts).c_str()
                     : "");
  };

  const auto Start = std::chrono::steady_clock::now();
  const std::vector<JobOutcome> RunOutcomes = runJobs(
      Misses.size(),
      [&](size_t Job, unsigned) {
        const PlannedJob &P = Plan[Misses[Job]];
        return P.Exp->RunJob(P.Config);
      },
      Sched);
  const double WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  // Assemble the result file in plan (deterministic) order and refill the
  // cache with the fresh successes.
  ResultFile Out;
  Out.Build = buildHash();
  Out.Suite = OnlyExp.empty() ? Suite : OnlyExp;
  Out.ScaleFactor = ScaleFactor;
  Out.Seed = Seed;
  Out.Machine = Machine.empty() ? "dash-flat" : Machine;
  Out.Backend = Backend.empty() ? "sim" : Backend;
  size_t NextMiss = 0;
  for (const PlannedJob &P : Plan) {
    JobRecord Record;
    Record.Experiment = P.Exp->Name;
    Record.Config = P.Config;
    if (P.Cached) {
      Record.Status = JobStatus::Ok;
      Record.FromCache = true;
      Record.Result = *P.Cached;
    } else {
      const JobOutcome &Outcome = RunOutcomes[NextMiss++];
      Record.Status = Outcome.Status;
      Record.Attempts = Outcome.Attempts;
      Record.WallSeconds = Outcome.WallSeconds;
      Record.Result = Outcome.Result;
      if (Outcome.ok() && !NoCache) {
        std::string Error;
        if (!Cache.store(P.Key, *P.Exp, P.Config, buildHash(),
                         Outcome.Result, Error))
          std::fprintf(stderr, "dynfb-bench: cache store failed: %s\n",
                       Error.c_str());
      }
    }
    Out.Jobs.push_back(std::move(Record));
  }

  std::ofstream Stream(OutPath);
  if (!Stream) {
    std::fprintf(stderr, "dynfb-bench: cannot write '%s'\n", OutPath.c_str());
    return 2;
  }
  Stream << toJson(Out);
  Stream.close();

  const size_t Failed = Out.failedJobs();
  std::printf("dynfb-bench: %zu jobs, %zu from cache, %zu failed; %s wall; "
              "results in %s\n",
              Out.Jobs.size(), Out.cachedJobs(), Failed,
              formatSeconds(WallSeconds).c_str(), OutPath.c_str());
  if (Failed != 0) {
    for (const JobRecord &Record : Out.Jobs)
      if (Record.Status != JobStatus::Ok)
        std::printf("  FAILED %s [%s]: %s %s\n", Record.Experiment.c_str(),
                    Record.Config.label().c_str(),
                    jobStatusName(Record.Status),
                    Record.Result.Error.c_str());
    return 1;
  }

  // A single-experiment run also renders that experiment's report -- and
  // folds its gate (the render exit code) into ours, so e.g.
  // `dynfb-bench run --exp backend_concordance` both measures and judges.
  if (!OnlyExp.empty() && Selected.size() == 1 && Selected[0]->Render) {
    std::vector<JobResult> Grid;
    Grid.reserve(Out.Jobs.size());
    for (const JobRecord &Record : Out.Jobs)
      Grid.push_back(Record.Result);
    std::printf("\n");
    return Selected[0]->Render(ExpOptions[0], Grid);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// diff
//===----------------------------------------------------------------------===//

std::optional<ResultFile> loadResultFile(const std::string &Path) {
  std::ifstream Stream(Path);
  if (!Stream) {
    std::fprintf(stderr, "dynfb-bench: cannot read '%s'\n", Path.c_str());
    return std::nullopt;
  }
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  std::string Error;
  std::optional<ResultFile> File = parseResultFile(Buffer.str(), Error);
  if (!File)
    std::fprintf(stderr, "dynfb-bench: %s: %s\n", Path.c_str(),
                 Error.c_str());
  return File;
}

int cmdDiff(CommandLine &CL) {
  const std::string BasePath = CL.getString("baseline", "");
  std::string CandPath = CL.getString("candidate", "");
  if (CandPath.empty() && CL.positional().size() == 2)
    CandPath = CL.positional()[1];

  DiffOptions Opts;
  Opts.RelTol = CL.getDouble("rel-tol", 0.05);
  Opts.AbsTol = CL.getDouble("abs-tol", 1e-9);
  Opts.FailOnMissing = !CL.getBool("allow-missing", false);
  for (const std::string &Spec :
       splitString(CL.getString("tol", ""), ',')) {
    if (Spec.empty())
      continue;
    const size_t Eq = Spec.find('=');
    if (Eq == std::string::npos) {
      std::fprintf(stderr,
                   "dynfb-bench: --tol wants SUFFIX=REL[,SUFFIX=REL], got "
                   "'%s'\n",
                   Spec.c_str());
      return 2;
    }
    Opts.SuffixRelTol.emplace_back(Spec.substr(0, Eq),
                                   std::strtod(Spec.c_str() + Eq + 1,
                                               nullptr));
  }
  if (!rejectUnknownFlags(CL, "dynfb-bench diff",
                          {"baseline", "candidate", "rel-tol", "abs-tol",
                           "tol", "allow-missing"},
                          "'dynfb-bench' (no arguments)"))
    return 2;
  if (BasePath.empty() || CandPath.empty()) {
    std::fprintf(stderr,
                 "dynfb-bench diff: --baseline FILE and --candidate FILE "
                 "are required\n");
    return 2;
  }

  const std::optional<ResultFile> Base = loadResultFile(BasePath);
  const std::optional<ResultFile> Cand = loadResultFile(CandPath);
  if (!Base || !Cand)
    return 2;
  if (Base->Build != Cand->Build)
    std::printf("note: baseline build %s vs candidate build %s\n",
                Base->Build.c_str(), Cand->Build.c_str());

  const DiffReport Report = diffResults(*Base, *Cand, Opts);
  std::fputs(Report.renderText(Opts).c_str(), stdout);
  return Report.ok(Opts) ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  registerBuiltinExperiments();

  if (CL.has("version")) {
    printVersion();
    return 0;
  }
  if (CL.has("help"))
    return usage(stdout);
  if (CL.positional().empty()) {
    usage(stderr);
    return 2;
  }
  const std::string Command = CL.positional()[0];
  if (Command == "list")
    return cmdList(CL);
  if (Command == "run")
    return cmdRun(CL);
  if (Command == "diff")
    return cmdDiff(CL);
  std::fprintf(stderr, "dynfb-bench: unknown command '%s'\n",
               Command.c_str());
  usage(stderr);
  return 2;
}
