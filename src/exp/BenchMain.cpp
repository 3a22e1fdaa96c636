//===- exp/BenchMain.cpp --------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "exp/BenchMain.h"

#include "exp/Experiment.h"
#include "rt/MachineModel.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace dynfb;
using namespace dynfb::exp;

int exp::runBenchMain(const std::string &ExperimentName, int Argc,
                      char **Argv) {
  registerBuiltinExperiments();
  const Experiment *E = registry().find(ExperimentName);
  if (!E) {
    std::fprintf(stderr, "bench: experiment '%s' is not registered\n",
                 ExperimentName.c_str());
    return 2;
  }

  CommandLine CL(Argc, Argv);
  RunOptions Opts;
  Opts.Scale = CL.getDouble("scale", E->DefaultScale);
  Opts.Procs = static_cast<unsigned>(CL.getInt("procs", 0));
  Opts.Seed = static_cast<uint64_t>(CL.getInt("seed", 0));
  Opts.Chunks = CL.getString("chunks", "");
  Opts.Machine = CL.getString("machine", "");
  const std::string Backend = CL.getString("backend", "");
  Opts.Backend = Backend == "sim" ? "" : Backend;
  if (!rejectUnknownFlags(CL, ExperimentName,
                          {"scale", "procs", "seed", "chunks", "machine",
                           "backend"},
                          "--scale F [--procs N] [--seed S] [--chunks K1,K2] "
                          "[--machine NAME] [--backend sim|native]"))
    return 2;
  if (!Backend.empty() && Backend != "sim" && Backend != "native") {
    std::fprintf(stderr, "%s: unknown backend '%s' (known: sim, native)\n",
                 ExperimentName.c_str(), Backend.c_str());
    return 2;
  }
  if (Opts.wantsNativeBackend() && !E->SupportsNativeBackend) {
    std::fprintf(stderr,
                 "%s: this experiment is sim-only (its grid sweeps "
                 "simulator-priced dimensions); drop --backend native\n",
                 ExperimentName.c_str());
    return 2;
  }
  if (Opts.wantsNativeBackend() && !Opts.Machine.empty())
    std::fprintf(stderr,
                 "%s: note: the native backend runs on real hardware and "
                 "ignores MachineModel pricing; --machine %s has no effect "
                 "on native jobs\n",
                 ExperimentName.c_str(), Opts.Machine.c_str());
  if (!Opts.Machine.empty() && !rt::createMachineModel(Opts.Machine)) {
    std::fprintf(stderr, "%s: %s\n", ExperimentName.c_str(),
                 unknownName("machine model", Opts.Machine,
                             rt::machineModelNames(), "known")
                     .c_str());
    return 2;
  }

  const std::vector<JobConfig> Jobs = E->MakeJobs(Opts);
  std::vector<JobResult> Results;
  Results.reserve(Jobs.size());
  for (const JobConfig &Job : Jobs) {
    JobResult R = E->RunJob(Job);
    if (!R.Ok) {
      std::fprintf(stderr, "%s: job [%s] failed: %s\n",
                   ExperimentName.c_str(), Job.label().c_str(),
                   R.Error.c_str());
      return 1;
    }
    Results.push_back(std::move(R));
  }
  return E->Render(Opts, Results);
}
