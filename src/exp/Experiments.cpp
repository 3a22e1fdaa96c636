//===- exp/Experiments.cpp - Built-in experiment registrations ------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// The registered experiments: the paper's Barnes-Hut and Water
// execution-time and locking tables (Tables 2/3/7/8 with Figures 4/6), the
// version-space product sweep and the perturbation-adaptivity sweep. Each
// registration splits the old bench binary in two: MakeJobs/RunJob expand
// the parameter grid into independent, cacheable simulator runs, and
// Render reproduces the binary's human-readable output -- byte for byte --
// from the grid's results. The thin bench mains (bench/bench_table2_... et
// al.) and the dynfb-bench driver both work off these definitions.
//
//===----------------------------------------------------------------------===//

#include "exp/Experiment.h"
#include "exp/PaperGrids.h"

#include "apps/barnes_hut/BarnesHutApp.h"
#include "apps/kvserve/KvServeApp.h"
#include "apps/string_tomo/StringApp.h"
#include "apps/water/WaterApp.h"
#include "fb/Sampling.h"
#include "perturb/Engine.h"
#include "perturb/Traffic.h"
#include "replay/Explorer.h"
#include "rt/MachineModel.h"
#include "sim/Throughput.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

using namespace dynfb;
using namespace dynfb::apps;
using namespace dynfb::exp;
using namespace dynfb::xform;

namespace {

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

std::optional<PolicyKind> parsePolicyName(const std::string &Name) {
  for (PolicyKind P : AllPolicies)
    if (Name == policyName(P))
      return P;
  return std::nullopt;
}

JobResult jobError(const std::string &Msg) {
  JobResult R;
  R.Ok = false;
  R.Error = Msg;
  return R;
}

void printTable(const Table &T) {
  std::fputs(T.renderText().c_str(), stdout);
  std::fputs("\n", stdout);
}

/// Default virtual-to-real compute scale of native-backend jobs. Much
/// larger than dynfb-run's interactive 0.0005 default on purpose: a real
/// acquire/release pair costs ~300-400 ns on a contended cache line
/// (including the acquire path's two clock reads) where the simulator
/// prices ~4.5 virtual us, so at 0.08 a virtual nanosecond of compute and
/// a lock operation shrink by roughly the same factor and the native
/// compute-to-locking ratio tracks the simulated one -- the property the
/// backend_concordance gate measures. Smaller values make native runs
/// lock-dominated and invert policy orderings the simulator prices by
/// serialization instead.
constexpr double NativeJobTimeScale = 0.08;

/// Wall-clock repeats per native job; the reported metric is the median
/// (real time is noisy where virtual time is exact).
constexpr unsigned NativeJobRepeats = 3;

/// Base config every job carries: the identity axes of the grid, including
/// the machine model and its full parameter set (satellite of the machine
/// refactor: results on different machines -- or the same machine with
/// tweaked parameters -- never collide in the cache or a result file).
/// Native-backend jobs additionally carry the backend and its timescale --
/// and pin the machine to dash-flat, because a real thread team ignores
/// MachineModel pricing and a native result must never claim a machine it
/// did not price. Sim configs carry no backend key, so their cache keys and
/// the checked-in baselines are byte-identical to schema v2.
JobConfig baseConfig(const std::string &App, const RunOptions &Opts) {
  JobConfig C;
  C.set("app", App);
  C.setDouble("scale", Opts.Scale);
  C.setInt("seed", static_cast<int64_t>(Opts.Seed));
  const bool Native = Opts.wantsNativeBackend();
  const std::string Machine =
      Native || Opts.Machine.empty() ? "dash-flat" : Opts.Machine;
  C.set("machine", Machine);
  if (const std::unique_ptr<rt::MachineModel> M =
          rt::createMachineModel(Machine))
    C.set("machine_params", M->paramsString());
  // Unknown machine names reach RunJob and fail there, with a diagnostic.
  if (Native) {
    C.set("backend", "native");
    C.setDouble("timescale", NativeJobTimeScale);
  }
  return C;
}

bool configIsNative(const JobConfig &Config) {
  return Config.getString("backend", "sim") == "native";
}

/// Feedback budgets for native runs: real milliseconds, not the
/// simulator's virtual-seconds defaults (a native section executes in
/// milliseconds of wall clock; the sim default's 100 virtual seconds of
/// production would never resample). Sampling spans section executions
/// for the same reason the version-space experiment's does: native
/// occurrences last tens of milliseconds, and re-sampling every one would
/// drown the production phases the paper's guarantee relies on.
fb::FeedbackConfig nativeFeedbackConfig() {
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = rt::millisToNanos(1);
  Config.TargetProductionNanos = rt::millisToNanos(50);
  Config.SpanSectionExecutions = true;
  return Config;
}

/// One native-backend execution of \p Spec; wall-clock seconds.
fb::RunResult runNativeOnce(const App &TheApp, unsigned Procs,
                            const VersionSpec &Spec,
                            const rt::MachineModel &Model,
                            double TimeScale) {
  return runApp(TheApp, Procs, Spec, Model, nativeFeedbackConfig(), nullptr,
                nullptr, nullptr, BackendOptions::native(TimeScale));
}

/// Median wall-clock seconds of NativeJobRepeats native runs of \p Spec.
double nativeMedianSeconds(const App &TheApp, unsigned Procs,
                           const VersionSpec &Spec,
                           const rt::MachineModel &Model, double TimeScale) {
  std::vector<double> Samples;
  for (unsigned R = 0; R < NativeJobRepeats; ++R)
    Samples.push_back(rt::nanosToSeconds(
        runNativeOnce(TheApp, Procs, Spec, Model, TimeScale).TotalNanos));
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

/// Builds the machine model a job config names, with its stamped parameter
/// set applied (the round trip that makes parameter overrides cacheable).
std::unique_ptr<rt::MachineModel> machineFromConfig(const JobConfig &Config,
                                                    std::string &Error) {
  const std::string Name = Config.getString("machine", "dash-flat");
  std::unique_ptr<rt::MachineModel> M = rt::createMachineModel(Name);
  if (!M) {
    Error = "unknown machine model '" + Name + "'";
    return nullptr;
  }
  const std::string Params = Config.getString("machine_params");
  if (!Params.empty() && !rt::applyCostOverrides(*M, Params, Error))
    return nullptr;
  return M;
}

//===----------------------------------------------------------------------===//
// Tables 2/7 with Figures 4/6: the execution-time grids
//===----------------------------------------------------------------------===//

/// Grid: serial at one processor, each static policy and Dynamic at the
/// paper's processor counts. One job per cell.
std::vector<JobConfig> makeTimingGridJobs(const std::string &App,
                                          const RunOptions &Opts) {
  std::vector<JobConfig> Jobs;
  {
    JobConfig C = baseConfig(App, Opts);
    C.set("flavour", "serial");
    C.setInt("procs", 1);
    Jobs.push_back(std::move(C));
  }
  for (PolicyKind P : AllPolicies)
    for (unsigned N : PaperProcCounts) {
      JobConfig C = baseConfig(App, Opts);
      C.set("flavour", "fixed");
      C.set("policy", policyName(P));
      C.setInt("procs", N);
      Jobs.push_back(std::move(C));
    }
  for (unsigned N : PaperProcCounts) {
    JobConfig C = baseConfig(App, Opts);
    C.set("flavour", "dynamic");
    C.setInt("procs", N);
    Jobs.push_back(std::move(C));
  }
  return Jobs;
}

std::unique_ptr<App> makeGridApp(const JobConfig &Config) {
  const double Scale = Config.getDouble("scale", 1.0);
  if (Config.getString("app") == "barnes_hut") {
    bh::BarnesHutConfig C;
    C.scale(Scale);
    return std::make_unique<bh::BarnesHutApp>(C);
  }
  if (Config.getString("app") == "water") {
    water::WaterConfig C;
    C.scale(Scale);
    return std::make_unique<water::WaterApp>(C);
  }
  if (Config.getString("app") == "string") {
    string_tomo::StringConfig C;
    C.scale(Scale);
    return std::make_unique<string_tomo::StringApp>(C);
  }
  if (Config.getString("app") == "kvserve") {
    kvserve::KvServeConfig C;
    C.scale(Scale);
    return std::make_unique<kvserve::KvServeApp>(C);
  }
  return nullptr;
}

JobResult runTimingGridJob(const JobConfig &Config) {
  const std::unique_ptr<App> TheApp = makeGridApp(Config);
  if (!TheApp)
    return jobError("unknown app '" + Config.getString("app") + "'");
  const unsigned Procs = static_cast<unsigned>(Config.getInt("procs", 1));
  const std::string Flavour = Config.getString("flavour");
  VersionSpec Spec;
  if (Flavour == "serial")
    Spec = VersionSpec::serial();
  else if (Flavour == "dynamic")
    Spec = VersionSpec::dynamicFeedback();
  else if (Flavour == "fixed") {
    const std::optional<PolicyKind> P =
        parsePolicyName(Config.getString("policy"));
    if (!P)
      return jobError("unknown policy '" + Config.getString("policy") + "'");
    Spec = VersionSpec::fixed(*P);
  } else
    return jobError("unknown flavour '" + Flavour + "'");

  std::string Error;
  const std::unique_ptr<rt::MachineModel> Model =
      machineFromConfig(Config, Error);
  if (!Model)
    return jobError(Error);

  JobResult R;
  R.add("seconds",
        configIsNative(Config)
            ? nativeMedianSeconds(
                  *TheApp, Procs, Spec, *Model,
                  Config.getDouble("timescale", NativeJobTimeScale))
            : runAppSeconds(*TheApp, Procs, Spec, *Model));
  return R;
}

/// Reassembles the TimingGrid from the grid's results (same order as
/// makeTimingGridJobs).
TimingGrid gridFromResults(const std::vector<JobResult> &Results) {
  TimingGrid Grid;
  size_t I = 0;
  Grid.SerialSeconds = Results[I++].metric("seconds");
  for (PolicyKind P : AllPolicies) {
    std::map<unsigned, double> Row;
    for (unsigned N : PaperProcCounts)
      Row[N] = Results[I++].metric("seconds");
    Grid.Rows.emplace_back(policyName(P), std::move(Row));
  }
  std::map<unsigned, double> Dyn;
  for (unsigned N : PaperProcCounts)
    Dyn[N] = Results[I++].metric("seconds");
  Grid.Rows.emplace_back("Dynamic", std::move(Dyn));
  return Grid;
}

Experiment makeTable2BarnesHut() {
  Experiment E;
  E.Name = "table2_fig4_barnes_hut";
  E.Suite = "paper";
  E.Description =
      "Table 2 execution times + Figure 4 speedups for Barnes-Hut";
  E.MetricNames = {"seconds"};
  E.SupportsNativeBackend = true;
  E.MakeJobs = [](const RunOptions &Opts) {
    return makeTimingGridJobs("barnes_hut", Opts);
  };
  E.RunJob = runTimingGridJob;
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    bh::BarnesHutConfig Config;
    Config.scale(Opts.Scale);
    std::printf("== Barnes-Hut: %u bodies ==\n", Config.NumBodies);
    bh::BarnesHutApp App(Config);
    std::printf("(workload: %llu interactions per FORCES execution)\n\n",
                static_cast<unsigned long long>(App.totalInteractions()));

    const TimingGrid Grid = gridFromResults(Results);
    printTable(timesTable("Table 2: Execution Times for Barnes-Hut (seconds)",
                          Grid, PaperProcCounts));
    printTable(speedupTable("Figure 4: Speedups for Barnes-Hut", Grid,
                            PaperProcCounts));
    std::printf("CSV [fig4_speedups]:\n%s\n",
                speedupCsv(Grid, PaperProcCounts).c_str());
    return 0;
  };
  return E;
}

Experiment makeTable7Water() {
  Experiment E;
  E.Name = "table7_fig6_water";
  E.Suite = "paper";
  E.Description = "Table 7 execution times + Figure 6 speedups for Water";
  E.MetricNames = {"seconds"};
  E.SupportsNativeBackend = true;
  E.MakeJobs = [](const RunOptions &Opts) {
    return makeTimingGridJobs("water", Opts);
  };
  E.RunJob = runTimingGridJob;
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    water::WaterConfig Config;
    Config.scale(Opts.Scale);
    std::printf("== Water: %u molecules, %u timesteps ==\n\n",
                Config.NumMolecules, Config.Timesteps);

    const TimingGrid Grid = gridFromResults(Results);
    printTable(timesTable("Table 7: Execution Times for Water (seconds)",
                          Grid, PaperProcCounts));
    printTable(
        speedupTable("Figure 6: Speedups for Water", Grid, PaperProcCounts));
    std::printf("CSV [fig6_speedups]:\n%s\n",
                speedupCsv(Grid, PaperProcCounts).c_str());
    std::printf("Paper reference (seconds): Serial 165.8; Original 184.4 -> "
                "19.87; Bounded 175.8 -> 19.5; Aggressive 165.3 -> 73.54 "
                "(fails to scale); Dynamic 165.4 -> 20.54.\n");
    return 0;
  };
  return E;
}

//===----------------------------------------------------------------------===//
// Tables 3/8: the locking-overhead tables
//===----------------------------------------------------------------------===//

/// One job per table row: (flavour/policy, procs), metrics pairs +
/// lock_seconds.
JobConfig lockingJob(const std::string &App, const RunOptions &Opts,
                     const std::string &Flavour, const std::string &Policy,
                     unsigned Procs) {
  JobConfig C = baseConfig(App, Opts);
  C.set("flavour", Flavour);
  if (!Policy.empty())
    C.set("policy", Policy);
  C.setInt("procs", Procs);
  return C;
}

JobResult runLockingJob(const JobConfig &Config) {
  const std::unique_ptr<App> TheApp = makeGridApp(Config);
  if (!TheApp)
    return jobError("unknown app '" + Config.getString("app") + "'");
  const unsigned Procs = static_cast<unsigned>(Config.getInt("procs", 8));
  std::string Error;
  const std::unique_ptr<rt::MachineModel> Model =
      machineFromConfig(Config, Error);
  if (!Model)
    return jobError(Error);
  VersionSpec Spec;
  if (Config.getString("flavour") == "dynamic") {
    Spec = VersionSpec::dynamicFeedback();
  } else {
    const std::optional<PolicyKind> P =
        parsePolicyName(Config.getString("policy"));
    if (!P)
      return jobError("unknown policy '" + Config.getString("policy") + "'");
    Spec = VersionSpec::fixed(*P);
  }
  const fb::RunResult R =
      configIsNative(Config)
          ? runNativeOnce(*TheApp, Procs, Spec, *Model,
                          Config.getDouble("timescale", NativeJobTimeScale))
          : runApp(*TheApp, Procs, Spec, *Model);
  JobResult Out;
  Out.add("pairs", static_cast<double>(R.ParallelStats.AcquireReleasePairs));
  Out.add("lock_seconds", rt::nanosToSeconds(R.ParallelStats.LockOpNanos));
  return Out;
}

/// A locking-table row from one job's metrics.
std::vector<std::string> lockingRow(const std::string &Label,
                                    const JobResult &R) {
  return {Label,
          withThousandsSep(static_cast<uint64_t>(R.metric("pairs"))),
          formatDouble(R.metric("lock_seconds"), 3)};
}

Experiment makeTable3BhLocking() {
  Experiment E;
  E.Name = "table3_bh_locking";
  E.Suite = "paper";
  E.Description = "Table 3 locking overhead for Barnes-Hut";
  E.MetricNames = {"pairs", "lock_seconds"};
  E.SupportsNativeBackend = true;
  E.MakeJobs = [](const RunOptions &Opts) {
    std::vector<JobConfig> Jobs;
    for (PolicyKind P : AllPolicies)
      Jobs.push_back(lockingJob("barnes_hut", Opts, "fixed", policyName(P),
                                8));
    Jobs.push_back(lockingJob("barnes_hut", Opts, "dynamic", "", 8));
    return Jobs;
  };
  E.RunJob = runLockingJob;
  E.Render = [](const RunOptions &,
                const std::vector<JobResult> &Results) {
    Table T("Table 3: Locking Overhead for Barnes-Hut");
    T.setHeader({"Version", "Executed Acquire/Release Pairs",
                 "Absolute Locking Overhead (seconds)"});
    size_t I = 0;
    for (PolicyKind P : AllPolicies)
      T.addRow(lockingRow(policyName(P), Results[I++]));
    T.addRow(lockingRow("Dynamic", Results[I++]));
    printTable(T);
    std::printf("Paper reference: Original 15,471,xxx pairs; Bounded "
                "7,744,033; Aggressive 49,152; Dynamic 72,5xx (8 procs).\n");
    return 0;
  };
  return E;
}

Experiment makeTable8WaterLocking() {
  Experiment E;
  E.Name = "table8_water_locking";
  E.Suite = "paper";
  E.Description = "Table 8 locking overhead for Water";
  E.MetricNames = {"pairs", "lock_seconds"};
  E.SupportsNativeBackend = true;
  E.MakeJobs = [](const RunOptions &Opts) {
    std::vector<JobConfig> Jobs;
    for (PolicyKind P : AllPolicies)
      Jobs.push_back(lockingJob("water", Opts, "fixed", policyName(P), 8));
    for (unsigned Procs : {8u, 1u})
      Jobs.push_back(lockingJob("water", Opts, "dynamic", "", Procs));
    return Jobs;
  };
  E.RunJob = runLockingJob;
  E.Render = [](const RunOptions &,
                const std::vector<JobResult> &Results) {
    Table T("Table 8: Locking Overhead for Water");
    T.setHeader({"Version", "Executed Acquire/Release Pairs",
                 "Absolute Locking Overhead (seconds)"});
    size_t I = 0;
    for (PolicyKind P : AllPolicies)
      T.addRow(lockingRow(policyName(P), Results[I++]));
    for (unsigned Procs : {8u, 1u})
      T.addRow(lockingRow(format("Dynamic (%u procs)", Procs),
                          Results[I++]));
    printTable(T);
    std::printf("Paper reference: Original 4,200,xxx pairs; Bounded "
                "2,099,200; Aggressive 1,577,98x; Dynamic (8p) close to "
                "Bounded, Dynamic (1p) close to Aggressive.\n");
    return 0;
  };
  return E;
}

//===----------------------------------------------------------------------===//
// Version-space product sweep (extension experiment)
//===----------------------------------------------------------------------===//

fb::FeedbackConfig spanningConfig() {
  // Sampling spans section executions and the chosen version persists
  // across them: with a 9-version space, re-sampling every occurrence
  // would dwarf the production phases the paper's guarantee relies on.
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = rt::millisToNanos(10);
  Config.TargetProductionNanos = rt::secondsToNanos(100.0);
  Config.SpanSectionExecutions = true;
  return Config;
}

/// Builds the version-space app of one job. Water runs at 0.25x and 48
/// timesteps, Barnes-Hut at 0.125x and 16 FORCES executions -- enough
/// production phases to amortize sampling the 9-version space (the paper's
/// Section 5 tradeoff).
std::unique_ptr<App> makeSpaceApp(const JobConfig &Config,
                                  const VersionSpace &Space) {
  const double Scale = Config.getDouble("scale", 1.0);
  if (Config.getString("app") == "water") {
    water::WaterConfig C;
    C.scale(0.25 * Scale);
    C.Timesteps = 48;
    return std::make_unique<water::WaterApp>(C, Space);
  }
  if (Config.getString("app") == "barnes_hut") {
    bh::BarnesHutConfig C;
    C.scale(0.125 * Scale);
    C.ForcesExecutions = 16;
    return std::make_unique<bh::BarnesHutApp>(C, Space);
  }
  return nullptr;
}

JobResult runSpaceJob(const JobConfig &Config) {
  std::string Error;
  const std::string Chunks = Config.getString("chunks", "8,32");
  const bool Product = Config.getString("space") == "product";
  std::optional<VersionSpace> Space =
      Product ? VersionSpace::parse("sync,sched", Chunks, Error)
              : std::optional<VersionSpace>(VersionSpace());
  if (!Space)
    return jobError(Error);
  const std::unique_ptr<App> TheApp =
      Config.getString("space") == "default"
          ? makeSpaceApp(Config, VersionSpace())
          : makeSpaceApp(Config, *Space);
  if (!TheApp)
    return jobError("unknown app '" + Config.getString("app") + "'");
  const unsigned Procs = static_cast<unsigned>(Config.getInt("procs", 8));
  std::string MachineError;
  const std::unique_ptr<rt::MachineModel> Model =
      machineFromConfig(Config, MachineError);
  if (!Model)
    return jobError(MachineError);

  JobResult Out;
  if (Config.getString("flavour") == "fixed") {
    const std::string Version = Config.getString("version");
    for (const VersionDescriptor &D : Space->descriptors())
      if (D.name() == Version) {
        Out.add("seconds",
                runAppSeconds(*TheApp, Procs, VersionSpec::fixed(D), *Model));
        return Out;
      }
    return jobError("version '" + Version + "' not in the space");
  }
  const fb::RunResult Dyn = runApp(*TheApp, Procs,
                                   VersionSpec::dynamicFeedback(), *Model,
                                   spanningConfig());
  unsigned Sampled = 0, Phases = 0;
  for (const fb::SectionExecutionTrace &Trace : Dyn.Occurrences) {
    Sampled += Trace.SampledIntervals;
    Phases += Trace.SamplingPhases;
  }
  Out.add("seconds", rt::nanosToSeconds(Dyn.TotalNanos));
  Out.add("sampled_intervals", Sampled);
  Out.add("sampling_phases", Phases);
  return Out;
}

Experiment makeVersionSpace() {
  Experiment E;
  E.Name = "version_space";
  E.Suite = "extension";
  E.Description =
      "dynamic feedback over the 3x3 sync-by-scheduling version space";
  E.MetricNames = {"seconds", "sampled_intervals", "sampling_phases"};
  E.MakeJobs = [](const RunOptions &Opts) {
    const std::string Chunks = Opts.Chunks.empty() ? "8,32" : Opts.Chunks;
    std::string Error;
    const std::optional<VersionSpace> Space =
        VersionSpace::parse("sync,sched", Chunks, Error);
    std::vector<JobConfig> Jobs;
    if (!Space) // Parse errors surface when the job runs.
      return Jobs;
    const unsigned Procs = Opts.Procs ? Opts.Procs : 8;
    for (const char *App : {"water", "barnes_hut"}) {
      for (const VersionDescriptor &D : Space->descriptors()) {
        JobConfig C = baseConfig(App, Opts);
        C.set("space", "product");
        C.set("chunks", Chunks);
        C.set("flavour", "fixed");
        C.set("version", D.name());
        C.setInt("procs", Procs);
        Jobs.push_back(std::move(C));
      }
      JobConfig C = baseConfig(App, Opts);
      C.set("space", "product");
      C.set("chunks", Chunks);
      C.set("flavour", "dynamic");
      C.setInt("procs", Procs);
      Jobs.push_back(std::move(C));
    }
    // Sampling-cost reference: the default 3-version space, same workload.
    JobConfig C = baseConfig("water", Opts);
    C.set("space", "default");
    C.set("flavour", "dynamic");
    C.setInt("procs", Procs);
    Jobs.push_back(std::move(C));
    return Jobs;
  };
  E.RunJob = runSpaceJob;
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    const std::string Chunks = Opts.Chunks.empty() ? "8,32" : Opts.Chunks;
    std::string Error;
    const std::optional<VersionSpace> Space =
        VersionSpace::parse("sync,sched", Chunks, Error);
    if (!Space) {
      std::fprintf(stderr, "bench_version_space: %s\n", Error.c_str());
      return 1;
    }
    const unsigned Procs = Opts.Procs ? Opts.Procs : 8;
    std::printf("== Version spaces: %u versions (%zu policies x %zu "
                "schedulings), %u processors ==\n\n",
                static_cast<unsigned>(Space->size()),
                Space->policies().size(), Space->scheds().size(), Procs);

    struct SpaceSummary {
      std::string BestName;
      double BestSeconds = 0;
      double DynamicSeconds = 0;
    };
    size_t I = 0;
    std::map<std::string, SpaceSummary> Summaries;
    for (const char *AppName : {"water", "barnes_hut"}) {
      Table T(format("%s over the %u-version space (seconds)",
                     AppName == std::string("water") ? "Water" : "Barnes-Hut",
                     static_cast<unsigned>(Space->size())));
      T.setHeader({"Version", "sync", "sched", "Seconds", "vs best"});

      SpaceSummary &Sum = Summaries[AppName];
      const size_t FixedBase = I;
      for (const VersionDescriptor &D : Space->descriptors()) {
        const double Seconds = Results[I++].metric("seconds");
        if (Sum.BestName.empty() || Seconds < Sum.BestSeconds) {
          Sum.BestName = D.name();
          Sum.BestSeconds = Seconds;
        }
      }
      for (size_t K = 0; K < Space->size(); ++K) {
        const VersionDescriptor &D = Space->descriptors()[K];
        const double Seconds = Results[FixedBase + K].metric("seconds");
        T.addRow({D.name(), policyName(D.Policy), D.Sched.name(),
                  formatDouble(Seconds, 2),
                  formatDouble(Seconds / Sum.BestSeconds, 2)});
      }

      const JobResult &Dyn = Results[I++];
      Sum.DynamicSeconds = Dyn.metric("seconds");
      T.addRow({"Dynamic (feedback)", "-", "-",
                formatDouble(Sum.DynamicSeconds, 2),
                formatDouble(Sum.DynamicSeconds / Sum.BestSeconds, 2)});
      printTable(T);

      std::printf("  best fixed version: %s (%.2f s); dynamic feedback "
                  "%.2f s (%.1f%% over best), %u sampled intervals in %u "
                  "phases\n\n",
                  Sum.BestName.c_str(), Sum.BestSeconds, Sum.DynamicSeconds,
                  100.0 * (Sum.DynamicSeconds / Sum.BestSeconds - 1.0),
                  static_cast<unsigned>(Dyn.metric("sampled_intervals")),
                  static_cast<unsigned>(Dyn.metric("sampling_phases")));
    }

    const double SmallSeconds = Results[I++].metric("seconds");
    std::printf("sampling cost vs space size (Water): |space|=3 dynamic "
                "%.2f s, |space|=%u dynamic %.2f s\n",
                SmallSeconds, static_cast<unsigned>(Space->size()),
                Summaries["water"].DynamicSeconds);

    const bool WaterOk = Summaries["water"].DynamicSeconds <=
                         1.10 * Summaries["water"].BestSeconds;
    const bool BhOk = Summaries["barnes_hut"].DynamicSeconds <=
                      1.10 * Summaries["barnes_hut"].BestSeconds;
    std::printf("dynamic feedback within 10%% of best fixed version: water "
                "%s, barnes_hut %s\n",
                WaterOk ? "yes" : "NO", BhOk ? "yes" : "NO");
    return WaterOk && BhOk ? 0 : 1;
  };
  return E;
}

//===----------------------------------------------------------------------===//
// Sub-linear version search (extension experiment)
//===----------------------------------------------------------------------===//

/// The search workload: Water at 1/8 size but 4x the timesteps of the
/// version_space experiment. Small occurrences keep the sub-second sampling
/// slices of the partial strategies meaningful (an interval can never end
/// mid-occurrence, so occurrence cost is the slice granularity floor), and
/// the long timestep run gives every strategy the same production runway
/// after its search concludes.
std::unique_ptr<App> makeSearchApp(const JobConfig &Config,
                                   const VersionSpace &Space) {
  water::WaterConfig C;
  C.scale(0.125 * Config.getDouble("scale", 1.0));
  C.Timesteps = 192;
  return std::make_unique<water::WaterApp>(C, Space);
}

/// The feedback configuration of the search experiment: spanning phases
/// with sampling intervals long enough (1s) that a half-length or shorter
/// partial-sampling slice still covers several occurrences.
fb::FeedbackConfig searchConfig() {
  fb::FeedbackConfig Config = spanningConfig();
  Config.TargetSamplingNanos = rt::secondsToNanos(1.0);
  // 0.4 rather than the 0.5 default: interval overshoot at occurrence
  // boundaries is charged to the strategy, so the nominal budget leaves
  // headroom under the 50% gate.
  Config.SearchBudgetFraction = 0.4;
  return Config;
}

JobResult runVersionSearchJob(const JobConfig &Config) {
  std::string Error;
  const std::string Chunks = Config.getString("chunks", "8,fac,wfac,afac");
  const std::optional<VersionSpace> Space =
      VersionSpace::parse("sync,sched", Chunks, Error);
  if (!Space)
    return jobError(Error);
  const std::unique_ptr<App> TheApp = makeSearchApp(Config, *Space);
  const unsigned Procs = static_cast<unsigned>(Config.getInt("procs", 8));
  std::string MachineError;
  const std::unique_ptr<rt::MachineModel> Model =
      machineFromConfig(Config, MachineError);
  if (!Model)
    return jobError(MachineError);

  fb::FeedbackConfig FC = searchConfig();
  const std::string SamplerName = Config.getString("sampler", "exhaustive");
  const std::optional<fb::SamplerKind> Sampler =
      fb::parseSamplerName(SamplerName);
  if (!Sampler)
    return jobError("unknown sampler '" + SamplerName + "'");
  FC.Sampler = *Sampler;

  RunObservation Obs;
  const fb::RunResult Dyn =
      runApp(*TheApp, Procs, VersionSpec::dynamicFeedback(), *Model, FC,
             nullptr, nullptr, &Obs);

  double SamplingSeconds = 0;
  unsigned Sampled = 0, Prunes = 0, Promotes = 0;
  for (const fb::SectionExecutionTrace &Trace : Dyn.Occurrences) {
    SamplingSeconds += rt::nanosToSeconds(Trace.SampledNanos);
    Sampled += Trace.SampledIntervals;
    Prunes += Trace.Prunes;
    Promotes += Trace.Promotes;
  }
  // Decision-quality metric: the whole run's lock+wait+sched overhead
  // ratio. Production dominates the run, so this is in effect the true
  // overhead of the versions the strategy chose -- a strategy that saved
  // sampling by picking worse versions pays here, and one that picked the
  // same versions converges to the same ratio regardless of how its
  // sampled estimates were sliced.
  const double RunOverhead = Dyn.ParallelStats.totalOverhead();
  unsigned Switches = 0;
  for (const obs::DecisionEvent &E : Obs.Log.events())
    if (E.Kind == obs::DecisionKind::Switch)
      ++Switches;

  JobResult Out;
  Out.add("seconds", rt::nanosToSeconds(Dyn.TotalNanos));
  Out.add("run_overhead", RunOverhead);
  Out.add("sampling_seconds", SamplingSeconds);
  Out.add("sampled_intervals", Sampled);
  Out.add("switches", Switches);
  Out.add("prunes", Prunes);
  Out.add("promotes", Promotes);
  return Out;
}

Experiment makeVersionSearch() {
  Experiment E;
  E.Name = "version_search";
  E.Suite = "extension";
  E.Description = "sub-linear version search: halving and ucb vs exhaustive "
                  "sampling over the 3x5 sync-by-scheduling space";
  E.MetricNames = {"seconds",           "run_overhead", "sampling_seconds",
                   "sampled_intervals", "switches",     "prunes",
                   "promotes"};
  E.MakeJobs = [](const RunOptions &Opts) {
    const std::string Chunks =
        Opts.Chunks.empty() ? "8,fac,wfac,afac" : Opts.Chunks;
    const unsigned Procs = Opts.Procs ? Opts.Procs : 8;
    std::vector<JobConfig> Jobs;
    for (const char *Sampler : {"exhaustive", "halving", "ucb"}) {
      JobConfig C = baseConfig("water", Opts);
      C.set("chunks", Chunks);
      C.set("sampler", Sampler);
      C.setInt("procs", Procs);
      Jobs.push_back(std::move(C));
    }
    return Jobs;
  };
  E.RunJob = runVersionSearchJob;
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    const std::string Chunks =
        Opts.Chunks.empty() ? "8,fac,wfac,afac" : Opts.Chunks;
    std::string Error;
    const std::optional<VersionSpace> Space =
        VersionSpace::parse("sync,sched", Chunks, Error);
    if (!Space) {
      std::fprintf(stderr, "bench_version_search: %s\n", Error.c_str());
      return 1;
    }
    if (Results.size() < 3) {
      std::fprintf(stderr, "bench_version_search: incomplete results\n");
      return 1;
    }
    static const char *const Samplers[] = {"exhaustive", "halving", "ucb"};
    const JobResult &Ex = Results[0];
    std::printf("== Sub-linear version search: %u versions (%zu policies x "
                "%zu schedulings), Water, spanning feedback ==\n\n",
                static_cast<unsigned>(Space->size()),
                Space->policies().size(), Space->scheds().size());
    Table T("sampling strategies (cost measured in effective sampling "
            "seconds)");
    T.setHeader({"sampler", "seconds", "run overhead", "sampling s",
                 "intervals", "prunes", "promotes", "cost vs exhaustive"});
    for (size_t I = 0; I < 3; ++I) {
      const JobResult &R = Results[I];
      T.addRow({Samplers[I], formatDouble(R.metric("seconds"), 2),
                formatDouble(R.metric("run_overhead"), 4),
                formatDouble(R.metric("sampling_seconds"), 3),
                format("%u",
                       static_cast<unsigned>(R.metric("sampled_intervals"))),
                format("%u", static_cast<unsigned>(R.metric("prunes"))),
                format("%u", static_cast<unsigned>(R.metric("promotes"))),
                formatDouble(R.metric("sampling_seconds") /
                                 Ex.metric("sampling_seconds"),
                             2)});
    }
    printTable(T);

    bool AllOk = true;
    for (size_t I = 1; I < 3; ++I) {
      const JobResult &R = Results[I];
      const bool QualityOk = R.metric("run_overhead") <=
                             1.10 * Ex.metric("run_overhead") + 1e-12;
      const bool CostOk = R.metric("sampling_seconds") <=
                          0.50 * Ex.metric("sampling_seconds");
      std::printf("%s: chosen-version overhead within 10%% of exhaustive: "
                  "%s; sampling cost at most 50%%: %s\n",
                  Samplers[I], QualityOk ? "yes" : "NO",
                  CostOk ? "yes" : "NO");
      AllOk = AllOk && QualityOk && CostOk;
    }
    std::printf("gate: sub-linear search matches exhaustive decision "
                "quality at half the sampling cost: %s\n",
                AllOk ? "PASS" : "FAIL");
    return AllOk ? 0 : 1;
  };
  return E;
}

//===----------------------------------------------------------------------===//
// Perturbation adaptivity sweep (robustness experiment)
//===----------------------------------------------------------------------===//

struct FaultCase {
  const char *Name;
  const char *Spec; ///< Empty = pristine machine.
};

const FaultCase FaultCases[] = {
    {"pristine", ""},
    {"processor slowdown", "slowdown@1s-2.5s:factor=4:proc=0"},
    {"lock-hold spike", "lockhold@1s-2.5s:extra=20us"},
    {"contention burst", "contend@1s-2.5s:extra=200us"},
    {"timer noise", "timernoise@0s-inf:amp=5us"},
    {"workload phase shift", "phaseshift@1.5s-inf:factor=0.3"},
};

/// The paper's dynamic configuration, adapted to this short run: spanning
/// intervals (the sections are much shorter than a production interval)
/// and a 1 s production budget so the controller resamples a few times.
fb::FeedbackConfig perturbPaperConfig() {
  fb::FeedbackConfig Config;
  Config.SpanSectionExecutions = true;
  Config.TargetProductionNanos = rt::secondsToNanos(1);
  return Config;
}

/// The hardened configuration: identical, plus drift-triggered early
/// resampling and a little switch hysteresis.
fb::FeedbackConfig perturbRobustConfig() {
  fb::FeedbackConfig Config = perturbPaperConfig();
  Config.DriftResampleThreshold = 0.10;
  Config.SwitchHysteresis = 0.02;
  return Config;
}

JobResult runPerturbJob(const JobConfig &Config) {
  water::WaterConfig AppConfig;
  AppConfig.Timesteps = 8;
  AppConfig.scale(Config.getDouble("scale", 0.125));
  water::WaterApp App(AppConfig);
  const unsigned Procs = static_cast<unsigned>(Config.getInt("procs", 8));

  std::unique_ptr<perturb::PerturbationEngine> Engine;
  const std::string Spec = Config.getString("perturb");
  if (!Spec.empty()) {
    std::string Error;
    std::optional<perturb::PerturbationSchedule> Sched =
        perturb::parseSchedule(Spec, Error);
    if (!Sched)
      return jobError("internal spec error: " + Error);
    Engine =
        std::make_unique<perturb::PerturbationEngine>(std::move(*Sched));
  }

  std::string MachineError;
  const std::unique_ptr<rt::MachineModel> Model =
      machineFromConfig(Config, MachineError);
  if (!Model)
    return jobError(MachineError);

  const std::string Variant = Config.getString("variant");
  JobResult Out;
  if (Variant == "static") {
    const std::optional<PolicyKind> P =
        parsePolicyName(Config.getString("policy"));
    if (!P)
      return jobError("unknown policy '" + Config.getString("policy") + "'");
    Out.add("seconds",
            rt::nanosToSeconds(runApp(App, Procs, VersionSpec::fixed(*P),
                                      *Model, {}, nullptr, Engine.get())
                                   .TotalNanos));
    return Out;
  }
  const fb::FeedbackConfig FbConfig =
      Variant == "robust" ? perturbRobustConfig() : perturbPaperConfig();
  const fb::RunResult R =
      runApp(App, Procs, VersionSpec::dynamicFeedback(), *Model, FbConfig,
             nullptr, Engine.get());
  unsigned EarlyResamples = 0;
  for (const fb::SectionExecutionTrace &Trace : R.Occurrences)
    EarlyResamples += Trace.EarlyResamples;
  Out.add("seconds", rt::nanosToSeconds(R.TotalNanos));
  Out.add("early_resamples", EarlyResamples);
  return Out;
}

Experiment makePerturbationAdaptivity() {
  Experiment E;
  E.Name = "perturbation_adaptivity";
  E.Suite = "extension";
  E.Description =
      "dynamic feedback vs best static policy under injected faults";
  E.DefaultScale = 0.125;
  E.MetricNames = {"seconds", "early_resamples"};
  E.MakeJobs = [](const RunOptions &Opts) {
    const unsigned Procs = Opts.Procs ? Opts.Procs : 8;
    std::vector<JobConfig> Jobs;
    for (const FaultCase &FC : FaultCases) {
      for (PolicyKind P : AllPolicies) {
        JobConfig C = baseConfig("water", Opts);
        C.set("fault", FC.Name);
        C.set("perturb", FC.Spec);
        C.set("variant", "static");
        C.set("policy", policyName(P));
        C.setInt("procs", Procs);
        Jobs.push_back(std::move(C));
      }
      for (const char *Variant : {"paper", "robust"}) {
        JobConfig C = baseConfig("water", Opts);
        C.set("fault", FC.Name);
        C.set("perturb", FC.Spec);
        C.set("variant", Variant);
        C.setInt("procs", Procs);
        Jobs.push_back(std::move(C));
      }
    }
    return Jobs;
  };
  E.RunJob = runPerturbJob;
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    water::WaterConfig Config;
    Config.Timesteps = 8;
    Config.scale(Opts.Scale);
    const unsigned Procs = Opts.Procs ? Opts.Procs : 8;
    std::printf("Water at %u molecules x %u timesteps, %u processors; each "
                "fault class injected as a deterministic virtual-time "
                "schedule.\n\n",
                Config.NumMolecules, Config.Timesteps, Procs);

    Table T("Execution times under injected faults (seconds)");
    T.setHeader({"Fault class", "Best static", "Dynamic (paper)",
                 "Dynamic (robust)", "Early resamples"});
    size_t I = 0;
    for (const FaultCase &FC : FaultCases) {
      double BestStatic = 1e100;
      for (size_t P = 0; P < std::size(AllPolicies); ++P)
        BestStatic = std::min(BestStatic, Results[I++].metric("seconds"));
      const JobResult &Paper = Results[I++];
      const JobResult &Robust = Results[I++];
      T.addRow({FC.Name, formatDouble(BestStatic, 3),
                formatDouble(Paper.metric("seconds"), 3),
                formatDouble(Robust.metric("seconds"), 3),
                format("%u", static_cast<unsigned>(
                                 Robust.metric("early_resamples")))});
    }
    printTable(T);
    std::printf("Every schedule is virtual-time and seeded: rerunning this "
                "binary reproduces each cell bit for bit. Expectation: the "
                "dynamic versions stay within a few percent of the best "
                "static policy under every fault class, and drift-triggered "
                "resampling reacts to mid-run shifts without waiting out the "
                "production budget.\n");
    return 0;
  };
  return E;
}

//===----------------------------------------------------------------------===//
// Machine sensitivity sweep (extension experiment)
//===----------------------------------------------------------------------===//

/// Water's policy grid re-run on every shipped machine model. The paper's
/// central claim is that the best synchronization policy is a property of
/// the machine, not just the program: this sweep demonstrates it by
/// measuring every fixed policy and dynamic feedback on each model and
/// checking that (a) the best fixed policy differs between the NUMA and the
/// cheap-lock machine, and (b) dynamic feedback stays within 10% of the
/// best fixed policy on both -- without being retuned for either.
Experiment makeMachineSensitivity() {
  Experiment E;
  E.Name = "machine_sensitivity";
  E.Suite = "extension";
  E.Description =
      "best fixed policy vs dynamic feedback on each machine model";
  E.DefaultScale = 0.25;
  // String is the app with machine-dependent policy tension: Aggressive's
  // lifted critical regions have the fewest lock operations but the most
  // residency, so expensive locks (dash-numa) reward it while cheap locks
  // plus dirty-line update pricing (uma-cheaplock) punish it.
  E.MetricNames = {"seconds"};
  E.MakeJobs = [](const RunOptions &Opts) {
    // The machine is this experiment's swept dimension; Opts.Machine is
    // deliberately ignored.
    const unsigned Procs = Opts.Procs ? Opts.Procs : 8;
    std::vector<JobConfig> Jobs;
    for (const std::string &Machine : rt::machineModelNames()) {
      RunOptions MachineOpts = Opts;
      MachineOpts.Machine = Machine;
      for (PolicyKind P : AllPolicies) {
        JobConfig C = baseConfig("string", MachineOpts);
        C.set("flavour", "fixed");
        C.set("policy", policyName(P));
        C.setInt("procs", Procs);
        Jobs.push_back(std::move(C));
      }
      JobConfig C = baseConfig("string", MachineOpts);
      C.set("flavour", "dynamic");
      C.setInt("procs", Procs);
      Jobs.push_back(std::move(C));
    }
    return Jobs;
  };
  E.RunJob = runTimingGridJob;
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    string_tomo::StringConfig Config;
    Config.scale(Opts.Scale);
    const unsigned Procs = Opts.Procs ? Opts.Procs : 8;
    std::printf("== Machine sensitivity: String at %u rays, %ux%u grid, "
                "%u processors ==\n\n",
                Config.NumRays, Config.GridW, Config.GridH, Procs);

    Table T("Execution times by machine model (seconds)");
    std::vector<std::string> Header = {"Machine"};
    for (PolicyKind P : AllPolicies)
      Header.push_back(policyName(P));
    Header.push_back("Dynamic");
    Header.push_back("Best fixed");
    T.setHeader(Header);

    std::map<std::string, std::pair<std::string, double>> Best;
    std::map<std::string, double> Dynamic;
    size_t I = 0;
    for (const std::string &Machine : rt::machineModelNames()) {
      std::vector<std::string> Row = {Machine};
      std::string BestName;
      double BestSeconds = 0;
      for (PolicyKind P : AllPolicies) {
        const double Seconds = Results[I++].metric("seconds");
        // Three decimals: on uma-cheaplock the whole point is that the
        // policies converge to within a few milliseconds.
        Row.push_back(formatDouble(Seconds, 3));
        if (BestName.empty() || Seconds < BestSeconds) {
          BestName = policyName(P);
          BestSeconds = Seconds;
        }
      }
      const double Dyn = Results[I++].metric("seconds");
      Row.push_back(formatDouble(Dyn, 3));
      Row.push_back(BestName);
      T.addRow(Row);
      Best[Machine] = {BestName, BestSeconds};
      Dynamic[Machine] = Dyn;
    }
    printTable(T);

    const std::string NumaBest = Best["dash-numa"].first;
    const std::string UmaBest = Best["uma-cheaplock"].first;
    const bool Flips = NumaBest != UmaBest;
    const bool NumaOk =
        Dynamic["dash-numa"] <= 1.10 * Best["dash-numa"].second;
    const bool UmaOk =
        Dynamic["uma-cheaplock"] <= 1.10 * Best["uma-cheaplock"].second;
    std::printf("best fixed policy: dash-numa %s, uma-cheaplock %s -> %s\n",
                NumaBest.c_str(), UmaBest.c_str(),
                Flips ? "machine-dependent (as the paper argues)"
                      : "IDENTICAL (no machine sensitivity observed)");
    std::printf("dynamic feedback within 10%% of best fixed: dash-numa %s, "
                "uma-cheaplock %s\n",
                NumaOk ? "yes" : "NO", UmaOk ? "yes" : "NO");
    return Flips && NumaOk && UmaOk ? 0 : 1;
  };
  return E;
}

//===----------------------------------------------------------------------===//
// Serving under streaming traffic (robustness experiment)
//===----------------------------------------------------------------------===//

/// The serving traffic mixes, in display and job order.
const char *const ServingMixes[] = {"steady", "diurnal", "storm"};

/// Regret gate: dynamic feedback must finish within this factor of the
/// clairvoyant per-window oracle on every (machine, mix) cell. The oracle
/// pays no sampling cost, switches policy between windows for free, and --
/// because each policy's occurrences drift differently against the fixed
/// virtual-time traffic windows -- sometimes dodges a storm no real policy
/// could, so generous slack over 1.0 is structural (observed: 1.1-2.3
/// across seeds and scales).
constexpr double ServingRegretBound = 2.5;

/// The regret bound alone would not catch a controller that pins one bad
/// policy (the worst static sits near 2.0x the oracle on some mixes), so
/// the gate also requires dynamic within this factor of the best static
/// policy's serve time (observed: 1.0-1.4).
constexpr double ServingStaticBound = 1.5;

/// A window counts as re-adapted once dynamic's duration is back within
/// this factor of the window's oracle time; the rendered "readapt" column
/// is the longest run of consecutive windows above it.
constexpr double ServingReadaptFactor = 1.50;

/// The kvserve workload a serving job runs (scale and seed applied).
kvserve::KvServeConfig servingAppConfig(double Scale, uint64_t Seed) {
  kvserve::KvServeConfig C;
  C.scale(Scale);
  C.Seed ^= Seed;
  return C;
}

/// Nominal traffic-window length: the serial ingest phase plus an estimate
/// of the parallel serve time, rounded up to a millisecond so the rendered
/// spec round-trips exactly. Traffic windows live on the virtual-time axis
/// while SERVE occurrences drift with the measured policy, so this only
/// needs to be in the right ballpark for windows and occurrences to stay
/// roughly aligned.
rt::Nanos servingWindowNanos(const kvserve::KvServeConfig &C,
                             unsigned Procs) {
  // Every operation pays lookup + response assembly + roughly one lock
  // round trip; the geometric operation draw averages ~2.4 ops/request.
  const double PerOpNanos =
      static_cast<double>(C.LookupNanos + C.OpNanos) + 15e3;
  const double ServeNanos = static_cast<double>(C.RequestsPerWindow) * 2.4 *
                            PerOpNanos / std::max(1u, Procs);
  const rt::Nanos Window =
      C.IngestPhaseNanos + static_cast<rt::Nanos>(ServeNanos);
  return (Window + 999999) / 1000000 * 1000000;
}

/// The traffic stream of one (mix, scale, seed) cell.
perturb::TrafficSpec servingTraffic(const std::string &Mix,
                                    const kvserve::KvServeConfig &AppConfig,
                                    unsigned Procs, uint64_t Seed) {
  perturb::TrafficSpec T;
  if (Mix == "steady")
    T.Mix = perturb::TrafficMix::Steady;
  else if (Mix == "storm")
    T.Mix = perturb::TrafficMix::Storm;
  else
    T.Mix = perturb::TrafficMix::Diurnal;
  T.WindowNanos = servingWindowNanos(AppConfig, Procs);
  T.Windows = AppConfig.Windows;
  T.StormProbability = 0.35;
  T.Seed ^= Seed;
  return T;
}

/// The dynamic configuration under test: the robust spanning controller
/// with the resilience layer switched on. Short intervals -- serving
/// windows are tens of milliseconds, not the paper's 100-second production
/// runs -- scaled with the workload so the sampling-to-production ratio
/// stays constant across --scale.
fb::FeedbackConfig servingDynamicConfig(double Scale) {
  fb::FeedbackConfig Config;
  Config.SpanSectionExecutions = true;
  Config.TargetSamplingNanos =
      std::max<rt::Nanos>(rt::millisToNanos(0.25),
                          static_cast<rt::Nanos>(2e6 * Scale));
  Config.TargetProductionNanos = 10 * Config.TargetSamplingNanos;
  Config.DriftResampleThreshold = 0.10;
  Config.SwitchHysteresis = 0.02;
  Config.QuarantineStrikes = 2;
  Config.QuarantineOverheadLimit = 0.98;
  Config.WatchdogBadSlices = 3;
  Config.WatchdogOverheadLimit = 0.95;
  return Config;
}

JobResult runServingJob(const JobConfig &Config) {
  const kvserve::KvServeConfig AppConfig =
      servingAppConfig(Config.getDouble("scale", 1.0),
                       static_cast<uint64_t>(Config.getInt("seed", 0)));
  kvserve::KvServeApp App(AppConfig);
  const unsigned Procs = static_cast<unsigned>(Config.getInt("procs", 8));

  std::string Error;
  const std::optional<perturb::TrafficSpec> Traffic =
      perturb::parseTraffic(Config.getString("traffic"), Error);
  if (!Traffic)
    return jobError("internal traffic spec error: " + Error);
  const perturb::PerturbationEngine Engine(
      perturb::compileTraffic(*Traffic, AppConfig.NumShards, Procs));

  const std::unique_ptr<rt::MachineModel> Model =
      machineFromConfig(Config, Error);
  if (!Model)
    return jobError(Error);

  const std::string Variant = Config.getString("variant");
  fb::RunResult R;
  JobResult Out;
  if (Variant == "static") {
    const std::optional<PolicyKind> P =
        parsePolicyName(Config.getString("policy"));
    if (!P)
      return jobError("unknown policy '" + Config.getString("policy") + "'");
    R = runApp(App, Procs, VersionSpec::fixed(*P), *Model, {}, nullptr,
               &Engine);
  } else if (Variant == "dynamic") {
    R = runApp(App, Procs, VersionSpec::dynamicFeedback(), *Model,
               servingDynamicConfig(Config.getDouble("scale", 1.0)), nullptr,
               &Engine);
    unsigned Quarantines = 0, Reprobes = 0, Watchdog = 0, Degraded = 0;
    unsigned EarlyResamples = 0;
    for (const fb::SectionExecutionTrace &Trace : R.Occurrences) {
      Quarantines += Trace.Quarantines;
      Reprobes += Trace.Reprobes;
      Watchdog += Trace.WatchdogResamples;
      Degraded += Trace.DegradedPhases;
      EarlyResamples += Trace.EarlyResamples;
    }
    Out.add("quarantines", Quarantines);
    Out.add("reprobes", Reprobes);
    Out.add("watchdog_resamples", Watchdog);
    Out.add("degraded_phases", Degraded);
    Out.add("early_resamples", EarlyResamples);
  } else
    return jobError("unknown variant '" + Variant + "'");

  Out.add("seconds", rt::nanosToSeconds(R.TotalNanos));
  // Per-window durations, the raw material of the oracle and the regret
  // computation: occurrence W is traffic window W (SERVE runs once per
  // window).
  unsigned W = 0;
  for (const fb::SectionExecutionTrace &Trace : R.Occurrences)
    Out.add(format("w%u_seconds", W++),
            rt::nanosToSeconds(Trace.durationNanos()));
  return Out;
}

/// Dynamic feedback on a long-running server: kvserve under compiled
/// streaming traffic (diurnal intensity, rotating hot tenants, seeded
/// perturbation storms), on every machine model. Per (machine, mix) cell
/// the grid measures all fixed policies plus the resilient dynamic
/// configuration on the identical seeded stream; the renderer replays a
/// clairvoyant oracle (per-window best fixed policy) from the same per-
/// window durations and gates dynamic's cumulative regret against it.
Experiment makeServing() {
  Experiment E;
  E.Name = "serving";
  E.Suite = "extension";
  E.Description =
      "streaming serving traffic: dynamic regret vs clairvoyant oracle";
  std::vector<std::string> Metrics = {
      "seconds",          "quarantines",    "reprobes",
      "watchdog_resamples", "degraded_phases", "early_resamples"};
  for (unsigned W = 0; W < kvserve::KvServeConfig().Windows; ++W)
    Metrics.push_back(format("w%u_seconds", W));
  E.MetricNames = std::move(Metrics);
  E.MakeJobs = [](const RunOptions &Opts) {
    // The machine is a swept dimension, like machine_sensitivity;
    // Opts.Machine is deliberately ignored.
    const unsigned Procs = Opts.Procs ? Opts.Procs : 8;
    const kvserve::KvServeConfig AppConfig =
        servingAppConfig(Opts.Scale, Opts.Seed);
    std::vector<JobConfig> Jobs;
    for (const std::string &Machine : rt::machineModelNames()) {
      RunOptions MachineOpts = Opts;
      MachineOpts.Machine = Machine;
      for (const char *Mix : ServingMixes) {
        const std::string Traffic = perturb::renderTraffic(
            servingTraffic(Mix, AppConfig, Procs, Opts.Seed));
        for (PolicyKind P : AllPolicies) {
          JobConfig C = baseConfig("kvserve", MachineOpts);
          C.set("mix", Mix);
          C.set("traffic", Traffic);
          C.set("variant", "static");
          C.set("policy", policyName(P));
          C.setInt("procs", Procs);
          Jobs.push_back(std::move(C));
        }
        JobConfig C = baseConfig("kvserve", MachineOpts);
        C.set("mix", Mix);
        C.set("traffic", Traffic);
        C.set("variant", "dynamic");
        C.setInt("procs", Procs);
        Jobs.push_back(std::move(C));
      }
    }
    return Jobs;
  };
  E.RunJob = runServingJob;
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    const kvserve::KvServeConfig AppConfig =
        servingAppConfig(Opts.Scale, Opts.Seed);
    const unsigned Procs = Opts.Procs ? Opts.Procs : 8;
    std::printf("== Serving: kvserve at %u shards, %u requests/window, %u "
                "windows, %u processors ==\n"
                "All times are serve time (serial ingest excluded). Oracle = "
                "sum over windows of the best fixed policy's window time "
                "(clairvoyant, free switches). Regret = dynamic / oracle. "
                "Readapt = longest run of windows where dynamic exceeded "
                "%.2fx the window's oracle time.\n\n",
                AppConfig.NumShards, AppConfig.RequestsPerWindow,
                AppConfig.Windows, Procs, ServingReadaptFactor);

    Table T("Dynamic feedback vs clairvoyant oracle (serve seconds)");
    std::vector<std::string> Header = {"Machine", "Mix"};
    for (PolicyKind P : AllPolicies)
      Header.push_back(policyName(P));
    Header.insert(Header.end(), {"Dynamic", "Oracle", "Regret", "Readapt",
                                 "Quar", "Wdog"});
    T.setHeader(Header);

    bool RegretOk = true;
    size_t I = 0;
    for (const std::string &Machine : rt::machineModelNames()) {
      for (const char *Mix : ServingMixes) {
        const size_t Base = I;
        // Serve time of a result: the sum of its per-window durations
        // (the total "seconds" metric also counts the serial ingest
        // phases, which no policy can influence).
        const auto ServeSeconds = [&](const JobResult &R) {
          double Sum = 0;
          for (unsigned W = 0; W < AppConfig.Windows; ++W)
            Sum += R.metric(format("w%u_seconds", W));
          return Sum;
        };
        std::vector<std::string> Row = {Machine, Mix};
        double BestStatic = 1e100;
        for (size_t P = 0; P < std::size(AllPolicies); ++P) {
          const double Seconds = ServeSeconds(Results[I++]);
          Row.push_back(formatDouble(Seconds, 3));
          BestStatic = std::min(BestStatic, Seconds);
        }
        const JobResult &Dyn = Results[I++];

        // The clairvoyant oracle and the readapt streak, per window.
        double OracleSeconds = 0;
        unsigned Streak = 0, MaxStreak = 0;
        for (unsigned W = 0; W < AppConfig.Windows; ++W) {
          const std::string Name = format("w%u_seconds", W);
          double Oracle = 1e100;
          for (size_t P = 0; P < std::size(AllPolicies); ++P)
            Oracle = std::min(Oracle, Results[Base + P].metric(Name));
          OracleSeconds += Oracle;
          if (Dyn.metric(Name) > ServingReadaptFactor * Oracle)
            MaxStreak = std::max(MaxStreak, ++Streak);
          else
            Streak = 0;
        }

        const double DynSeconds = ServeSeconds(Dyn);
        const double Regret =
            OracleSeconds > 0 ? DynSeconds / OracleSeconds : 0;
        if (Regret > ServingRegretBound ||
            DynSeconds > ServingStaticBound * BestStatic)
          RegretOk = false;
        Row.push_back(formatDouble(DynSeconds, 3));
        Row.push_back(formatDouble(OracleSeconds, 3));
        Row.push_back(formatDouble(Regret, 3));
        Row.push_back(format("%u", MaxStreak));
        Row.push_back(
            format("%u", static_cast<unsigned>(Dyn.metric("quarantines"))));
        Row.push_back(format(
            "%u", static_cast<unsigned>(Dyn.metric("watchdog_resamples"))));
        T.addRow(Row);
      }
    }
    printTable(T);
    std::printf("dynamic feedback within %.2fx of the clairvoyant oracle "
                "and %.2fx of the best static policy on every machine and "
                "mix: %s\n",
                ServingRegretBound, ServingStaticBound,
                RegretOk ? "yes" : "NO");
    return RegretOk ? 0 : 1;
  };
  return E;
}

//===----------------------------------------------------------------------===//
// Backend concordance (extension experiment)
//===----------------------------------------------------------------------===//

/// The apps the concordance grid measures: the paper's grid apps (kvserve
/// is exercised by the serving experiment, not the concordance gate).
const char *const ConcordanceApps[] = {"water", "barnes_hut", "string"};

/// A fixed-policy pair only gates concordance when the two policies differ
/// by more than this relative band on BOTH backends: near-ties carry no
/// ordering information, and real wall clock is noisy where virtual time
/// is exact.
constexpr double ConcordanceTieBand = 0.10;

/// Dynamic feedback must finish within these factors of the best fixed
/// policy. The sim bound matches the paper-table experience; the native
/// bound is looser because sampling costs real milliseconds against runs
/// that are themselves only tens of milliseconds long.
constexpr double ConcordanceSimDynamicBound = 1.15;
constexpr double ConcordanceNativeDynamicBound = 1.60;

/// The tentpole's cross-backend validation: the simulator earns its keep
/// only if the policy tradeoffs it prices match what real threads observe.
/// Per app, the grid measures every fixed policy plus dynamic feedback on
/// both backends; the renderer checks that the fixed-policy ordering agrees
/// on every pair that is significant on both backends (a Kendall-tau-style
/// pairwise test with a tie band) and that dynamic feedback tracks the best
/// fixed policy on both. The machine axis is deliberately absent: the
/// native backend runs on real hardware and ignores MachineModel pricing,
/// so every job -- sim and native -- is pinned to dash-flat.
Experiment makeBackendConcordance() {
  Experiment E;
  E.Name = "backend_concordance";
  E.Suite = "extension";
  E.Description =
      "sim vs native threads: fixed-policy ordering agreement per app";
  E.DefaultScale = 0.125;
  E.MetricNames = {"seconds"};
  E.SupportsNativeBackend = true;
  E.MakeJobs = [](const RunOptions &Opts) {
    // The backend is this experiment's swept dimension; Opts.Backend is
    // deliberately ignored, as is Opts.Machine (see above).
    const unsigned Procs = Opts.Procs ? Opts.Procs : 2;
    std::vector<JobConfig> Jobs;
    for (const char *App : ConcordanceApps) {
      for (const char *Backend : {"", "native"}) {
        RunOptions Cell = Opts;
        Cell.Machine = "";
        Cell.Backend = Backend;
        for (PolicyKind P : AllPolicies) {
          JobConfig C = baseConfig(App, Cell);
          C.set("flavour", "fixed");
          C.set("policy", policyName(P));
          C.setInt("procs", Procs);
          Jobs.push_back(std::move(C));
        }
        JobConfig C = baseConfig(App, Cell);
        C.set("flavour", "dynamic");
        C.setInt("procs", Procs);
        Jobs.push_back(std::move(C));
      }
    }
    return Jobs;
  };
  E.RunJob = runTimingGridJob;
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    const unsigned Procs = Opts.Procs ? Opts.Procs : 2;
    std::printf("== Backend concordance: %zu apps x {sim, native} x %zu "
                "fixed policies + dynamic, %u processors ==\n",
                std::size(ConcordanceApps), std::size(AllPolicies), Procs);
    std::printf("machine sweep skipped: the native backend runs on real "
                "hardware and ignores MachineModel pricing, so every job "
                "(sim and native) is pinned to dash-flat\n\n");

    constexpr size_t NumPolicies = std::size(AllPolicies);
    bool AllOk = true;
    unsigned Concordant = 0, Gated = 0, Ties = 0;
    size_t I = 0;
    for (const char *App : ConcordanceApps) {
      double Fixed[2][NumPolicies];
      double Dyn[2];
      for (unsigned B = 0; B < 2; ++B) {
        for (size_t P = 0; P < NumPolicies; ++P)
          Fixed[B][P] = Results[I++].metric("seconds");
        Dyn[B] = Results[I++].metric("seconds");
      }

      Table T(format("%s (seconds; sim virtual, native median-of-%u wall "
                     "clock)",
                     App, NativeJobRepeats));
      T.setHeader({"Version", "Sim", "Native"});
      for (size_t P = 0; P < NumPolicies; ++P)
        T.addRow({policyName(AllPolicies[P]), formatDouble(Fixed[0][P], 3),
                  formatDouble(Fixed[1][P], 4)});
      T.addRow({"Dynamic", formatDouble(Dyn[0], 3),
                formatDouble(Dyn[1], 4)});
      printTable(T);

      // Pairwise ordering agreement over the significant pairs.
      for (size_t A = 0; A < NumPolicies; ++A)
        for (size_t B = A + 1; B < NumPolicies; ++B) {
          const auto Significant = [&](const double *Row) {
            const double Lo = std::min(Row[A], Row[B]);
            return Lo > 0 && (std::abs(Row[A] - Row[B]) / Lo) >
                                 ConcordanceTieBand;
          };
          if (!Significant(Fixed[0]) || !Significant(Fixed[1])) {
            ++Ties;
            continue;
          }
          ++Gated;
          const bool Agrees =
              (Fixed[0][A] < Fixed[0][B]) == (Fixed[1][A] < Fixed[1][B]);
          Concordant += Agrees;
          if (!Agrees) {
            AllOk = false;
            std::printf("  DISCORDANT on %s: sim orders %s %s %s, native "
                        "disagrees\n",
                        App, policyName(AllPolicies[A]),
                        Fixed[0][A] < Fixed[0][B] ? "<" : ">",
                        policyName(AllPolicies[B]));
          }
        }

      const double BestSim =
          *std::min_element(Fixed[0], Fixed[0] + NumPolicies);
      const double BestNative =
          *std::min_element(Fixed[1], Fixed[1] + NumPolicies);
      const bool SimOk = Dyn[0] <= ConcordanceSimDynamicBound * BestSim;
      const bool NativeOk =
          Dyn[1] <= ConcordanceNativeDynamicBound * BestNative;
      std::printf("  dynamic vs best fixed: sim %.2fx (<= %.2fx: %s), "
                  "native %.2fx (<= %.2fx: %s)\n\n",
                  Dyn[0] / BestSim, ConcordanceSimDynamicBound,
                  SimOk ? "yes" : "NO", Dyn[1] / BestNative,
                  ConcordanceNativeDynamicBound, NativeOk ? "yes" : "NO");
      AllOk = AllOk && SimOk && NativeOk;
    }

    std::printf("concordant policy pairs: %u/%u (%u near-tie pairs "
                "skipped)\n",
                Concordant, Gated, Ties);
    std::printf("backends agree on every significant policy ordering and "
                "dynamic tracks the best fixed policy on both: %s\n",
                AllOk ? "yes" : "NO");
    return AllOk ? 0 : 1;
  };
  return E;
}

//===----------------------------------------------------------------------===//
// Simulator throughput (performance trajectory)
//===----------------------------------------------------------------------===//

/// Every app makeGridApp builds, i.e. the simulator's full workload mix.
const char *const ThroughputApps[] = {"barnes_hut", "water", "string",
                                      "kvserve"};
const unsigned ThroughputProcCounts[] = {2, 8};

/// How fast the simulator itself runs, as opposed to how fast the simulated
/// programs are: each job executes one dynamic-feedback run and reports the
/// hot loop's work (simulated micro-ops, iterations, intervals) divided by
/// host wall-clock time. The work counts are deterministic; the rates are
/// host-dependent and exist to track the simulator's speed PR over PR (the
/// checked-in BENCH_sim_throughput.json trajectory), so nothing gates hard
/// on them. Wall clock is measured inside RunJob and therefore frozen into
/// cached results -- measure with --no-cache.
Experiment makeSimThroughput() {
  Experiment E;
  E.Name = "sim_throughput";
  E.Suite = "perf";
  E.Description =
      "simulator hot-loop speed: simulated micro-ops and intervals per "
      "wall-clock second";
  E.DefaultScale = 0.125;
  E.MetricNames = {"micro_ops",     "iterations",       "intervals",
                   "wall_seconds",  "mops_per_sec",     "intervals_per_sec"};
  E.MakeJobs = [](const RunOptions &Opts) {
    std::vector<JobConfig> Jobs;
    for (const char *App : ThroughputApps)
      for (unsigned N : ThroughputProcCounts) {
        if (Opts.Procs && Opts.Procs != N)
          continue;
        JobConfig C = baseConfig(App, Opts);
        C.set("flavour", "dynamic");
        C.setInt("procs", N);
        Jobs.push_back(std::move(C));
      }
    return Jobs;
  };
  E.RunJob = [](const JobConfig &Config) {
    const std::unique_ptr<App> TheApp = makeGridApp(Config);
    if (!TheApp)
      return jobError("unknown app '" + Config.getString("app") + "'");
    const unsigned Procs = static_cast<unsigned>(Config.getInt("procs", 2));
    std::string Error;
    const std::unique_ptr<rt::MachineModel> Model =
        machineFromConfig(Config, Error);
    if (!Model)
      return jobError(Error);

    // Deltas, not absolute counter reads: dynfb-bench may fork workers but
    // BenchMain runs jobs sequentially in one process, and only the delta
    // is this job's work either way. App construction stays outside the
    // timed region -- this measures the simulator, not the workload
    // generators.
    const sim::ThroughputCounters Before = sim::throughputCounters();
    const auto Start = std::chrono::steady_clock::now();
    runApp(*TheApp, Procs, VersionSpec::dynamicFeedback(), *Model);
    const double Wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    const sim::ThroughputCounters &After = sim::throughputCounters();

    const double MicroOps =
        static_cast<double>(After.MicroOps - Before.MicroOps);
    const double Iterations =
        static_cast<double>(After.Iterations - Before.Iterations);
    const double Intervals =
        static_cast<double>(After.Intervals - Before.Intervals);
    JobResult R;
    R.add("micro_ops", MicroOps);
    R.add("iterations", Iterations);
    R.add("intervals", Intervals);
    R.add("wall_seconds", Wall);
    R.add("mops_per_sec", Wall > 0 ? MicroOps / Wall / 1e6 : 0.0);
    R.add("intervals_per_sec", Wall > 0 ? Intervals / Wall : 0.0);
    return R;
  };
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    std::printf("== Simulator throughput: dynamic feedback across %zu apps "
                "==\n",
                std::size(ThroughputApps));
    std::printf("rates are host wall clock (trajectory data, no hard "
                "gate); cached results replay the recorded wall clock, so "
                "measure with --no-cache\n\n");

    Table T("hot-loop throughput");
    T.setHeader({"App", "Procs", "Micro-ops", "Mops/s", "Intervals/s"});
    bool ShapeOk = !Results.empty();
    double TotalOps = 0, TotalIntervals = 0, TotalWall = 0;
    size_t I = 0;
    for (const char *App : ThroughputApps)
      for (unsigned N : ThroughputProcCounts) {
        if (Opts.Procs && Opts.Procs != N)
          continue;
        const JobResult &R = Results[I++];
        const double Ops = R.metric("micro_ops");
        const double Wall = R.metric("wall_seconds");
        TotalOps += Ops;
        TotalIntervals += R.metric("intervals");
        TotalWall += Wall;
        ShapeOk = ShapeOk && Ops > 0 && Wall > 0;
        T.addRow({App, format("%u", N), format("%.0f", Ops),
                  formatDouble(R.metric("mops_per_sec"), 2),
                  formatDouble(R.metric("intervals_per_sec"), 1)});
      }
    if (TotalWall > 0)
      T.addRow({"TOTAL", "", format("%.0f", TotalOps),
                formatDouble(TotalOps / TotalWall / 1e6, 2),
                formatDouble(TotalIntervals / TotalWall, 1)});
    printTable(T);

    std::printf("shape ok (every job simulated micro-ops in measurable "
                "wall clock): %s\n",
                ShapeOk ? "yes" : "NO");
    return ShapeOk ? 0 : 1;
  };
  return E;
}

//===----------------------------------------------------------------------===//
// Replay what-if exactness
//===----------------------------------------------------------------------===//

/// Validates the checkpointed counterfactual machinery (replay::Explorer)
/// against ground truth: for every section occurrence, a what-if produced
/// by forking the run at the phase boundary (checkpoint, pin a version,
/// run the occurrence, restore) must agree EXACTLY -- same duration, same
/// overhead accounting -- with a fresh uninterrupted run that pinned the
/// same version from the start. On the default (non-topology) machine an
/// occurrence's cost is independent of the virtual clock and lock homes,
/// so this is an equality gate, not a tolerance gate: one diverging
/// nanosecond means checkpoint/restore leaked state. The clairvoyant
/// regret per app rides along as trajectory data.
Experiment makeReplayWhatif() {
  Experiment E;
  E.Name = "replay_whatif";
  E.Suite = "extension";
  E.Description =
      "checkpointed what-if counterfactuals match fresh pinned runs "
      "exactly, plus dynamic's regret vs the clairvoyant oracle";
  E.DefaultScale = 0.125;
  E.MetricNames = {"whatif_checks",     "mismatches",
                   "max_abs_diff_ns",   "dynamic_seconds",
                   "clairvoyant_seconds", "regret_ratio"};
  E.MakeJobs = [](const RunOptions &Opts) {
    std::vector<JobConfig> Jobs;
    for (const char *App : ThroughputApps) {
      const unsigned N = 8;
      if (Opts.Procs && Opts.Procs != N)
        continue;
      JobConfig C = baseConfig(App, Opts);
      C.set("flavour", "dynamic");
      C.setInt("procs", N);
      Jobs.push_back(std::move(C));
    }
    return Jobs;
  };
  E.RunJob = [](const JobConfig &Config) {
    const std::unique_ptr<App> TheApp = makeGridApp(Config);
    if (!TheApp)
      return jobError("unknown app '" + Config.getString("app") + "'");
    const unsigned Procs = static_cast<unsigned>(Config.getInt("procs", 8));
    std::string Error;
    const std::unique_ptr<rt::MachineModel> Model =
        machineFromConfig(Config, Error);
    if (!Model)
      return jobError(Error);

    const replay::Exploration Ex = replay::explore(*TheApp, Procs, *Model);
    unsigned MaxVersions = 0;
    for (const replay::WhatIf &W : Ex.WhatIfs)
      MaxVersions = std::max(MaxVersions, W.Version + 1);

    // Ground truth: one fresh uninterrupted run per candidate version,
    // nothing checkpointed. Sections with fewer versions clamp the pin, so
    // a ground-truth occurrence is matched by (occurrence, clamped
    // version); the duplicate checks this produces are harmless.
    uint64_t Checks = 0, Mismatches = 0;
    rt::Nanos MaxAbsDiff = 0;
    for (unsigned V = 0; V < MaxVersions; ++V) {
      const std::vector<replay::WhatIf> Fresh =
          replay::runPinned(*TheApp, Procs, *Model, V);
      for (const replay::WhatIf &G : Fresh)
        for (const replay::WhatIf &W : Ex.occurrence(G.Occurrence)) {
          if (W.Version != G.Version)
            continue;
          ++Checks;
          const rt::Nanos Diff = W.DurationNanos > G.DurationNanos
                                     ? W.DurationNanos - G.DurationNanos
                                     : G.DurationNanos - W.DurationNanos;
          MaxAbsDiff = std::max(MaxAbsDiff, Diff);
          const bool StatsEqual =
              W.Stats.AcquireReleasePairs == G.Stats.AcquireReleasePairs &&
              W.Stats.FailedAcquires == G.Stats.FailedAcquires &&
              W.Stats.LockOpNanos == G.Stats.LockOpNanos &&
              W.Stats.WaitNanos == G.Stats.WaitNanos &&
              W.Stats.SchedNanos == G.Stats.SchedNanos &&
              W.Stats.ExecNanos == G.Stats.ExecNanos;
          if (Diff != 0 || !StatsEqual)
            ++Mismatches;
        }
    }

    const replay::RegretSummary S = replay::summarizeRegret(Ex);
    JobResult R;
    R.add("whatif_checks", static_cast<double>(Checks));
    R.add("mismatches", static_cast<double>(Mismatches));
    R.add("max_abs_diff_ns", static_cast<double>(MaxAbsDiff));
    R.add("dynamic_seconds", rt::nanosToSeconds(S.DynamicParallelNanos));
    R.add("clairvoyant_seconds",
          rt::nanosToSeconds(S.ClairvoyantParallelNanos));
    R.add("regret_ratio", S.regretRatio());
    return R;
  };
  E.Render = [](const RunOptions &Opts,
                const std::vector<JobResult> &Results) {
    std::printf("== Replay what-if: checkpointed counterfactuals vs fresh "
                "pinned runs ==\n\n");
    Table T("what-if exactness and clairvoyant regret");
    T.setHeader({"App", "Checks", "Mismatches", "Dynamic", "Clairvoyant",
                 "Regret"});
    bool AllExact = !Results.empty();
    size_t I = 0;
    for (const char *App : ThroughputApps) {
      if (Opts.Procs && Opts.Procs != 8)
        continue;
      const JobResult &R = Results[I++];
      const double Checks = R.metric("whatif_checks");
      const double Mism = R.metric("mismatches");
      AllExact = AllExact && Checks > 0 && Mism == 0;
      T.addRow({App, format("%.0f", Checks), format("%.0f", Mism),
                formatSeconds(R.metric("dynamic_seconds")),
                formatSeconds(R.metric("clairvoyant_seconds")),
                format("%.1f%%", R.metric("regret_ratio") * 100.0)});
    }
    printTable(T);
    std::printf("gate: every checkpointed what-if bit-identical to its "
                "fresh pinned run: %s\n",
                AllExact ? "PASS" : "FAIL");
    return AllExact ? 0 : 1;
  };
  return E;
}

} // namespace

void exp::registerBuiltinExperiments() {
  static bool Registered = false;
  if (Registered)
    return;
  Registered = true;
  registry().add(makeTable2BarnesHut());
  registry().add(makeTable3BhLocking());
  registry().add(makeTable7Water());
  registry().add(makeTable8WaterLocking());
  registry().add(makeVersionSpace());
  registry().add(makeVersionSearch());
  registry().add(makePerturbationAdaptivity());
  registry().add(makeMachineSensitivity());
  registry().add(makeServing());
  registry().add(makeBackendConcordance());
  registry().add(makeSimThroughput());
  registry().add(makeReplayWhatif());
}
