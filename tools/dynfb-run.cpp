//===- tools/dynfb-run.cpp - Run an application on the simulator -----------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Command-line driver:
//
//   dynfb-run --app water --procs 8 --policy dynamic
//   dynfb-run --app barnes_hut --procs 16 --policy aggressive --scale 0.25
//   dynfb-run --app water --sweep             # all versions x 1..16 procs
//   dynfb-run --app water --policy dynamic \
//       --perturb "contend@2s-4s:extra=200us" --drift 0.1
//   dynfb-run --app water --dimensions sync,sched --chunks 8,32 \
//       --policy dynamic                      # 3x3 version space
//   dynfb-run --app water --dimensions sync,sched --chunks 8 --list-versions
//
// Policies: serial, original, bounded, aggressive, dynamic; --list-versions
// prints the resolved version space and exits. The run knobs (--scale,
// --dimensions/--chunks, --sampling, --production, the robustness,
// resilience and search knobs, --perturb, --traffic, --cost, --timescale)
// are the rows of the knob table in obs/Export.cpp: running with no
// arguments lists them, and docs/ROBUSTNESS.md gives their ranges.
//
// Backends: --backend sim (default, virtual time) or --backend native
// (real host threads; --timescale F converts virtual compute nanoseconds
// to busy-wait nanoseconds, default 0.0005). The native backend ignores
// --machine/--cost pricing and rejects --perturb/--traffic/--sweep/--trace;
// everything else -- policies, the feedback controller, trace export --
// works identically on both.
//
// Observability (default-off; see docs/OBSERVABILITY.md): --trace-out FILE
// writes the run's JSONL adaptation trace (decision log + section + lock
// records, readable by dynfb-report), --chrome-out FILE the same run in
// Chrome trace_event format (chrome://tracing, Perfetto), --metrics-out
// FILE the global metrics registry as JSON, scoped to this run. All three
// work on either backend (native timestamps come from the steady clock).
// Recorded traces stamp the full run configuration into their meta line,
// so --replay TRACE reconstructs and re-drives the run, verifying every
// decision, section and lock record against the recording (docs/REPLAY.md;
// zero divergence and exit 0, or the first mismatching record and exit 1).
//
// Invalid input (unknown application, unknown section in a perturbation
// schedule, malformed schedule or configuration) produces a one-line
// diagnostic on stderr and a nonzero exit status -- never an abort.
//
//===----------------------------------------------------------------------===//

#include "apps/Harness.h"
#include "exp/Experiment.h"
#include "exp/PaperGrids.h"
#include "fb/Sampling.h"
#include "obs/Metrics.h"
#include "perturb/Traffic.h"
#include "replay/Replay.h"
#include "support/BuildInfo.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "xform/CodeSize.h"

#include <algorithm>
#include <cstdio>
#include <limits>

using namespace dynfb;
using namespace dynfb::apps;

namespace {

/// dynfb-run's flags besides --app, --replay, --version and the run_spec
/// knobs (obs::runSpecKnobs()), with their usage placeholders.
struct RunFlag {
  const char *Name;
  const char *Usage;
};
constexpr RunFlag RunFlags[] = {
    {"procs", "N"},
    {"policy", "serial|original|bounded|aggressive|dynamic"},
    {"list-versions", ""},
    {"sweep", ""},
    {"machine", "NAME"},
    {"backend", "sim|native"},
    {"trace", ""},
    {"trace-out", "FILE"},
    {"chrome-out", "FILE"},
    {"metrics-out", "FILE"},
};

/// Every flag dynfb-run accepts.
std::vector<std::string> knownFlags() {
  std::vector<std::string> Flags = {"app", "replay", "version"};
  for (const RunFlag &F : RunFlags)
    Flags.push_back(F.Name);
  for (const obs::Knob &K : obs::runSpecKnobs())
    Flags.push_back(K.Flag);
  return Flags;
}

int usage() {
  std::string Line =
      "usage: dynfb-run --app <barnes_hut|water|string|kvserve>";
  auto Add = [&](const char *Name, const char *Usage) {
    Line += format(" [--%s%s%s]", Name, *Usage ? " " : "", Usage);
  };
  for (const RunFlag &F : RunFlags)
    Add(F.Name, F.Usage);
  for (const obs::Knob &K : obs::runSpecKnobs())
    Add(K.Flag, K.Usage);
  std::fprintf(stderr,
               "%s\n       dynfb-run --replay TRACE [--trace-out FILE]\n",
               Line.c_str());
  return 1;
}

/// One-line diagnostic + failure exit code, the graceful path for every
/// input error.
int fail(const std::string &Msg) {
  std::fprintf(stderr, "dynfb-run: error: %s\n", Msg.c_str());
  return 1;
}

/// Writes \p Contents to \p Path; false (with \p Error set) on any I/O
/// failure.
bool writeFile(const std::string &Path, const std::string &Contents,
               std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  const size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), F);
  const int CloseRc = std::fclose(F);
  if (Written != Contents.size() || CloseRc != 0) {
    Error = "failed writing '" + Path + "'";
    return false;
  }
  return true;
}

/// Reads the whole of \p Path; nullopt (with \p Error set) on failure.
std::optional<std::string> readFile(const std::string &Path,
                                    std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Error = "cannot open '" + Path + "'";
    return std::nullopt;
  }
  std::string Out;
  char Buf[64 * 1024];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  const bool ReadError = std::ferror(F) != 0;
  std::fclose(F);
  if (ReadError) {
    Error = "failed reading '" + Path + "'";
    return std::nullopt;
  }
  return Out;
}

/// The --replay mode: reconstruct the recorded run from the trace's meta
/// line, re-drive it on a fresh simulator, and verify every record.
int runReplay(const CommandLine &CL, const std::string &ReplayPath) {
  // The replayed configuration comes entirely from the trace; any shaping
  // flag would silently disagree with it. Only --trace-out (re-export of
  // the replayed trace) composes.
  for (const std::string &Flag : knownFlags())
    if (Flag != "replay" && Flag != "trace-out" && CL.has(Flag))
      return fail(format("--replay takes its whole configuration from the "
                         "trace; --%s cannot be combined with it",
                         Flag.c_str()));
  std::string Error;
  const std::optional<std::string> Text = readFile(ReplayPath, Error);
  if (!Text)
    return fail(Error);
  const std::optional<obs::RunTrace> Recorded =
      obs::parseJsonl(*Text, Error);
  if (!Recorded)
    return fail("malformed trace '" + ReplayPath + "': " + Error);

  std::printf("replay: %s, policy %s, %u procs, machine %s\n",
              Recorded->Meta.App.c_str(), Recorded->Meta.Policy.c_str(),
              Recorded->Meta.Procs,
              Recorded->Meta.Machine.empty()
                  ? "dash-flat"
                  : Recorded->Meta.Machine.c_str());

  const std::optional<replay::ReplayResult> Result =
      replay::replayTrace(*Recorded, Error);
  if (!Result)
    return fail("cannot replay '" + ReplayPath + "': " + Error);

  const std::string TraceOut = CL.getString("trace-out", "");
  if (!TraceOut.empty() &&
      !writeFile(TraceOut, obs::toJsonl(Result->Replayed), Error))
    return fail(Error);

  if (Result->diverged()) {
    std::fprintf(stderr, "dynfb-run: replay DIVERGED at %s\n",
                 Result->Divergence.c_str());
    return 1;
  }
  std::printf("replay: zero divergence (%zu decisions, %zu sections, "
              "%zu locks verified)\n",
              Recorded->Decisions.size(), Recorded->Sections.size(),
              Recorded->Locks.size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  if (CL.has("version")) {
    std::printf("dynfb-run %s (result schema %lld, trace schema %lld)\n",
                buildHash(),
                static_cast<long long>(exp::ResultSchemaVersion),
                static_cast<long long>(obs::TraceSchemaVersion));
    return 0;
  }
  // Strict flag validation up front: the accepted flags span every branch
  // below, so a typo ('--chunk') dies here instead of being ignored.
  if (!rejectUnknownFlags(CL, "dynfb-run", knownFlags(), "no arguments"))
    return 2;
  const std::string ReplayPath = CL.getString("replay", "");
  if (!ReplayPath.empty())
    return runReplay(CL, ReplayPath);

  // The command line fills the meta line a recording of this run carries;
  // replay::resolve then builds the run from it exactly as --replay does.
  obs::TraceMeta Meta;
  obs::RunSpec &Spec = Meta.Spec;
  Meta.App = CL.getString("app", "");
  if (Meta.App.empty())
    return usage();

  // Execution backend: the virtual-time simulator (default) or real host
  // threads. Everything downstream of backend selection is one shared path.
  Meta.Backend = CL.getString("backend", "sim");
  if (Meta.Backend != "sim" && Meta.Backend != "native")
    return fail("unknown backend '" + Meta.Backend +
                "' (expected sim or native)");
  const bool Native = Meta.Backend == "native";
  if (Native) {
    // Native defaults shrink the feedback intervals: targets are real wall
    // time there, and a 100 s production interval would outlive the scaled
    // workload. Explicit --sampling/--production always win.
    Spec.SamplingNanos = rt::secondsToNanos(0.005);
    Spec.ProductionNanos = rt::secondsToNanos(0.2);
    Spec.TimeScale = 0.0005;
  } else if (CL.has("timescale")) {
    return fail("--timescale only applies to --backend native (the "
                "simulator already runs in virtual time)");
  }
  std::string Error;
  if (!obs::parseKnobFlags(CL, Spec, Error))
    return fail(Error);
  if (Native && Spec.TimeScale <= 0)
    return fail(format(
        "--timescale must be a positive virtual-to-real factor (got %g; "
        "did you mean the default 0.0005, which runs 1 ms of virtual "
        "compute as a 0.5 us busy-wait?)",
        Spec.TimeScale));
  if (const std::optional<fb::SamplerKind> Sampler =
          fb::parseSamplerName(Spec.Sampler)) {
    if (CL.has("search-budget") && *Sampler == fb::SamplerKind::Exhaustive)
      return fail("--search-budget only applies to --sampler halving or ucb "
                  "(exhaustive always measures every version)");
    if (CL.has("ucb-explore") && *Sampler != fb::SamplerKind::Ucb)
      return fail("--ucb-explore only applies to --sampler ucb");
  }
  if (Native && (!Spec.PerturbSpec.empty() || !Spec.TrafficSpec.empty()))
    return fail("--perturb/--traffic require the simulator backend (fault "
                "injection perturbs the simulated machine)");

  int64_t Procs = 8;
  if (!obs::parseIntegerFlag(CL, "procs", Procs, Error))
    return fail(Error);
  if (Procs < 1 || Procs > 1024)
    return fail("--procs must be between 1 and 1024");
  // Perturbation schedules are validated against the processor count the
  // run will actually use: --procs for a single run, the largest paper
  // processor count for --sweep.
  const bool Sweep = CL.getBool("sweep", false);
  Meta.Procs =
      Sweep ? *std::max_element(PaperProcCounts.begin(), PaperProcCounts.end())
            : static_cast<unsigned>(Procs);
  Meta.Policy = CL.getString("policy", "dynamic");
  Meta.Machine = CL.getString("machine", "dash-flat");

  const std::optional<replay::MaterializedRun> Run =
      replay::resolve(Meta, obs::KnobSource::CommandLine, Error);
  if (!Run)
    return fail(Error);
  const App &TheApp = *Run->App;
  const rt::MachineModel &Machine = *Run->Machine;

  // Plain runs on the paper's flat machine print nothing extra and stay
  // byte-identical.
  if (Meta.Machine != "dash-flat" || !Spec.CostOverrides.empty()) {
    if (!Native)
      std::printf("machine: %s (%s)\n  %s\n", Machine.name().c_str(),
                  Machine.description().c_str(),
                  Machine.paramsString().c_str());
    else
      std::printf("note: --machine/--cost price the simulated machine; the "
                  "native backend runs on real hardware and ignores them\n");
  }

  const xform::VersionSpace &Space = TheApp.versionSpace();
  if (CL.getBool("list-versions", false)) {
    const xform::CodeSizeModel SizeModel;
    const uint64_t SerialBase = 64 * 1024;
    const double SerialBytes = static_cast<double>(xform::serialExecutableBytes(
        TheApp.program(), SizeModel, SerialBase));
    Table T(format("%s: version space with %u versions", Meta.App.c_str(),
                   static_cast<unsigned>(Space.size())));
    T.setHeader({"name", "sync", "sched", "code size (vs serial)"});
    for (const xform::VersionDescriptor &D : Space.descriptors()) {
      const uint64_t Bytes = xform::fixedExecutableBytes(
          TheApp.program(), SizeModel, SerialBase, D);
      T.addRow({D.name(), xform::policyName(D.Policy), D.Sched.name(),
                format("%.2f", static_cast<double>(Bytes) / SerialBytes)});
    }
    std::fputs(T.renderText().c_str(), stdout);
    return 0;
  }

  if (!Spec.PerturbSpec.empty()) {
    std::printf("perturbation: %s\n",
                perturb::renderSchedule(Run->Perturb->schedule()).c_str());
  } else if (!Spec.TrafficSpec.empty()) {
    // Already parsed and compiled by resolve; re-parsed for its rendering.
    const std::optional<perturb::TrafficSpec> Traffic =
        perturb::parseTraffic(Spec.TrafficSpec, Error);
    std::printf("traffic: %s -> %u events over %u shard locks\n",
                perturb::renderTraffic(*Traffic).c_str(),
                static_cast<unsigned>(Run->Perturb->schedule().Events.size()),
                replay::trafficShards(TheApp));
  }

  // Observability exports, all default-off so a plain run's output stays
  // byte-identical to the seed.
  const std::string TraceOut = CL.getString("trace-out", "");
  const std::string ChromeOut = CL.getString("chrome-out", "");
  const std::string MetricsOut = CL.getString("metrics-out", "");
  const bool WantRunTrace = !TraceOut.empty() || !ChromeOut.empty();
  if (!MetricsOut.empty())
    obs::globalMetrics().reset(); // Scope the export to this invocation.
  auto WriteMetrics = [&]() -> std::optional<std::string> {
    if (MetricsOut.empty())
      return std::nullopt;
    std::string Error;
    if (!writeFile(MetricsOut, obs::globalMetrics().toJson(), Error))
      return Error;
    return std::nullopt;
  };

  if (Sweep) {
    if (Native)
      return fail("--sweep requires the simulator backend (for native "
                  "grids, see dynfb-bench run --exp backend_concordance)");
    if (WantRunTrace)
      return fail("--trace-out/--chrome-out apply to a single run, not "
                  "--sweep");
    Table T(Meta.App + ": execution times (seconds)");
    T.setHeader(exp::versionByProcsHeader(PaperProcCounts));
    auto Seconds = [&](unsigned N, const VersionSpec &VS) {
      return rt::nanosToSeconds(runApp(TheApp, N, VS, Machine, Run->Config,
                                       nullptr, Run->Perturb.get())
                                    .TotalNanos);
    };
    for (const xform::VersionDescriptor &D : Space.descriptors()) {
      std::vector<std::string> Row{D.name()};
      for (unsigned N : PaperProcCounts)
        Row.push_back(formatDouble(Seconds(N, VersionSpec::fixed(D)), 2));
      T.addRow(Row);
    }
    std::vector<std::string> Dyn{"Dynamic"};
    for (unsigned N : PaperProcCounts)
      Dyn.push_back(
          formatDouble(Seconds(N, VersionSpec::dynamicFeedback()), 2));
    T.addRow(Dyn);
    std::fputs(T.renderText().c_str(), stdout);
    if (std::optional<std::string> Error = WriteMetrics())
      return fail(*Error);
    return 0;
  }

  obs::RunTrace Trace;
  const fb::RunResult R = replay::record(
      *Run, Meta,
      Native ? BackendOptions::native(Spec.TimeScale) : BackendOptions::sim(),
      WantRunTrace ? &Trace : nullptr);

  if (Native)
    std::printf("%s, %u procs, policy %s [native backend, timescale %g]: "
                "%.3f s real\n",
                Meta.App.c_str(), Run->Procs, Meta.Policy.c_str(),
                Spec.TimeScale, rt::nanosToSeconds(R.TotalNanos));
  else
    std::printf("%s, %u procs, policy %s: %.3f s\n", Meta.App.c_str(),
                Run->Procs, Meta.Policy.c_str(),
                rt::nanosToSeconds(R.TotalNanos));
  std::printf("  acquire/release pairs: %s\n",
              withThousandsSep(R.ParallelStats.AcquireReleasePairs).c_str());
  std::printf("  locking overhead: %s, waiting: %s (proportion %.3f)\n",
              formatSeconds(rt::nanosToSeconds(R.ParallelStats.LockOpNanos))
                  .c_str(),
              formatSeconds(rt::nanosToSeconds(R.ParallelStats.WaitNanos))
                  .c_str(),
              R.ParallelStats.waitingProportion());
  if (Run->Spec.F == Flavour::Dynamic) {
    for (const fb::SectionExecutionTrace &T : R.Occurrences) {
      if (T.ChosenVersions.empty())
        continue;
      const xform::VersionedSection *VS = TheApp.program().find(T.SectionName);
      std::printf("  %s -> %s (sampling phases %u, sampled intervals %u)\n",
                  T.SectionName.c_str(),
                  VS->Versions[*T.dominantVersion()].label().c_str(),
                  T.SamplingPhases, T.SampledIntervals);
      if (T.DegenerateIntervals || T.EarlyResamples || T.HysteresisHolds)
        std::printf("    robustness: %u degenerate intervals discarded, "
                    "%u early resamples, %u hysteresis holds\n",
                    T.DegenerateIntervals, T.EarlyResamples,
                    T.HysteresisHolds);
      if (T.Quarantines || T.Reprobes || T.WatchdogResamples ||
          T.DegradedPhases)
        std::printf("    resilience: %u quarantines, %u re-probes, "
                    "%u watchdog resamples, %u degraded phases\n",
                    T.Quarantines, T.Reprobes, T.WatchdogResamples,
                    T.DegradedPhases);
    }
  }

  if (!TraceOut.empty() && !writeFile(TraceOut, obs::toJsonl(Trace), Error))
    return fail(Error);
  if (!ChromeOut.empty() &&
      !writeFile(ChromeOut, obs::toChromeTrace(Trace), Error))
    return fail(Error);

  if (Native && CL.getBool("trace", false))
    return fail("--trace (interval contention report) requires the "
                "simulator backend; use --trace-out FILE, which works on "
                "both backends");
  if (CL.getBool("trace", false) && Run->Spec.F == Flavour::Fixed) {
    // Contention report: re-run each section with an interval trace.
    auto Backend = TheApp.makeSimBackend(Run->Procs, Machine, Run->Spec);
    for (const xform::VersionedSection &VS : TheApp.program().Sections) {
      auto Runner = Backend->beginSectionSim(VS.Name);
      rt::IntervalTrace Trace;
      Runner->attachTrace(&Trace);
      while (!Runner->done())
        Runner->runInterval(0, std::numeric_limits<rt::Nanos>::max() / 4);
      std::printf("\nsection %s ", VS.Name.c_str());
      std::fputs(Trace.renderText().c_str(), stdout);
    }
  }
  if (std::optional<std::string> Error = WriteMetrics())
    return fail(*Error);
  return 0;
}
