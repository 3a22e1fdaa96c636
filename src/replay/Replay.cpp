//===- replay/Replay.cpp --------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "replay/Replay.h"

#include "apps/Factory.h"
#include "apps/Harness.h"
#include "fb/Sampling.h"
#include "perturb/Traffic.h"
#include "support/StringUtils.h"
#include "xform/VersionSpace.h"

#include <algorithm>
#include <utility>

using namespace dynfb;
using namespace dynfb::replay;

namespace {

/// Maps a policy name to the executable flavour.
std::optional<apps::VersionSpec> specForPolicy(const std::string &Policy) {
  if (Policy == "serial")
    return apps::VersionSpec::serial();
  if (Policy == "original")
    return apps::VersionSpec::fixed(xform::PolicyKind::Original);
  if (Policy == "bounded")
    return apps::VersionSpec::fixed(xform::PolicyKind::Bounded);
  if (Policy == "aggressive")
    return apps::VersionSpec::fixed(xform::PolicyKind::Aggressive);
  if (Policy == "dynamic")
    return apps::VersionSpec::dynamicFeedback();
  return std::nullopt;
}

/// Names the run_spec key(s) a sub-parser's diagnostic is about. Command-line
/// diagnostics stay as the parser wrote them: they already name the flag or
/// quote the value.
std::string about(const char *Keys, obs::KnobSource Source,
                  const std::string &Error) {
  return Source == obs::KnobSource::Trace
             ? format("run_spec %s: %s", Keys, Error.c_str())
             : Error;
}

/// The diagnostic name of the knob with run_spec key \p Key.
std::string nameOf(const char *Key, obs::KnobSource Source) {
  return obs::knobName(obs::knobByKey(Key), Source);
}

/// The single RunSpec -> FeedbackConfig mapping: range-checks every knob
/// through the table, then maps field for field. A new knob adds one line
/// here.
std::optional<fb::FeedbackConfig> configFromSpec(const obs::RunSpec &Spec,
                                                 obs::KnobSource Source,
                                                 std::string &Error) {
  if (!obs::checkRunSpec(Spec, Source, Error))
    return std::nullopt;
  fb::FeedbackConfig Config;
  Config.TargetSamplingNanos = Spec.SamplingNanos;
  Config.TargetProductionNanos = Spec.ProductionNanos;
  Config.EarlyCutoff = Spec.Cutoff;
  Config.UsePolicyOrdering = Spec.Ordering;
  Config.SpanSectionExecutions = Spec.Spanning;
  Config.SamplingRepeats = static_cast<unsigned>(Spec.Repeats);
  if (Spec.Aggregate == "mean")
    Config.SamplingAggregation = rt::OverheadAggregation::Mean;
  else if (Spec.Aggregate == "median")
    Config.SamplingAggregation = rt::OverheadAggregation::Median;
  else if (Spec.Aggregate == "trimmed")
    Config.SamplingAggregation = rt::OverheadAggregation::TrimmedMean;
  else {
    Error = nameOf("aggregate", Source) +
            " must be mean, median or trimmed (got '" + Spec.Aggregate + "')";
    return std::nullopt;
  }
  Config.SwitchHysteresis = Spec.Hysteresis;
  Config.DriftResampleThreshold = Spec.Drift;
  Config.ProductionSliceNanos = Spec.SliceNanos;
  Config.QuarantineStrikes = static_cast<unsigned>(Spec.QuarantineStrikes);
  Config.QuarantineWindowPhases = static_cast<unsigned>(Spec.QuarantineWindow);
  Config.QuarantineOverheadLimit = Spec.QuarantineLimit;
  Config.QuarantineBackoffPhases =
      static_cast<unsigned>(Spec.QuarantineBackoff);
  Config.QuarantineBackoffMaxPhases = std::max(
      Config.QuarantineBackoffMaxPhases, Config.QuarantineBackoffPhases);
  Config.WatchdogBadSlices = static_cast<unsigned>(Spec.Watchdog);
  Config.WatchdogOverheadLimit = Spec.WatchdogLimit;
  if (std::optional<fb::SamplerKind> K = fb::parseSamplerName(Spec.Sampler))
    Config.Sampler = *K;
  else {
    Error = about("'sampler'", Source,
                  unknownName("sampler", Spec.Sampler, fb::samplerNames(),
                              "known samplers"));
    return std::nullopt;
  }
  Config.SearchBudgetFraction = Spec.SearchBudget;
  Config.UcbExplore = Spec.UcbExplore;
  return Config;
}

/// Parses, validates and compiles the --perturb schedule or --traffic spec
/// of \p Meta against \p Run's app and processor count (null engine when
/// neither is set).
bool compilePerturbation(const obs::TraceMeta &Meta, obs::KnobSource Source,
                         MaterializedRun &Run, std::string &Error) {
  const obs::RunSpec &Spec = Meta.Spec;
  const std::string Perturb = nameOf("perturb", Source);
  const std::string Traffic = nameOf("traffic", Source);
  if (!Spec.PerturbSpec.empty() && !Spec.TrafficSpec.empty()) {
    Error = Perturb + " and " + Traffic +
            " are mutually exclusive (compiled traffic already is a "
            "perturbation schedule)";
    return false;
  }
  if (!Spec.PerturbSpec.empty()) {
    std::optional<perturb::PerturbationSchedule> Schedule =
        perturb::parseSchedule(Spec.PerturbSpec, Error);
    if (!Schedule) {
      Error = "malformed " + Perturb + " schedule: " + Error;
      return false;
    }
    for (const std::string &Section : Schedule->referencedSections())
      if (!Run.App->program().find(Section)) {
        Error = Perturb + " references unknown section '" + Section +
                "' of application '" + Meta.App + "'";
        return false;
      }
    if (!perturb::validateSchedule(*Schedule, Run.Procs, Error)) {
      Error = "invalid " + Perturb + " schedule: " + Error;
      return false;
    }
    Run.Perturb =
        std::make_unique<perturb::PerturbationEngine>(std::move(*Schedule));
  } else if (!Spec.TrafficSpec.empty()) {
    const std::optional<perturb::TrafficSpec> TrafficSpec =
        perturb::parseTraffic(Spec.TrafficSpec, Error);
    if (!TrafficSpec) {
      Error = "malformed " + Traffic + " spec: " + Error;
      return false;
    }
    perturb::PerturbationSchedule Schedule = perturb::compileTraffic(
        *TrafficSpec, trafficShards(*Run.App), Run.Procs);
    if (!perturb::validateSchedule(Schedule, Run.Procs, Error)) {
      Error = "internal error: compiled traffic schedule invalid: " + Error;
      return false;
    }
    Run.Perturb =
        std::make_unique<perturb::PerturbationEngine>(std::move(Schedule));
  }
  return true;
}

/// The "type" of one serialized JSONL line, for divergence messages.
std::string lineType(const std::string &Line) {
  const std::string Key = "\"type\":\"";
  const size_t Pos = Line.find(Key);
  if (Pos == std::string::npos)
    return "record";
  const size_t Start = Pos + Key.size();
  const size_t End = Line.find('"', Start);
  return End == std::string::npos ? "record" : Line.substr(Start, End - Start);
}

} // namespace

unsigned replay::trafficShards(const apps::App &App) {
  const auto &Sections = App.program().Sections;
  return Sections.empty() ? 0
                          : App.binding(Sections.front().Name).objectCount();
}

std::optional<MaterializedRun> replay::resolve(const obs::TraceMeta &Meta,
                                               obs::KnobSource Source,
                                               std::string &Error) {
  const obs::RunSpec &Spec = Meta.Spec;
  MaterializedRun Run;
  // First: the range check covers the scale the app is built at.
  std::optional<fb::FeedbackConfig> Config =
      configFromSpec(Spec, Source, Error);
  if (!Config)
    return std::nullopt;
  Run.Config = *Config;
  if (Meta.Procs < 1) {
    Error = "trace meta has no processor count";
    return std::nullopt;
  }
  Run.Procs = Meta.Procs;

  // Version space: the cross product of the requested adaptation
  // dimensions (default: the three synchronization policies under dynamic
  // self-scheduling).
  xform::VersionSpace Space;
  if (!Spec.Dimensions.empty() || !Spec.Chunks.empty()) {
    std::optional<xform::VersionSpace> Parsed = xform::VersionSpace::parse(
        Spec.Dimensions.empty() ? "sync" : Spec.Dimensions, Spec.Chunks,
        Error);
    if (!Parsed) {
      Error = about("'dimensions', 'chunks'", Source, Error);
      return std::nullopt;
    }
    Space = std::move(*Parsed);
  }
  Run.App = apps::createApp(Meta.App, Spec.Scale, Space);
  if (!Run.App) {
    Error = "unknown application '" + Meta.App +
            "' (expected barnes_hut, water, string or kvserve)";
    return std::nullopt;
  }

  // Machine model and per-field cost overrides. The default is the flat
  // DASH-like machine of every paper table.
  const std::string MachineName =
      Meta.Machine.empty() ? "dash-flat" : Meta.Machine;
  Run.Machine = rt::createMachineModel(MachineName);
  if (!Run.Machine) {
    Error = unknownName("machine model", MachineName, rt::machineModelNames(),
                        "known models");
    return std::nullopt;
  }
  if (!Spec.CostOverrides.empty() &&
      !rt::applyCostOverrides(*Run.Machine, Spec.CostOverrides, Error)) {
    Error = about("'cost'", Source, Error);
    return std::nullopt;
  }

  Run.PolicyName = Meta.Policy;
  const std::optional<apps::VersionSpec> VSpec = specForPolicy(Meta.Policy);
  if (!VSpec) {
    Error = "unknown policy '" + Meta.Policy +
            "' (expected serial, original, bounded, aggressive or dynamic)";
    return std::nullopt;
  }
  Run.Spec = *VSpec;

  if (!compilePerturbation(Meta, Source, Run, Error))
    return std::nullopt;
  return Run;
}

std::optional<MaterializedRun>
replay::materialize(const obs::RunTrace &Trace, std::string &Error) {
  const obs::TraceMeta &Meta = Trace.Meta;
  if (!Meta.Spec.Present) {
    Error = "trace has no run_spec (recorded before replay support; "
            "re-record with a current dynfb-run --trace-out)";
    return std::nullopt;
  }
  if (Meta.Backend != "sim") {
    Error = "trace was recorded on the '" + Meta.Backend +
            "' backend; only simulator traces are replayable (real time "
            "is not deterministic)";
    return std::nullopt;
  }
  std::optional<MaterializedRun> Run =
      resolve(Meta, obs::KnobSource::Trace, Error);
  if (!Run)
    return std::nullopt;
  // The recorded parameter set is the ground truth: a mismatch means the
  // model's defaults changed since the recording, and a replay on different
  // prices would diverge for a reason the diff could not explain.
  if (!Meta.MachineParams.empty() &&
      Run->Machine->paramsString() != Meta.MachineParams) {
    Error = "rebuilt machine parameters differ from the recording "
            "(recorded '" +
            Meta.MachineParams + "', rebuilt '" +
            Run->Machine->paramsString() + "')";
    return std::nullopt;
  }
  return Run;
}

fb::RunResult replay::record(const MaterializedRun &Run,
                             const obs::TraceMeta &Meta,
                             const apps::BackendOptions &Backend,
                             obs::RunTrace *Trace) {
  // Observation never alters the run, so a recorded run behaves as an
  // unobserved one; history only under policy ordering.
  fb::PolicyHistory History;
  apps::RunObservation Obs;
  Obs.CollectSectionTraces = Trace != nullptr;
  const fb::RunResult R = apps::runApp(
      *Run.App, Run.Procs, Run.Spec, *Run.Machine, Run.Config,
      Run.Config.UsePolicyOrdering ? &History : nullptr, Run.Perturb.get(),
      Trace ? &Obs : nullptr, Backend);
  if (Trace) {
    *Trace = apps::buildRunTrace(Meta.App, Run.Procs, Run.PolicyName, R, &Obs,
                                 Backend.Kind);
    if (Backend.Kind == rt::BackendKind::Sim) {
      // Machine pricing is a simulator concept; native traces carry no
      // machine fields (real hardware set the prices).
      Trace->Meta.Machine = Run.Machine->name();
      Trace->Meta.MachineParams = Run.Machine->paramsString();
    }
    // Self-description: the full run configuration, so the trace is
    // executable (dynfb-run --replay) and dynfb-report can print the run's
    // provenance. Configuration, not measurement: a replay carries the
    // recorded spec over verbatim.
    Trace->Meta.Spec = Meta.Spec;
    Trace->Meta.Spec.Present = true;
  }
  return R;
}

std::string replay::compareTraces(const obs::RunTrace &Recorded,
                                  const obs::RunTrace &Replayed) {
  const std::vector<std::string> A = splitString(obs::toJsonl(Recorded), '\n');
  const std::vector<std::string> B = splitString(obs::toJsonl(Replayed), '\n');
  const size_t Common = std::min(A.size(), B.size());
  for (size_t I = 0; I < Common; ++I)
    if (A[I] != B[I])
      return format("line %zu (%s): recorded %s | replayed %s", I + 1,
                    lineType(A[I]).c_str(), A[I].c_str(), B[I].c_str());
  if (A.size() != B.size()) {
    const bool RecordedLonger = A.size() > B.size();
    const std::string &Extra = RecordedLonger ? A[Common] : B[Common];
    return format("line %zu (%s): %s trace has %zu extra record(s), first: "
                  "%s",
                  Common + 1, lineType(Extra).c_str(),
                  RecordedLonger ? "recorded" : "replayed",
                  (RecordedLonger ? A.size() : B.size()) - Common,
                  Extra.c_str());
  }
  return "";
}

std::optional<ReplayResult> replay::replayTrace(const obs::RunTrace &Recorded,
                                                std::string &Error) {
  std::optional<MaterializedRun> Run = materialize(Recorded, Error);
  if (!Run)
    return std::nullopt;
  // Re-drive exactly the recording path (the recording had --trace-out).
  ReplayResult Result;
  record(*Run, Recorded.Meta, apps::BackendOptions::sim(), &Result.Replayed);
  Result.Divergence = compareTraces(Recorded, Result.Replayed);
  return Result;
}
