//===- obs/Export.cpp -----------------------------------------------------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"

#include "obs/Json.h"
#include "support/BuildInfo.h"
#include "support/CommandLine.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <type_traits>
#include <variant>

using namespace dynfb;
using namespace dynfb::obs;

namespace {

constexpr double Unbounded = std::numeric_limits<double>::infinity();
/// Counts map to unsigned fb::FeedbackConfig fields.
constexpr double MaxCount = std::numeric_limits<unsigned>::max();
/// 1e9 seconds: adding it to a run's clock is still far from int64 overflow.
constexpr double MaxNanos = 1e18;
constexpr double MaxScale = 16; // Every app allocates 16x in under 100 MB.

// Rows in run_spec key order: the writer emits this order, so reordering
// rows changes every trace.
constexpr Knob Knobs[] = {
    {"scale", "scale", KnobKind::Real, &RunSpec::Scale, "F",
     "a workload scale in [0, 16]", 0, MaxScale},
    {"dimensions", "dimensions", KnobKind::Text, &RunSpec::Dimensions,
     "sync[,sched]"},
    {"chunks", "chunks", KnobKind::Text, &RunSpec::Chunks, "K1,K2,..."},
    {"sampling_ns", "sampling", KnobKind::Seconds, &RunSpec::SamplingNanos,
     "S", "a positive number of seconds", 0, MaxNanos, true},
    {"production_ns", "production", KnobKind::Seconds,
     &RunSpec::ProductionNanos, "S", "a positive number of seconds", 0,
     MaxNanos, true},
    {"cutoff", "cutoff", KnobKind::Bool, &RunSpec::Cutoff},
    {"ordering", "ordering", KnobKind::Bool, &RunSpec::Ordering},
    {"spanning", "spanning", KnobKind::Bool, &RunSpec::Spanning},
    {"repeats", "repeats", KnobKind::Count, &RunSpec::Repeats, "N",
     "at least 1", 1, MaxCount},
    {"aggregate", "aggregate", KnobKind::Text, &RunSpec::Aggregate,
     "mean|median|trimmed"},
    {"hysteresis", "hysteresis", KnobKind::Real, &RunSpec::Hysteresis, "X",
     "an overhead margin in [0, 1)", 0, 1, false, true},
    {"drift", "drift", KnobKind::Real, &RunSpec::Drift, "X",
     "an overhead margin in [0, 1)", 0, 1, false, true},
    {"slice_ns", "slice", KnobKind::Seconds, &RunSpec::SliceNanos, "S",
     "a non-negative number of seconds", 0, MaxNanos},
    {"quarantine", "quarantine", KnobKind::Count, &RunSpec::QuarantineStrikes,
     "N", "a non-negative strike count (0 disables)", 0, MaxCount},
    {"quarantine_window", "quarantine-window", KnobKind::Count,
     &RunSpec::QuarantineWindow, "N", "at least 1 sampling phase", 1,
     MaxCount},
    {"quarantine_limit", "quarantine-limit", KnobKind::Real,
     &RunSpec::QuarantineLimit, "X", "an overhead in (0, 1]", 0, 1, true},
    {"quarantine_backoff", "quarantine-backoff", KnobKind::Count,
     &RunSpec::QuarantineBackoff, "N", "at least 1 sampling phase", 1,
     MaxCount},
    {"watchdog", "watchdog", KnobKind::Count, &RunSpec::Watchdog, "N",
     "a non-negative production-interval count (0 disables)", 0, MaxCount},
    {"watchdog_limit", "watchdog-limit", KnobKind::Real,
     &RunSpec::WatchdogLimit, "X", "an overhead in (0, 1]", 0, 1, true},
    {"sampler", "sampler", KnobKind::Text, &RunSpec::Sampler,
     "exhaustive|halving|ucb"},
    {"search_budget", "search-budget", KnobKind::Real, &RunSpec::SearchBudget,
     "F", "a fraction of the exhaustive sampling cost in (0, 1]", 0, 1, true},
    {"ucb_explore", "ucb-explore", KnobKind::Real, &RunSpec::UcbExplore, "C",
     "a non-negative exploration constant", 0, Unbounded},
    {"perturb", "perturb", KnobKind::Text, &RunSpec::PerturbSpec, "SCHEDULE"},
    {"traffic", "traffic", KnobKind::Text, &RunSpec::TrafficSpec, "SPEC"},
    {"cost", "cost", KnobKind::Text, &RunSpec::CostOverrides,
     "Field=nanos[,Field=nanos]"},
    {"timescale", "timescale", KnobKind::Real, &RunSpec::TimeScale, "F",
     "a non-negative virtual-to-real factor", 0, Unbounded},
};

/// Range check of one numeric value, in \p K's stored unit.
bool checkValue(const Knob &K, double V, KnobSource Source,
                std::string &Error) {
  const bool AboveMin = K.MinOpen ? V > K.Min : V >= K.Min;
  const bool BelowMax = K.MaxOpen ? V < K.Max : V <= K.Max;
  if (std::isfinite(V) && AboveMin && BelowMax)
    return true;
  const std::string Name = knobName(K, Source);
  // Count and seconds requirements state only their lower bound.
  if (std::isfinite(V) && AboveMin && K.Kind == KnobKind::Count)
    Error = format("%s must be at most %.0f", Name.c_str(), K.Max);
  else if (std::isfinite(V) && AboveMin && K.Kind == KnobKind::Seconds)
    Error = format("%s must be at most %g seconds", Name.c_str(), K.Max / 1e9);
  else
    Error = Name + " must be " + K.Requirement;
  return false;
}

/// Strict value of flag --\p Flag: the whole text must parse as a T.
template <typename T>
bool parseNumberFlag(const CommandLine &CL, const std::string &Flag, T &Value,
                     std::string &Error) {
  if (!CL.has(Flag))
    return true;
  const std::string Text = CL.getString(Flag, "");
  char *End = nullptr;
  T V;
  if constexpr (std::is_integral_v<T>)
    V = std::strtoll(Text.c_str(), &End, 10); // Saturates out of range.
  else
    V = std::strtod(Text.c_str(), &End);
  if (Text.empty() || *End != '\0') {
    Error = format("--%s expects %s (got '%s')", Flag.c_str(),
                   std::is_integral_v<T> ? "an integer" : "a number",
                   Text.c_str());
    return false;
  }
  Value = V;
  return true;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  Out += jsonEscape(S);
  Out += '"';
  return Out;
}

std::string intField(const char *Key, int64_t V) {
  return format("\"%s\":%lld", Key, static_cast<long long>(V));
}

std::string uintField(const char *Key, uint64_t V) {
  return format("\"%s\":%llu", Key, static_cast<unsigned long long>(V));
}

/// Overheads serialize as null when non-finite (JSON has no NaN); the
/// parser maps null back to NaN.
std::string overheadField(double V) {
  return std::isfinite(V) ? format("\"overhead\":%.17g", V)
                          : std::string("\"overhead\":null");
}

/// Appends "," followed by \p Field. Separate statements, not operator+ on
/// a string literal: GCC's -Wrestrict mis-fires on that pattern.
void addField(std::string &Out, const std::string &Field) {
  Out += ',';
  Out += Field;
}

/// The "run_spec" meta object: one key per knob-table row, in table order
/// and always present, so a spec round-trips byte for byte.
std::string runSpecObject(const RunSpec &Spec) {
  std::string Out = "{";
  for (const Knob &K : runSpecKnobs()) {
    if (Out.size() > 1)
      Out += ',';
    Out += quoted(K.Key);
    Out += ':';
    Out += std::visit(
        [&](auto Member) -> std::string {
          const auto &V = Spec.*Member;
          using T = std::decay_t<decltype(V)>;
          if constexpr (std::is_same_v<T, bool>)
            return V ? "true" : "false";
          else if constexpr (std::is_same_v<T, int64_t>)
            return format("%lld", static_cast<long long>(V));
          else if constexpr (std::is_same_v<T, double>)
            // %.17g round-trips every finite double exactly through
            // strtod, the property record -> replay -> record byte-identity
            // relies on.
            return format("%.17g", V);
          else
            return quoted(V);
        },
        K.Field);
  }
  Out += "}";
  return Out;
}

/// Reads the run_spec object into \p Spec. A missing key keeps its default;
/// a value of the wrong JSON type, or a count that is not a 64-bit integer,
/// fails with a diagnostic naming the key. Ranges are replay's to check.
bool parseRunSpec(const JsonValue &Obj, RunSpec &Spec, std::string &Error) {
  Spec.Present = true;
  for (const Knob &K : runSpecKnobs()) {
    const JsonValue *V = Obj.find(K.Key);
    if (!V)
      continue;
    const char *Expected = std::visit(
        [&](auto Member) -> const char * {
          auto &Field = Spec.*Member;
          using T = std::decay_t<decltype(Field)>;
          const bool IsNumber = V->kind() == JsonValue::Kind::Number;
          if constexpr (std::is_same_v<T, bool>) {
            if (V->kind() != JsonValue::Kind::Bool)
              return "true or false";
            Field = V->asBool();
          } else if constexpr (std::is_same_v<T, int64_t>) {
            const double D = V->asNumber();
            if (!IsNumber || D != std::trunc(D) || std::fabs(D) >= 0x1p63)
              return "a 64-bit integer";
            Field = static_cast<int64_t>(D);
          } else if constexpr (std::is_same_v<T, double>) {
            if (!IsNumber)
              return "a number";
            Field = V->asNumber();
          } else {
            if (V->kind() != JsonValue::Kind::String)
              return "a string";
            Field = V->asString();
          }
          return nullptr;
        },
        K.Field);
    if (Expected) {
      Error = knobName(K, KnobSource::Trace) + " must be " + Expected;
      return false;
    }
  }
  return true;
}

std::string decisionLine(const DecisionEvent &E) {
  std::string Out = "{\"type\":\"decision\",\"kind\":";
  Out += quoted(decisionKindName(E.Kind));
  addField(Out, intField("t_ns", E.TimeNanos));
  Out += ",\"section\":";
  Out += quoted(E.Section);
  addField(Out, uintField("version", E.Version));
  Out += ",\"label\":";
  Out += quoted(E.Label);
  addField(Out, overheadField(E.Overhead));
  addField(Out, uintField("repeats", E.Repeats));
  addField(Out, uintField("degenerate", E.Degenerate));
  if (E.Kind == DecisionKind::Switch) {
    Out += ",\"reason\":";
    Out += quoted(switchReasonName(E.Reason));
  }
  Out += "}";
  return Out;
}

std::string sectionLine(const SectionRecord &S) {
  std::string Out = "{\"type\":\"section\",\"section\":";
  Out += quoted(S.Section);
  addField(Out, intField("start_ns", S.StartNanos));
  addField(Out, intField("end_ns", S.EndNanos));
  addField(Out, uintField("pairs", S.AcquireReleasePairs));
  addField(Out, intField("lockop_ns", S.LockOpNanos));
  addField(Out, intField("wait_ns", S.WaitNanos));
  addField(Out, intField("sched_ns", S.SchedNanos));
  addField(Out, intField("exec_ns", S.ExecNanos));
  addField(Out, uintField("sampling_phases", S.SamplingPhases));
  addField(Out, uintField("sampled_intervals", S.SampledIntervals));
  addField(Out, uintField("degenerate", S.DegenerateIntervals));
  addField(Out, uintField("early_resamples", S.EarlyResamples));
  addField(Out, uintField("hysteresis_holds", S.HysteresisHolds));
  Out += "}";
  return Out;
}

std::string lockLine(const LockRecord &L) {
  std::string Out = "{\"type\":\"lock\",\"section\":";
  Out += quoted(L.Section);
  addField(Out, uintField("object", L.Object));
  addField(Out, uintField("acquires", L.Acquires));
  addField(Out, uintField("contended", L.Contended));
  addField(Out, intField("wait_ns", L.WaitNanos));
  Out += "}";
  return Out;
}

} // namespace

std::span<const Knob> obs::runSpecKnobs() { return Knobs; }

const Knob &obs::knobByKey(const std::string &Key) {
  for (const Knob &K : Knobs)
    if (Key == K.Key)
      return K;
  DYNFB_UNREACHABLE("no run_spec knob with this key");
}

std::string obs::knobName(const Knob &K, KnobSource Source) {
  return Source == KnobSource::CommandLine ? std::string("--") + K.Flag
                                           : format("run_spec '%s'", K.Key);
}

bool obs::checkRunSpec(const RunSpec &Spec, KnobSource Source,
                       std::string &Error) {
  for (const Knob &K : Knobs) {
    double V;
    if (const auto *I = std::get_if<int64_t RunSpec::*>(&K.Field))
      V = static_cast<double>(Spec.**I);
    else if (const auto *D = std::get_if<double RunSpec::*>(&K.Field))
      V = Spec.**D;
    else
      continue; // Bool and Text knobs have no range.
    if (!checkValue(K, V, Source, Error))
      return false;
  }
  return true;
}

bool obs::parseIntegerFlag(const CommandLine &CL, const std::string &Flag,
                           int64_t &Value, std::string &Error) {
  return parseNumberFlag(CL, Flag, Value, Error);
}

bool obs::parseKnobFlags(const CommandLine &CL, RunSpec &Spec,
                         std::string &Error) {
  for (const Knob &K : Knobs) {
    if (!CL.has(K.Flag))
      continue;
    if (K.Kind == KnobKind::Seconds) {
      // Range-checked before narrowing: NaN or 1e30 s has no Nanos value.
      double Seconds = 0;
      if (!parseNumberFlag(CL, K.Flag, Seconds, Error) ||
          !checkValue(K, Seconds * 1e9, KnobSource::CommandLine, Error))
        return false;
      Spec.*std::get<int64_t RunSpec::*>(K.Field) =
          rt::secondsToNanos(Seconds);
      continue;
    }
    const bool Parsed = std::visit(
        [&](auto Member) {
          auto &Field = Spec.*Member;
          using T = std::decay_t<decltype(Field)>;
          if constexpr (std::is_same_v<T, bool>) {
            // A bare flag is true; a value must spell true or false.
            const std::string Text = CL.getString(K.Flag, "true");
            Field = Text == "true" || Text == "1" || Text == "yes" ||
                    Text == "on";
            if (!Field && Text != "false" && Text != "0" && Text != "no" &&
                Text != "off") {
              Error = format("--%s expects true or false (got '%s')", K.Flag,
                             Text.c_str());
              return false;
            }
          } else if constexpr (std::is_same_v<T, std::string>)
            Field = CL.getString(K.Flag, Field);
          else
            return parseNumberFlag(CL, K.Flag, Field, Error);
          return true;
        },
        K.Field);
    if (!Parsed)
      return false;
  }
  return true;
}

std::string obs::toJsonl(const RunTrace &Trace) {
  std::string Out = "{\"type\":\"meta\"";
  addField(Out, intField("schema", TraceSchemaVersion));
  // Build provenance; readers ignore unknown keys, so old parsers accept it.
  Out += ",\"build\":";
  Out += quoted(buildHash());
  Out += ",\"app\":";
  Out += quoted(Trace.Meta.App);
  Out += ",\"policy\":";
  Out += quoted(Trace.Meta.Policy);
  addField(Out, uintField("procs", Trace.Meta.Procs));
  addField(Out, intField("total_ns", Trace.Meta.TotalNanos));
  // Additive within schema 1 (like the machine fields): absent means "sim".
  Out += ",\"backend\":";
  Out += quoted(Trace.Meta.Backend.empty() ? "sim" : Trace.Meta.Backend);
  if (!Trace.Meta.Machine.empty()) {
    Out += ",\"machine\":";
    Out += quoted(Trace.Meta.Machine);
    Out += ",\"machine_params\":";
    Out += quoted(Trace.Meta.MachineParams);
  }
  // Self-description for replay (additive within schema 1, like the machine
  // fields): the full recorded run configuration.
  if (Trace.Meta.Spec.Present) {
    Out += ",\"run_spec\":";
    Out += runSpecObject(Trace.Meta.Spec);
  }
  Out += "}\n";
  for (const DecisionEvent &E : Trace.Decisions) {
    Out += decisionLine(E);
    Out += '\n';
  }
  for (const SectionRecord &S : Trace.Sections) {
    Out += sectionLine(S);
    Out += '\n';
  }
  for (const LockRecord &L : Trace.Locks) {
    Out += lockLine(L);
    Out += '\n';
  }
  return Out;
}

std::optional<RunTrace> obs::parseJsonl(const std::string &Text,
                                        std::string &Error) {
  RunTrace Trace;
  // toJsonl terminates every record with a newline, so a non-empty final
  // line without one can only be a file cut mid-write (e.g. a crashed or
  // still-running recorder). Reject it up front with the line number: the
  // alternative -- parsing whatever prefix survived -- silently drops an
  // unknowable number of trailing events.
  const size_t LastNl = Text.find_last_of('\n');
  const std::string Tail =
      trim(LastNl == std::string::npos ? Text : Text.substr(LastNl + 1));
  if (!Tail.empty()) {
    const size_t FinalLine =
        1 + static_cast<size_t>(std::count(Text.begin(), Text.end(), '\n'));
    Error = format("line %zu: truncated record (no trailing newline; file "
                   "cut mid-write?)",
                   FinalLine);
    return std::nullopt;
  }
  bool SawMeta = false;
  size_t LineNo = 0;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    const std::string Line = trim(Text.substr(Pos, End - Pos));
    Pos = End + 1;
    ++LineNo;
    if (Line.empty())
      continue;

    std::string JsonError;
    std::optional<JsonValue> V = parseJson(Line, JsonError);
    if (!V) {
      Error = format("line %zu: %s", LineNo, JsonError.c_str());
      return std::nullopt;
    }
    if (V->kind() != JsonValue::Kind::Object) {
      Error = format("line %zu: expected a JSON object", LineNo);
      return std::nullopt;
    }
    const std::string Type = V->getString("type");

    if (Type == "meta") {
      const int64_t Schema = V->getInt("schema", -1);
      if (Schema != TraceSchemaVersion) {
        Error = format("line %zu: unsupported trace schema %lld", LineNo,
                       static_cast<long long>(Schema));
        return std::nullopt;
      }
      Trace.Meta.App = V->getString("app");
      Trace.Meta.Policy = V->getString("policy");
      Trace.Meta.Procs = static_cast<unsigned>(V->getInt("procs"));
      Trace.Meta.TotalNanos = V->getInt("total_ns");
      Trace.Meta.Machine = V->getString("machine");
      Trace.Meta.MachineParams = V->getString("machine_params");
      Trace.Meta.Backend = V->getString("backend");
      if (Trace.Meta.Backend.empty())
        Trace.Meta.Backend = "sim";
      const JsonValue *RS = V->find("run_spec");
      if (RS && RS->kind() == JsonValue::Kind::Object &&
          !parseRunSpec(*RS, Trace.Meta.Spec, Error)) {
        Error = format("line %zu: %s", LineNo, Error.c_str());
        return std::nullopt;
      }
      SawMeta = true;
    } else if (Type == "decision") {
      DecisionEvent E;
      const std::optional<DecisionKind> Kind =
          parseDecisionKind(V->getString("kind"));
      if (!Kind) {
        Error = format("line %zu: unknown decision kind '%s'", LineNo,
                       V->getString("kind").c_str());
        return std::nullopt;
      }
      E.Kind = *Kind;
      E.TimeNanos = V->getInt("t_ns");
      E.Section = V->getString("section");
      E.Version = static_cast<unsigned>(V->getInt("version"));
      E.Label = V->getString("label");
      const JsonValue *Overhead = V->find("overhead");
      E.Overhead = Overhead && Overhead->kind() == JsonValue::Kind::Number
                       ? Overhead->asNumber()
                       : std::nan("");
      E.Repeats = static_cast<unsigned>(V->getInt("repeats"));
      E.Degenerate = static_cast<unsigned>(V->getInt("degenerate"));
      if (E.Kind == DecisionKind::Switch) {
        const std::optional<SwitchReason> Reason =
            parseSwitchReason(V->getString("reason"));
        if (!Reason || *Reason == SwitchReason::None) {
          Error = format("line %zu: switch decision without a valid reason",
                         LineNo);
          return std::nullopt;
        }
        E.Reason = *Reason;
      }
      Trace.Decisions.push_back(std::move(E));
    } else if (Type == "section") {
      SectionRecord S;
      S.Section = V->getString("section");
      S.StartNanos = V->getInt("start_ns");
      S.EndNanos = V->getInt("end_ns");
      S.AcquireReleasePairs = static_cast<uint64_t>(V->getInt("pairs"));
      S.LockOpNanos = V->getInt("lockop_ns");
      S.WaitNanos = V->getInt("wait_ns");
      S.SchedNanos = V->getInt("sched_ns");
      S.ExecNanos = V->getInt("exec_ns");
      S.SamplingPhases = static_cast<unsigned>(V->getInt("sampling_phases"));
      S.SampledIntervals =
          static_cast<unsigned>(V->getInt("sampled_intervals"));
      S.DegenerateIntervals = static_cast<unsigned>(V->getInt("degenerate"));
      S.EarlyResamples = static_cast<unsigned>(V->getInt("early_resamples"));
      S.HysteresisHolds =
          static_cast<unsigned>(V->getInt("hysteresis_holds"));
      Trace.Sections.push_back(std::move(S));
    } else if (Type == "lock") {
      LockRecord L;
      L.Section = V->getString("section");
      L.Object = static_cast<uint64_t>(V->getInt("object"));
      L.Acquires = static_cast<uint64_t>(V->getInt("acquires"));
      L.Contended = static_cast<uint64_t>(V->getInt("contended"));
      L.WaitNanos = V->getInt("wait_ns");
      Trace.Locks.push_back(std::move(L));
    }
    // Unknown types are skipped: forward compatibility.
  }
  if (!SawMeta) {
    Error = "trace has no meta line";
    return std::nullopt;
  }
  return Trace;
}

std::string obs::toChromeTrace(const RunTrace &Trace) {
  // Stable thread id per section, in first-appearance order.
  std::map<std::string, unsigned> Tids;
  auto TidOf = [&](const std::string &Section) {
    auto It = Tids.find(Section);
    if (It != Tids.end())
      return It->second;
    const unsigned Tid = static_cast<unsigned>(Tids.size()) + 1;
    Tids.emplace(Section, Tid);
    return Tid;
  };
  auto Micros = [](rt::Nanos N) {
    return format("%.3f", static_cast<double>(N) / 1000.0);
  };

  std::vector<std::string> Events;
  Events.push_back(
      format("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
             "\"args\":{\"name\":\"dynfb %s (%s, %u procs)\"}}",
             jsonEscape(Trace.Meta.App).c_str(),
             jsonEscape(Trace.Meta.Policy).c_str(), Trace.Meta.Procs));

  for (const SectionRecord &S : Trace.Sections)
    Events.push_back(format(
        "{\"name\":\"%s\",\"cat\":\"section\",\"ph\":\"X\",\"ts\":%s,"
        "\"dur\":%s,\"pid\":1,\"tid\":%u,\"args\":{\"pairs\":%llu,"
        "\"lockop_ns\":%lld,\"wait_ns\":%lld,\"exec_ns\":%lld}}",
        jsonEscape(S.Section).c_str(), Micros(S.StartNanos).c_str(),
        Micros(S.EndNanos - S.StartNanos).c_str(), TidOf(S.Section),
        static_cast<unsigned long long>(S.AcquireReleasePairs),
        static_cast<long long>(S.LockOpNanos),
        static_cast<long long>(S.WaitNanos),
        static_cast<long long>(S.ExecNanos)));

  for (const DecisionEvent &E : Trace.Decisions) {
    const unsigned Tid = TidOf(E.Section);
    if (E.Kind == DecisionKind::Sample) {
      // Sampled overheads as a per-section counter track, one series per
      // version label. Skip unmeasurable samples: a counter needs a number.
      if (std::isfinite(E.Overhead))
        Events.push_back(format(
            "{\"name\":\"overhead %s\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,"
            "\"args\":{\"%s\":%.6f}}",
            jsonEscape(E.Section).c_str(), Micros(E.TimeNanos).c_str(),
            jsonEscape(E.Label).c_str(), E.Overhead));
      continue;
    }
    std::string Name;
    switch (E.Kind) {
    case DecisionKind::Sample:
      break; // Handled above.
    case DecisionKind::Switch:
      Name = format("switch %s [%s]", E.Label.c_str(),
                    switchReasonName(E.Reason));
      break;
    case DecisionKind::DriftResample:
      Name = format("drift resample (%s)", E.Label.c_str());
      break;
    case DecisionKind::Quarantine:
      Name = format("quarantine %s", E.Label.c_str());
      break;
    case DecisionKind::Reprobe:
      Name = format("reprobe %s", E.Label.c_str());
      break;
    case DecisionKind::WatchdogResample:
      Name = format("watchdog resample (%s)", E.Label.c_str());
      break;
    case DecisionKind::Degraded:
      Name = format("degraded: pinned %s", E.Label.c_str());
      break;
    case DecisionKind::Prune:
      Name = format("prune %s (round %u)", E.Label.c_str(), E.Repeats);
      break;
    case DecisionKind::Promote:
      Name = format("promote %s (round %u)", E.Label.c_str(), E.Repeats);
      break;
    }
    Events.push_back(
        format("{\"name\":\"%s\",\"cat\":\"decision\",\"ph\":\"i\","
               "\"ts\":%s,\"pid\":1,\"tid\":%u,\"s\":\"t\"}",
               jsonEscape(Name).c_str(), Micros(E.TimeNanos).c_str(), Tid));
  }

  for (const auto &[Section, Tid] : Tids)
    Events.push_back(
        format("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":%u,\"args\":{\"name\":\"section %s\"}}",
               Tid, jsonEscape(Section).c_str()));

  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t I = 0; I < Events.size(); ++I) {
    Out += Events[I];
    Out += I + 1 < Events.size() ? ",\n" : "\n";
  }
  Out += "]}\n";
  return Out;
}
