//===- obs/Export.h - Run trace exchange formats ----------------*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serializable record of one run's adaptation behaviour: run metadata,
/// the controller's decision log, per-occurrence section overhead summaries
/// and accumulated per-lock contention. Two export formats (documented in
/// docs/OBSERVABILITY.md):
///
///  - JSONL: one JSON object per line, types "meta" / "decision" /
///    "section" / "lock". Lossless -- parseJsonl() round-trips, and
///    dynfb-report rebuilds a run's locking-overhead and hottest-locks
///    tables from the file alone.
///  - Chrome trace_event JSON, loadable in chrome://tracing / Perfetto:
///    section occurrences as duration events, decisions as instant events,
///    sampled overheads as counter tracks.
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_OBS_EXPORT_H
#define DYNFB_OBS_EXPORT_H

#include "obs/DecisionLog.h"
#include "rt/Time.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace dynfb {
class CommandLine;
} // namespace dynfb

namespace dynfb::obs {

/// Schema version stamped into the "meta" line; bump when a field changes
/// meaning so downstream consumers can reject files they do not understand.
inline constexpr int64_t TraceSchemaVersion = 1;

/// The full run configuration stamped into trace meta at record time (the
/// "run_spec" object of the meta line; additive within schema 1, so PR-3-era
/// traces without one still parse -- Present is false there): everything a
/// replay needs to reconstruct and re-drive the recorded run. Plain value
/// types only, as obs sits below fb; src/replay maps them to the fb
/// configuration. Member initializers are the knob defaults. Counts are held
/// wide so an out-of-range recorded value reaches the range check unwrapped.
struct RunSpec {
  bool Present = false; ///< False for traces recorded before replay support.
  double Scale = 1.0;
  std::string Dimensions; ///< --dimensions ("" = the default sync space).
  std::string Chunks;     ///< --chunks ("" = none).
  rt::Nanos SamplingNanos = rt::millisToNanos(10.0);
  rt::Nanos ProductionNanos = rt::secondsToNanos(100.0);
  bool Cutoff = false;
  bool Ordering = false;
  bool Spanning = false;
  int64_t Repeats = 1;
  std::string Aggregate = "mean"; ///< mean | median | trimmed.
  double Hysteresis = 0.0;
  double Drift = 0.0;
  rt::Nanos SliceNanos = 0;
  int64_t QuarantineStrikes = 0;
  int64_t QuarantineWindow = 8;
  double QuarantineLimit = 1.0;
  int64_t QuarantineBackoff = 4;
  int64_t Watchdog = 0;
  double WatchdogLimit = 0.9;
  std::string Sampler = "exhaustive"; ///< Sampling strategy name.
  double SearchBudget = 0.5;          ///< --search-budget fraction.
  double UcbExplore = 2.0;            ///< --ucb-explore constant.
  std::string PerturbSpec;   ///< --perturb schedule text ("" = none).
  std::string TrafficSpec;   ///< --traffic spec text ("" = none).
  std::string CostOverrides; ///< --cost Field=nanos list ("" = none).
  double TimeScale = 0.0;    ///< Native backend only; 0 on the simulator.
};

/// What a knob's value is, and so how it is parsed, checked and written.
enum class KnobKind {
  Bool,    ///< A bare flag; true/false in run_spec.
  Count,   ///< A whole number in [Min, Max].
  Real,    ///< A finite number between Min and Max.
  Seconds, ///< Seconds on the command line, whole nanoseconds in run_spec.
  Text,    ///< Free text, checked by the code that consumes it.
};

/// One row of the knob table (runSpecKnobs()), the single declaration of a
/// run knob: the run_spec writer and reader, dynfb-run's flags, usage line
/// and --replay conflict check, and the range check all iterate the table.
/// Adding a knob takes a RunSpec field, a row in Export.cpp and a mapping
/// line in replay's configFromSpec.
struct Knob {
  const char *Key;  ///< run_spec key.
  const char *Flag; ///< dynfb-run flag, without the leading "--".
  KnobKind Kind;
  std::variant<bool RunSpec::*, int64_t RunSpec::*, double RunSpec::*,
               std::string RunSpec::*>
      Field;
  const char *Usage = "";       ///< Value placeholder in the usage line.
  const char *Requirement = ""; ///< Completes "<knob> must be ...".
  /// Numeric range in the stored unit (nanoseconds for Seconds); an open end
  /// excludes the bound.
  double Min = 0;
  double Max = 0;
  bool MinOpen = false;
  bool MaxOpen = false;
};

/// The knob table: one row per RunSpec field, in run_spec key order.
std::span<const Knob> runSpecKnobs();

/// The row with run_spec key \p Key (which must exist).
const Knob &knobByKey(const std::string &Key);

/// Where a knob value came from, which decides how diagnostics name it.
enum class KnobSource {
  CommandLine, ///< "--hysteresis"
  Trace,       ///< "run_spec 'hysteresis'"
};

/// \p K's name in a diagnostic about a value from \p Source.
std::string knobName(const Knob &K, KnobSource Source);

/// Checks every numeric knob of \p Spec against its range (non-finite values
/// never pass); on the first violation returns false with \p Error set to a
/// one-line diagnostic naming the knob.
bool checkRunSpec(const RunSpec &Spec, KnobSource Source, std::string &Error);

/// Sets each knob of \p Spec whose flag \p CL carries. Numbers must parse
/// completely ("2x" is not an integer); ranges are checkRunSpec's, except
/// that seconds are checked before they are narrowed to nanoseconds.
/// Returns false with \p Error set on malformed input.
bool parseKnobFlags(const CommandLine &CL, RunSpec &Spec, std::string &Error);

/// Strict integer value of flag --\p Flag; \p Value is left as is when the
/// flag is absent.
bool parseIntegerFlag(const CommandLine &CL, const std::string &Flag,
                      int64_t &Value, std::string &Error);

/// Identity of the traced run.
struct TraceMeta {
  std::string App;    ///< Application/workload name.
  std::string Policy; ///< Executable policy ("dynamic", "bounded", ...).
  unsigned Procs = 0;
  rt::Nanos TotalNanos = 0; ///< End-to-end (virtual) run time.
  /// Machine model the run was simulated on and its full parameter set
  /// (rt::MachineModel::paramsString()); empty in traces written before the
  /// machine layer existed. Additive within schema 1: parsers ignore
  /// unknown meta keys.
  std::string Machine;
  std::string MachineParams;
  /// Execution substrate the run measured: "sim" (virtual time) or
  /// "native" (real threads, steady-clock timestamps). Like the machine
  /// fields, additive within schema 1; absent means "sim".
  std::string Backend = "sim";
  /// The recorded run configuration (self-description; additive within
  /// schema 1). Spec.Present distinguishes a replayable trace from one
  /// recorded before replay support existed.
  RunSpec Spec;
};

/// One parallel-section occurrence's aggregate measurements (the fields of
/// fb::SectionExecutionTrace the locking-overhead tables are built from).
struct SectionRecord {
  std::string Section;
  rt::Nanos StartNanos = 0;
  rt::Nanos EndNanos = 0;
  uint64_t AcquireReleasePairs = 0;
  rt::Nanos LockOpNanos = 0;
  rt::Nanos WaitNanos = 0;
  rt::Nanos SchedNanos = 0;
  rt::Nanos ExecNanos = 0;
  unsigned SamplingPhases = 0;
  unsigned SampledIntervals = 0;
  unsigned DegenerateIntervals = 0;
  unsigned EarlyResamples = 0;
  unsigned HysteresisHolds = 0;
};

/// One lock's contention accumulated over every interval of a run, per
/// section (from the simulator's cumulative IntervalTrace).
struct LockRecord {
  std::string Section;
  uint64_t Object = 0;
  uint64_t Acquires = 0;
  uint64_t Contended = 0;
  rt::Nanos WaitNanos = 0;
};

/// Everything the exporters serialize about one run.
struct RunTrace {
  TraceMeta Meta;
  std::vector<DecisionEvent> Decisions;
  std::vector<SectionRecord> Sections;
  std::vector<LockRecord> Locks;
};

/// Serializes \p Trace as JSONL (first line "meta", then "decision",
/// "section" and "lock" lines in that order; within a type, input order is
/// preserved).
std::string toJsonl(const RunTrace &Trace);

/// Parses a JSONL trace produced by toJsonl (unknown line types and object
/// keys are ignored, so newer writers stay readable). Every record toJsonl
/// writes ends in a newline, so a non-empty final line without one is a
/// file cut mid-write: it is rejected with a diagnostic naming the line
/// number rather than silently dropping the trailing events. On failure
/// returns nullopt and sets \p Error.
std::optional<RunTrace> parseJsonl(const std::string &Text,
                                   std::string &Error);

/// Serializes \p Trace in Chrome trace_event JSON object format
/// ({"traceEvents": [...], ...}).
std::string toChromeTrace(const RunTrace &Trace);

} // namespace dynfb::obs

#endif // DYNFB_OBS_EXPORT_H
