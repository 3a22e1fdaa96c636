//===- hostbench/main.cpp - Host-cost benchmark driver --------------------===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
// Runs one workload as repeated passes for a time budget and writes one
// JSON record per line to --out: the build stamp, every pass (wall, set-up,
// deterministic counts, simulated outputs and, for traced passes, the
// per-layer host-time rows), the traced run's side measurements and the
// process's peak memory. hostbench/run.py builds this binary, runs it and
// turns the records into the benchmark's result.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//             --root REPO --out FILE
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Export.h"
#include "obs/Json.h"
#include "support/BuildInfo.h"
#include "support/Compiler.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

using namespace dynfb;
using namespace dynfb::hostbench;

namespace {

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N == 0 ? 0.0 : N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::string quote(const std::string &S) {
  std::string Out = "\"";
  Out += obs::jsonEscape(S);
  Out += '"';
  return Out;
}

std::string passJson(const PassRecord &P) {
  std::string Out = format(
      "{\"kind\":\"pass\",\"traced\":%s,\"wall_s\":%.9g,\"setup_s\":%.9g,"
      "\"micro_ops\":%llu,\"error\":%s,\"outputs\":{%s}",
      P.Traced ? "true" : "false", P.WallS, P.SetupS,
      static_cast<unsigned long long>(P.MicroOps), quote(P.Error).c_str(),
      P.Outputs.c_str());
  if (P.Traced) {
    Out += ",\"rows\":{";
    bool First = true;
    for (const auto &[Row, Seconds] : P.Layers.Rows) {
      Out += format("%s%s:%.9g", First ? "" : ",", quote(Row).c_str(),
                    Seconds);
      First = false;
    }
    Out += format("},\"counts\":{\"sim.intervals\":%llu,\"sim.micro_ops\":"
                  "%llu,\"sim.iterations\":%llu,\"fb.sampled_intervals\":"
                  "%llu,\"fb.decisions\":%llu,\"obs.jsonl_bytes\":%llu,"
                  "\"sim.interval_ops\":%llu}",
                  static_cast<unsigned long long>(P.Intervals),
                  static_cast<unsigned long long>(P.MicroOps),
                  static_cast<unsigned long long>(P.Iterations),
                  static_cast<unsigned long long>(P.SampledIntervals),
                  static_cast<unsigned long long>(P.Decisions),
                  static_cast<unsigned long long>(P.JsonlBytes),
                  static_cast<unsigned long long>(P.Layers.IntervalOps));
  }
  return Out + "}";
}

/// rt.emit_*: every iteration of every version of every section, emitted
/// cold, then served from a filled EmittedOpsCache (only the hit pass is
/// timed). The median of three rounds.
std::string emitPasses(const std::vector<EmitTarget> &Targets) {
  std::vector<double> Cold, Hit;
  uint64_t Ops = 0;
  for (int Round = 0; Round < 3; ++Round) {
    double ColdS = 0, HitS = 0;
    Ops = 0;
    for (const EmitTarget &T : Targets) {
      const rt::SectionRegistry Registry =
          T.App->makeSectionRegistry(apps::VersionSpec::dynamicFeedback());
      for (const rt::SectionDesc &D : Registry.sections())
        for (const rt::IrVersion &V : D.Versions) {
          rt::IterationEmitter Emitter(V.Entry, *D.Binding, T.Costs);
          const uint64_t N = D.Binding->iterationCount();
          std::vector<rt::MicroOp> Out;
          Clock::time_point Start = Clock::now();
          for (uint64_t I = 0; I < N; ++I) {
            Emitter.emit(I, Out);
            Ops += Out.size();
          }
          ColdS += secondsSince(Start);

          rt::EmittedOpsCache Cache;
          Emitter.attachCache(&Cache);
          for (uint64_t I = 0; I < N; ++I)
            Emitter.ops(I, Out);
          uint64_t HitOps = 0;
          Start = Clock::now();
          for (uint64_t I = 0; I < N; ++I)
            HitOps += Emitter.ops(I, Out).size();
          HitS += secondsSince(Start);
          if (HitOps == 0 && N != 0)
            reportFatalError("hostbench: empty emission");
        }
    }
    Cold.push_back(ColdS);
    Hit.push_back(HitS);
  }
  const double ColdS = median(Cold);
  return format("\"rt.emit_cold_s\":%.9g,\"rt.emit_hit_s\":%.9g,"
                "\"rt.emit_ops\":%llu,\"rt.emit_ns_per_op\":%.9g",
                ColdS, median(Hit), static_cast<unsigned long long>(Ops),
                Ops ? ColdS * 1e9 / static_cast<double>(Ops) : 0.0);
}

/// The full observable output of one run: result, decisions, sections and
/// lock records.
std::string observed(const RunCase &C, const fb::RunResult &R,
                     const apps::RunObservation &Obs) {
  return describeResult(R) + "\n" +
         jsonlBody(apps::buildRunTrace(C.Name, C.Procs, "dynamic", R, &Obs));
}

/// obs.collect_overhead plus the decorator self-check. Each round runs
/// every case through apps::runApp without and with a RunObservation; the
/// first round also runs it through the timing decorators, which must
/// reproduce the observed run exactly.
std::string observePasses(const std::vector<RunCase> &Cases,
                          std::string &SelfCheck) {
  std::vector<double> Base, With;
  for (int Round = 0; Round < 3; ++Round) {
    double BaseS = 0, WithS = 0;
    for (const RunCase &C : Cases) {
      Clock::time_point Start = Clock::now();
      const fb::RunResult Plain =
          apps::runApp(*C.App, C.Procs, apps::VersionSpec::dynamicFeedback(),
                       *C.Model, C.Config, nullptr, C.Perturb, nullptr);
      BaseS += secondsSince(Start);
      apps::RunObservation Obs;
      Obs.CollectSectionTraces = true;
      Start = Clock::now();
      const fb::RunResult Observed =
          apps::runApp(*C.App, C.Procs, apps::VersionSpec::dynamicFeedback(),
                       *C.Model, C.Config, nullptr, C.Perturb, &Obs);
      WithS += secondsSince(Start);
      if (Round != 0)
        continue;

      std::unique_ptr<sim::SimBackend> Backend = C.App->makeSimBackend(
          C.Procs, *C.Model, apps::VersionSpec::dynamicFeedback());
      apps::RunObservation TimedObs;
      TimedObs.CollectSectionTraces = true;
      LayerTable Table;
      const fb::RunResult Timed = runDynamic(*Backend, *C.App, *C.Model,
                                             C.Config, C.Perturb, &TimedObs,
                                             &Table);
      if (describeResult(Plain) != describeResult(Observed))
        SelfCheck += C.Name + ": observing changed the run; ";
      if (observed(C, Timed, TimedObs) != observed(C, Observed, Obs))
        SelfCheck += C.Name + ": the timed run differs from apps::runApp; ";
      if (decisionJsonl(Obs.Log) != decisionJsonl(TimedObs.Log))
        SelfCheck += C.Name + ": decision logs differ; ";
    }
    Base.push_back(BaseS);
    With.push_back(WithS);
  }
  return format("\"obs.collect_overhead\":%.9g,\"obs.collect_base_s\":%.9g",
                median(With) / median(Base), median(Base));
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  const std::string Name = CL.getString("workload", "");
  const uint64_t Seed = static_cast<uint64_t>(CL.getInt("seed", 1));
  const double Seconds = CL.getDouble("seconds", 10);
  const bool Trace = CL.getInt("trace", 0) != 0;
  const std::string Root = CL.getString("root", ".");
  const std::string OutPath = CL.getString("out", "");
  if (!rejectUnknownFlags(CL, "hostbench",
                          {"workload", "seed", "seconds", "trace", "root",
                           "out"},
                          "--workload NAME --seed N --seconds S --trace 0|1 "
                          "--root DIR --out FILE"))
    return 2;
  if (OutPath.empty()) {
    std::fprintf(stderr, "hostbench: --out FILE is required\n");
    return 2;
  }
  std::string Error;
  std::unique_ptr<Workload> W = makeWorkload(Name, Seed, Root, Error);
  if (!W) {
    std::fprintf(stderr, "hostbench: %s\n", Error.c_str());
    return 2;
  }
  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "hostbench: cannot write '%s'\n", OutPath.c_str());
    return 2;
  }

#ifdef NDEBUG
  const bool Assertions = false;
#else
  const bool Assertions = true;
#endif
  Out << format("{\"kind\":\"env\",\"build_type\":%s,\"assertions\":%s,"
                "\"compiler\":%s,\"build_hash\":%s}\n",
                quote(HOSTBENCH_BUILD_TYPE).c_str(),
                Assertions ? "true" : "false",
                quote(HOSTBENCH_COMPILER).c_str(), quote(buildHash()).c_str());
  Out.flush();

  // Closed loop: one pass at a time until the budget is spent. A traced
  // run alternates untraced and traced passes, so trace_overhead compares
  // neighbours.
  const Clock::time_point Start = Clock::now();
  do {
    Out << passJson(W->pass(false)) << "\n";
    if (Trace)
      Out << passJson(W->pass(true)) << "\n";
    Out.flush();
  } while (secondsSince(Start) < Seconds);

  if (Trace) {
    std::string SelfCheck;
    const std::string Emit = emitPasses(W->emitTargets());
    const std::string Observe = observePasses(W->runCases(), SelfCheck);
    Out << "{\"kind\":\"side\"," << Emit << "," << Observe
        << ",\"self_check\":" << quote(SelfCheck) << "}\n";
  }

  struct rusage Self, Children;
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  Out << format("{\"kind\":\"end\",\"peak_rss_kib\":%ld,"
                "\"peak_child_rss_kib\":%ld}\n",
                Self.ru_maxrss, Children.ru_maxrss);
  return Out.good() ? 0 : 1;
}
