//===- hostbench/Workloads.cpp --------------------------------------------===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/barnes_hut/BarnesHutApp.h"
#include "apps/water/WaterApp.h"
#include "exp/Diff.h"
#include "exp/Experiment.h"
#include "exp/Result.h"
#include "exp/Scheduler.h"
#include "fb/Sampling.h"
#include "obs/Export.h"
#include "replay/Explorer.h"
#include "replay/Replay.h"
#include "sim/Throughput.h"
#include "support/BuildInfo.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include <sys/mman.h>
#include <unistd.h>

using namespace dynfb;
using namespace dynfb::hostbench;

namespace {

/// Simulator hot-loop work done between construction and finish().
class SimWork {
public:
  SimWork() : Before(sim::throughputCounters()) {}
  void finish(PassRecord &P) const {
    const sim::ThroughputCounters &Now = sim::throughputCounters();
    P.MicroOps += Now.MicroOps - Before.MicroOps;
    P.Intervals += Now.Intervals - Before.Intervals;
    P.Iterations += Now.Iterations - Before.Iterations;
  }

private:
  const sim::ThroughputCounters Before;
};

unsigned sampledIntervals(const fb::RunResult &R) {
  unsigned N = 0;
  for (const fb::SectionExecutionTrace &O : R.Occurrences)
    N += O.SampledIntervals;
  return N;
}

std::string quotedField(const char *Key, const std::string &Value) {
  return format("\"%s\":\"%s\"", Key, Value.c_str());
}

/// The deterministic counts every in-process pass reports, as output
/// fields: a host-speed change must leave them exactly equal.
std::string countFields(const PassRecord &P) {
  return format("\"micro_ops\":%llu,\"intervals\":%llu,\"iterations\":%llu,"
                "\"sampled_intervals\":%llu,\"decisions\":%llu",
                static_cast<unsigned long long>(P.MicroOps),
                static_cast<unsigned long long>(P.Intervals),
                static_cast<unsigned long long>(P.Iterations),
                static_cast<unsigned long long>(P.SampledIntervals),
                static_cast<unsigned long long>(P.Decisions));
}

std::string nanosList(const std::vector<rt::Nanos> &Values) {
  std::string Out = "[";
  for (size_t I = 0; I < Values.size(); ++I)
    Out += format("%s%lld", I ? "," : "", static_cast<long long>(Values[I]));
  return Out + "]";
}

//===----------------------------------------------------------------------===//
// bh_dynamic: one dynfb-run --app barnes_hut --procs 16 --policy dynamic
//===----------------------------------------------------------------------===//

class BhDynamic : public Workload {
public:
  explicit BhDynamic(uint64_t Seed)
      : Seed(Seed), Flat(rt::createMachineModel("dash-flat")) {}

  PassRecord pass(bool Traced) override {
    PassRecord P;
    P.Traced = Traced;
    LayerTable *T = Traced ? &P.Layers : nullptr;
    const SimWork Work;
    const Clock::time_point Start = Clock::now();
    std::unique_ptr<apps::App> App =
        timed(T, "apps.create_s", [&] { return build(); });
    std::unique_ptr<sim::SimBackend> Backend =
        timed(T, "apps.create_s", [&] {
          return App->makeSimBackend(Procs, *Flat,
                                     apps::VersionSpec::dynamicFeedback());
        });
    P.SetupS = secondsSince(Start);
    apps::RunObservation Obs;
    const fb::RunResult R =
        runDynamic(*Backend, *App, *Flat, {}, nullptr, &Obs, T);
    P.WallS = secondsSince(Start);

    Work.finish(P);
    P.SampledIntervals = sampledIntervals(R);
    P.Decisions = Obs.Log.size();
    P.Outputs = format("\"sim_ns\":%lld,", static_cast<long long>(
                                               R.TotalNanos)) +
                countFields(P) + "," +
                quotedField("result_fnv", digest(describeResult(R))) + "," +
                quotedField("decisions_fnv", digest(decisionJsonl(Obs.Log)));
    return P;
  }

  std::vector<EmitTarget> emitTargets() override {
    return {{side(), Flat->costs()}};
  }

  std::vector<RunCase> runCases() override {
    return {{"barnes_hut", side(), Procs, Flat.get(), {}, nullptr}};
  }

private:
  static constexpr unsigned Procs = 16;

  std::unique_ptr<apps::App> build() const {
    apps::bh::BarnesHutConfig C; // Scale 1: the paper's 16,384 bodies.
    C.Seed = Seed;
    return std::make_unique<apps::bh::BarnesHutApp>(C);
  }
  const apps::App *side() {
    if (!Side)
      Side = build();
    return Side.get();
  }

  const uint64_t Seed;
  const std::unique_ptr<rt::MachineModel> Flat;
  std::unique_ptr<apps::App> Side;
};

//===----------------------------------------------------------------------===//
// water_search: the 3x5 sync x sched space under each sampler
//===----------------------------------------------------------------------===//

class WaterSearch : public Workload {
public:
  WaterSearch(uint64_t Seed, xform::VersionSpace Space)
      : Seed(Seed), Space(std::move(Space)),
        Flat(rt::createMachineModel("dash-flat")) {}

  PassRecord pass(bool Traced) override {
    PassRecord P;
    P.Traced = Traced;
    LayerTable *T = Traced ? &P.Layers : nullptr;
    const SimWork Work;
    const Clock::time_point Start = Clock::now();
    std::unique_ptr<apps::App> App =
        timed(T, "apps.create_s", [&] { return build(); });
    std::vector<fb::RunResult> Runs;
    std::vector<obs::DecisionLog> Logs;
    for (fb::SamplerKind Sampler : Samplers) {
      std::unique_ptr<sim::SimBackend> Backend =
          timed(T, "apps.create_s", [&] {
            return App->makeSimBackend(Procs, *Flat,
                                       apps::VersionSpec::dynamicFeedback());
          });
      if (Runs.empty())
        P.SetupS = secondsSince(Start);
      apps::RunObservation Obs;
      Runs.push_back(runDynamic(*Backend, *App, *Flat, config(Sampler),
                                nullptr, &Obs, T));
      Logs.push_back(std::move(Obs.Log));
    }
    P.WallS = secondsSince(Start);

    Work.finish(P);
    std::vector<rt::Nanos> SimNanos;
    std::string Results, Decisions;
    for (size_t I = 0; I < Runs.size(); ++I) {
      SimNanos.push_back(Runs[I].TotalNanos);
      P.SampledIntervals += sampledIntervals(Runs[I]);
      P.Decisions += Logs[I].size();
      Results += describeResult(Runs[I]) + "\n";
      Decisions += decisionJsonl(Logs[I]);
    }
    P.Outputs = "\"sim_ns\":" + nanosList(SimNanos) + "," + countFields(P) +
                "," + quotedField("result_fnv", digest(Results)) + "," +
                quotedField("decisions_fnv", digest(Decisions));
    return P;
  }

  std::vector<EmitTarget> emitTargets() override {
    return {{side(), Flat->costs()}};
  }

  std::vector<RunCase> runCases() override {
    std::vector<RunCase> Cases;
    for (fb::SamplerKind Sampler : Samplers)
      Cases.push_back({std::string("water/") + fb::samplerName(Sampler),
                       side(), Procs, Flat.get(), config(Sampler), nullptr});
    return Cases;
  }

private:
  static constexpr unsigned Procs = 8;
  static constexpr fb::SamplerKind Samplers[] = {fb::SamplerKind::Exhaustive,
                                                 fb::SamplerKind::Halving,
                                                 fb::SamplerKind::Ucb};

  /// --spanning --sampling 0.002 --production 2 --sampler S.
  static fb::FeedbackConfig config(fb::SamplerKind Sampler) {
    fb::FeedbackConfig C;
    C.SpanSectionExecutions = true;
    C.TargetSamplingNanos = rt::millisToNanos(2.0);
    C.TargetProductionNanos = rt::secondsToNanos(2.0);
    C.Sampler = Sampler;
    return C;
  }

  std::unique_ptr<apps::App> build() const {
    apps::water::WaterConfig C; // Scale 1.
    C.Seed = Seed;
    return std::make_unique<apps::water::WaterApp>(C, Space);
  }
  const apps::App *side() {
    if (!Side)
      Side = build();
    return Side.get();
  }

  const uint64_t Seed;
  const xform::VersionSpace Space;
  const std::unique_ptr<rt::MachineModel> Flat;
  std::unique_ptr<apps::App> Side;
};

//===----------------------------------------------------------------------===//
// replay_whatif: record, export, parse, replay and explore four runs
//===----------------------------------------------------------------------===//

class ReplayWhatIf : public Workload {
public:
  explicit ReplayWhatIf(uint64_t Seed) {
    // The four configurations of the replay-determinism CI job, as the
    // run_spec dynfb-run --trace-out records them. Only the kvserve traffic
    // seed follows --seed: materialize() rebuilds every app with its
    // built-in data seed.
    auto Base = [](const char *App, double Scale, unsigned Procs) {
      obs::RunTrace T;
      T.Meta.App = App;
      T.Meta.Policy = "dynamic";
      T.Meta.Procs = Procs;
      T.Meta.Machine = "dash-flat";
      obs::RunSpec &S = T.Meta.Spec;
      S.Present = true;
      S.Scale = Scale;
      S.SamplingNanos = rt::secondsToNanos(0.01);
      S.ProductionNanos = rt::secondsToNanos(100.0);
      return T;
    };
    obs::RunTrace Water = Base("water", 0.5, 4);
    Water.Meta.Spec.Dimensions = "sync,sched";
    Water.Meta.Spec.Chunks = "8,32";
    Water.Meta.Spec.SamplingNanos = rt::secondsToNanos(0.002);
    Water.Meta.Spec.ProductionNanos = rt::secondsToNanos(2.0);
    Water.Meta.Spec.Spanning = true;
    obs::RunTrace Bh = Base("barnes_hut", 0.25, 8);
    Bh.Meta.Machine = "dash-numa";
    obs::RunTrace String = Base("string", 0.25, 4);
    obs::RunSpec &SS = String.Meta.Spec;
    SS.PerturbSpec = "contend@0.5s-1.5s:extra=300us:obj=1-64";
    SS.Hysteresis = 0.05;
    SS.Drift = 0.1;
    SS.SliceNanos = rt::secondsToNanos(0.05);
    SS.QuarantineStrikes = 2;
    SS.Watchdog = 3;
    obs::RunTrace Kv = Base("kvserve", 0.25, 4);
    Kv.Meta.Spec.TrafficSpec =
        format("storm:storm=0.4:seed=%llu", static_cast<unsigned long long>(
                                                Seed));
    Specs = {Water, Bh, String, Kv};
  }

  PassRecord pass(bool Traced) override {
    PassRecord P;
    P.Traced = Traced;
    LayerTable *T = Traced ? &P.Layers : nullptr;
    const SimWork Work;
    std::vector<rt::Nanos> SimNanos;
    std::string Traces, Errors;
    rt::Nanos Dynamic = 0, Clairvoyant = 0;
    const Clock::time_point Start = Clock::now();
    for (const obs::RunTrace &Spec : Specs) {
      const std::string &App = Spec.Meta.App;
      std::string Error;
      std::optional<replay::MaterializedRun> Run = timed(
          T, "apps.create_s", [&] { return replay::materialize(Spec, Error); });
      if (!Run)
        return failed(P, App + ": " + Error);
      std::unique_ptr<sim::SimBackend> Backend =
          timed(T, "apps.create_s", [&] {
            return Run->App->makeSimBackend(Run->Procs, *Run->Machine,
                                            Run->Spec);
          });
      if (SimNanos.empty())
        P.SetupS = secondsSince(Start);

      // Record with observation, as dynfb-run --trace-out does.
      apps::RunObservation Obs;
      Obs.CollectSectionTraces = true;
      const fb::RunResult R =
          runDynamic(*Backend, *Run->App, *Run->Machine, Run->Config,
                     Run->Perturb.get(), &Obs, T);
      const obs::RunTrace Recorded = timed(T, "obs.build_trace_s", [&] {
        obs::RunTrace Out = apps::buildRunTrace(App, Run->Procs, "dynamic", R,
                                                &Obs, rt::BackendKind::Sim);
        Out.Meta.Machine = Run->Machine->name();
        Out.Meta.MachineParams = Run->Machine->paramsString();
        Out.Meta.Spec = Spec.Meta.Spec;
        return Out;
      });
      const std::string Jsonl =
          timed(T, "obs.to_jsonl_s", [&] { return obs::toJsonl(Recorded); });
      const std::string Chrome = timed(
          T, "obs.to_chrome_s", [&] { return obs::toChromeTrace(Recorded); });
      const std::optional<obs::RunTrace> Parsed =
          timed(T, "obs.parse_jsonl_s",
                [&] { return obs::parseJsonl(Jsonl, Error); });
      if (!Parsed)
        return failed(P, App + ": parse: " + Error);
      const std::optional<replay::ReplayResult> Replayed =
          timed(T, "replay.replay_s",
                [&] { return replay::replayTrace(*Parsed, Error); });
      if (!Replayed)
        return failed(P, App + ": replay: " + Error);
      const std::string Reparsed = timed(T, "replay.compare_s", [&] {
        return replay::compareTraces(Recorded, *Parsed);
      });
      const replay::Exploration E = timed(T, "replay.explore_s", [&] {
        return replay::explore(*Run->App, Run->Procs, *Run->Machine,
                               Run->Config, Run->Perturb.get());
      });

      // compareTraces compares re-exported JSONL line by line, meta line
      // included: no divergence means the replayed trace, and no difference
      // means the parsed trace, re-exports byte-identically.
      if (Replayed->diverged())
        Errors += App + ": replay diverged at " + Replayed->Divergence + "; ";
      if (!Reparsed.empty())
        Errors += App + ": parsed trace differs at " + Reparsed + "; ";
      if (Chrome.empty())
        Errors += App + ": empty Chrome trace; ";
      if (E.Mainline.TotalNanos != R.TotalNanos)
        Errors += App + ": explorer mainline differs from the recording; ";
      const replay::RegretSummary S = replay::summarizeRegret(E);
      Dynamic += S.DynamicParallelNanos;
      Clairvoyant += S.ClairvoyantParallelNanos;
      SimNanos.push_back(R.TotalNanos);
      P.SampledIntervals += sampledIntervals(R);
      P.Decisions += Obs.Log.size();
      P.JsonlBytes += Jsonl.size();
      Traces += Jsonl.substr(Jsonl.find('\n') + 1); // Without the meta line.
    }
    P.WallS = secondsSince(Start);

    Work.finish(P);
    P.Error = Errors;
    P.Outputs =
        "\"sim_ns\":" + nanosList(SimNanos) + "," + countFields(P) + "," +
        quotedField("traces_fnv", digest(Traces)) + "," +
        format("\"dynamic_parallel_ns\":%lld,"
               "\"clairvoyant_parallel_ns\":%lld,\"virt_regret\":%.17g",
               static_cast<long long>(Dynamic),
               static_cast<long long>(Clairvoyant),
               static_cast<double>(Dynamic) /
                   static_cast<double>(Clairvoyant));
    return P;
  }

  std::vector<EmitTarget> emitTargets() override {
    std::vector<EmitTarget> Out;
    for (const replay::MaterializedRun &Run : side())
      Out.push_back({Run.App.get(), Run.Machine->costs()});
    return Out;
  }

  std::vector<RunCase> runCases() override {
    std::vector<RunCase> Out;
    for (const replay::MaterializedRun &Run : side())
      Out.push_back({Run.App->module().name(), Run.App.get(), Run.Procs,
                     Run.Machine.get(), Run.Config, Run.Perturb.get()});
    return Out;
  }

private:
  static PassRecord &failed(PassRecord &P, const std::string &Error) {
    P.Error = Error;
    return P;
  }

  const std::vector<replay::MaterializedRun> &side() {
    if (Side.empty())
      for (const obs::RunTrace &Spec : Specs) {
        std::string Error;
        std::optional<replay::MaterializedRun> Run =
            replay::materialize(Spec, Error);
        if (!Run)
          reportFatalError(("hostbench: " + Error).c_str());
        Side.push_back(std::move(*Run));
      }
    return Side;
  }

  std::vector<obs::RunTrace> Specs;
  std::vector<replay::MaterializedRun> Side;
};

//===----------------------------------------------------------------------===//
// paper_suite: dynfb-bench run --suite paper --scale 0.125 --jobs 1
//===----------------------------------------------------------------------===//

constexpr double PaperScale = 0.125;
constexpr const char *BaselinePath =
    "tests/baselines/bench_paper_scale0.125.json";
/// Extra job metrics carrying each child's simulator work back to the
/// parent; removed again before the result file is assembled.
constexpr const char *MicroOpsMetric = "hostbench.micro_ops";
constexpr const char *IntervalsMetric = "hostbench.intervals";
constexpr const char *IterationsMetric = "hostbench.iterations";

/// Runs \p Fn with stdout captured in memory; returns what it printed.
template <typename Fn> std::string captureStdout(Fn &&F, int &Rc) {
  std::fflush(stdout);
  const int Mem = memfd_create("hostbench-render", 0);
  const int Saved = dup(STDOUT_FILENO);
  if (Mem < 0 || Saved < 0)
    reportFatalError("hostbench: cannot capture stdout");
  dup2(Mem, STDOUT_FILENO);
  Rc = F();
  std::fflush(stdout);
  dup2(Saved, STDOUT_FILENO);
  close(Saved);
  std::string Text;
  char Buf[65536];
  lseek(Mem, 0, SEEK_SET);
  for (ssize_t N; (N = read(Mem, Buf, sizeof(Buf))) > 0;)
    Text.append(Buf, static_cast<size_t>(N));
  close(Mem);
  return Text;
}

class PaperSuite : public Workload {
public:
  PaperSuite(std::vector<const exp::Experiment *> Experiments,
             std::string BaselineText)
      : Experiments(std::move(Experiments)),
        BaselineText(std::move(BaselineText)),
        Flat(rt::createMachineModel("dash-flat")) {}

  PassRecord pass(bool Traced) override {
    PassRecord P;
    P.Traced = Traced;
    LayerTable *T = Traced ? &P.Layers : nullptr;
    const Clock::time_point Start = Clock::now();

    // Plan, as dynfb-bench run does: every grid expanded in registry order.
    struct Planned {
      const exp::Experiment *E;
      exp::JobConfig Config;
    };
    std::vector<Planned> Plan;
    std::vector<exp::RunOptions> Options;
    for (const exp::Experiment *E : Experiments) {
      exp::RunOptions Opts;
      Opts.Scale = E->DefaultScale * PaperScale;
      Options.push_back(Opts);
      for (exp::JobConfig &C : E->MakeJobs(Opts))
        Plan.push_back({E, std::move(C)});
    }
    P.SetupS = secondsSince(Start);

    exp::SchedulerOptions Sched;
    Sched.Workers = 1;
    Sched.TimeoutSeconds = 120;
    std::vector<exp::JobOutcome> Outcomes =
        timed(T, "exp.run_jobs_s", [&] {
          return exp::runJobs(Plan.size(), [&](size_t Job, unsigned) {
            const sim::ThroughputCounters Before = sim::throughputCounters();
            exp::JobResult R = Plan[Job].E->RunJob(Plan[Job].Config);
            const sim::ThroughputCounters &After = sim::throughputCounters();
            R.add(MicroOpsMetric,
                  static_cast<double>(After.MicroOps - Before.MicroOps));
            R.add(IntervalsMetric,
                  static_cast<double>(After.Intervals - Before.Intervals));
            R.add(IterationsMetric,
                  static_cast<double>(After.Iterations - Before.Iterations));
            return R;
          }, Sched);
        });
    double JobSeconds = 0;
    for (exp::JobOutcome &O : Outcomes) {
      JobSeconds += O.WallSeconds;
      const exp::JobResult &R = O.Result;
      P.MicroOps += static_cast<uint64_t>(R.metric(MicroOpsMetric));
      P.Intervals += static_cast<uint64_t>(R.metric(IntervalsMetric));
      P.Iterations += static_cast<uint64_t>(R.metric(IterationsMetric));
      std::erase_if(O.Result.Metrics, [](const exp::Metric &M) {
        return M.Name.starts_with("hostbench.");
      });
    }

    std::string Rendered, ResultJson;
    const int RenderRc = timed(T, "exp.render_s", [&] {
      exp::ResultFile Out;
      Out.Build = buildHash();
      Out.Suite = "paper";
      Out.ScaleFactor = PaperScale;
      for (size_t I = 0; I < Plan.size(); ++I) {
        exp::JobRecord Record;
        Record.Experiment = Plan[I].E->Name;
        Record.Config = Plan[I].Config;
        Record.Status = Outcomes[I].Status;
        Record.Attempts = Outcomes[I].Attempts;
        Record.WallSeconds = Outcomes[I].WallSeconds;
        Record.Result = Outcomes[I].Result;
        Out.Jobs.push_back(std::move(Record));
      }
      ResultJson = exp::toJson(Out);
      int Rcs = 0;
      size_t Next = 0;
      for (size_t E = 0; E < Experiments.size(); ++E) {
        std::vector<exp::JobResult> Grid;
        for (; Next < Plan.size() && Plan[Next].E == Experiments[E]; ++Next)
          Grid.push_back(Outcomes[Next].Result);
        int Rc = 0;
        Rendered += captureStdout(
            [&] { return Experiments[E]->Render(Options[E], Grid); }, Rc);
        Rcs |= Rc;
      }
      return Rcs;
    });

    std::string Error;
    exp::DiffReport Report;
    std::optional<exp::ResultFile> Cand;
    const bool Parsed = timed(T, "exp.diff_s", [&] {
      const std::optional<exp::ResultFile> Base =
          exp::parseResultFile(BaselineText, Error);
      Cand = exp::parseResultFile(ResultJson, Error);
      if (!Base || !Cand)
        return false;
      exp::DiffOptions Zero;
      Zero.RelTol = 0;
      Zero.AbsTol = 0;
      Report = exp::diffResults(*Base, *Cand, Zero);
      return true;
    });
    P.WallS = secondsSince(Start);
    if (T) {
      T->add("exp.job_s", JobSeconds);
      T->add("exp.overhead_s", T->Rows.at("exp.run_jobs_s") - JobSeconds);
    }

    if (!Parsed) {
      P.Error = "result file: " + Error;
      return P;
    }
    std::string Errors;
    for (const exp::JobRecord &J : Cand->Jobs)
      if (J.Status != exp::JobStatus::Ok)
        Errors += J.key() + ": " + exp::jobStatusName(J.Status) + " " +
                  J.Result.Error + "; ";
    if (RenderRc != 0)
      Errors += "a paper table's render gate failed; ";
    if (Report.Regressions || Report.Improvements ||
        !Report.MissingJobs.empty() || !Report.MissingMetrics.empty())
      Errors += format("baseline diff at zero tolerance: %zu baseline jobs "
                       "and %zu metrics missing; ",
                       Report.MissingJobs.size(),
                       Report.MissingMetrics.size()) +
                Report.renderText({});
    P.Error = Errors;

    std::string Metrics;
    for (const exp::JobRecord &J : Cand->Jobs) {
      Metrics += J.key();
      for (const exp::Metric &M : J.Result.Metrics)
        Metrics += format(" %s=%.17g", M.Name.c_str(), M.Value);
      Metrics += "\n";
    }
    P.Outputs = format("\"jobs\":%zu,\"compared\":%zu,\"regressions\":%zu,"
                       "\"improvements\":%zu,\"micro_ops\":%llu,"
                       "\"intervals\":%llu,\"iterations\":%llu,",
                       Cand->Jobs.size(), Report.Compared, Report.Regressions,
                       Report.Improvements,
                       static_cast<unsigned long long>(P.MicroOps),
                       static_cast<unsigned long long>(P.Intervals),
                       static_cast<unsigned long long>(P.Iterations)) +
                quotedField("metrics_fnv", digest(Metrics)) + "," +
                quotedField("render_fnv", digest(Rendered)) + "," +
                format("\"virt_vs_best_fixed\":%.17g", virtVsBestFixed(*Cand));
    return P;
  }

  std::vector<EmitTarget> emitTargets() override {
    std::vector<EmitTarget> Out;
    for (const std::unique_ptr<apps::App> &App : side())
      Out.push_back({App.get(), Flat->costs()});
    return Out;
  }

  std::vector<RunCase> runCases() override {
    std::vector<RunCase> Out;
    for (const std::unique_ptr<apps::App> &App : side())
      Out.push_back({App->module().name(), App.get(), 16, Flat.get(), {},
                     nullptr});
    return Out;
  }

private:
  /// Geometric mean over the Table 2 and Table 7 processor rows of the
  /// dynamic executable's simulated time / the best fixed policy's.
  static double virtVsBestFixed(const exp::ResultFile &File) {
    std::map<std::string, double> Dynamic, BestFixed;
    for (const exp::JobRecord &J : File.Jobs) {
      if (J.Experiment != "table2_fig4_barnes_hut" &&
          J.Experiment != "table7_fig6_water")
        continue;
      const std::string Row =
          J.Experiment + "/" + J.Config.getString("procs");
      const std::string Flavour = J.Config.getString("flavour");
      const double Seconds = J.Result.metric("seconds");
      if (Flavour == "dynamic")
        Dynamic[Row] = Seconds;
      else if (Flavour == "fixed")
        BestFixed[Row] = BestFixed.count(Row)
                             ? std::min(BestFixed[Row], Seconds)
                             : Seconds;
    }
    double LogSum = 0;
    for (const auto &[Row, Seconds] : Dynamic)
      LogSum += std::log(Seconds / BestFixed.at(Row));
    return Dynamic.empty() ? NAN
                           : std::exp(LogSum / static_cast<double>(
                                                   Dynamic.size()));
  }

  /// The suite's two apps at its scale, for the side measurements.
  const std::vector<std::unique_ptr<apps::App>> &side() {
    if (Side.empty()) {
      apps::bh::BarnesHutConfig B;
      B.scale(PaperScale);
      Side.push_back(std::make_unique<apps::bh::BarnesHutApp>(B));
      apps::water::WaterConfig W;
      W.scale(PaperScale);
      Side.push_back(std::make_unique<apps::water::WaterApp>(W));
    }
    return Side;
  }

  const std::vector<const exp::Experiment *> Experiments;
  const std::string BaselineText;
  const std::unique_ptr<rt::MachineModel> Flat;
  std::vector<std::unique_ptr<apps::App>> Side;
};

} // namespace

std::vector<std::string> hostbench::workloadNames() {
  return {"bh_dynamic", "water_search", "replay_whatif", "paper_suite"};
}

std::unique_ptr<Workload> hostbench::makeWorkload(const std::string &Name,
                                                  uint64_t Seed,
                                                  const std::string &Root,
                                                  std::string &Error) {
  if (Name == "bh_dynamic")
    return std::make_unique<BhDynamic>(Seed);
  if (Name == "water_search") {
    std::optional<xform::VersionSpace> Space =
        xform::VersionSpace::parse("sync,sched", "8,fac,wfac,afac", Error);
    if (!Space)
      return nullptr;
    return std::make_unique<WaterSearch>(Seed, std::move(*Space));
  }
  if (Name == "replay_whatif")
    return std::make_unique<ReplayWhatIf>(Seed);
  if (Name == "paper_suite") {
    exp::registerBuiltinExperiments();
    const std::vector<const exp::Experiment *> Paper =
        exp::registry().suite("paper");
    std::string Names;
    for (const exp::Experiment *E : Paper)
      Names += (Names.empty() ? "" : ",") + E->Name;
    if (Names != "table2_fig4_barnes_hut,table3_bh_locking,"
                 "table7_fig6_water,table8_water_locking") {
      Error = "the paper suite is no longer Tables 2, 3, 7 and 8: " + Names;
      return nullptr;
    }
    std::ifstream In(Root + "/" + BaselinePath);
    if (!In) {
      Error = std::string("cannot read ") + BaselinePath;
      return nullptr;
    }
    std::stringstream Text;
    Text << In.rdbuf();
    return std::make_unique<PaperSuite>(Paper, Text.str());
  }
  Error = "unknown workload '" + Name + "'";
  return nullptr;
}
