// Microbenchmarks for the ATPG stack: PODEM on the combinational scan-mode
// model and on a real step-3 unrolled group model, classification
// throughput, and reduced-model construction (a small random circuit and
// the large s13207/s5378 final models) — the pieces whose cost shapes
// Tables 2 and 3.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "atpg/podem.h"
#include "atpg/unroll.h"
#include "bench_circuits/generator.h"
#include "bench_circuits/suite.h"
#include "core/classify.h"
#include "core/grouping.h"
#include "core/pipeline.h"
#include "core/reduced_atpg.h"
#include "netlist/levelize.h"
#include "scan/tpi.h"

namespace {

using namespace fsct;

struct World {
  Netlist nl;
  ScanDesign design;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<ScanModeModel> model;
  std::vector<Fault> faults;
};

World& world() {
  static World w = [] {
    World x;
    RandomCircuitSpec spec;
    spec.num_gates = 1500;
    spec.num_ffs = 80;
    spec.num_pis = 16;
    spec.num_pos = 12;
    spec.seed = 55;
    x.nl = make_random_sequential(spec);
    x.design = run_tpi(x.nl);
    x.lv = std::make_unique<Levelizer>(x.nl);
    x.model = std::make_unique<ScanModeModel>(*x.lv, x.design);
    x.faults = collapsed_fault_list(x.nl);
    return x;
  }();
  return w;
}

void BM_Classify(benchmark::State& state) {
  World& w = world();
  ChainFaultClassifier cls(*w.model);
  std::size_t i = 0;
  for (auto _ : state) {
    auto info = cls.classify(w.faults[i++ % w.faults.size()]);
    benchmark::DoNotOptimize(&info);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Classify);

void BM_CombPodem(benchmark::State& state) {
  World& w = world();
  UnrollSpec spec;
  spec.base = w.lv.get();
  spec.frames = 1;
  spec.fixed_pis = w.design.pi_constraints;
  spec.controllable_state.assign(w.nl.dffs().size(), 1);
  spec.observable_ff.assign(w.nl.dffs().size(), 1);
  static const UnrolledModel um = unroll(spec);
  Podem podem(um.circuit, um.controllable, um.observe, AtpgOptions{200});
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = podem.generate(um.map_fault(w.faults[i++ % w.faults.size()]));
    benchmark::DoNotOptimize(&r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CombPodem);

// s1423's largest step-3 group, exactly as the pipeline forms it: the hard
// faults still open when step 3 starts (time limits 0), windowed and grouped
// with the auto distance parameters, and built into one reduced unrolled
// model at time limit 0.  Built in place: the Levelizer and the scan model
// hold references into the netlist, so nothing here may move.
struct Step3World {
  Netlist nl;
  ScanDesign design;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<ScanModeModel> model;
  std::vector<Fault> faults;
  std::unique_ptr<ReducedCircuitBuilder> builder;
  std::unique_ptr<ReducedModel> rm;
  std::vector<std::vector<FaultSite>> targets;  // mapped group faults
};

Step3World& step3_world() {
  static Step3World* const world = [] {
    auto* const w = new Step3World;
    Step3World& x = *w;
    const SuiteEntry e = suite_entry("s1423");
    x.nl = build_suite_circuit(e);
    TpiOptions topt;
    topt.num_chains = e.chains;
    x.design = run_tpi(x.nl, topt);
    x.lv = std::make_unique<Levelizer>(x.nl);
    x.model = std::make_unique<ScanModeModel>(*x.lv, x.design);
    x.faults = collapsed_fault_list(x.nl);

    // Run the pipeline up to the step-3 safe point and keep its view.
    PipelineOptions opt;
    opt.verify_easy = true;
    opt.comb_time_limit_ms = 0;
    opt.seq_time_limit_ms = 0;
    opt.final_time_limit_ms = 0;
    PipelineResult at_s3;
    PipelineHooks hooks;
    hooks.safe_point = [&](const PipelineProgress& p) {
      if (p.next != PipelinePhase::S3Groups) return true;
      at_s3 = *p.res;
      return false;
    };
    opt.hooks = &hooks;
    try {
      run_fsct_pipeline(*x.model, x.faults, opt);
    } catch (const PipelineStopped&) {
    }
    std::vector<FaultWindow> windows;
    for (std::size_t j = 0; j < at_s3.info.size(); ++j) {
      if (at_s3.info[j].category == ChainFaultCategory::Hard &&
          at_s3.outcome[j] == FaultOutcome::Undetected) {
        windows.push_back(make_fault_window(j, at_s3.info[j]));
      }
    }
    const std::vector<AtpgGroup> groups = make_groups(
        windows, DistanceParams::from_maxsize(x.model->max_chain_length()));
    const AtpgGroup& g = *std::max_element(
        groups.begin(), groups.end(), [](const AtpgGroup& a, const AtpgGroup& b) {
          return a.fault_indices.size() < b.fault_indices.size();
        });

    ReducedModelOptions ropt;
    ropt.frame_slack = opt.frame_slack;
    ropt.frame_cap = opt.frame_cap;
    ropt.observe_pos = opt.observe_pos;
    ropt.atpg.backtrack_limit = opt.seq_backtrack_limit;
    ropt.atpg.time_limit_ms = 0;
    x.builder = std::make_unique<ReducedCircuitBuilder>(*x.model, ropt);
    std::vector<Fault> gf;
    for (std::size_t j : g.fault_indices) gf.push_back(x.faults[j]);
    x.rm.reset(new ReducedModel(x.builder->build(g, gf)));
    for (const Fault& f : gf) {
      auto sites = x.rm->um.map_fault(f);
      if (!sites.empty()) x.targets.push_back(std::move(sites));
    }
    return w;
  }();
  return *world;
}

void BM_Step3GroupPodem(benchmark::State& state) {
  Step3World& w = step3_world();
  if (w.targets.empty()) {
    state.SkipWithError("no step-3 targets");
    return;
  }
  // One iteration targets every fault of the group: per-fault costs differ
  // by orders of magnitude, so a partial cycle would not be comparable.
  std::int64_t decisions = 0;
  for (auto _ : state) {
    for (const auto& sites : w.targets) {
      const AtpgResult r = w.rm->podem->generate(sites);
      decisions += r.decisions;
      benchmark::DoNotOptimize(&r);
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * w.targets.size()));
  state.counters["decisions_per_s"] = benchmark::Counter(
      static_cast<double>(decisions), benchmark::Counter::kIsRate);
  state.counters["model_nodes"] =
      static_cast<double>(w.rm->um.circuit->size());
  state.counters["targets"] = static_cast<double>(w.targets.size());
}
BENCHMARK(BM_Step3GroupPodem)->Unit(benchmark::kMillisecond);

void BM_ReducedModelBuild(benchmark::State& state) {
  World& w = world();
  ChainFaultClassifier cls(*w.model);
  // Find one hard fault to build models for.
  Fault target = w.faults.front();
  ChainFaultInfo info;
  for (const Fault& f : w.faults) {
    info = cls.classify(f);
    if (info.category == ChainFaultCategory::Hard) {
      target = f;
      break;
    }
  }
  ReducedCircuitBuilder builder(*w.model);
  AtpgGroup g;
  g.kind = 1;
  g.fault_indices = {0};
  g.window = make_fault_window(0, info).chains;
  if (g.window.empty()) g.window = {{0, 0, 0}};
  for (auto _ : state) {
    auto rm = builder.build(g, std::span(&target, 1));
    benchmark::DoNotOptimize(&rm);
  }
}
BENCHMARK(BM_ReducedModelBuild);

// One step-3 final model exactly as the final pass builds it: the suite
// circuit after TPI with its suite chains, the fault's own window from its
// classification, the final pass's extra frames.  s13207 fault 5772 is the
// first of its ten final faults (12 frames, 105,196 nodes); s5378 fault 679
// is its largest final model (87 frames, 262,660 nodes), both at the
// default pipeline options.  Built in place, like Step3World.
struct FinalModelWorld {
  Netlist nl;
  ScanDesign design;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<ScanModeModel> model;
  std::unique_ptr<ReducedCircuitBuilder> builder;
  AtpgGroup group;
  Fault fault;
};

const FinalModelWorld& final_model_world(const char* circuit,
                                         std::size_t fault) {
  static std::map<std::pair<std::string, std::size_t>,
                  std::unique_ptr<FinalModelWorld>>
      worlds;
  std::unique_ptr<FinalModelWorld>& slot = worlds[{circuit, fault}];
  if (slot) return *slot;
  slot = std::make_unique<FinalModelWorld>();
  FinalModelWorld& x = *slot;
  const SuiteEntry e = suite_entry(circuit);
  x.nl = build_suite_circuit(e);
  TpiOptions topt;
  topt.num_chains = e.chains;
  x.design = run_tpi(x.nl, topt);
  x.lv = std::make_unique<Levelizer>(x.nl);
  x.model = std::make_unique<ScanModeModel>(*x.lv, x.design);
  x.fault = collapsed_fault_list(x.nl).at(fault);
  x.builder = std::make_unique<ReducedCircuitBuilder>(*x.model);
  x.group.kind = 1;
  x.group.fault_indices = {fault};
  x.group.window =
      make_fault_window(fault, ChainFaultClassifier(*x.model).classify(x.fault))
          .chains;
  return x;
}

void BM_BuildReducedModel(benchmark::State& state, const char* circuit,
                          std::size_t fault) {
  const FinalModelWorld& w = final_model_world(circuit, fault);
  const int extra_frames = PipelineOptions{}.final_extra_frames;
  std::size_t nodes = 0;
  int frames = 0;
  for (auto _ : state) {
    const ReducedModel rm =
        w.builder->build(w.group, std::span(&w.fault, 1), extra_frames);
    nodes = rm.um.circuit->size();
    frames = rm.frames;
    benchmark::DoNotOptimize(&rm);
  }
  state.counters["model_nodes"] = static_cast<double>(nodes);
  state.counters["frames"] = frames;
}
BENCHMARK_CAPTURE(BM_BuildReducedModel, s13207_final, "s13207", 5772)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildReducedModel, s5378_final, "s5378", 679)
    ->Unit(benchmark::kMillisecond);

void BM_TpiWholeCircuit(benchmark::State& state) {
  for (auto _ : state) {
    RandomCircuitSpec spec;
    spec.num_gates = 1500;
    spec.num_ffs = 80;
    spec.num_pis = 16;
    spec.seed = 55;
    Netlist nl = make_random_sequential(spec);
    auto d = run_tpi(nl);
    benchmark::DoNotOptimize(&d);
  }
}
BENCHMARK(BM_TpiWholeCircuit);

}  // namespace
