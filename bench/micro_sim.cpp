// Microbenchmarks for the simulation engines: scalar vs 64-way packed logic
// simulation, serial vs parallel-fault sequential fault simulation (the
// ablation behind using parallel-fault simulation in step 2), and the two
// injection-heavy users of the per-node injection index: TPI's scalar
// recomputes and packed passes full of DFF D-pin faults.
#include <benchmark/benchmark.h>

#include <random>

#include "bench_circuits/generator.h"
#include "bench_circuits/suite.h"
#include "fault/seq_fault_sim.h"
#include "netlist/levelize.h"
#include "scan/tpi.h"
#include "sim/seq_sim.h"

namespace {

using namespace fsct;

Netlist& circuit() {
  static Netlist nl = [] {
    RandomCircuitSpec spec;
    spec.num_gates = 2000;
    spec.num_ffs = 100;
    spec.num_pis = 20;
    spec.num_pos = 20;
    spec.seed = 99;
    return make_random_sequential(spec);
  }();
  return nl;
}

void BM_ScalarCombSim(benchmark::State& state) {
  const Netlist& nl = circuit();
  const Levelizer lv(nl);
  CombSim sim(lv);
  std::vector<Val> v(nl.size(), Val::X);
  std::mt19937_64 rng(1);
  for (NodeId s : nl.inputs()) v[s] = (rng() & 1) ? Val::One : Val::Zero;
  for (NodeId s : nl.dffs()) v[s] = (rng() & 1) ? Val::One : Val::Zero;
  for (auto _ : state) {
    sim.run(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nl.num_gates()));
}
BENCHMARK(BM_ScalarCombSim);

void BM_PackedCombSim64Patterns(benchmark::State& state) {
  const Netlist& nl = circuit();
  const Levelizer lv(nl);
  PackedCombSim sim(lv);
  std::vector<PackedVal> v(nl.size());
  std::mt19937_64 rng(2);
  for (NodeId s : nl.inputs()) v[s] = {rng(), 0};
  for (NodeId s : nl.dffs()) v[s] = {rng(), 0};
  for (NodeId s : nl.inputs()) v[s].one = ~v[s].zero;
  for (NodeId s : nl.dffs()) v[s].one = ~v[s].zero;
  for (auto _ : state) {
    sim.run(v);
    benchmark::DoNotOptimize(v.data());
  }
  // 64 patterns per run.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64 *
                          static_cast<int64_t>(nl.num_gates()));
}
BENCHMARK(BM_PackedCombSim64Patterns);

/// The suite's s13207 stand-in (7,951 gates, 638 flip-flops), pre-scan.
const Netlist& s13207() {
  static const Netlist nl = build_suite_circuit(suite_entry("s13207"));
  return nl;
}

TestSequence random_sequence(const Netlist& nl, int cycles) {
  TestSequence seq;
  std::mt19937_64 rng(3);
  for (int t = 0; t < cycles; ++t) {
    std::vector<Val> v(nl.inputs().size());
    for (auto& x : v) x = (rng() & 1) ? Val::One : Val::Zero;
    seq.push_back(std::move(v));
  }
  return seq;
}

void BM_SerialSeqFaultSim(benchmark::State& state) {
  const Netlist& nl = circuit();
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, nl.outputs());
  const auto all = collapsed_fault_list(nl);
  const std::vector<Fault> faults(all.begin(),
                                  all.begin() + std::min<std::size_t>(
                                                    all.size(), 32));
  const TestSequence seq = random_sequence(nl, 10);
  for (auto _ : state) {
    auto r = sim.run_serial(seq, faults);
    benchmark::DoNotOptimize(r.detect_cycle.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_SerialSeqFaultSim);

enum class FaultPick { Collapsed32, DffDPins252 };

/// One packed pass per iteration.  Collapsed32: the first 32 collapsed faults
/// of the 2,000-gate circuit, one 64-lane word.  DffDPins252: both polarities
/// on the D pins of s13207's first 126 flip-flops, one 256-lane pass whose
/// every injection sits on a flip-flop the stepper clocks each cycle.
void BM_ParallelSeqFaultSim(benchmark::State& state, FaultPick pick) {
  const bool dff = pick == FaultPick::DffDPins252;
  const Netlist& nl = dff ? s13207() : circuit();
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, nl.outputs());
  std::vector<Fault> faults;
  if (dff) {
    for (std::size_t i = 0; i < 126; ++i) {
      faults.push_back({nl.dffs()[i], 0, false});
      faults.push_back({nl.dffs()[i], 0, true});
    }
  } else {
    const auto all = collapsed_fault_list(nl);
    faults.assign(all.begin(),
                  all.begin() + std::min<std::size_t>(all.size(), 32));
  }
  const TestSequence seq = random_sequence(nl, 10);
  for (auto _ : state) {
    auto r = sim.run(seq, faults);
    benchmark::DoNotOptimize(r.detect_cycle.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(faults.size()));
}
BENCHMARK_CAPTURE(BM_ParallelSeqFaultSim, collapsed_32, FaultPick::Collapsed32);
BENCHMARK_CAPTURE(BM_ParallelSeqFaultSim, dff_d_pins_252,
                  FaultPick::DffDPins252)
    ->Unit(benchmark::kMillisecond);

/// Whole-circuit TPI on s13207 with 5 chains, as `fsct test s13207 --chains
/// 5` runs it: 260 test points, and every path commit that adds one (or
/// pins a PI) re-simulates the scan-mode values with all of them injected.
void BM_TpiS13207(benchmark::State& state) {
  TpiOptions opt;
  opt.num_chains = 5;
  for (auto _ : state) {
    state.PauseTiming();
    Netlist nl = s13207();
    state.ResumeTiming();
    auto d = run_tpi(nl, opt);
    benchmark::DoNotOptimize(&d);
  }
}
BENCHMARK(BM_TpiS13207)->Unit(benchmark::kMillisecond);

}  // namespace
