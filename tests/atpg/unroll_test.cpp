#include "atpg/unroll.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <sstream>
#include <string>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "bench_circuits/suite.h"
#include "core/grouping.h"
#include "core/pipeline.h"
#include "core/reduced_atpg.h"
#include "fault/fault.h"
#include "netlist/levelize.h"
#include "scan/scan_mode_model.h"
#include "scan/tpi.h"
#include "sim/comb_sim.h"
#include "unroll_reference.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;

UnrollSpec basic_spec(const Levelizer& lv, int frames) {
  UnrollSpec s;
  s.base = &lv;
  s.frames = frames;
  s.controllable_state.assign(lv.netlist().dffs().size(), 1);
  s.observable_ff.assign(lv.netlist().dffs().size(), 1);
  return s;
}

TEST(Unroll, OneFrameShape) {
  const Netlist nl = small_pipeline();  // 3 PIs, 3 FFs, 2 gates
  const Levelizer lv(nl);
  const UnrolledModel m = unroll(basic_spec(lv, 1));
  EXPECT_EQ(m.frames(), 1);
  EXPECT_EQ(to_netlist(*m.circuit).validate(), "");
  // 3 state inputs + 3 PIs + 2 gates + 3 caps = 11 nodes.
  EXPECT_EQ(m.circuit->size(), 11u);
  // Observations: 1 PO copy + 3 caps.
  EXPECT_EQ(m.observe.size(), 4u);
  EXPECT_EQ(m.init_state.size(), 3u);
  for (NodeId s : m.init_state) EXPECT_TRUE(m.controllable[s]);
}

TEST(Unroll, FramesChainThroughCaptureBuffers) {
  const Netlist nl = small_pipeline();
  const Levelizer lv(nl);
  const UnrolledModel m = unroll(basic_spec(lv, 3));
  const NodeId f2 = nl.find("f2");
  const std::size_t ffi = 1;  // f2 is the second DFF
  // Frame-2 Q of f2 must be frame-1 capture buffer.
  EXPECT_EQ(m.map[2][f2], m.cap[1][ffi]);
  EXPECT_EQ(m.map[1][f2], m.cap[0][ffi]);
  EXPECT_EQ(m.map[0][f2], m.init_state[ffi]);
}

TEST(Unroll, FixedPisBecomeSharedConstants) {
  const Netlist nl = small_pipeline();
  const Levelizer lv(nl);
  UnrollSpec s = basic_spec(lv, 2);
  s.fixed_pis = {{nl.find("c1"), Val::One}};
  const UnrolledModel m = unroll(s);
  const NodeId u0 = m.frame_pi[0][1];  // c1 is input index 1
  const NodeId u1 = m.frame_pi[1][1];
  EXPECT_EQ(u0, u1);
  EXPECT_EQ(m.circuit->type(u0), GateType::Const1);
  EXPECT_FALSE(m.controllable[u0]);
}

TEST(Unroll, UncontrollableStateIsNotAssignable) {
  const Netlist nl = small_pipeline();
  const Levelizer lv(nl);
  UnrollSpec s = basic_spec(lv, 1);
  s.controllable_state.assign(nl.dffs().size(), 0);
  const UnrolledModel m = unroll(s);
  for (NodeId st : m.init_state) EXPECT_FALSE(m.controllable[st]);
}

TEST(Unroll, MapFaultGateFaultInEveryFrame) {
  const Netlist nl = small_pipeline();
  const Levelizer lv(nl);
  const UnrolledModel m = unroll(basic_spec(lv, 3));
  const Fault f{nl.find("g1"), -1, true};
  const auto sites = m.map_fault(f);
  ASSERT_EQ(sites.size(), 3u);
  for (int fr = 0; fr < 3; ++fr) {
    EXPECT_EQ(sites[static_cast<std::size_t>(fr)].node,
              m.map[static_cast<std::size_t>(fr)][nl.find("g1")]);
    EXPECT_EQ(sites[static_cast<std::size_t>(fr)].value, k1);
  }
}

TEST(Unroll, MapFaultDffOutputCoversInitAndCaps) {
  const Netlist nl = small_pipeline();
  const Levelizer lv(nl);
  const UnrolledModel m = unroll(basic_spec(lv, 2));
  const Fault f{nl.find("f1"), -1, false};
  const auto sites = m.map_fault(f);
  // init_state + 2 caps = 3 sites.
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].node, m.init_state[0]);
  EXPECT_EQ(sites[1].node, m.cap[0][0]);
  EXPECT_EQ(sites[2].node, m.cap[1][0]);
}

TEST(Unroll, MapFaultDffPinTargetsCaptureBuffers) {
  const Netlist nl = small_pipeline();
  const Levelizer lv(nl);
  const UnrolledModel m = unroll(basic_spec(lv, 2));
  const Fault f{nl.find("f3"), 0, true};
  const auto sites = m.map_fault(f);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].node, m.cap[0][2]);
  EXPECT_EQ(sites[0].pin, 0);
}

TEST(Unroll, MapFaultOnFixedPiDeduplicates) {
  const Netlist nl = small_pipeline();
  const Levelizer lv(nl);
  UnrollSpec s = basic_spec(lv, 3);
  s.fixed_pis = {{nl.find("c1"), Val::One}};
  const UnrolledModel m = unroll(s);
  const Fault f{nl.find("c1"), -1, false};
  const auto sites = m.map_fault(f);
  EXPECT_EQ(sites.size(), 1u);  // the shared constant node, once
}

TEST(Unroll, UnrolledCircuitSimulatesLikeSequential) {
  // Pair-simulate the fault-free unrolled pipeline and compare with the
  // sequential semantics by hand: f2@c1 = NAND(f1@1, c1@1).
  const Netlist nl = small_pipeline();
  const Levelizer lv(nl);
  const UnrolledModel m = unroll(basic_spec(lv, 2));
  PairSim sim(m.circuit);
  sim.init({});
  // Set: f1 initial state 1, then pi@0 = 0 so f1@c0 = 0; c1 = 1 both frames.
  sim.set_source(m.init_state[0], k1);
  sim.set_source(m.frame_pi[0][0], k0);  // pi
  sim.set_source(m.frame_pi[0][1], k1);  // c1
  sim.set_source(m.frame_pi[1][1], k1);
  // Frame 0: g1 = NAND(f1=1, c1=1) = 0 -> cap f2@c0 = 0.
  EXPECT_EQ(sim.value(m.cap[0][1]).g, k0);
  // Frame 1: f1@1 = cap f1@c0 = pi@0 = 0; g1@1 = NAND(0,1) = 1.
  EXPECT_EQ(sim.value(m.cap[1][1]).g, k1);
}

TEST(Unroll, PrunedModelFoldsFrozenLogic) {
  // c2 fixed to 1 makes g2 = NOR(f2, 1) = 0 constant: with pruning rooted at
  // the PO side everything behind the frozen net folds away.
  const Netlist nl = small_pipeline();
  Levelizer lv(nl);
  std::vector<Val> values(nl.size(), Val::X);
  values[nl.find("c2")] = k1;
  CombSim csim(lv);
  csim.run(values);
  ASSERT_EQ(values[nl.find("g2")], k0);

  const Fault f{nl.find("g1"), -1, false};
  const auto cone = fault_forward_closure(lv, std::span(&f.node, 1));
  const std::vector<NodeId> roots{nl.find("f2"), f.node};
  const auto keep = compute_keep_mask(lv, values, cone, roots);
  EXPECT_TRUE(keep[nl.find("g1")]);
  EXPECT_TRUE(keep[nl.find("f1")]);
  EXPECT_FALSE(keep[nl.find("c2")]);  // frozen PI folds

  UnrollSpec s = basic_spec(lv, 2);
  s.fixed_pis = {{nl.find("c2"), Val::One}};
  s.keep = &keep;
  s.fold_values = &values;
  const UnrolledModel m = unroll(s);
  EXPECT_EQ(to_netlist(*m.circuit).validate(), "");
  // f3 was not kept: no capture buffers for it.
  EXPECT_EQ(m.cap[0][2], kNullNode);
  const auto sites = m.map_fault(f);
  EXPECT_EQ(sites.size(), 2u);
}

TEST(Unroll, BadSpecsThrow) {
  const Netlist nl = small_pipeline();
  const Levelizer lv(nl);
  UnrollSpec s;
  EXPECT_THROW(unroll(s), std::invalid_argument);
  s = basic_spec(lv, 0);
  EXPECT_THROW(unroll(s), std::invalid_argument);
  s = basic_spec(lv, 1);
  s.controllable_state.pop_back();
  EXPECT_THROW(unroll(s), std::invalid_argument);
  s = basic_spec(lv, 1);
  std::vector<char> keep(nl.size(), 1);
  s.keep = &keep;  // without fold_values
  EXPECT_THROW(unroll(s), std::invalid_argument);
}

TEST(Unroll, MultiSourceClosureIsUnionOfSingleClosures) {
  RandomCircuitSpec rs;
  rs.num_gates = 300;
  rs.num_ffs = 24;
  rs.seed = 7;
  const Netlist nl = make_random_sequential(rs);
  const Levelizer lv(nl);
  std::vector<NodeId> sites;
  std::vector<char> want(nl.size(), 0);
  for (NodeId id = 3; id < nl.size(); id += 37) {
    sites.push_back(id);
    const auto one = fault_forward_closure(lv, std::span(&id, 1));
    for (NodeId n = 0; n < nl.size(); ++n) want[n] |= one[n];
  }
  sites.push_back(sites.front());  // a repeated site changes nothing
  EXPECT_EQ(fault_forward_closure(lv, sites), want);
  EXPECT_EQ(fault_forward_closure(lv, {}), std::vector<char>(nl.size(), 0));
}

// ---- the flat model against the Netlist-building reference ----------------

/// "" when `a` and `b` are equal, otherwise where they first differ.
template <class A, class B>
std::string diff(const char* what, const A& a, const B& b) {
  std::ostringstream os;
  if (a.size() != b.size()) {
    os << what << ": size " << a.size() << " vs " << b.size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      os << what << ": first difference at " << i;
      return os.str();
    }
  }
  return {};
}

/// Unrolls `spec` both ways and compares every array of the flat circuit with
/// the reference Netlist and a Levelizer built over it, plus the model's
/// bookkeeping.  Returns the mismatches, "" when there are none.
std::string compare_with_reference(const UnrollSpec& spec) {
  const UnrolledModel m = unroll(spec);
  const ReferenceUnrolledModel r = unroll_reference(spec);
  const Levelizer rlv(r.nl);
  const SoaCircuit& c = *m.circuit;
  const std::size_t n = r.nl.size();
  if (c.size() != n) {
    return "size " + std::to_string(c.size()) + " vs " + std::to_string(n);
  }
  std::vector<GateType> type(n), want_type(n);
  std::vector<std::vector<NodeId>> fanin(n), want_fanin(n), fanout(n),
      want_fanout(n);
  std::vector<int> level(n), want_level(n);
  std::vector<NodeId> const0, const1;
  for (NodeId id = 0; id < n; ++id) {
    type[id] = c.type(id);
    want_type[id] = r.nl.type(id);
    fanin[id].assign(c.fanin(id), c.fanin(id) + c.fanin_count(id));
    want_fanin[id].assign(r.nl.fanins(id).begin(), r.nl.fanins(id).end());
    fanout[id].assign(c.fanout(id), c.fanout(id) + c.fanout_count(id));
    for (NodeId s : rlv.fanouts(id)) {
      if (is_combinational(r.nl.type(s))) want_fanout[id].push_back(s);
    }
    level[id] = c.level(id);
    want_level[id] = rlv.level(id);
    if (r.nl.type(id) == GateType::Const0) const0.push_back(id);
    if (r.nl.type(id) == GateType::Const1) const1.push_back(id);
  }
  // The evaluation order as a stable (level, type) sort of the Levelizer's
  // topological order, and its maximal same-type runs.
  std::vector<NodeId> want_order = rlv.topo_order();
  std::stable_sort(want_order.begin(), want_order.end(),
                   [&](NodeId a, NodeId b) {
                     if (rlv.level(a) != rlv.level(b)) {
                       return rlv.level(a) < rlv.level(b);
                     }
                     return r.nl.type(a) < r.nl.type(b);
                   });
  std::vector<std::array<std::uint32_t, 3>> runs, want_runs;
  for (const SoaRun& run : c.runs()) {
    runs.push_back({static_cast<std::uint32_t>(run.type), run.begin, run.end});
  }
  for (std::uint32_t i = 0; i < want_order.size();) {
    std::uint32_t j = i + 1;
    while (j < want_order.size() &&
           r.nl.type(want_order[j]) == r.nl.type(want_order[i]) &&
           rlv.level(want_order[j]) == rlv.level(want_order[i])) {
      ++j;
    }
    want_runs.push_back(
        {static_cast<std::uint32_t>(r.nl.type(want_order[i])), i, j});
    i = j;
  }

  std::string out;
  for (const std::string& d :
       {diff("types", type, want_type), diff("fanins", fanin, want_fanin),
        diff("fanouts", fanout, want_fanout), diff("levels", level, want_level),
        diff("topo_order", c.topo_order(), rlv.topo_order()),
        diff("order", c.order(), want_order), diff("runs", runs, want_runs),
        diff("inputs", c.inputs(), r.nl.inputs()),
        diff("dffs", c.dffs(), r.nl.dffs()),
        diff("const0", c.const0(), const0), diff("const1", c.const1(), const1),
        diff("map", m.map, r.map), diff("cap", m.cap, r.cap),
        diff("frame_pi", m.frame_pi, r.frame_pi),
        diff("init_state", m.init_state, r.init_state),
        diff("observe", m.observe, r.observe),
        diff("controllable", m.controllable, r.controllable)}) {
    if (!d.empty()) out += d + "; ";
  }
  if (c.max_level() != rlv.max_level()) out += "max_level; ";
  return out;
}

/// A generator circuit after TPI, with two constant generators wired into
/// extra observed logic so base constants are unrolled too.
struct GenWorld {
  Netlist nl;
  ScanDesign design;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<ScanModeModel> model;

  explicit GenWorld(std::uint64_t seed) {
    RandomCircuitSpec rs;
    rs.num_gates = 160;
    rs.num_ffs = 14;
    rs.num_pis = 8;
    rs.seed = seed;
    nl = make_random_sequential(rs);
    const NodeId c0 = nl.add_const(false, "k0");
    const NodeId c1 = nl.add_const(true, "k1");
    const NodeId a = nl.add_gate(GateType::And, {c1, nl.inputs()[0]}, "ka");
    const NodeId o = nl.add_gate(GateType::Or, {c0, a, nl.dffs()[0]}, "ko");
    nl.mark_output(o);
    design = run_tpi(nl);
    lv = std::make_unique<Levelizer>(nl);
    model = std::make_unique<ScanModeModel>(*lv, design);
  }
};

TEST(Unroll, FlatMatchesNetlistReference) {
  // Generator circuits, frames 1-16: unpruned and pruned with
  // compute_keep_mask, random per-FF controllability/observability, the TPI
  // pin constraints plus one extra PI fixed at each polarity.
  std::size_t compared = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const GenWorld w(seed);
    const Netlist& nl = w.nl;
    const std::size_t n_ff = nl.dffs().size();
    const auto faults = collapsed_fault_list(nl);
    std::mt19937_64 rng(seed);
    for (int frames : {1, 2, 3, 5, 8, 16}) {
      for (int pruned = 0; pruned < 2; ++pruned) {
        UnrollSpec s = basic_spec(*w.lv, frames);
        s.fixed_pis = w.design.pi_constraints;
        std::vector<NodeId> free_pis;
        for (NodeId pi : nl.inputs()) {
          if (!w.design.is_constrained(pi)) free_pis.push_back(pi);
        }
        ASSERT_GE(free_pis.size(), 2u);
        s.fixed_pis.push_back({free_pis[rng() % free_pis.size()], k0});
        s.fixed_pis.push_back({free_pis[rng() % free_pis.size()], k1});
        for (std::size_t i = 0; i < n_ff; ++i) {
          s.controllable_state[i] = static_cast<char>(rng() & 1);
          s.observable_ff[i] = static_cast<char>(rng() & 1);
        }
        s.observe_pos = (frames % 2) == 1;
        std::vector<char> keep;
        if (pruned) {
          std::vector<NodeId> roots;
          for (std::size_t k = 0; k < 3; ++k) {
            roots.push_back(faults[rng() % faults.size()].node);
          }
          const auto cone = fault_forward_closure(*w.lv, roots);
          for (NodeId ff : nl.dffs()) {
            if (cone[ff]) roots.push_back(ff);
          }
          keep = compute_keep_mask(*w.lv, w.model->values(), cone, roots);
          s.keep = &keep;
          s.fold_values = &w.model->values();
        }
        EXPECT_EQ(compare_with_reference(s), "")
            << "seed " << seed << ", " << frames << " frames, pruned "
            << pruned;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 36u);

  // Every group and final model the step-3 builders form on two suite
  // circuits: the open faults at the step-3 and final safe points, grouped
  // and windowed as the pipeline does.
  for (const char* name : {"s1423", "s5378"}) {
    const SuiteEntry e = suite_entry(name);
    Netlist nl = build_suite_circuit(e);
    TpiOptions topt;
    topt.num_chains = e.chains;
    const ScanDesign d = run_tpi(nl, topt);
    const Levelizer lv(nl);
    const ScanModeModel model(lv, d);
    const auto faults = collapsed_fault_list(nl);
    PipelineOptions opt;
    PipelineResult at_groups, at_final;
    PipelineHooks hooks;
    hooks.safe_point = [&](const PipelineProgress& p) {
      if (p.next == PipelinePhase::S3Groups) at_groups = *p.res;
      if (p.next != PipelinePhase::S3Final) return true;
      at_final = *p.res;
      return false;
    };
    opt.hooks = &hooks;
    EXPECT_THROW(run_fsct_pipeline(model, faults, opt), PipelineStopped);

    const auto open = [](const PipelineResult& r) {
      std::vector<std::size_t> ids;
      for (std::size_t j = 0; j < r.info.size(); ++j) {
        if (r.info[j].category == ChainFaultCategory::Hard &&
            r.outcome[j] == FaultOutcome::Undetected) {
          ids.push_back(j);
        }
      }
      return ids;
    };
    ReducedModelOptions ropt;
    ropt.frame_slack = opt.frame_slack;
    ropt.frame_cap = opt.frame_cap;
    ropt.observe_pos = opt.observe_pos;
    const ReducedCircuitBuilder builder(model, ropt);
    std::size_t models = 0;

    std::vector<FaultWindow> windows;
    for (std::size_t j : open(at_groups)) {
      windows.push_back(make_fault_window(j, at_groups.info[j]));
    }
    for (const AtpgGroup& g : make_groups(
             windows, DistanceParams::from_maxsize(model.max_chain_length()))) {
      std::vector<Fault> gf;
      for (std::size_t j : g.fault_indices) gf.push_back(faults[j]);
      std::vector<char> keep;
      EXPECT_EQ(compare_with_reference(builder.unroll_spec(g, gf, 0, keep)), "")
          << name << " group of fault " << g.fault_indices.front();
      ++models;
    }
    for (std::size_t j : open(at_final)) {
      AtpgGroup g;
      g.kind = 1;
      g.fault_indices = {j};
      g.window = make_fault_window(j, at_final.info[j]).chains;
      std::vector<char> keep;
      EXPECT_EQ(compare_with_reference(builder.unroll_spec(
                    g, std::span(&faults[j], 1), opt.final_extra_frames, keep)),
                "")
          << name << " final model of fault " << j;
      ++models;
    }
    EXPECT_GT(models, 0u) << name;
  }
}

}  // namespace
}  // namespace fsct
