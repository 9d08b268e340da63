#include "atpg/pair_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;
constexpr Val kX = Val::X;

struct Built {
  Netlist nl;
  Levelizer lv;
  PairSim sim;
  explicit Built(Netlist n) : nl(std::move(n)), lv(nl), sim(lv) {}
};

Netlist and_tree() {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId g1 = nl.add_gate(GateType::And, {a, b}, "g1");
  nl.add_gate(GateType::Or, {g1, c}, "g2");
  return nl;
}

TEST(PairSim, InitIsAllXWithConstants) {
  Netlist nl("t");
  const NodeId c1 = nl.add_const(true, "c1");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::And, {c1, a}, "g");
  Built b(std::move(nl));
  b.sim.init({});
  EXPECT_EQ(b.sim.value(c1).g, k1);
  EXPECT_EQ(b.sim.value(a).g, kX);
  EXPECT_EQ(b.sim.value(g).g, kX);
  EXPECT_FALSE(b.sim.any_effect());
}

TEST(PairSim, SetSourcePropagates) {
  Built b(and_tree());
  b.sim.init({});
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  EXPECT_EQ(b.sim.value(b.nl.find("g1")).g, k1);
  EXPECT_EQ(b.sim.value(b.nl.find("g2")).g, k1);
  b.sim.set_source(b.nl.find("a"), kX);  // un-assign
  EXPECT_EQ(b.sim.value(b.nl.find("g1")).g, kX);
}

TEST(PairSim, OutputSiteCreatesD) {
  Built b(and_tree());
  const NodeId g1 = b.nl.find("g1");
  const FaultSite site[] = {{g1, -1, k0}};  // g1 s-a-0
  b.sim.init(site);
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  const PairVal v = b.sim.value(g1);
  EXPECT_EQ(v.g, k1);
  EXPECT_EQ(v.f, k0);
  EXPECT_TRUE(has_effect(v));
  EXPECT_TRUE(b.sim.any_effect());
}

TEST(PairSim, EffectPropagatesAndMasks) {
  Built b(and_tree());
  const FaultSite site[] = {{b.nl.find("g1"), -1, k0}};
  b.sim.init(site);
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  b.sim.set_source(b.nl.find("c"), k0);
  EXPECT_TRUE(has_effect(b.sim.value(b.nl.find("g2"))));  // D reaches g2
  b.sim.set_source(b.nl.find("c"), k1);  // OR side input masks
  EXPECT_FALSE(has_effect(b.sim.value(b.nl.find("g2"))));
  EXPECT_EQ(b.sim.value(b.nl.find("g2")).g, k1);
}

TEST(PairSim, PinSiteOnlyAffectsFaultyComponentOfThatGate) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::Buf, {a}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Buf, {a}, "g2");
  Built b(std::move(nl));
  const FaultSite site[] = {{g1, 0, k0}};
  b.sim.init(site);
  b.sim.set_source(a, k1);
  EXPECT_TRUE(has_effect(b.sim.value(g1)));
  EXPECT_FALSE(has_effect(b.sim.value(g2)));
  EXPECT_EQ(b.sim.value(a).f, k1);  // the stem itself is healthy
}

TEST(PairSim, InputOutputSite) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, {a}, "g");
  Built b(std::move(nl));
  const FaultSite site[] = {{a, -1, k1}};  // a s-a-1
  b.sim.init(site);
  EXPECT_EQ(b.sim.value(a).f, k1);
  EXPECT_EQ(b.sim.value(a).g, kX);
  b.sim.set_source(a, k0);
  EXPECT_TRUE(has_effect(b.sim.value(a)));
  EXPECT_TRUE(has_effect(b.sim.value(g)));
  EXPECT_EQ(b.sim.value(g).f, k0);
}

TEST(PairSim, MultipleSitesSameFault) {
  // Two sites of "the same" stuck line across two frame copies.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::Buf, {a}, "g1");
  const NodeId b2 = nl.add_input("b");
  const NodeId g2 = nl.add_gate(GateType::Buf, {b2}, "g2");
  Built b(std::move(nl));
  const FaultSite sites[] = {{g1, -1, k0}, {g2, -1, k0}};
  b.sim.init(sites);
  b.sim.set_source(a, k1);
  b.sim.set_source(b2, k1);
  EXPECT_TRUE(has_effect(b.sim.value(g1)));
  EXPECT_TRUE(has_effect(b.sim.value(g2)));
}

TEST(PairSim, EffectNetsTracksLiveEffects) {
  Built b(and_tree());
  const FaultSite site[] = {{b.nl.find("g1"), -1, k0}};
  b.sim.init(site);
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  b.sim.set_source(b.nl.find("c"), k0);
  const auto& nets = b.sim.effect_nets();
  EXPECT_EQ(nets.size(), 2u);  // g1 and g2
  b.sim.set_source(b.nl.find("b"), k0);  // deactivate the fault
  EXPECT_FALSE(b.sim.any_effect());
  EXPECT_TRUE(b.sim.effect_nets().empty());
}

TEST(PairSim, ReInitClearsPreviousFault) {
  Built b(and_tree());
  const FaultSite site[] = {{b.nl.find("g1"), -1, k0}};
  b.sim.init(site);
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  EXPECT_TRUE(b.sim.any_effect());
  b.sim.init({});
  EXPECT_FALSE(b.sim.any_effect());
  EXPECT_EQ(b.sim.value(b.nl.find("g1")).g, kX);
}

TEST(PairSim, RejectsSequentialNetlists) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  nl.add_dff(a, "q");
  Built b(std::move(nl));
  EXPECT_THROW(b.sim.init({}), std::logic_error);
}

// --- Differential test ------------------------------------------------------
//
// Random combinational circuits with every gate type, fanins up to kMaxFanin
// and constants, under stem, pin and multi-site faults, driven through random
// PODEM-style assign / flip / unwind sequences.  After every step the
// incremental simulator must equal a from-scratch scalar settle of the current
// assignment (values, the set of effect nets, the observed-effect predicate),
// and a twin that undoes decisions with set_source(pi, X) instead of the trail
// must agree with it exactly, effect_nets() order included.

struct RandomComb {
  Netlist nl{"rnd"};
  std::vector<NodeId> inputs;
  std::vector<char> observed;
};

RandomComb random_comb(std::mt19937& rng) {
  RandomComb rc;
  Netlist& nl = rc.nl;
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::size_t n_in = 2 + pick(10);
  for (std::size_t i = 0; i < n_in; ++i) {
    rc.inputs.push_back(nl.add_input("i" + std::to_string(i)));
  }
  nl.add_const(false, "c0");
  nl.add_const(true, "c1");
  constexpr GateType kTypes[] = {
      GateType::Buf, GateType::Not, GateType::And,  GateType::Nand,
      GateType::Or,  GateType::Nor, GateType::Xor,  GateType::Xnor,
      GateType::Mux};
  const std::size_t n_gates = 5 + pick(60);
  for (std::size_t g = 0; g < n_gates; ++g) {
    const GateType t = kTypes[pick(std::size(kTypes))];
    std::size_t arity = 3;
    if (t == GateType::Buf || t == GateType::Not) {
      arity = 1;
    } else if (t != GateType::Mux) {
      arity = pick(8) == 0 ? 1 + pick(kMaxFanin) : 1 + pick(4);
    }
    std::vector<NodeId> fins;
    for (std::size_t p = 0; p < arity; ++p) {
      // Bias toward recent nodes so cones get deep.
      const std::size_t n = nl.size();
      const std::size_t lo = (pick(2) == 0 && n > 8) ? n - 8 : 0;
      fins.push_back(static_cast<NodeId>(lo + pick(n - lo)));
    }
    nl.add_gate(t, std::move(fins), "g" + std::to_string(g));
  }
  rc.observed.assign(nl.size(), 0);
  for (NodeId id = 0; id < nl.size(); ++id) rc.observed[id] = pick(4) == 0;
  return rc;
}

std::vector<FaultSite> random_sites(const Netlist& nl, std::mt19937& rng) {
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::vector<FaultSite> sites;
  const std::size_t n_sites = pick(4);  // 0 = fault-free
  for (std::size_t i = 0; i < n_sites; ++i) {
    const NodeId node = static_cast<NodeId>(pick(nl.size()));
    const Val v = pick(2) ? Val::One : Val::Zero;
    const std::size_t fanins = nl.fanins(node).size();
    const int pin = (fanins > 0 && pick(2)) ? static_cast<int>(pick(fanins)) : -1;
    sites.push_back({node, pin, v});
  }
  return sites;
}

// Scalar reference: settles both machines from scratch with eval_gate.
std::vector<PairVal> scratch_settle(const Levelizer& lv,
                                    std::span<const FaultSite> sites,
                                    const std::vector<Val>& assigned) {
  const Netlist& nl = lv.netlist();
  std::vector<PairVal> v(nl.size());
  const auto force_out = [&](NodeId id, Val& f) {
    for (const FaultSite& s : sites) {
      if (s.node == id && s.pin < 0 && s.value != Val::X) f = s.value;
    }
  };
  for (NodeId id = 0; id < nl.size(); ++id) {
    const GateType t = nl.type(id);
    if (t == GateType::Input) v[id] = {assigned[id], assigned[id]};
    if (t == GateType::Const0) v[id] = {Val::Zero, Val::Zero};
    if (t == GateType::Const1) v[id] = {Val::One, Val::One};
    if (is_source(t)) force_out(id, v[id].f);
  }
  for (NodeId id : lv.topo_order()) {
    const auto fins = nl.fanins(id);
    std::vector<Val> g(fins.size()), f(fins.size());
    for (std::size_t p = 0; p < fins.size(); ++p) {
      g[p] = v[fins[p]].g;
      f[p] = v[fins[p]].f;
    }
    for (const FaultSite& s : sites) {
      if (s.node == id && s.pin >= 0) f[static_cast<std::size_t>(s.pin)] = s.value;
    }
    v[id] = {eval_gate(nl.type(id), g.data(), g.size()),
             eval_gate(nl.type(id), f.data(), f.size())};
    force_out(id, v[id].f);
  }
  return v;
}

TEST(PairSim, RandomDifferentialAgainstScratchSettleAndUnassign) {
  std::mt19937 rng(20261017);
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  struct Decision {
    NodeId pi;
    Val val;
    bool flipped;
    std::size_t mark;
  };
  std::size_t steps = 0, unwinds = 0, effects = 0;
  for (int circuit = 0; circuit < 150; ++circuit) {
    const RandomComb rc = random_comb(rng);
    const Levelizer lv(rc.nl);
    PairSim trail_sim(lv), unassign_sim(lv);
    trail_sim.set_observed(rc.observed);
    unassign_sim.set_observed(rc.observed);
    for (int fault = 0; fault < 4; ++fault) {
      const std::vector<FaultSite> sites = random_sites(rc.nl, rng);
      trail_sim.init(sites);
      unassign_sim.init(sites);
      std::vector<Val> assigned(rc.nl.size(), Val::X);
      std::vector<Decision> stack;
      for (int step = 0; step < 40; ++step) {
        const std::size_t op = pick(3);
        if (op == 0 || stack.empty()) {
          const NodeId pi = rc.inputs[pick(rc.inputs.size())];
          if (assigned[pi] != Val::X) continue;
          const Val v = pick(2) ? Val::One : Val::Zero;
          stack.push_back({pi, v, false, trail_sim.trail_mark()});
          trail_sim.set_source(pi, v);
          unassign_sim.set_source(pi, v);
          assigned[pi] = v;
        } else if (op == 1 && !stack.back().flipped) {
          Decision& d = stack.back();
          d.val = !d.val;
          d.flipped = true;
          trail_sim.set_source(d.pi, d.val);
          unassign_sim.set_source(d.pi, d.val);
          assigned[d.pi] = d.val;
        } else {
          const std::size_t pops = 1 + pick(stack.size());
          std::size_t mark = 0;
          for (std::size_t k = 0; k < pops; ++k) {
            mark = stack.back().mark;
            unassign_sim.set_source(stack.back().pi, Val::X);
            assigned[stack.back().pi] = Val::X;
            stack.pop_back();
          }
          trail_sim.unwind_to(mark);
          ++unwinds;
        }
        ++steps;
        const std::vector<PairVal> ref = scratch_settle(lv, sites, assigned);
        std::vector<NodeId> ref_effects;
        bool ref_observed = false;
        for (NodeId id = 0; id < rc.nl.size(); ++id) {
          ASSERT_EQ(trail_sim.value(id), ref[id])
              << "circuit " << circuit << " net " << id << " step " << step;
          ASSERT_EQ(unassign_sim.value(id), ref[id]);
          if (has_effect(ref[id])) {
            ref_effects.push_back(id);
            ref_observed |= rc.observed[id] != 0;
          }
        }
        const std::vector<NodeId> got = trail_sim.effect_nets();
        ASSERT_EQ(got, unassign_sim.effect_nets()) << "circuit " << circuit;
        std::vector<NodeId> got_sorted = got;
        std::sort(got_sorted.begin(), got_sorted.end());
        ASSERT_EQ(got_sorted, ref_effects) << "circuit " << circuit;
        ASSERT_EQ(trail_sim.any_effect(), !ref_effects.empty());
        ASSERT_EQ(trail_sim.any_observed_effect(), ref_observed);
        ASSERT_EQ(unassign_sim.any_observed_effect(), ref_observed);
        effects += got.size();
      }
    }
  }
  // The sequences must actually exercise unwinding and fault effects.
  EXPECT_GT(unwinds, 1000u);
  EXPECT_GT(effects, 1000u);
  EXPECT_GT(steps, 10000u);
}

}  // namespace
}  // namespace fsct
