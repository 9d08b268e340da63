#include "sim/comb_sim.h"

#include <gtest/gtest.h>

#include <random>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;
constexpr Val kX = Val::X;

struct Fixture {
  Netlist nl;
  Levelizer lv;
  CombSim sim;
  explicit Fixture(Netlist n) : nl(std::move(n)), lv(nl), sim(lv) {}
};

TEST(CombSim, EvaluatesSimpleCone) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::Nand, {a, b}, "g");
  const NodeId y = nl.add_gate(GateType::Not, {g}, "y");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  v[b] = k1;
  f.sim.run(v);
  EXPECT_EQ(v[g], k0);
  EXPECT_EQ(v[y], k1);
}

TEST(CombSim, ConstantsForcedRegardlessOfCaller) {
  Netlist nl("c");
  const NodeId c1 = nl.add_const(true, "c1");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::And, {c1, a}, "g");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  v[c1] = k0;  // caller lies; run() overwrites
  f.sim.run(v);
  EXPECT_EQ(v[c1], k1);
  EXPECT_EQ(v[g], k1);
}

TEST(CombSim, OutputInjectionOverridesGate) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Buf, {a}, "g");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  const Injection inj[] = {{g, -1, k0}};
  f.sim.run(v, inj);
  EXPECT_EQ(v[g], k0);
}

TEST(CombSim, PinInjectionAffectsOnlyThatGate) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::Buf, {a}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Buf, {a}, "g2");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  const Injection inj[] = {{g1, 0, k0}};
  f.sim.run(v, inj);
  EXPECT_EQ(v[g1], k0);
  EXPECT_EQ(v[g2], k1);
  EXPECT_EQ(v[a], k1);  // the driver net itself is healthy
}

TEST(CombSim, SourceInjectionOnInput) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, {a}, "g");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k1;
  const Injection inj[] = {{a, -1, k0}};
  f.sim.run(v, inj);
  EXPECT_EQ(v[a], k0);
  EXPECT_EQ(v[g], k1);
}

TEST(CombSim, DValueReadsDffInput) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, {a}, "g");
  const NodeId q = nl.add_dff(g, "q");
  Fixture f(std::move(nl));
  std::vector<Val> v(f.nl.size(), kX);
  v[a] = k0;
  v[q] = kX;
  f.sim.run(v);
  EXPECT_EQ(f.sim.d_value(q, v), k1);
  const Injection inj[] = {{q, 0, k0}};
  EXPECT_EQ(f.sim.d_value(q, v, inj), k0);
}

/// Random injections over every kind of location: gate pins and stems,
/// source stems (PIs, DFF Q), DFF D pins, with a tail of duplicates that
/// re-target earlier (node, pin) entries with another value.
std::vector<Injection> random_injections(const Netlist& nl, std::size_t n,
                                         std::mt19937_64& rng) {
  const Val vals[3] = {k0, k1, kX};
  std::vector<Injection> inj;
  while (inj.size() < n) {
    const NodeId id = static_cast<NodeId>(rng() % nl.size());
    const auto fins = nl.fanins(id);
    const int pin = (fins.empty() || rng() % 3 == 0)
                        ? -1
                        : static_cast<int>(rng() % fins.size());
    inj.push_back({id, pin, vals[rng() % 3]});
  }
  for (std::size_t k = 0; k < n / 4; ++k) {
    Injection dup = inj[rng() % inj.size()];
    dup.value = vals[rng() % 3];
    inj.push_back(dup);
  }
  return inj;
}

/// Reference evaluator: every gate pin, stem and source scans the whole
/// injection list, and the last matching entry wins.
std::vector<Val> linear_scan_run(const Levelizer& lv, std::vector<Val> v,
                                 std::span<const Injection> inj) {
  const Netlist& nl = lv.netlist();
  auto force = [&](NodeId id, int pin, Val& x) {
    for (const Injection& i : inj) {
      if (i.node == id && i.pin == pin) x = i.value;
    }
  };
  for (NodeId id = 0; id < nl.size(); ++id) {
    if (nl.type(id) == GateType::Const0) v[id] = k0;
    if (nl.type(id) == GateType::Const1) v[id] = k1;
    if (!is_combinational(nl.type(id))) force(id, -1, v[id]);
  }
  for (NodeId id : lv.topo_order()) {
    const auto fins = nl.fanins(id);
    Val ins[kMaxFanin];
    for (std::size_t p = 0; p < fins.size(); ++p) {
      ins[p] = v[fins[p]];
      force(id, static_cast<int>(p), ins[p]);
    }
    Val out = eval_gate(nl.type(id), ins, fins.size());
    force(id, -1, out);
    v[id] = out;
  }
  return v;
}

TEST(CombSim, InjectionIndexMatchesLinearScan) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 3; ++trial) {
    RandomCircuitSpec spec;
    spec.num_gates = 400;
    spec.num_ffs = 40;
    spec.num_pis = 10;
    spec.seed = 500 + static_cast<std::uint64_t>(trial);
    Fixture f(make_random_sequential(spec));
    // Several lists on one simulator: the per-node flags must not leak from
    // one run() into the next.
    for (const std::size_t n : {300u, 40u, 0u, 200u}) {
      const std::vector<Injection> inj = random_injections(f.nl, n, rng);
      std::vector<Val> v(f.nl.size(), kX);
      for (NodeId s : f.nl.inputs()) v[s] = (rng() & 1) ? k1 : k0;
      for (NodeId s : f.nl.dffs()) v[s] = (rng() % 3 == 0) ? kX : k1;
      const std::vector<Val> want = linear_scan_run(f.lv, v, inj);
      f.sim.run(v, inj);
      for (NodeId id = 0; id < f.nl.size(); ++id) {
        ASSERT_EQ(v[id], want[id]) << "node " << f.nl.node_name(id)
                                   << " trial " << trial << " n " << n;
      }
      for (NodeId q : f.nl.dffs()) {
        Val d = want[f.nl.fanins(q)[0]];
        for (const Injection& i : inj) {
          if (i.node == q && i.pin == 0) d = i.value;
        }
        ASSERT_EQ(f.sim.d_value(q, v, inj), d) << f.nl.node_name(q);
      }
    }
  }
}

// Property: packed simulation of 64 random patterns agrees with 64 scalar
// runs, on random circuits.
TEST(PackedCombSim, AgreesWithScalarOnRandomCircuits) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    RandomCircuitSpec spec;
    spec.num_gates = 150;
    spec.num_ffs = 10;
    spec.num_pis = 6;
    spec.seed = 100 + static_cast<std::uint64_t>(trial);
    Fixture f(make_random_sequential(spec));
    PackedCombSim psim(f.lv);

    std::vector<std::vector<Val>> patterns(64);
    std::vector<PackedVal> pv(f.nl.size());
    for (unsigned b = 0; b < 64; ++b) {
      patterns[b].assign(f.nl.size(), kX);
      for (NodeId s : f.nl.inputs()) {
        const Val val = (rng() % 3 == 0) ? kX : ((rng() & 1) ? k1 : k0);
        patterns[b][s] = val;
        pv[s].set(b, val);
      }
      for (NodeId s : f.nl.dffs()) {
        const Val val = (rng() & 1) ? k1 : k0;
        patterns[b][s] = val;
        pv[s].set(b, val);
      }
    }
    psim.run(pv);
    for (unsigned b = 0; b < 64; ++b) {
      f.sim.run(patterns[b]);
      for (NodeId id = 0; id < f.nl.size(); ++id) {
        ASSERT_EQ(pv[id].at(b), patterns[b][id])
            << "node " << f.nl.node_name(id) << " bit " << b;
      }
    }
  }
}

TEST(PackedCombSim, MaskedInjectionHitsOnlySelectedPatterns) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Buf, {a}, "g");
  Fixture f(std::move(nl));
  std::vector<PackedVal> v(f.nl.size());
  v[a] = PackedVal::broadcast(k1);
  PackedCombSim psim(f.lv);
  const PackedInjection inj[] = {{g, -1, 0b101ull, k0}};
  psim.run(v, inj);
  EXPECT_EQ(v[g].at(0), k0);
  EXPECT_EQ(v[g].at(1), k1);
  EXPECT_EQ(v[g].at(2), k0);
  EXPECT_EQ(v[g].at(3), k1);
}

}  // namespace
}  // namespace fsct
