#include "atpg/scoap.h"

#include <gtest/gtest.h>

namespace fsct {
namespace {

struct Built {
  Netlist nl;
  Levelizer lv;
  Scoap s;
  Built(Netlist n, std::vector<char> ctrl)
      : nl(std::move(n)), lv(nl), s(compute_scoap(lv, ctrl)) {}
};

std::vector<char> all_controllable(const Netlist& nl) {
  std::vector<char> c(nl.size(), 0);
  for (NodeId pi : nl.inputs()) c[pi] = 1;
  return c;
}

TEST(Scoap, PrimaryInputsCostOne) {
  Netlist nl("t");
  nl.add_input("a");
  Built b(std::move(nl), {1});
  EXPECT_EQ(b.s.cc0(0), 1u);
  EXPECT_EQ(b.s.cc1(0), 1u);
}

TEST(Scoap, UncontrollableInputIsInfinite) {
  Netlist nl("t");
  nl.add_input("a");
  Built b(std::move(nl), {0});
  EXPECT_EQ(b.s.cc0(0), kInfCost);
  EXPECT_EQ(b.s.cc1(0), kInfCost);
}

TEST(Scoap, ConstantsFreeForOwnValueOnly) {
  Netlist nl("t");
  const NodeId c0 = nl.add_const(false, "c0");
  const NodeId c1 = nl.add_const(true, "c1");
  nl.add_input("a");  // keep levelizer happy about sizes
  Built b(std::move(nl), {0, 0, 1});
  EXPECT_EQ(b.s.cc0(c0), 0u);
  EXPECT_EQ(b.s.cc1(c0), kInfCost);
  EXPECT_EQ(b.s.cc1(c1), 0u);
  EXPECT_EQ(b.s.cc0(c1), kInfCost);
}

TEST(Scoap, AndGateRules) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b_ = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::And, {a, b_}, "g");
  auto ctrl = all_controllable(nl);
  Built b(std::move(nl), std::move(ctrl));
  (void)a;
  // cc1 = cc1(a)+cc1(b)+1 = 3; cc0 = min(cc0)+1 = 2.
  EXPECT_EQ(b.s.cc1(g), 3u);
  EXPECT_EQ(b.s.cc0(g), 2u);
}

TEST(Scoap, NandInvertsCosts) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b_ = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::Nand, {a, b_}, "g");
  auto ctrl = all_controllable(nl);
  Built b(std::move(nl), std::move(ctrl));
  EXPECT_EQ(b.s.cc0(g), 3u);
  EXPECT_EQ(b.s.cc1(g), 2u);
}

TEST(Scoap, NotSwapsCosts) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId n = nl.add_gate(GateType::Not, {a}, "n");
  const NodeId g = nl.add_gate(GateType::And, {n, n}, "g");
  auto ctrl = all_controllable(nl);
  Built b(std::move(nl), std::move(ctrl));
  EXPECT_EQ(b.s.cc0(n), 2u);
  EXPECT_EQ(b.s.cc1(n), 2u);
  EXPECT_GT(b.s.cc1(g), b.s.cc1(n));
}

TEST(Scoap, XorParityCosts) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b_ = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::Xor, {a, b_}, "g");
  auto ctrl = all_controllable(nl);
  Built b(std::move(nl), std::move(ctrl));
  // even parity (00 or 11): 2; odd: 2; plus gate cost 1.
  EXPECT_EQ(b.s.cc0(g), 3u);
  EXPECT_EQ(b.s.cc1(g), 3u);
}

TEST(Scoap, InfinitePropagatesThroughGates) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");  // controllable
  const NodeId u = nl.add_input("u");  // uncontrollable
  const NodeId g = nl.add_gate(GateType::And, {a, u}, "g");
  Built b(std::move(nl), {1, 0});
  EXPECT_EQ(b.s.cc1(g), kInfCost);       // needs u=1: impossible
  EXPECT_EQ(b.s.cc0(g), 2u);             // a=0 suffices
}

TEST(Scoap, UncontrollableDffQ) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_dff(a, "q");
  const NodeId g = nl.add_gate(GateType::Buf, {q}, "g");
  std::vector<char> ctrl(nl.size(), 0);
  ctrl[a] = 1;
  Built b(std::move(nl), ctrl);
  EXPECT_EQ(b.s.cc0(g), kInfCost);
  // Controllable pseudo-PI state:
  Netlist nl2("t2");
  const NodeId a2 = nl2.add_input("a");
  const NodeId q2 = nl2.add_dff(a2, "q");
  const NodeId g2 = nl2.add_gate(GateType::Buf, {q2}, "g");
  std::vector<char> ctrl2(nl2.size(), 0);
  ctrl2[a2] = 1;
  ctrl2[q2] = 1;
  Built b2(std::move(nl2), ctrl2);
  EXPECT_EQ(b2.s.cc0(g2), 2u);
}

TEST(Scoap, MuxCosts) {
  Netlist nl("t");
  const NodeId s = nl.add_input("s");
  const NodeId d0 = nl.add_input("d0");
  const NodeId d1 = nl.add_input("d1");
  const NodeId m = nl.add_gate(GateType::Mux, {s, d0, d1}, "m");
  auto ctrl = all_controllable(nl);
  Built b(std::move(nl), std::move(ctrl));
  // cheapest: sel + data + 1 = 3.
  EXPECT_EQ(b.s.cc0(m), 3u);
  EXPECT_EQ(b.s.cc1(m), 3u);
}

}  // namespace
}  // namespace fsct
