#include "fault/seq_fault_sim.h"

#include <gtest/gtest.h>

#include <random>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "core/obs.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;

// 3-stage shift register with observable tail.
Netlist shift3() {
  Netlist nl("shift3");
  const NodeId a = nl.add_input("a");
  const NodeId q1 = nl.add_dff(a, "q1");
  const NodeId q2 = nl.add_dff(q1, "q2");
  const NodeId q3 = nl.add_dff(q2, "q3");
  nl.mark_output(q3);
  return nl;
}

TestSequence alternating_pis(std::size_t cycles) {
  TestSequence seq;
  for (std::size_t t = 0; t < cycles; ++t) {
    seq.push_back({((t / 2) % 2) ? k1 : k0});
  }
  return seq;
}

TEST(SeqFaultSim, AlternatingDetectsStuckChain) {
  const Netlist nl = shift3();
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, {nl.find("q3")});
  const std::vector<Fault> faults = {
      {nl.find("q1"), -1, false},  // q1 s-a-0
      {nl.find("q2"), -1, true},   // q2 s-a-1
      {nl.find("a"), -1, false},   // scan-in s-a-0
  };
  const auto r = sim.run_serial(alternating_pis(12), faults);
  EXPECT_EQ(r.num_detected(), 3u);
  for (int c : r.detect_cycle) EXPECT_GE(c, 0);
}

TEST(SeqFaultSim, ConstantStreamMissesStuckAtSameValue) {
  const Netlist nl = shift3();
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, {nl.find("q3")});
  const std::vector<Fault> faults = {{nl.find("q1"), -1, false}};
  TestSequence zeros(12, {k0});
  const auto r = sim.run_serial(zeros, faults);
  EXPECT_EQ(r.num_detected(), 0u);  // all-zero stream can't see s-a-0
}

TEST(SeqFaultSim, DetectionCycleIsFirstDifference) {
  const Netlist nl = shift3();
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, {nl.find("q3")});
  const std::vector<Fault> faults = {{nl.find("q3"), -1, true}};
  TestSequence zeros(6, {k0});
  const auto r = sim.run_serial(zeros, faults);
  // q3 observed s-a-1 while good machine shows 0 as soon as the good value
  // is binary: good q3 becomes 0 at cycle 3 (X before).
  ASSERT_EQ(r.num_detected(), 1u);
  EXPECT_EQ(r.detect_cycle[0], 3);
}

TEST(SeqFaultSim, XGoodValueNeverDetects) {
  const Netlist nl = shift3();
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, {nl.find("q3")});
  const std::vector<Fault> faults = {{nl.find("q3"), -1, true}};
  TestSequence two(2, {k0});  // good q3 still X at cycles 0..1
  const auto r = sim.run_serial(two, faults);
  EXPECT_EQ(r.num_detected(), 0u);
}

TEST(SeqFaultSim, ParallelMatchesSerialOnRandomCircuits) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 3; ++trial) {
    RandomCircuitSpec spec;
    spec.num_gates = 120;
    spec.num_ffs = 12;
    spec.num_pis = 5;
    spec.num_pos = 4;
    spec.seed = 40 + static_cast<std::uint64_t>(trial);
    const Netlist nl = make_random_sequential(spec);
    const Levelizer lv(nl);
    SeqFaultSim sim(lv, nl.outputs());

    TestSequence seq;
    for (int t = 0; t < 20; ++t) {
      std::vector<Val> v(nl.inputs().size());
      for (auto& x : v) x = (rng() & 1) ? k1 : k0;
      seq.push_back(std::move(v));
    }
    const auto faults = collapsed_fault_list(nl);
    // Sample ~150 faults to keep the serial reference fast.
    std::vector<Fault> sample;
    for (std::size_t i = 0; i < faults.size(); i += 1 + faults.size() / 150) {
      sample.push_back(faults[i]);
    }
    const auto rs = sim.run_serial(seq, sample);
    const auto rp = sim.run(seq, sample);
    ASSERT_EQ(rs.detect_cycle.size(), rp.detect_cycle.size());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      EXPECT_EQ(rs.detect_cycle[i], rp.detect_cycle[i])
          << fault_name(nl, sample[i]) << " trial " << trial;
    }
  }
}

TEST(SeqFaultSim, ParallelHandlesMoreThan63Faults) {
  RandomCircuitSpec gspec;
  gspec.num_gates = 60;
  gspec.num_ffs = 8;
  gspec.num_pis = 4;
  gspec.num_pos = 4;
  gspec.seed = 321;
  const Netlist nl = make_random_sequential(gspec);
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, nl.outputs());
  std::mt19937_64 rng(11);
  TestSequence seq;
  for (int t = 0; t < 30; ++t) {
    std::vector<Val> v(nl.inputs().size());
    for (auto& x : v) x = (rng() & 1) ? k1 : k0;
    seq.push_back(std::move(v));
  }
  const auto faults = all_faults(nl);  // > 63 faults
  ASSERT_GT(faults.size(), 63u);
  const auto rs = sim.run_serial(seq, faults);
  const auto rp = sim.run(seq, faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(rs.detect_cycle[i], rp.detect_cycle[i])
        << fault_name(nl, faults[i]);
  }
}

TEST(SeqFaultSim, DffDPinFaultsMatchSerialAtEveryWidth) {
  // Both polarities on every DFF D pin (plus each DFF's stem): far more than
  // 63 faults, so passes at every width carry many D-pin injections that the
  // stepper must apply through its per-node chains at every clock edge.
  RandomCircuitSpec gspec;
  gspec.num_gates = 300;
  gspec.num_ffs = 70;
  gspec.num_pis = 8;
  gspec.num_pos = 6;
  gspec.seed = 77;
  const Netlist nl = make_random_sequential(gspec);
  const Levelizer lv(nl);
  std::vector<Fault> faults;
  for (NodeId q : nl.dffs()) {
    faults.push_back({q, 0, false});
    faults.push_back({q, 0, true});
    faults.push_back({q, -1, true});
  }
  ASSERT_GT(faults.size(), 63u * 3);
  std::mt19937_64 rng(21);
  TestSequence seq;
  for (int t = 0; t < 25; ++t) {
    std::vector<Val> v(nl.inputs().size());
    for (auto& x : v) x = (rng() & 1) ? k1 : k0;
    seq.push_back(std::move(v));
  }
  const SeqFaultSim ref(lv, nl.outputs(), 64);
  const auto want = ref.run_serial(seq, faults, k0);
  ASSERT_GT(want.num_detected(), 0u);
  for (const int width : kSimdWidths) {
    const SeqFaultSim sim(lv, nl.outputs(), width);
    const auto got = sim.run(seq, faults, k0);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(got.detect_cycle[i], want.detect_cycle[i])
          << fault_name(nl, faults[i]) << " width " << width;
    }
  }
}

// --- Chain-broken-by-target-fault edge cases -------------------------------
//
// The pipeline's flush-credit and ledger passes lean on one property: a fault
// that breaks the scan chain during shift-in corrupts the very stream that is
// supposed to expose it, and that corruption is itself the detection.  These
// tests pin the exact mechanics on hand-built chains.

// Chain with a functional AND link between q1 and q2, enabled by `en`.
Netlist and_link_chain() {
  Netlist nl("and_link");
  const NodeId a = nl.add_input("a");
  const NodeId en = nl.add_input("en");
  const NodeId q1 = nl.add_dff(a, "q1");
  const NodeId link = nl.add_gate(GateType::And, {q1, en}, "link");
  const NodeId q2 = nl.add_dff(link, "q2");
  const NodeId q3 = nl.add_dff(q2, "q3");
  nl.mark_output(q3);
  return nl;
}

TEST(SeqFaultSim, ChainLinkBrokenByTargetFaultDetectedAtExactCycle) {
  // The target fault (link enable s-a-0) breaks the chain between q1 and q2
  // while the marker is mid-shift; everything downstream of the break loads
  // zero, and the first good binary 1 at the tail is the detection.
  const Netlist nl = and_link_chain();
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, {nl.find("q3")});
  const std::vector<Fault> faults = {{nl.find("link"), 1, false}};
  TestSequence seq;
  for (std::size_t t = 0; t < 8; ++t) {
    seq.push_back({(t % 2) ? k0 : k1, k1});  // a = 1,0,1,0..., en = 1
  }
  const auto r = sim.run_serial(seq, faults);
  ASSERT_EQ(r.num_detected(), 1u);
  // Good q3 first turns binary (a[0] == 1) entering cycle 3; the faulty
  // machine's q2/q3 have been flushed to 0 since cycle 2.
  EXPECT_EQ(r.detect_cycle[0], 3);
}

TEST(SeqFaultSim, BrokenScanInSelfExposesDespiteCorruptingItsOwnLoad) {
  // Scan-in stem s-a-0: the intended marker load never happens under the
  // fault, yet the corrupted (all-zero) stream differs from the good marker
  // at the tail — the fault exposes itself.  This self-exposure is what makes
  // crediting chain faults from a flush simulation sound.
  const Netlist nl = and_link_chain();
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, {nl.find("q3")});
  const std::vector<Fault> faults = {{nl.find("a"), -1, false}};
  TestSequence seq;
  for (std::size_t t = 0; t < 8; ++t) {
    seq.push_back({t == 0 ? k1 : k0, k1});  // single marker 1, en = 1
  }
  const auto r = sim.run_serial(seq, faults);
  ASSERT_EQ(r.num_detected(), 1u);
  EXPECT_EQ(r.detect_cycle[0], 3);
}

// 4-stage chain with a mux bypass: under `sel` the tail FF reads q1 directly,
// shortening the effective chain by two stages.
Netlist bypass_chain() {
  Netlist nl("bypass");
  const NodeId a = nl.add_input("a");
  const NodeId sel = nl.add_input("sel");
  const NodeId q1 = nl.add_dff(a, "q1");
  const NodeId q2 = nl.add_dff(q1, "q2");
  const NodeId q3 = nl.add_dff(q2, "q3");
  const NodeId nsel = nl.add_gate(GateType::Not, {sel}, "nsel");
  const NodeId keep = nl.add_gate(GateType::And, {q3, nsel}, "keep");
  const NodeId skip = nl.add_gate(GateType::And, {q1, sel}, "skip");
  const NodeId d4 = nl.add_gate(GateType::Or, {keep, skip}, "d4");
  const NodeId q4 = nl.add_dff(d4, "q4");
  nl.mark_output(q4);
  return nl;
}

TEST(SeqFaultSim, ChainShorteningEscapesPureAlternationButNotMarkerLoad) {
  // sel s-a-1 shortens the chain by exactly two stages.  A strict 0101 stream
  // is shift-invariant under an even shortening, so the flush never sees it;
  // a single-marker load pins the length and catches it at an exact cycle.
  // (The pipeline's alternating flush uses a 0011 stream for the same reason:
  // no single edge pattern catches every shortening, which is why flush
  // credit is a screen, not a proof obligation.)
  const Netlist nl = bypass_chain();
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, {nl.find("q4")});
  const std::vector<Fault> faults = {{nl.find("sel"), -1, true}};

  TestSequence alt;
  for (std::size_t t = 0; t < 12; ++t) {
    alt.push_back({(t % 2) ? k1 : k0, k0});  // a = 0,1,0,1..., sel = 0
  }
  const auto ra = sim.run_serial(alt, faults);
  EXPECT_EQ(ra.num_detected(), 0u);

  TestSequence marker;
  for (std::size_t t = 0; t < 12; ++t) {
    marker.push_back({t == 0 ? k1 : k0, k0});  // single 1, sel = 0
  }
  const auto rm = sim.run_serial(marker, faults);
  ASSERT_EQ(rm.num_detected(), 1u);
  // Good q4 shows the marker entering cycle 4; the shortened chain already
  // flushed it out two cycles earlier.
  EXPECT_EQ(rm.detect_cycle[0], 4);
}

TEST(SeqFaultSim, DetectionIsProgramRelativeWhenObservationIsGated) {
  // Observation only through po = AND(q3, go).  A per-vector combinational
  // argument says q1 s-a-0 is observable at po — but only a program that
  // actually raises `go` reproduces it.  This is why the pipeline never
  // trusts a combinational claim (or a dominance implication) for outcomes:
  // every credit must be earned by simulating the real program.
  Netlist nl("gated");
  const NodeId a = nl.add_input("a");
  const NodeId go = nl.add_input("go");
  const NodeId q1 = nl.add_dff(a, "q1");
  const NodeId q2 = nl.add_dff(q1, "q2");
  const NodeId q3 = nl.add_dff(q2, "q3");
  const NodeId po = nl.add_gate(GateType::And, {q3, go}, "po");
  nl.mark_output(po);
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, {po});
  const std::vector<Fault> faults = {{q1, -1, false}};

  TestSequence closed, open;
  for (std::size_t t = 0; t < 8; ++t) {
    closed.push_back({t == 0 ? k1 : k0, k0});  // marker, gate held shut
    open.push_back({t == 0 ? k1 : k0, k1});    // marker, gate open
  }
  EXPECT_EQ(sim.run_serial(closed, faults).num_detected(), 0u);
  const auto r = sim.run_serial(open, faults);
  ASSERT_EQ(r.num_detected(), 1u);
  EXPECT_EQ(r.detect_cycle[0], 3);
}

TEST(SeqFaultSim, PinFaultDiffersFromStemFault) {
  // a fans out to q1 and po buffer; pin fault on q1's D only breaks the FF.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId q1 = nl.add_dff(a, "q1");
  const NodeId buf = nl.add_gate(GateType::Buf, {a}, "buf");
  nl.mark_output(q1);
  nl.mark_output(buf);
  const Levelizer lv(nl);
  SeqFaultSim sim(lv, nl.outputs());
  TestSequence ones(4, {k1});
  const std::vector<Fault> faults = {
      {q1, 0, false},   // branch into the FF
      {a, -1, false},   // stem
  };
  const auto r = sim.run_serial(ones, faults);
  // Both detected, but the stem is visible at `buf` a cycle earlier.
  ASSERT_EQ(r.num_detected(), 2u);
  EXPECT_GT(r.detect_cycle[0], r.detect_cycle[1]);
}

// --- Lane-width contract ----------------------------------------------------

/// A random circuit, stimulus and >63-fault list shared by the width tests.
struct WidthFixture {
  Netlist nl;
  TestSequence seq;
  std::vector<Fault> faults;

  WidthFixture() {
    RandomCircuitSpec spec;
    spec.num_gates = 80;
    spec.num_ffs = 9;
    spec.num_pis = 5;
    spec.num_pos = 4;
    spec.seed = 97;
    nl = make_random_sequential(spec);
    std::mt19937_64 rng(5);
    for (int t = 0; t < 25; ++t) {
      std::vector<Val> v(nl.inputs().size());
      for (auto& x : v) x = (rng() & 1) ? k1 : k0;
      seq.push_back(std::move(v));
    }
    faults = all_faults(nl);
  }
};

TEST(SeqFaultSim, OutcomesAreIdenticalAtEveryWidth) {
  const WidthFixture fx;
  const Levelizer lv(fx.nl);
  const SeqFaultSim ref(lv, fx.nl.outputs(), 64);
  const auto want = ref.run_serial(fx.seq, fx.faults);
  for (const int width : kSimdWidths) {
    const SeqFaultSim sim(lv, fx.nl.outputs(), width);
    EXPECT_EQ(sim.simd_width(), width);
    const auto got = sim.run(fx.seq, fx.faults);
    ASSERT_EQ(got.detect_cycle.size(), want.detect_cycle.size());
    for (std::size_t i = 0; i < fx.faults.size(); ++i) {
      EXPECT_EQ(got.detect_cycle[i], want.detect_cycle[i])
          << fault_name(fx.nl, fx.faults[i]) << " width " << width;
    }
  }
}

TEST(SeqFaultSim, RunPairsMatchesSerialPerPair) {
  // Pairs with *different* sequences of different lengths (one empty) packed
  // into the same passes; each pair must behave exactly like its own serial
  // run.
  const WidthFixture fx;
  const Levelizer lv(fx.nl);
  TestSequence shorter(fx.seq.begin(), fx.seq.begin() + 7);
  const TestSequence empty;
  const TestSequence* seqs[3] = {&fx.seq, &shorter, &empty};

  std::vector<FaultSeqPair> pairs;
  for (std::size_t i = 0; i < fx.faults.size(); ++i) {
    pairs.push_back({fx.faults[i], seqs[i % 3]});
  }
  const SeqFaultSim ref(lv, fx.nl.outputs(), 64);
  for (const int width : kSimdWidths) {
    const SeqFaultSim sim(lv, fx.nl.outputs(), width);
    const std::vector<int> got = sim.run_pairs(pairs);
    ASSERT_EQ(got.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const Fault one[1] = {pairs[i].fault};
      EXPECT_EQ(got[i], ref.run_serial(*pairs[i].seq, one).detect_cycle[0])
          << fault_name(fx.nl, pairs[i].fault) << " width " << width;
    }
  }
}

TEST(SeqFaultSim, PackedPassCountsArePureFunctionOfCountAndWidth) {
  // The counter contract (seq_fault_sim.h): run() partitions into
  // ceil(n / (63 * W/64)) passes, run_pairs() into ceil(n / (32 * W/64)) —
  // independent of detections, schedule or pool size.  600 jobs spans
  // multiple passes at every width (duplicated faults are fine: lanes are
  // independent).
  const WidthFixture fx;
  const Levelizer lv(fx.nl);
  std::vector<Fault> faults;
  std::vector<FaultSeqPair> pairs;
  for (std::size_t i = 0; i < 600; ++i) {
    faults.push_back(fx.faults[i % fx.faults.size()]);
    pairs.push_back({faults.back(), &fx.seq});
  }

  const struct { int width; std::uint64_t run_passes, pair_passes; } want[] = {
      {64, 10, 19},   // ceil(600/63),  ceil(600/32)
      {256, 3, 5},    // ceil(600/252), ceil(600/128)
      {512, 2, 3},    // ceil(600/504), ceil(600/256)
  };
  for (const auto& w : want) {
    const SeqFaultSim sim(lv, fx.nl.outputs(), w.width);
    ObsRegistry reg_run;
    sim.run(fx.seq, faults, Val::X, nullptr, &reg_run);
    EXPECT_EQ(reg_run.total(Ctr::SeqSimPackedPasses), w.run_passes)
        << "run() width " << w.width;
    ObsRegistry reg_pairs;
    sim.run_pairs(pairs, Val::X, nullptr, &reg_pairs);
    EXPECT_EQ(reg_pairs.total(Ctr::SeqSimPackedPasses), w.pair_passes)
        << "run_pairs() width " << w.width;

    // Detection counts are width-independent.
    ObsRegistry reg_again;
    sim.run(fx.seq, faults, Val::X, nullptr, &reg_again);
    EXPECT_EQ(reg_again.total(Ctr::SeqSimPackedPasses), w.run_passes);
  }
}

TEST(SeqFaultSim, InvalidWidthThrows) {
  const Netlist nl = shift3();
  const Levelizer lv(nl);
  EXPECT_THROW(SeqFaultSim(lv, {nl.find("q3")}, 128), std::invalid_argument);
  EXPECT_THROW(SeqFaultSim(lv, {nl.find("q3")}, -1), std::invalid_argument);
}

}  // namespace
}  // namespace fsct
