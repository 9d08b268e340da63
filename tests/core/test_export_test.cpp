#include "core/test_export.h"

#include <gtest/gtest.h>

#include <random>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "bench_circuits/suite.h"
#include "core/classify.h"
#include "scan/scan_sequences.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

struct World {
  Netlist nl;
  ScanDesign design;
  Levelizer lv;
  ScanModeModel model;
  explicit World(std::uint64_t seed)
      : nl(make(seed)), design(run_tpi(nl)), lv(nl), model(lv, design) {}
  static Netlist make(std::uint64_t seed) {
    RandomCircuitSpec spec;
    spec.num_gates = 180;
    spec.num_ffs = 12;
    spec.num_pis = 6;
    spec.num_pos = 4;
    spec.seed = seed;
    return make_random_sequential(spec);
  }
  TestSequence stimulus() const {
    const ScanSequenceBuilder sb(nl, design);
    return sb.alternating(2 * model.max_chain_length() + 8);
  }
};

TEST(TestExport, ProgramRecordsGoodResponses) {
  World w(80);
  const TestProgram p = make_test_program(w.model, w.stimulus());
  EXPECT_EQ(p.circuit, w.nl.name());
  EXPECT_EQ(p.input_names.size(), w.nl.inputs().size());
  ASSERT_EQ(p.stimulus.size(), p.expected.size());
  // A healthy device must pass its own program.
  EXPECT_EQ(run_test_program(w.lv, p), 0u);
}

TEST(TestExport, RoundTripsThroughText) {
  World w(81);
  const TestProgram p = make_test_program(w.model, w.stimulus());
  const std::string text = write_test_program_string(p);
  const TestProgram q = read_test_program_string(text);
  EXPECT_EQ(q.circuit, p.circuit);
  EXPECT_EQ(q.input_names, p.input_names);
  EXPECT_EQ(q.observe_names, p.observe_names);
  EXPECT_EQ(q.stimulus, p.stimulus);
  EXPECT_EQ(q.expected, p.expected);
}

TEST(TestExport, FaultyDeviceFailsTheProgram) {
  World w(82);
  const TestProgram p = make_test_program(w.model, w.stimulus());
  ChainFaultClassifier cls(w.model);
  const auto faults = collapsed_fault_list(w.nl);
  int easy_checked = 0;
  for (const Fault& f : faults) {
    if (cls.classify(f).category != ChainFaultCategory::Easy) continue;
    EXPECT_GT(run_test_program(w.lv, p, &f), 0u) << fault_name(w.nl, f);
    if (++easy_checked >= 10) break;
  }
  EXPECT_GE(easy_checked, 3);
}

TEST(TestExport, BindReordersInputsByName) {
  World w(83);
  TestProgram p = make_test_program(w.model, w.stimulus());
  // Shuffle the input columns; binding must undo it.
  std::reverse(p.input_names.begin(), p.input_names.end());
  for (auto& row : p.stimulus) std::reverse(row.begin(), row.end());
  EXPECT_EQ(run_test_program(w.lv, p), 0u);
}

TEST(TestExport, BindRejectsUnknownNames) {
  World w(84);
  TestProgram p = make_test_program(w.model, w.stimulus());
  p.observe_names.push_back("ghost_net");
  for (auto& row : p.expected) row.push_back(Val::X);
  EXPECT_THROW(bind_test_program(w.nl, p), std::runtime_error);
}

TEST(TestExport, ParserRejectsMalformedInput) {
  EXPECT_THROW(read_test_program_string("nonsense"), std::runtime_error);
  EXPECT_THROW(read_test_program_string("FSCT-TEST 1\ncycles 1\n"),
               std::runtime_error);
  EXPECT_THROW(read_test_program_string(
                   "FSCT-TEST 1\ninputs a\nobserve y\ncycles 1\nv 01 | 0\n"),
               std::runtime_error);  // stimulus width mismatch
  // A repeated name would bind two columns to one input.
  const std::pair<const char*, const char*> dups[] = {
      {"FSCT-TEST 1\ninputs a b a\nobserve y\ncycles 0\n",
       "line 2: duplicate inputs name 'a'"},
      {"FSCT-TEST 1\ninputs a b\nobserve y z y\ncycles 0\n",
       "line 3: duplicate observe name 'y'"}};
  for (const auto& [text, want] : dups) {
    try {
      read_test_program_string(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

TEST(TestExport, CommentsAndBlankLinesIgnored) {
  World w(85);
  const TestProgram p = make_test_program(w.model, w.stimulus());
  std::string text = "# tester program\n\n" + write_test_program_string(p);
  const TestProgram q = read_test_program_string(text);
  EXPECT_EQ(q.stimulus, p.stimulus);
}

TEST(TestExport, Figure2ProgramFromPipelineVectors) {
  ExampleDesign e = paper_figure2();
  const Levelizer lv(e.nl);
  const ScanModeModel model(lv, e.design);
  const ScanSequenceBuilder sb(e.nl, e.design);
  const TestProgram p = make_test_program(model, sb.alternating(20));
  EXPECT_EQ(run_test_program(lv, p), 0u);
  const Fault f{e.nl.find("a"), -1, true};  // category-1 chain fault
  EXPECT_GT(run_test_program(lv, p, &f), 0u);
}

// ---- the SoA export engine against its scalar SeqSim oracle ----------------

Val rand_3val(std::mt19937_64& rng, unsigned x_in_8) {
  const unsigned r = static_cast<unsigned>(rng() & 7);
  return r < x_in_8 ? Val::X : (rng() & 1) ? Val::One : Val::Zero;
}

TestSequence random_stimulus(const Netlist& nl, std::size_t cycles,
                             std::mt19937_64& rng, unsigned x_in_8 = 1) {
  TestSequence seq(cycles, std::vector<Val>(nl.inputs().size()));
  for (auto& row : seq) {
    for (Val& v : row) v = rand_3val(rng, x_in_8);
  }
  return seq;
}

/// Primary outputs plus every flip-flop: the state nets are the ones a
/// wrongly joined chunk would corrupt first.
std::vector<NodeId> outputs_and_state(const Netlist& nl) {
  std::vector<NodeId> observe = nl.outputs();
  for (NodeId ff : nl.dffs()) {
    if (!nl.is_output(ff)) observe.push_back(ff);
  }
  return observe;
}

/// `p` re-expected cycle by cycle on the scalar SeqSim, as text.
std::string serial_program_text(const Levelizer& lv, TestProgram p) {
  std::vector<NodeId> observe;
  for (const auto& n : p.observe_names) observe.push_back(lv.netlist().find(n));
  p.expected = serial_strobes(lv, p.stimulus, observe);
  return write_test_program_string(p);
}

TEST(TestExport, SoaStrobesEqualSerialOnEverySuiteCircuit) {
  std::vector<Netlist> circuits;
  circuits.push_back(iscas_s27());
  for (const SuiteEntry& e : paper_suite()) {
    circuits.push_back(build_suite_circuit(e));
  }
  ASSERT_EQ(circuits.size(), 13u);
  std::mt19937_64 rng(13);
  for (const Netlist& nl : circuits) {
    const Levelizer lv(nl);
    const std::vector<NodeId> observe = outputs_and_state(nl);
    // 200 cycles: 50 chunks of 4; 333: 55 chunks of 6 and a last one of 3.
    for (std::size_t cycles : {200u, 333u}) {
      const TestSequence stim = random_stimulus(nl, cycles, rng);
      const StrobeRun run = simulate_strobes(lv, stim, observe);
      EXPECT_EQ(run.expected, serial_strobes(lv, stim, observe))
          << nl.name() << " over " << cycles << " cycles";
      EXPECT_LE(run.rounds, run.chunks) << nl.name();
    }
  }
}

TEST(TestExport, ChainProgramsEqualSerialOnGeneratorCircuits) {
  for (std::uint64_t seed : {90u, 91u, 92u, 93u, 94u, 95u}) {
    World w(seed);
    std::mt19937_64 rng(seed);
    const ScanSequenceBuilder sb(w.nl, w.design);
    // The chain program's shape: the flush, step-2 scan-load/observe
    // vectors, then functional sequences with random inputs.
    TestSequence stim = w.stimulus();
    for (int v = 0; v < 5; ++v) {
      std::vector<Val> ff(w.nl.dffs().size());
      for (Val& x : ff) x = rand_3val(rng, 2);
      std::vector<Val> pis(w.nl.inputs().size());
      for (Val& x : pis) x = rand_3val(rng, 1);
      const TestSequence seq =
          sb.apply_comb_vector(ff, pis, w.model.max_chain_length() + 2);
      stim.insert(stim.end(), seq.begin(), seq.end());
    }
    const TestSequence tail = random_stimulus(w.nl, 77, rng);
    stim.insert(stim.end(), tail.begin(), tail.end());
    const TestProgram p = make_test_program(w.model, stim);
    EXPECT_EQ(write_test_program_string(p), serial_program_text(w.lv, p))
        << "seed " << seed;
  }
}

TEST(TestExport, StrobeEdgeCases) {
  World w(96);
  const std::vector<NodeId> observe = outputs_and_state(w.nl);
  std::mt19937_64 rng(96);
  struct Case {
    std::size_t cycles;
    std::size_t chunks;
    unsigned x_in_8;
  };
  // Empty, one cycle, fewer cycles than lanes, exactly one cycle per lane,
  // not a multiple of 64, and X-heavy stimulus.
  for (const Case c : {Case{0, 0, 1}, Case{1, 1, 1}, Case{17, 17, 1},
                       Case{64, 64, 1}, Case{65, 33, 1}, Case{1000, 63, 1},
                       Case{130, 44, 6}}) {
    const TestSequence stim = random_stimulus(w.nl, c.cycles, rng, c.x_in_8);
    const StrobeRun run = simulate_strobes(w.lv, stim, observe);
    EXPECT_EQ(run.chunks, c.chunks) << c.cycles;
    EXPECT_EQ(run.rounds == 0, c.cycles == 0) << c.cycles;
    EXPECT_LE(run.rounds, run.chunks) << c.cycles;
    EXPECT_EQ(run.expected, serial_strobes(w.lv, stim, observe)) << c.cycles;
  }
  const TestSequence bad(3, std::vector<Val>(w.nl.inputs().size() + 1));
  EXPECT_THROW(simulate_strobes(w.lv, bad, observe), std::invalid_argument);
}

TEST(TestExport, StateThatNeverWashesOutTakesOneRoundPerChunk) {
  // q toggles forever once `rst_n` has cleared it: no chunk can know its
  // start state before its predecessor is exact, so the relaxation needs
  // every round it is allowed.  No scan chain touches q.
  Netlist nl("toggle");
  const NodeId rst_n = nl.add_input("rst_n");
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_dff_floating("q");
  const NodeId nq = nl.add_gate(GateType::Not, {q}, "nq");
  nl.set_fanin(q, 0, nl.add_gate(GateType::And, {nq, rst_n}, "d"));
  nl.mark_output(q);
  nl.mark_output(nl.add_gate(GateType::Xor, {a, q}, "y"));
  const Levelizer lv(nl);
  std::mt19937_64 rng(7);
  for (std::size_t cycles : {323u, 1000u}) {
    TestSequence stim = random_stimulus(nl, cycles, rng, 2);
    for (auto& row : stim) row[0] = Val::One;
    stim[0][0] = Val::Zero;
    const StrobeRun run = simulate_strobes(lv, stim, nl.outputs());
    EXPECT_EQ(run.rounds, run.chunks) << cycles;
    EXPECT_EQ(run.expected, serial_strobes(lv, stim, nl.outputs())) << cycles;
    EXPECT_EQ(run.expected.back()[0],
              (cycles - 2) % 2 ? Val::One : Val::Zero);
  }
}

}  // namespace
}  // namespace fsct
