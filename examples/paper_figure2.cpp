// Reproduces the paper's Figure 2 discussion as a runnable demo:
//
//   * a 6-stage functional scan chain whose last link rides an and-or
//     selector with `en` forced to 1 in scan mode,
//   * the fault `en s-a-0` shortens the chain by exactly 4 stages,
//   * the classic alternating flush (period 4) cannot see it,
//   * the FSCT classifier flags it category 2 and sequential ATPG on the
//     reduced model produces a test that does detect it.
#include <cstdio>

#include "bench_circuits/paper_examples.h"
#include "core/classify.h"
#include "core/reduced_atpg.h"
#include "fault/seq_fault_sim.h"
#include "scan/scan_sequences.h"

int main() {
  using namespace fsct;
  ExampleDesign e = paper_figure2();
  const Levelizer lv(e.nl);
  const ScanModeModel model(lv, e.design);
  const Fault fault = paper_figure2_fault(e.nl);
  std::printf("circuit: %s, fault: %s\n", e.nl.name().c_str(),
              fault_name(e.nl, fault).c_str());

  // 1. The alternating sequence misses it.
  const ScanSequenceBuilder sb(e.nl, e.design);
  SeqFaultSim sim(lv, {e.nl.find("f6")});
  const Fault faults[] = {fault};
  const auto alt = sim.run_serial(sb.alternating(40), faults);
  std::printf("alternating flush (40 cycles): %s\n",
              alt.detect_cycle[0] < 0 ? "MISSED (as the paper predicts)"
                                      : "detected");

  // 2. The classifier sees a category-2 fault at the last chain location.
  ChainFaultClassifier cls(model);
  const ChainFaultInfo info = cls.classify(fault);
  std::printf("classifier: category %s, %zu location(s), last at segment %d\n",
              info.category == ChainFaultCategory::Hard ? "2 (hard)"
              : info.category == ChainFaultCategory::Easy ? "1 (easy)"
                                                          : "3 (none)",
              info.locations.size(), info.locations.back().segment);

  // 3. Sequential ATPG on the enhanced-ctrl/obs reduced model finds a test.
  ReducedCircuitBuilder builder(model);
  AtpgGroup g;
  g.kind = 1;
  g.fault_indices = {0};
  g.window = make_fault_window(0, info).chains;
  const ReducedModel rm = builder.build(g, std::span(&fault, 1));
  std::printf("reduced model: %zu nodes, %d frames\n", rm.um.circuit->size(),
              rm.frames);
  const AtpgResult r = rm.podem->generate(rm.um.map_fault(fault));
  if (r.status != AtpgStatus::Detected) {
    std::printf("ATPG failed unexpectedly\n");
    return 1;
  }
  std::printf("ATPG: detected with %d decisions, %d backtracks\n", r.decisions,
              r.backtracks);

  // 4. Verify the extracted test end-to-end on the real circuit.
  const SeqTest t = builder.extract_test(rm, r);
  const TestSequence seq = builder.realize(t, 8);
  const auto verdict = sim.run_serial(seq, faults);
  std::printf("end-to-end verification (%zu cycles): %s at cycle %d\n",
              seq.size(),
              verdict.detect_cycle[0] >= 0 ? "DETECTED" : "missed",
              verdict.detect_cycle[0]);
  return verdict.detect_cycle[0] >= 0 && alt.detect_cycle[0] < 0 ? 0 : 1;
}
