// Whole-flow determinism: identical inputs must give bit-identical results
// run to run (no unordered-container iteration order leaking into decisions,
// no hidden global randomness).  Reproducibility is what makes the benches
// in bench/ meaningful.
#include <gtest/gtest.h>

#include <algorithm>

#include "bench_circuits/generator.h"
#include "bench_circuits/suite.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "scan/scan_sequences.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

Netlist circuit() {
  RandomCircuitSpec spec;
  spec.num_gates = 240;
  spec.num_ffs = 18;
  spec.num_pis = 8;
  spec.num_pos = 5;
  spec.seed = 999;
  return make_random_sequential(spec);
}

TEST(Determinism, TpiProducesIdenticalChains) {
  Netlist nl1 = circuit();
  Netlist nl2 = circuit();
  const ScanDesign d1 = run_tpi(nl1);
  const ScanDesign d2 = run_tpi(nl2);
  ASSERT_EQ(d1.chains.size(), d2.chains.size());
  for (std::size_t c = 0; c < d1.chains.size(); ++c) {
    EXPECT_EQ(d1.chains[c].ffs, d2.chains[c].ffs);
    ASSERT_EQ(d1.chains[c].segments.size(), d2.chains[c].segments.size());
    for (std::size_t k = 0; k < d1.chains[c].segments.size(); ++k) {
      EXPECT_EQ(d1.chains[c].segments[k].path, d2.chains[c].segments[k].path);
      EXPECT_EQ(d1.chains[c].segments[k].inverting,
                d2.chains[c].segments[k].inverting);
    }
  }
  EXPECT_EQ(d1.pi_constraints, d2.pi_constraints);
  EXPECT_EQ(d1.test_points, d2.test_points);
}

TEST(Determinism, PipelineProducesIdenticalOutcomes) {
  Netlist nl1 = circuit();
  Netlist nl2 = circuit();
  const ScanDesign d1 = run_tpi(nl1);
  const ScanDesign d2 = run_tpi(nl2);
  const Levelizer lv1(nl1), lv2(nl2);
  const ScanModeModel m1(lv1, d1), m2(lv2, d2);
  const auto f1 = collapsed_fault_list(nl1);
  const auto f2 = collapsed_fault_list(nl2);
  ASSERT_EQ(f1, f2);

  // Wall-clock ATPG budgets are the one nondeterministic input; disable them
  // so both runs see identical cutoffs.
  PipelineOptions opt;
  opt.comb_time_limit_ms = 0;
  opt.seq_time_limit_ms = 0;
  opt.final_time_limit_ms = 0;
  const PipelineResult r1 = run_fsct_pipeline(m1, f1, opt);
  const PipelineResult r2 = run_fsct_pipeline(m2, f2, opt);

  EXPECT_EQ(r1.easy, r2.easy);
  EXPECT_EQ(r1.hard, r2.hard);
  EXPECT_EQ(r1.s2_detected, r2.s2_detected);
  EXPECT_EQ(r1.s2_vectors, r2.s2_vectors);
  EXPECT_EQ(r1.s3_detected, r2.s3_detected);
  EXPECT_EQ(r1.s3_undetected, r2.s3_undetected);
  ASSERT_EQ(r1.outcome.size(), r2.outcome.size());
  for (std::size_t i = 0; i < r1.outcome.size(); ++i) {
    EXPECT_EQ(r1.outcome[i], r2.outcome[i]) << fault_name(nl1, f1[i]);
  }
  EXPECT_EQ(r1.detection_curve, r2.detection_curve);
}

// The concurrency determinism contract (DESIGN.md "Concurrency
// architecture"): the fault-parallel execution layer must produce bitwise
// identical pipeline results at any worker count — same per-fault outcomes,
// same detection curve, same step-2 vector set, same realised step-3
// sequences, in the same order.
TEST(Determinism, PipelineIdenticalAtAnyJobCount) {
  Netlist nl1 = circuit();
  Netlist nl2 = circuit();
  const ScanDesign d1 = run_tpi(nl1);
  const ScanDesign d2 = run_tpi(nl2);
  const Levelizer lv1(nl1), lv2(nl2);
  const ScanModeModel m1(lv1, d1), m2(lv2, d2);
  const auto f1 = collapsed_fault_list(nl1);
  const auto f2 = collapsed_fault_list(nl2);

  PipelineOptions opt;
  opt.comb_time_limit_ms = 0;
  opt.seq_time_limit_ms = 0;
  opt.final_time_limit_ms = 0;
  opt.verify_easy = true;
  opt.jobs = 1;
  const PipelineResult serial = run_fsct_pipeline(m1, f1, opt);
  opt.jobs = 4;
  const PipelineResult parallel = run_fsct_pipeline(m2, f2, opt);

  EXPECT_EQ(serial.jobs_used, 1u);
  EXPECT_EQ(parallel.jobs_used, 4u);
  EXPECT_EQ(serial.easy, parallel.easy);
  EXPECT_EQ(serial.hard, parallel.hard);
  EXPECT_EQ(serial.easy_verified, parallel.easy_verified);
  EXPECT_EQ(serial.s2_detected, parallel.s2_detected);
  EXPECT_EQ(serial.s2_undetectable, parallel.s2_undetectable);
  EXPECT_EQ(serial.s2_undetected, parallel.s2_undetected);
  EXPECT_EQ(serial.s2_vectors, parallel.s2_vectors);
  EXPECT_EQ(serial.s3_detected, parallel.s3_detected);
  EXPECT_EQ(serial.s3_undetectable, parallel.s3_undetectable);
  EXPECT_EQ(serial.s3_undetected, parallel.s3_undetected);
  EXPECT_EQ(serial.s3_unverified, parallel.s3_unverified);
  EXPECT_EQ(serial.s3_circuits_group, parallel.s3_circuits_group);
  EXPECT_EQ(serial.s3_circuits_final, parallel.s3_circuits_final);

  // Per-fault outcomes.
  ASSERT_EQ(serial.outcome.size(), parallel.outcome.size());
  for (std::size_t i = 0; i < serial.outcome.size(); ++i) {
    EXPECT_EQ(serial.outcome[i], parallel.outcome[i]) << fault_name(nl1, f1[i]);
  }
  // Figure-5 curve and the step-2 vector set, element for element.
  EXPECT_EQ(serial.detection_curve, parallel.detection_curve);
  EXPECT_EQ(serial.vectors, parallel.vectors);
  // Realised step-3 sequences, including their order.
  EXPECT_EQ(serial.s3_sequence_fault, parallel.s3_sequence_fault);
  EXPECT_EQ(serial.s3_sequences, parallel.s3_sequences);
}

/// What step 2's sequential verification left behind: the run is stopped at
/// the safe point after it, and the counters and ledger it charged are the
/// difference between the snapshots on either side of it.
struct Step2Verify {
  std::vector<std::size_t> open0;  ///< faults open when verification began
  std::vector<ScanVector> vectors;
  std::vector<FaultOutcome> outcome;
  std::vector<std::size_t> curve;
  std::uint64_t dropped = 0, passes = 0, cycles = 0;
  std::vector<std::uint64_t> sims, seq_cycles;  ///< per fault
};

Step2Verify run_step2_verify(const ScanModeModel& model,
                             std::span<const Fault> faults, int jobs,
                             std::size_t observe_cycles) {
  ObsRegistry obs;
  obs.request_attribution();
  PipelineOptions opt;
  opt.comb_time_limit_ms = 0;
  opt.seq_time_limit_ms = 0;
  opt.final_time_limit_ms = 0;
  opt.jobs = jobs;
  opt.observe_cycles = observe_cycles;
  opt.obs = &obs;
  Step2Verify out;
  std::uint64_t dropped0 = 0, passes0 = 0, cycles0 = 0;
  std::vector<std::uint64_t> sims0, cycles0_f;
  PipelineHooks hooks;
  hooks.safe_point = [&](const PipelineProgress& pg) {
    if (pg.next == PipelinePhase::S2Verify) {
      for (std::size_t j = 0; j < faults.size(); ++j) {
        if (pg.res->info[j].category == ChainFaultCategory::Hard &&
            pg.res->outcome[j] == FaultOutcome::Undetected) {
          out.open0.push_back(j);
        }
      }
      dropped0 = obs.total(Ctr::SeqSimFaultsDropped);
      passes0 = obs.total(Ctr::SeqSimPackedPasses);
      cycles0 = obs.total(Ctr::SeqSimCycles);
      for (std::size_t j = 0; j < faults.size(); ++j) {
        sims0.push_back(obs.attr_total(Attr::SeqSims, j));
        cycles0_f.push_back(obs.attr_total(Attr::SeqCycles, j));
      }
      return true;
    }
    if (pg.next != PipelinePhase::S3Groups) return true;
    out.vectors = pg.res->vectors;
    out.outcome = pg.res->outcome;
    out.curve = pg.res->detection_curve;
    out.dropped = obs.total(Ctr::SeqSimFaultsDropped) - dropped0;
    out.passes = obs.total(Ctr::SeqSimPackedPasses) - passes0;
    out.cycles = obs.total(Ctr::SeqSimCycles) - cycles0;
    for (std::size_t j = 0; j < faults.size(); ++j) {
      out.sims.push_back(obs.attr_total(Attr::SeqSims, j) - sims0[j]);
      out.seq_cycles.push_back(obs.attr_total(Attr::SeqCycles, j) -
                               cycles0_f[j]);
    }
    return false;  // step 3 is not under test
  };
  opt.hooks = &hooks;
  EXPECT_THROW(run_fsct_pipeline(model, faults, opt), PipelineStopped);
  return out;
}

/// Step-2 verification simulates vectors side by side once the open set fits
/// one 64-lane pass.  Rebuild everything it reports from the vector set by a
/// one-vector-at-a-time walk (serial engine for the verdicts and ledger,
/// packed engine for the pass and cycle counters) and demand equality at
/// every job count.  `observe_cycles` as in PipelineOptions (0 = auto).
/// Returns the open-set sizes at vector 0 and after it.
std::pair<std::size_t, std::size_t> check_step2_waves(
    Netlist nl, std::size_t chains, const char* what,
    std::size_t observe_cycles = 0) {
  TpiOptions topt;
  topt.num_chains = static_cast<int>(chains);
  const ScanDesign d = run_tpi(nl, topt);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  const auto faults = collapsed_fault_list(nl);

  std::vector<NodeId> observe = nl.outputs();
  for (NodeId so : model.scan_outs()) {
    if (std::find(observe.begin(), observe.end(), so) == observe.end()) {
      observe.push_back(so);
    }
  }
  const Step2Verify got1 = run_step2_verify(model, faults, 1, observe_cycles);
  EXPECT_FALSE(got1.vectors.empty()) << what;
  ObsRegistry ref;  // serial engine: verdicts and ledger
  ref.request_attribution();
  ref.init_attribution(faults.size());
  ObsRegistry packed;  // packed engine, one vector at a time: pass counters
  const SeqFaultSim sim(lv, observe);
  const ScanSequenceBuilder sb(nl, d);
  std::vector<char> det(faults.size(), 0);
  std::vector<std::size_t> curve;
  std::size_t detected = 0, open_after_first = 0;
  bool walking = true;
  for (std::size_t vi = 0; vi < got1.vectors.size(); ++vi) {
    std::vector<Fault> open;
    std::vector<std::size_t> open_ids;
    for (std::size_t j : got1.open0) {
      if (!det[j]) {
        open.push_back(faults[j]);
        open_ids.push_back(j);
      }
    }
    if (vi == 1) open_after_first = open.size();
    walking = walking && !open.empty();
    if (walking) {
      const TestSequence seq = sb.apply_comb_vector(
          got1.vectors[vi].ff_state, got1.vectors[vi].pi_vals,
          observe_cycles ? observe_cycles : model.max_chain_length() + 2);
      const auto r = sim.run_serial(seq, open, Val::X, &ref, open_ids);
      const auto rp = sim.run(seq, open, Val::X, nullptr, &packed);
      EXPECT_EQ(r.detect_cycle, rp.detect_cycle) << what << " vector " << vi;
      for (std::size_t m = 0; m < open.size(); ++m) {
        if (r.detect_cycle[m] >= 0) {
          det[open_ids[m]] = 1;
          ++detected;
        }
      }
    }
    curve.push_back(detected);
  }
  for (const int jobs : {1, 4}) {
    const Step2Verify got =
        jobs == 1 ? got1 : run_step2_verify(model, faults, 4, observe_cycles);
    EXPECT_EQ(got.open0, got1.open0) << what;
    EXPECT_EQ(got.vectors, got1.vectors) << what;
    EXPECT_EQ(got.curve, curve) << what << " jobs " << jobs;
    for (std::size_t j : got.open0) {
      EXPECT_EQ(got.outcome[j] == FaultOutcome::DetectedComb, det[j] != 0)
          << what << " jobs " << jobs << " " << fault_name(nl, faults[j]);
    }
    EXPECT_EQ(got.dropped, ref.total(Ctr::SeqSimFaultsDropped))
        << what << " jobs " << jobs;
    EXPECT_EQ(got.passes, packed.total(Ctr::SeqSimPackedPasses))
        << what << " jobs " << jobs;
    EXPECT_EQ(got.cycles, packed.total(Ctr::SeqSimCycles))
        << what << " jobs " << jobs;
    for (std::size_t j = 0; j < faults.size(); ++j) {
      EXPECT_EQ(got.sims[j], ref.attr_total(Attr::SeqSims, j))
          << what << " jobs " << jobs << " " << fault_name(nl, faults[j]);
      EXPECT_EQ(got.seq_cycles[j], ref.attr_total(Attr::SeqCycles, j))
          << what << " jobs " << jobs << " " << fault_name(nl, faults[j]);
    }
  }
  return {got1.open0.size(), open_after_first};
}

TEST(Determinism, Step2WavesMatchSerialVectorWalk) {
  for (const char* name : {"s1423", "s5378"}) {
    const SuiteEntry& e = suite_entry(name);
    check_step2_waves(build_suite_circuit(e), e.chains, name);
  }
  // s1488's open set clears part-way through a wave: the vectors after the
  // clearing one are simulated but must charge nothing.  At the
  // default observation length s1488 is too small for waves to widen; 100
  // shift-out cycles make each pass big enough.
  const SuiteEntry& s1488 = suite_entry("s1488");
  check_step2_waves(build_suite_circuit(s1488), s1488.chains, "s1488", 100);
  // 66 faults open at vector 0 (more than one 64-lane pass holds), 26 after
  // it: the walk switches from one vector at a time to waves.
  RandomCircuitSpec spec;
  spec.num_gates = 1200;
  spec.num_ffs = 80;
  spec.num_pis = 12;
  spec.num_pos = 8;
  spec.seed = 2;
  const auto [at0, after0] =
      check_step2_waves(make_random_sequential(spec), 1, "generated");
  EXPECT_GT(at0, 63u);
  EXPECT_LE(after0, 63u);
}

TEST(Determinism, ClassifierParallelMatchesSerial) {
  Netlist nl = circuit();
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel m(lv, d);
  const auto faults = collapsed_fault_list(nl);
  const auto serial = ChainFaultClassifier(m).classify_all(faults);
  ThreadPool pool(4);
  const auto parallel =
      ChainFaultClassifier::classify_all_parallel(m, faults, pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].category, parallel[i].category);
    EXPECT_EQ(serial[i].locations, parallel[i].locations);
    EXPECT_EQ(serial[i].multi_chain, parallel[i].multi_chain);
  }
}

TEST(Determinism, ClassifierIsPureFunction) {
  Netlist nl = circuit();
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel m(lv, d);
  ChainFaultClassifier cls(m);
  const auto faults = collapsed_fault_list(nl);
  const auto a = cls.classify_all(faults);
  const auto b = cls.classify_all(faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].locations, b[i].locations);
  }
}

}  // namespace
}  // namespace fsct
