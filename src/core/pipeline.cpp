#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "core/obs.h"
#include "core/parallel.h"
#include "fault/comb_fault_sim.h"

namespace fsct {
namespace {

/// Step-2 verification runs up to this many vectors side by side once the
/// open set fits one 64-lane pass (kS2WaveMaxOpen faults).  A fixed
/// constant, so the work done never depends on --jobs.
constexpr std::size_t kS2Wave = 4;
constexpr std::size_t kS2WaveMaxOpen = 63;
/// Node-cycles (netlist nodes x scan-sequence cycles) of one vector's pass
/// below which waves stay one vector wide: waking the pool costs more than
/// such a pass (s1488-sized circuits are about 10^4, s1423 about 1.3*10^5).
constexpr std::size_t kS2WaveMinWork = std::size_t{1} << 16;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Outcome of one step-3 group model: faults its verified sequences detect
/// (in in-group target order, aligned with `seqs`), faults credited by the
/// group-local ride-along ledger, and in-model detections whose realised
/// test failed end-to-end verification.
struct GroupOutcome {
  std::vector<std::size_t> detected;
  std::vector<TestSequence> seqs;
  std::vector<std::size_t> credited;
  std::size_t unverified = 0;
};

/// Verdict of one final-pass individual model (verification included: a
/// Detected here has already survived its pair replay when verify_seq is on).
enum class FinalVerdict : std::uint8_t {
  Detected,
  Unverified,
  Untestable,
  Aborted,
  NoSites,
};

struct FinalOutcome {
  FinalVerdict verdict = FinalVerdict::NoSites;
  TestSequence seq;  ///< realised sequence when Detected, else empty
};

/// The fault-parallel phases of the pipeline, run on the in-process pool.
/// Every per-item computation is a pure function of (model, options, item)
/// and lands in its own output slot, so the caller's in-order merge makes
/// the result identical at any job count (DESIGN.md §5c).  `ids` are
/// indices into the run's collapsed fault list; outputs align with them.
class ParallelPhases {
 public:
  ParallelPhases(const ScanModeModel& model, std::span<const Fault> faults,
                 const PipelineOptions& opt, ThreadPool& pool);

  /// Simulates `seq` against faults[ids] from the all-X state; returns a
  /// 0/1 detected flag per id.  Used for the step-1 verification, the
  /// flush-credit pre-pass and the cross-group ledger pass.
  std::vector<char> seq_detect(const TestSequence& seq,
                               std::span<const std::size_t> ids);

  /// Step-2 sequential verification: walks `vectors` in order against the
  /// (shrinking) open set of faults[ids]; returns, per id, the index of the
  /// first vector whose scan sequence detects it, or -1.
  std::vector<int> s2_first_vec(std::span<const ScanVector> vectors,
                                std::span<const std::size_t> ids);

  /// Runs every step-3 group model; one outcome per group.
  std::vector<GroupOutcome> run_groups(const std::vector<AtpgGroup>& groups);

  /// Runs the final-pass individual models, verification included; one
  /// outcome per entry of `final_ids`.
  std::vector<FinalOutcome> run_finals(
      std::span<const std::size_t> final_ids,
      const std::vector<std::vector<ChainWindow>>& windows);

 private:
  const ScanModeModel& model_;
  std::span<const Fault> faults_;
  const PipelineOptions& opt_;
  ThreadPool& pool_;
  ObsRegistry* obs_;
  std::vector<NodeId> observe_;
  std::size_t maxlen_;
};

/// The observation list every sequential simulation of the pipeline uses:
/// primary outputs plus the scan-out ports (deduped, in that order).
std::vector<NodeId> observe_list(const ScanModeModel& model) {
  const Netlist& nl = model.levelizer().netlist();
  std::vector<NodeId> observe = nl.outputs();
  for (NodeId so : model.scan_outs()) {
    if (std::find(observe.begin(), observe.end(), so) == observe.end()) {
      observe.push_back(so);
    }
  }
  return observe;
}

ParallelPhases::ParallelPhases(const ScanModeModel& model,
                               std::span<const Fault> faults,
                               const PipelineOptions& opt, ThreadPool& pool)
    : model_(model),
      faults_(faults),
      opt_(opt),
      pool_(pool),
      obs_(opt.obs),
      observe_(observe_list(model)),
      maxlen_(model.max_chain_length()) {}

std::vector<char> ParallelPhases::seq_detect(
    const TestSequence& seq, std::span<const std::size_t> ids) {
  std::vector<char> det(ids.size(), 0);
  if (ids.empty()) return det;
  std::vector<Fault> fv;
  fv.reserve(ids.size());
  for (std::size_t id : ids) fv.push_back(faults_[id]);
  SeqFaultSim sim(model_.levelizer(), observe_, opt_.simd_width);
  const SeqFaultSimResult r = sim.run(seq, fv, Val::X, &pool_, obs_, ids);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    det[k] = r.detect_cycle[k] >= 0;
  }
  return det;
}

std::vector<int> ParallelPhases::s2_first_vec(
    std::span<const ScanVector> vectors, std::span<const std::size_t> ids) {
  std::vector<int> first(ids.size(), -1);
  if (ids.empty() || vectors.empty()) return first;
  const std::size_t observe_cycles =
      opt_.observe_cycles ? opt_.observe_cycles : maxlen_ + 2;
  ScanSequenceBuilder sb(model_.levelizer().netlist(), model_.design());
  SeqFaultSim ssim(model_.levelizer(), observe_, opt_.simd_width);
  auto sequence = [&](std::size_t vi) {
    return sb.apply_comb_vector(vectors[vi].ff_state, vectors[vi].pi_vals,
                                observe_cycles);
  };
  std::vector<char> det(ids.size(), 0);
  const bool widen = model_.levelizer().netlist().size() *
                         (maxlen_ + 1 + observe_cycles) >=
                     kS2WaveMinWork;
  std::size_t wave = 1;  // vectors in the next wave: 1, 2, 4, ... kS2Wave
  for (std::size_t vi = 0; vi < vectors.size();) {
    std::vector<Fault> open;
    std::vector<std::size_t> open_pos;
    std::vector<std::size_t> open_ids;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (!det[k]) {
        open.push_back(faults_[ids[k]]);
        open_pos.push_back(k);
        open_ids.push_back(ids[k]);
      }
    }
    if (open.empty()) break;  // every later vector sees an empty open set too
    if (open.size() > kS2WaveMaxOpen) {
      // Several packed passes: the pool runs them side by side.
      const SeqFaultSimResult r =
          ssim.run(sequence(vi), open, Val::X, &pool_, obs_, open_ids);
      for (std::size_t m = 0; m < open.size(); ++m) {
        if (r.detect_cycle[m] >= 0) {
          det[open_pos[m]] = 1;
          first[open_pos[m]] = static_cast<int>(vi);
        }
      }
      ++vi;
      continue;
    }

    // One narrowest pass holds the whole open set, so the pool runs the
    // next vectors side by side instead, each against this open set.  A
    // fault's first vector is the lowest index that detects it, and each
    // lane's outcome is independent of the others in its pass, so replaying
    // the per-(fault, vector) detect cycles in vector order charges exactly
    // what the one-vector-at-a-time walk would: per vector, one pass over
    // the faults still open, stopping at the last detection when it clears
    // them all.  The wave doubles up to kS2Wave, so a vector that clears a
    // fresh open set costs no speculative passes; on small circuits it
    // stays one vector wide.
    const std::size_t nw = std::min(wave, vectors.size() - vi);
    if (widen) wave = std::min(2 * wave, kS2Wave);
    std::vector<std::size_t> len(nw);
    std::vector<std::vector<int>> dc(nw);
    parallel_for(pool_, nw, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t j = b; j < e; ++j) {
        const ObsSpan span(obs_, "seqsim.pass");
        const TestSequence seq = sequence(vi + j);
        len[j] = seq.size();
        dc[j] = ssim.run(seq, open, Val::X).detect_cycle;
      }
    });
    for (std::size_t j = 0; j < nw; ++j) {
      // The serial pass runs until its last open fault resolves: the
      // largest resolved cycle count (the full length if one escapes).
      std::uint64_t cycles = 0, dropped = 0;
      std::size_t live = 0;
      for (std::size_t m = 0; m < open.size(); ++m) {
        if (det[open_pos[m]]) continue;
        ++live;
        const int d = dc[j][m];
        const std::uint64_t resolved =
            d >= 0 ? static_cast<std::uint64_t>(d) + 1 : len[j];
        cycles = std::max(cycles, resolved);
        if (obs_) {
          obs_->charge(Attr::SeqSims, open_ids[m]);
          obs_->charge(Attr::SeqCycles, open_ids[m], resolved);
        }
        if (d >= 0) ++dropped;
      }
      if (live == 0) break;  // cleared by an earlier vector of the wave
      if (obs_) {
        obs_->add(Ctr::SeqSimPackedPasses);
        obs_->add(Ctr::SeqSimCycles, cycles);
        obs_->add(Ctr::SeqSimFaultsDropped, dropped);
      }
      for (std::size_t m = 0; m < open.size(); ++m) {
        if (!det[open_pos[m]] && dc[j][m] >= 0) {
          det[open_pos[m]] = 1;
          first[open_pos[m]] = static_cast<int>(vi + j);
        }
      }
    }
    vi += nw;
  }
  return first;
}

std::vector<GroupOutcome> ParallelPhases::run_groups(
    const std::vector<AtpgGroup>& groups) {
  std::vector<GroupOutcome> done(groups.size());
  SeqFaultSim s3sim(model_.levelizer(), observe_, opt_.simd_width);
  // Realises an in-model detection and (optionally) verifies it end to end.
  // Returns the realised sequence when the detection stands, nullopt when it
  // does not reproduce.  Pure w.r.t. shared state, so group tasks can call it
  // concurrently; the skeleton merges into the result serially.
  auto realize_s3_detection =
      [&](const ReducedCircuitBuilder& bld, const ReducedModel& rm,
          const AtpgResult& ar,
          std::size_t fault_idx) -> std::optional<TestSequence> {
    const SeqTest t = bld.extract_test(rm, ar);
    TestSequence seq = bld.realize(t, maxlen_ + 2);
    if (opt_.verify_seq) {
      const Fault one[1] = {faults_[fault_idx]};
      const std::size_t aid[1] = {fault_idx};
      if (s3sim.run_serial(seq, one, Val::X, obs_, aid).detect_cycle[0] < 0) {
        return std::nullopt;
      }
    }
    return seq;
  };

  ReducedModelOptions ropt;
  ropt.frame_slack = opt_.frame_slack;
  ropt.frame_cap = opt_.frame_cap;
  ropt.observe_pos = opt_.observe_pos;
  ropt.atpg.backtrack_limit = opt_.seq_backtrack_limit;
  ropt.atpg.time_limit_ms = opt_.seq_time_limit_ms;
  ropt.atpg.obs = obs_;
  ReducedCircuitBuilder builder(model_, ropt);

  ObsRegistry* const obs = obs_;
  auto run_group = [&](std::size_t gi) {
    const ObsSpan span(obs, "s3.group");
    const AtpgGroup& g = groups[gi];
    std::vector<Fault> gf;
    for (std::size_t j : g.fault_indices) gf.push_back(faults_[j]);
    ReducedModel rm;
    {
      const ObsSpan mspan(obs, "s3.model");
      rm = builder.build(g, gf);
    }
    std::vector<char> credited(g.fault_indices.size(), 0);
    for (std::size_t k = 0; k < g.fault_indices.size(); ++k) {
      const std::size_t j = g.fault_indices[k];
      if (credited[k]) continue;  // this group's ledger already covers it
      const auto sites = rm.um.map_fault(faults_[j]);
      if (sites.empty()) continue;  // pruned away: retried in final pass
      const AtpgResult r =
          rm.podem->generate(sites, static_cast<std::int64_t>(j));
      if (r.status != AtpgStatus::Detected) continue;
      // Untestable in a *shared* window is not conclusive for absorbed
      // faults (they may have more ctrl/obs alone): final pass decides.
      auto seq = realize_s3_detection(builder, rm, r, j);
      if (!seq) {
        ++done[gi].unverified;
        continue;
      }
      // Ledger ride-along: simulate the verified sequence against the
      // group's still-open tail; whatever it detects (from the all-X
      // start, so the verdict survives concatenation into the exported
      // program) is credited instead of re-targeted.  Group-local state
      // only, so tasks stay schedule-independent.
      if (opt_.dominance && k + 1 < g.fault_indices.size()) {
        std::vector<Fault> open;
        std::vector<std::size_t> open_pos;
        std::vector<std::size_t> open_ids;
        for (std::size_t m = k + 1; m < g.fault_indices.size(); ++m) {
          if (!credited[m]) {
            open.push_back(faults_[g.fault_indices[m]]);
            open_pos.push_back(m);
            open_ids.push_back(g.fault_indices[m]);
          }
        }
        if (!open.empty()) {
          const SeqFaultSimResult rr =
              s3sim.run(*seq, open, Val::X, nullptr, obs, open_ids);
          for (std::size_t m = 0; m < open.size(); ++m) {
            if (rr.detect_cycle[m] >= 0) {
              credited[open_pos[m]] = 1;
              done[gi].credited.push_back(g.fault_indices[open_pos[m]]);
              // Which faults earn ride-along credit is schedule-independent
              // (group-local state), so this charge keeps the ledger
              // deterministic even though it happens inside a pool task.
              if (obs) obs->charge(Attr::CreditEvents, open_ids[m]);
            }
          }
        }
      }
      done[gi].detected.push_back(j);
      done[gi].seqs.push_back(std::move(*seq));
    }
    if (obs) obs->phase_tick();
  };
  parallel_for(pool_, groups.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t gi = b; gi < e; ++gi) run_group(gi);
  });
  return done;
}

std::vector<FinalOutcome> ParallelPhases::run_finals(
    std::span<const std::size_t> final_ids,
    const std::vector<std::vector<ChainWindow>>& windows) {
  std::vector<FinalOutcome> fdone(final_ids.size());
  SeqFaultSim s3sim(model_.levelizer(), observe_, opt_.simd_width);
  ReducedModelOptions fopt;
  fopt.frame_slack = opt_.frame_slack;
  fopt.frame_cap = opt_.frame_cap;
  fopt.observe_pos = opt_.observe_pos;
  fopt.atpg.backtrack_limit = opt_.final_backtrack_limit;
  fopt.atpg.time_limit_ms = opt_.final_time_limit_ms;
  fopt.atpg.obs = obs_;
  ReducedCircuitBuilder final_builder(model_, fopt);

  ObsRegistry* const obs = obs_;
  auto run_final = [&](std::size_t k) {
    const ObsSpan span(obs, "s3.final");
    struct Tick {
      ObsRegistry* obs;
      ~Tick() {
        if (obs) obs->phase_tick();
      }
    } tick{obs};
    const std::size_t j = final_ids[k];
    AtpgGroup g;
    g.kind = 1;
    g.fault_indices = {j};
    g.window = windows[k];
    const Fault f = faults_[j];
    ReducedModel rm;
    {
      const ObsSpan mspan(obs, "s3.model");
      rm = final_builder.build(g, std::span(&f, 1), opt_.final_extra_frames);
    }
    const auto sites = rm.um.map_fault(f);
    if (sites.empty()) return;  // NoSites
    const AtpgResult r =
        rm.podem->generate(sites, static_cast<std::int64_t>(j));
    if (r.status == AtpgStatus::Detected) {
      // Realise the in-model test now; end-to-end verification of all final
      // detections is batched below as (fault, sequence) pairs so many
      // replays retire per packed sweep.
      const SeqTest t = final_builder.extract_test(rm, r);
      fdone[k].seq = final_builder.realize(t, maxlen_ + 2);
      fdone[k].verdict = FinalVerdict::Detected;
    } else if (r.status == AtpgStatus::Untestable) {
      fdone[k].verdict = FinalVerdict::Untestable;
    } else {
      fdone[k].verdict = FinalVerdict::Aborted;
    }
  };
  parallel_for(pool_, final_ids.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) run_final(k);
  });
  // Batched verification: each (fault, realised sequence) pair is an
  // independent replay, so the verdicts are identical to a serial
  // one-run-per-fault loop.  A FinalOutcome::Detected leaving this call has
  // therefore already survived end-to-end verification.
  if (opt_.verify_seq) {
    std::vector<FaultSeqPair> vpairs;
    std::vector<std::size_t> vslot;
    std::vector<std::size_t> vids;
    for (std::size_t k = 0; k < fdone.size(); ++k) {
      if (fdone[k].verdict == FinalVerdict::Detected) {
        vpairs.push_back({faults_[final_ids[k]], &fdone[k].seq});
        vslot.push_back(k);
        vids.push_back(final_ids[k]);
      }
    }
    if (!vpairs.empty()) {
      const ObsSpan span(obs, "step3.final_verify");
      const std::vector<int> vr =
          s3sim.run_pairs(vpairs, Val::X, &pool_, obs, vids);
      for (std::size_t i = 0; i < vpairs.size(); ++i) {
        if (vr[i] < 0) {
          fdone[vslot[i]].verdict = FinalVerdict::Unverified;
          fdone[vslot[i]].seq.clear();
        }
      }
    }
  }
  return fdone;
}

}  // namespace

const char* pipeline_phase_name(PipelinePhase p) {
  switch (p) {
    case PipelinePhase::Classify: return "classify";
    case PipelinePhase::Step1: return "step1";
    case PipelinePhase::FlushCredit: return "flush_credit";
    case PipelinePhase::S2Podem: return "s2.podem";
    case PipelinePhase::S2Verify: return "s2.verify";
    case PipelinePhase::S3Groups: return "s3.groups";
    case PipelinePhase::S3Ledger: return "s3.ledger";
    case PipelinePhase::S3Final: return "s3.final";
    case PipelinePhase::Done: return "done";
  }
  return "?";
}

bool pipeline_phase_from_name(const std::string& name, PipelinePhase* out) {
  for (int p = 0; p <= static_cast<int>(PipelinePhase::Done); ++p) {
    const auto ph = static_cast<PipelinePhase>(p);
    if (name == pipeline_phase_name(ph)) {
      if (out) *out = ph;
      return true;
    }
  }
  return false;
}

// The pipeline skeleton.  Control flow, merge order and counter charging live
// here on the calling thread; the fault-parallel work runs through
// ParallelPhases on the pool.  Every merge walks items in canonical order, so
// the result is bitwise identical at any `--jobs N`.
//
// Checkpoint/resume: opt.hooks->safe_point fires at phase boundaries and
// after every PODEM target — always between pool calls, so the state and the
// observability totals it sees are complete.  opt.resume restores the state
// such a callback observed and skips the completed work; a run resumed at a
// step-3 phase reruns that whole phase.
PipelineResult run_fsct_pipeline(const ScanModeModel& model,
                                 std::span<const Fault> faults,
                                 const PipelineOptions& opt) {
  const Levelizer& lv = model.levelizer();
  const Netlist& nl = lv.netlist();
  ThreadPool pool(opt.jobs);
  ObsRegistry* const obs = opt.obs;
  PipelineResult res;

  const PipelineResume* const rz = opt.resume;
  const PipelinePhase start = rz ? rz->phase : PipelinePhase::Classify;
  if (rz && start > PipelinePhase::Classify) {
    res = rz->partial;
    if (res.outcome.size() != faults.size() ||
        res.info.size() != faults.size()) {
      throw std::runtime_error(
          "resume: checkpoint fault count does not match this run's "
          "collapsed fault list");
    }
  } else {
    res.outcome.assign(faults.size(), FaultOutcome::NotAffecting);
  }
  res.jobs_used = pool.jobs();
  res.total_faults = faults.size();

  const std::size_t maxlen = model.max_chain_length();
  if (obs) {
    obs->set_gauge(Gauge::Jobs, static_cast<std::int64_t>(res.jobs_used));
    obs->set_gauge(Gauge::HardwareConcurrency,
                   static_cast<std::int64_t>(
                       std::thread::hardware_concurrency()));
    obs->set_gauge(Gauge::TotalFaults,
                   static_cast<std::int64_t>(faults.size()));
    obs->set_gauge(Gauge::MaxChainLength, static_cast<std::int64_t>(maxlen));
    // Expose this run to the SIGUSR1 / heartbeat monitor and let live
    // status dumps snapshot the pool while phases run.
    obs->attach_pool(&pool);
    // Size the per-fault attribution ledger before any task can charge it
    // (fault ids used throughout are indices into `faults`).
    if (obs->attribution_requested()) obs->init_attribution(faults.size());
  }
  // Detach + restore on every exit path, including PipelineStopped.
  struct ObsGuard {
    ObsRegistry* obs = nullptr;
    ObsRegistry* prev = nullptr;
    ~ObsGuard() {
      if (obs) {
        obs->detach_pool();
        set_status_registry(prev);
      }
    }
  } obs_guard;
  if (obs) {
    obs_guard.prev = set_status_registry(obs);
    obs_guard.obs = obs;
  }
  char pbuf[192];
  const bool verbose = obs != nullptr && obs->progress_enabled();
  const DistanceParams dist =
      opt.auto_dist ? DistanceParams::from_maxsize(maxlen) : opt.dist;

  ParallelPhases phases(model, faults, opt, pool);

  // Safe-point plumbing: the callback sees a view of live skeleton storage;
  // a stop verdict becomes PipelineStopped.
  std::vector<char> comb_covered(faults.size(), 0);  // PPSFP-screened
  if (rz && start == PipelinePhase::S2Podem) {
    if (rz->comb_covered.size() != faults.size()) {
      throw std::runtime_error(
          "resume: checkpoint comb-covered set does not match fault count");
    }
    comb_covered = rz->comb_covered;
  }
  std::size_t podem_done =
      (rz && start == PipelinePhase::S2Podem) ? rz->podem_next : 0;
  auto safe_point = [&](PipelinePhase next) {
    if (!opt.hooks || !opt.hooks->safe_point) return;
    PipelineProgress pg;
    pg.next = next;
    pg.res = &res;
    pg.comb_covered = &comb_covered;
    pg.podem_next = podem_done;
    if (!opt.hooks->safe_point(pg)) {
      throw PipelineStopped(std::string("pipeline stopped before ") +
                            pipeline_phase_name(next));
    }
  };
  if (verbose && rz) {
    std::snprintf(pbuf, sizeof pbuf, "resume: continuing at phase %s",
                  pipeline_phase_name(start));
    obs->progress_line(pbuf);
  }

  // ---- step 0: classification ---------------------------------------------
  auto t0 = std::chrono::steady_clock::now();
  double cpu0 = process_cpu_seconds();
  std::vector<std::size_t> hard_idx;
  if (start <= PipelinePhase::Classify) {
    if (obs) obs->begin_phase("classify", faults.size());
    test_phase_sleep("classify");
    {
      const ObsSpan phase(obs, "classify");
      res.info = ChainFaultClassifier::classify_all_parallel(model, faults,
                                                             pool, obs);
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      switch (res.info[i].category) {
        case ChainFaultCategory::Easy:
          res.outcome[i] = FaultOutcome::EasyAlternating;
          ++res.easy;
          break;
        case ChainFaultCategory::Hard:
          res.outcome[i] = FaultOutcome::Undetected;  // until proven otherwise
          hard_idx.push_back(i);
          ++res.hard;
          break;
        default:
          break;
      }
    }
    res.classify_seconds = seconds_since(t0);
    res.classify_cpu_seconds = process_cpu_seconds() - cpu0;
    if (obs) obs->sample_rss("classify");
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "classify: %zu faults -> %zu easy, %zu hard (%.3fs)",
                    res.total_faults, res.easy, res.hard,
                    res.classify_seconds);
      obs->progress_line(pbuf);
    }
  } else {
    // Restored: res.info/res.outcome/easy/hard came from the checkpoint;
    // rebuild the hard-index list they imply.
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (res.info[i].category == ChainFaultCategory::Hard) {
        hard_idx.push_back(i);
      }
    }
  }

  ScanSequenceBuilder sb(nl, model.design());

  // Dominance layer: expansion table plus SCOAP excitation costs, shared by
  // the step-2 target ordering and the step-3 in-group ordering.  The table
  // is used to *order* targets, to decide which screening simulation runs
  // first, and — in the one sound direction — to transfer combinational
  // *untestability* proofs: tests(F_in) ⊆ tests(F_out) per vector, so an
  // empty test set for the dominating output fault empties every dominated
  // set too (`domsets`).  Detection credit is never transferred through the
  // table (unsound across multi-cycle sequential tests); every fault the
  // simulations miss and no proof covers still gets its own ATPG call.
  // All three artifacts are pure functions of (netlist, fault list), so a
  // resumed run rebuilds exactly the values the original run used (skipped
  // entirely when every phase that consumes them is already complete).
  std::shared_ptr<const DominanceInfo> dom;
  std::shared_ptr<const std::vector<std::vector<std::size_t>>> domsets_sp;
  std::shared_ptr<const std::vector<Cost>> fcost_sp;
  if (opt.dominance && !hard_idx.empty() && start <= PipelinePhase::S3Groups) {
    dom = std::make_shared<DominanceInfo>(collapse_dominant(nl, faults));
    domsets_sp = std::make_shared<std::vector<std::vector<std::size_t>>>(
        dominated_sets(nl, faults));
    std::vector<char> controllable(nl.size(), 0);
    for (NodeId pi : nl.inputs()) {
      controllable[pi] = !model.design().is_constrained(pi);
    }
    for (const ScanChain& c : model.design().chains) {
      for (NodeId ff : c.ffs) controllable[ff] = 1;
    }
    fcost_sp = std::make_shared<std::vector<Cost>>(
        fault_excitation_costs(lv, controllable, faults));
    if (start <= PipelinePhase::Classify) {
      std::size_t dominated = 0;
      for (std::size_t j : hard_idx) {
        if (dom->rep[j] == j) {
          ++res.dominance_targets;
        } else {
          ++dominated;
        }
      }
      if (obs && dominated) obs->add(Ctr::DominanceDropped, dominated);
      if (verbose) {
        std::snprintf(pbuf, sizeof pbuf,
                      "dominance: %zu targets represent %zu hard faults",
                      res.dominance_targets, res.hard);
        obs->progress_line(pbuf);
      }
    }
  }
  const std::vector<std::vector<std::size_t>> no_domsets;
  const std::vector<Cost> no_fcost;
  const std::vector<std::vector<std::size_t>>& domsets =
      domsets_sp ? *domsets_sp : no_domsets;
  const std::vector<Cost>& fcost = fcost_sp ? *fcost_sp : no_fcost;
  // Orders fault indices by representative (cheapest excitation first) so a
  // group's faults are contiguous.  Within a group the dominating (dropped)
  // output faults go *before* the representative: if the group is untestable
  // that is proven on the output fault first and propagates down the
  // dominance table, skipping the rest; if it is testable the screening
  // simulation of the first found vector still clears the whole group.
  auto dom_less = [&](std::size_t a, std::size_t b) {
    const std::size_t ra = dom->rep[a], rb = dom->rep[b];
    if (fcost[ra] != fcost[rb]) return fcost[ra] < fcost[rb];
    if (ra != rb) return ra < rb;
    if ((a == ra) != (b == rb)) return a != ra;
    return a < b;
  };
  safe_point(PipelinePhase::Step1);

  // ---- step 1: alternating flush (optional verification) -------------------
  if (start <= PipelinePhase::Step1 && opt.verify_easy && res.easy > 0) {
    if (obs) obs->begin_phase("step1.alternating", res.easy);
    t0 = std::chrono::steady_clock::now();
    cpu0 = process_cpu_seconds();
    const ObsSpan phase(obs, "step1.alternating");
    const std::size_t cycles = opt.alternating_cycles
                                   ? opt.alternating_cycles
                                   : 2 * maxlen + 8;
    std::vector<std::size_t> easy_idx;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (res.info[i].category == ChainFaultCategory::Easy) {
        easy_idx.push_back(i);
      }
    }
    const std::vector<char> det = phases.seq_detect(sb.alternating(cycles),
                                                   easy_idx);
    res.easy_verified = 0;
    for (char d : det) res.easy_verified += d != 0;
    if (obs) {
      obs->add(Ctr::AlternatingCycles, cycles);
      obs->add(Ctr::AlternatingDetected, res.easy_verified);
    }
    res.alternating_seconds = seconds_since(t0);
    res.alternating_cpu_seconds = process_cpu_seconds() - cpu0;
    if (obs) obs->sample_rss("step1.alternating");
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "step1: alternating flush verified %zu/%zu easy (%.3fs)",
                    res.easy_verified, res.easy, res.alternating_seconds);
      obs->progress_line(pbuf);
    }
  }
  safe_point(PipelinePhase::FlushCredit);

  // ---- step 2: combinational ATPG + sequential fault simulation ------------
  if (start <= PipelinePhase::S2Verify) {
    if (obs) obs->begin_phase("step2.atpg", res.hard);
    t0 = std::chrono::steady_clock::now();
    cpu0 = process_cpu_seconds();
    test_phase_sleep("s2");
  }
  std::vector<ScanVector>& vectors = res.vectors;

  // Flush-credit pre-pass: the alternating sequence heads every exported
  // program anyway, so any category-2 fault it happens to kill needs no
  // dedicated test.  Credit is simulation-earned (definite detection from
  // the all-X start, so it survives any program position); the category-2
  // classification itself is never overruled, only the targeting.
  if (start <= PipelinePhase::FlushCredit && opt.dominance &&
      !hard_idx.empty()) {
    const ObsSpan span(obs, "step2.flush_credit");
    // Credit against a *prefix* of the exported flush: a definite detection
    // within the first cycles of the alternating stream survives in the full
    // program (all-X start, monotone).  maxlen+8 cycles see every stream bit
    // traverse the longest chain once, which catches the vast majority of
    // flush-detectable faults at half the simulation cost; late detectors
    // simply stay on the ordinary step-2 path.
    const std::size_t exported =
        opt.alternating_cycles ? opt.alternating_cycles : 2 * maxlen + 8;
    const std::size_t cycles = std::min(exported, maxlen + 8);
    const std::vector<char> det = phases.seq_detect(sb.alternating(cycles),
                                                   hard_idx);
    for (std::size_t k = 0; k < hard_idx.size(); ++k) {
      if (det[k]) {
        res.outcome[hard_idx[k]] = FaultOutcome::DetectedFlush;
        ++res.flush_detected;
        if (obs) obs->charge(Attr::CreditEvents, hard_idx[k]);
      }
    }
    if (obs && res.flush_detected) {
      obs->add(Ctr::FlushCreditDetected, res.flush_detected);
    }
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "step2: flush credit dropped %zu/%zu hard faults",
                    res.flush_detected, res.hard);
      obs->progress_line(pbuf);
    }
  }
  safe_point(PipelinePhase::S2Podem);

  if (start <= PipelinePhase::S2Podem && !hard_idx.empty()) {
    const ObsSpan s2span(obs, "step2.atpg");
    UnrollSpec cspec;
    cspec.base = &lv;
    cspec.frames = 1;
    cspec.fixed_pis = model.design().pi_constraints;
    // Only scanned flip-flops are load/observe-able through the chains; in a
    // partial-scan design the rest stay uncontrolled (X) and unobserved.
    cspec.controllable_state.assign(nl.dffs().size(), 0);
    cspec.observable_ff.assign(nl.dffs().size(), 0);
    {
      std::vector<char> on_chain(nl.size(), 0);
      for (const ScanChain& c : model.design().chains) {
        for (NodeId ff : c.ffs) on_chain[ff] = 1;
      }
      for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
        cspec.controllable_state[i] = on_chain[nl.dffs()[i]];
        cspec.observable_ff[i] = on_chain[nl.dffs()[i]];
      }
    }
    cspec.observe_pos = true;
    UnrolledModel cm = unroll(cspec);
    AtpgOptions aopt;
    aopt.backtrack_limit = opt.comb_backtrack_limit;
    aopt.time_limit_ms = opt.comb_time_limit_ms;
    aopt.obs = obs;
    Podem podem(cm.circuit, cm.controllable, cm.observe, aopt);

    std::vector<NodeId> comb_observe = nl.outputs();
    for (NodeId ff : nl.dffs()) comb_observe.push_back(ff);
    CombFaultSim ppsfp(lv, comb_observe);

    const std::vector<Val> base_pi = sb.base_vector(Val::Zero);

    // Random-pattern warm-up: cheap coverage of the easy majority of f_hard
    // so deterministic PODEM only sees the stubborn tail.  A resume that is
    // already inside the PODEM loop (podem_next > 0) has the warm-up's
    // effects in comb_covered/vectors and must not repeat it; podem_next == 0
    // means no target completed yet, so the warm-up itself reruns.
    const bool mid_podem = podem_done > 0;
    if (opt.random_patterns > 0 && !mid_podem) {
      std::mt19937_64 rng(0xf5c7);
      std::vector<Fault> open;
      std::vector<std::size_t> open_idx;
      for (std::size_t j : hard_idx) {
        if (res.outcome[j] != FaultOutcome::Undetected) continue;
        open.push_back(faults[j]);
        open_idx.push_back(j);
      }
      std::vector<CombPattern> pats(
          static_cast<std::size_t>(opt.random_patterns));
      for (auto& pat : pats) {
        pat = base_pi;
        for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
          if (!model.design().is_constrained(nl.inputs()[i])) {
            pat[i] = (rng() & 1) ? Val::One : Val::Zero;
          }
        }
        pat.resize(nl.inputs().size() + nl.dffs().size());
        for (std::size_t i = nl.inputs().size(); i < pat.size(); ++i) {
          pat[i] = (rng() & 1) ? Val::One : Val::Zero;
        }
      }
      const CombFaultSimResult fr = ppsfp.run(pats, open, &pool, obs);
      std::vector<char> pattern_useful(pats.size(), 0);
      std::uint64_t warmup_covered = 0;
      for (std::size_t k = 0; k < open.size(); ++k) {
        if (fr.detect_pattern[k] >= 0) {
          comb_covered[open_idx[k]] = 1;
          ++warmup_covered;
          pattern_useful[static_cast<std::size_t>(fr.detect_pattern[k])] = 1;
        }
      }
      if (obs) obs->phase_tick(warmup_covered);
      for (std::size_t pi = 0; pi < pats.size(); ++pi) {
        if (!pattern_useful[pi]) continue;
        ScanVector v;
        v.pi_vals.assign(pats[pi].begin(),
                         pats[pi].begin() +
                             static_cast<std::ptrdiff_t>(nl.inputs().size()));
        v.ff_state.assign(pats[pi].begin() +
                              static_cast<std::ptrdiff_t>(nl.inputs().size()),
                          pats[pi].end());
        vectors.push_back(std::move(v));
      }
    }

    // Deterministic PODEM target order.  With dominance on, groups go
    // cheapest SCOAP excitation first; inside a group the dominating output
    // faults precede the representative, so an untestable group is proven so
    // once and the proof propagates, while a testable group's first vector
    // is PPSFP-screened against the rest before PODEM sees them.
    std::vector<std::size_t> podem_order = hard_idx;
    if (dom) std::sort(podem_order.begin(), podem_order.end(), dom_less);

    for (std::size_t ti = podem_done; ti < podem_order.size(); ++ti) {
      const std::size_t idx = podem_order[ti];
      if (!comb_covered[idx] &&
          res.outcome[idx] == FaultOutcome::Undetected) {
        if (obs) obs->phase_tick();
        const AtpgResult r = podem.generate(cm.map_fault(faults[idx]),
                                            static_cast<std::int64_t>(idx));
        if (r.status == AtpgStatus::Untestable) {
          res.outcome[idx] = FaultOutcome::Undetectable;
          ++res.s2_undetectable;
          // Untestability propagates down the dominance relation: every test
          // for a dominated input fault would also detect this output fault,
          // so an empty test set here proves theirs empty too (transitively).
          // Faults a simulation already covered keep their concrete verdict.
          if (!domsets.empty()) {
            std::uint64_t propagated = 0;
            std::vector<std::size_t> work = {idx};
            while (!work.empty()) {
              const std::size_t u = work.back();
              work.pop_back();
              for (std::size_t d : domsets[u]) {
                if (comb_covered[d]) continue;
                if (res.outcome[d] != FaultOutcome::Undetected) continue;
                res.outcome[d] = FaultOutcome::Undetectable;
                ++res.s2_undetectable;
                ++propagated;
                work.push_back(d);
              }
            }
            if (obs && propagated) {
              obs->add(Ctr::UntestablePropagated, propagated);
              obs->phase_tick(propagated);
            }
          }
        } else if (r.status == AtpgStatus::Detected) {
          ScanVector v;
          v.pi_vals = base_pi;
          v.ff_state.assign(nl.dffs().size(), Val::Zero);
          for (auto [node, val] : r.assignment) {
            for (std::size_t i = 0; i < cm.init_state.size(); ++i) {
              if (cm.init_state[i] == node) v.ff_state[i] = val;
            }
            const auto& fpi = cm.frame_pi[0];
            for (std::size_t i = 0; i < fpi.size(); ++i) {
              if (fpi[i] == node) v.pi_vals[i] = val;
            }
          }
          // Screen the new vector against all still-open hard faults (PPSFP)
          // so most faults never reach PODEM.
          std::vector<Fault> open;
          std::vector<std::size_t> open_idx;
          for (std::size_t j : hard_idx) {
            if (!comb_covered[j] &&
                res.outcome[j] == FaultOutcome::Undetected) {
              open.push_back(faults[j]);
              open_idx.push_back(j);
            }
          }
          CombPattern pat = v.pi_vals;
          pat.insert(pat.end(), v.ff_state.begin(), v.ff_state.end());
          const CombFaultSimResult fr =
              ppsfp.run(std::span(&pat, 1), open, &pool, obs);
          std::uint64_t screened = 0;
          for (std::size_t k = 0; k < open.size(); ++k) {
            if (fr.detect_pattern[k] >= 0) {
              comb_covered[open_idx[k]] = 1;
              ++screened;
            }
          }
          if (obs) obs->phase_tick(screened);
          vectors.push_back(std::move(v));
        }
        // Aborted targets fall through to step 3.
      }
      podem_done = ti + 1;
      safe_point(PipelinePhase::S2Podem);
    }
    res.s2_vectors = vectors.size();
  }
  safe_point(PipelinePhase::S2Verify);

  if (start <= PipelinePhase::S2Verify) {
    if (!hard_idx.empty()) {
      // Sequential verification: the converting chain may be broken by the
      // very fault under test, so detection only counts after sequential
      // fault simulation of the full scan sequence (also yields the Figure 5
      // curve).  The pool reports, per open fault, the first vector whose
      // scan sequence detects it — equivalent to the historical per-vector
      // loop — and the curve is rebuilt here by walking vectors in order.
      if (obs) obs->begin_phase("step2.seq_verify", vectors.size());
      const ObsSpan verify_span(obs, "step2.seq_verify");
      std::vector<std::size_t> open0;
      for (std::size_t j : hard_idx) {
        if (res.outcome[j] == FaultOutcome::Undetected) open0.push_back(j);
      }
      const std::vector<int> firstv = phases.s2_first_vec(vectors, open0);
      for (std::size_t vi = 0; vi < vectors.size(); ++vi) {
        if (obs) obs->phase_tick();
        for (std::size_t k = 0; k < open0.size(); ++k) {
          if (firstv[k] == static_cast<int>(vi)) {
            res.outcome[open0[k]] = FaultOutcome::DetectedComb;
            ++res.s2_detected;
          }
        }
        res.detection_curve.push_back(res.s2_detected);
      }
    }
    res.s2_undetected = res.hard - res.flush_detected - res.s2_detected -
                        res.s2_undetectable;
    res.s2_seconds = seconds_since(t0);
    res.s2_cpu_seconds = process_cpu_seconds() - cpu0;
    if (obs) obs->sample_rss("s2");
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "step2: %zu vectors, %zu detected, %zu undetectable, "
                    "%zu remaining (%.3fs)",
                    res.s2_vectors, res.s2_detected, res.s2_undetectable,
                    res.s2_undetected, res.s2_seconds);
      obs->progress_line(pbuf);
    }
  }
  safe_point(PipelinePhase::S3Groups);

  // ---- step 3: grouped sequential ATPG on reduced circuits -----------------
  if (start <= PipelinePhase::S3Final) {
    t0 = std::chrono::steady_clock::now();
    cpu0 = process_cpu_seconds();
    test_phase_sleep("s3");
  }

  if (start <= PipelinePhase::S3Groups) {
    // Step-3 outcomes are written only by the merge loop below, so the open
    // set here is the same whether this phase runs fresh or resumes.
    std::vector<std::size_t> remaining;
    for (std::size_t j : hard_idx) {
      if (res.outcome[j] == FaultOutcome::Undetected) remaining.push_back(j);
    }
    if (!remaining.empty()) {
      std::vector<FaultWindow> windows;
      windows.reserve(remaining.size());
      for (std::size_t j : remaining) {
        windows.push_back(make_fault_window(j, res.info[j]));
      }
      std::vector<AtpgGroup> groups = make_groups(windows, dist);
      if (dom) {
        // Front the cheap representatives inside each group: their verified
        // sequences ride-along-screen the expensive tail before it is ever
        // targeted.
        for (AtpgGroup& g : groups) {
          std::sort(g.fault_indices.begin(), g.fault_indices.end(), dom_less);
        }
      }

      // One work item per group, each with its own reduced model and PODEM
      // state.  Items fill their slot of `done`; the merge below walks groups
      // (and faults within a group) in order, so counters and the
      // s3_sequences order are exactly the serial ones regardless of
      // completion order.
      std::vector<GroupOutcome> done;
      {
        if (obs) obs->begin_phase("step3.groups", groups.size());
        const ObsSpan phase(obs, "step3.groups");
        done = phases.run_groups(groups);
      }
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        ++res.s3_circuits_group;
        if (obs) {
          obs->add(Ctr::S3Groups);
          obs->observe(Hist::S3GroupSize, groups[gi].fault_indices.size());
        }
        res.s3_unverified += done[gi].unverified;
        for (std::size_t k = 0; k < done[gi].detected.size(); ++k) {
          const std::size_t j = done[gi].detected[k];
          res.outcome[j] = FaultOutcome::DetectedSeq;
          ++res.s3_detected;
          res.s3_sequences.push_back(std::move(done[gi].seqs[k]));
          res.s3_sequence_fault.push_back(j);
        }
        for (std::size_t j : done[gi].credited) {
          res.outcome[j] = FaultOutcome::DetectedSeq;
          ++res.s3_detected;
          ++res.ledger_dropped;
        }
        if (obs && !done[gi].credited.empty()) {
          obs->add(Ctr::DroppedByLedger, done[gi].credited.size());
        }
      }
    }
  }
  safe_point(PipelinePhase::S3Ledger);

  // Cross-group ledger pass: every step-3 sequence ends up in the exported
  // program, so one packed simulation of their concatenation against the
  // still-open faults credits detections across group boundaries (the
  // verdict is established from the all-X start, hence valid in any program
  // position).  Credited faults skip the expensive final individual models.
  if (start <= PipelinePhase::S3Ledger && opt.dominance &&
      !res.s3_sequences.empty()) {
    std::vector<std::size_t> open_idx;
    for (std::size_t j : hard_idx) {
      if (res.outcome[j] == FaultOutcome::Undetected) open_idx.push_back(j);
    }
    if (!open_idx.empty()) {
      const ObsSpan span(obs, "step3.ledger");
      TestSequence all;
      for (const TestSequence& s : res.s3_sequences) {
        all.insert(all.end(), s.begin(), s.end());
      }
      const std::vector<char> det = phases.seq_detect(all, open_idx);
      std::size_t credited = 0;
      for (std::size_t k = 0; k < open_idx.size(); ++k) {
        if (det[k]) {
          res.outcome[open_idx[k]] = FaultOutcome::DetectedSeq;
          ++res.s3_detected;
          ++credited;
          if (obs) obs->charge(Attr::CreditEvents, open_idx[k]);
        }
      }
      res.ledger_dropped += credited;
      if (obs && credited) obs->add(Ctr::DroppedByLedger, credited);
      if (verbose && credited) {
        std::snprintf(pbuf, sizeof pbuf,
                      "step3: ledger credited %zu cross-group detections",
                      credited);
        obs->progress_line(pbuf);
      }
    }
  }
  safe_point(PipelinePhase::S3Final);

  // Final faults: individual maximal-window models, bigger budget.  One work
  // item per final fault; merged in `final_idx` order (identical to the
  // serial loop).  FinalOutcomes arrive verification-included.
  if (start <= PipelinePhase::S3Final) {
    std::vector<std::size_t> final_idx;
    for (std::size_t j : hard_idx) {
      if (res.outcome[j] == FaultOutcome::Undetected) final_idx.push_back(j);
    }
    std::vector<std::vector<ChainWindow>> fwin;
    fwin.reserve(final_idx.size());
    for (std::size_t j : final_idx) {
      fwin.push_back(make_fault_window(j, res.info[j]).chains);
    }
    std::vector<FinalOutcome> fdone;
    {
      if (obs) obs->begin_phase("step3.final", final_idx.size());
      const ObsSpan phase(obs, "step3.final");
      fdone = phases.run_finals(final_idx, fwin);
    }
    for (std::size_t k = 0; k < final_idx.size(); ++k) {
      const std::size_t j = final_idx[k];
      ++res.s3_circuits_final;
      if (obs) obs->add(Ctr::S3FinalFaults);
      switch (fdone[k].verdict) {
        case FinalVerdict::Detected:
          res.outcome[j] = FaultOutcome::DetectedFinal;
          ++res.s3_detected;
          res.s3_sequences.push_back(std::move(fdone[k].seq));
          res.s3_sequence_fault.push_back(j);
          break;
        case FinalVerdict::Unverified:
          ++res.s3_unverified;
          ++res.s3_undetected;  // in-model only; no silicon reproduction
          break;
        case FinalVerdict::Untestable:
          res.outcome[j] = FaultOutcome::Undetectable;
          ++res.s3_undetectable;
          break;
        case FinalVerdict::Aborted:
        case FinalVerdict::NoSites:
          ++res.s3_undetected;
          break;
      }
    }
    res.s3_seconds = seconds_since(t0);
    res.s3_cpu_seconds = process_cpu_seconds() - cpu0;
    if (obs) obs->sample_rss("s3");
    if (verbose) {
      std::snprintf(pbuf, sizeof pbuf,
                    "step3: %zu group + %zu final models, %zu detected, "
                    "%zu undetectable, %zu undetected (%.3fs)",
                    res.s3_circuits_group, res.s3_circuits_final,
                    res.s3_detected, res.s3_undetectable, res.s3_undetected,
                    res.s3_seconds);
      obs->progress_line(pbuf);
    }
  }
  safe_point(PipelinePhase::Done);
  if (obs) {
    obs->capture_pool(pool);
    obs->end_phase();
  }
  return res;
}

}  // namespace fsct
