// Checkpoint/resume of the in-process pipeline (core/checkpoint.h,
// DESIGN.md §5j), held to its contracts:
//
//   format      — fsct-ckpt-v1 round-trips, and truncated / corrupt /
//                 foreign files are refused with line-anchored errors,
//   binding     — the hash covers exactly the options that change results,
//   resume      — a run stopped at ANY safe point resumes to the bitwise
//                 uninterrupted result, counters and histograms included,
//                 at jobs 1 and 4 (the every-safe-point sweep),
//   crash       — an `fsct test --checkpoint` process SIGKILLed mid-run
//                 leaves a checkpoint that `--resume` finishes to the
//                 byte-identical normalized report,
//   fuzz        — oracle O8 (`resume`) agrees on random circuits.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/generator.h"
#include "bench_circuits/suite.h"
#include "core/checkpoint.h"
#include "core/json.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "core/selfcheck.h"
#include "scan/tpi.h"

extern char** environ;

namespace fsct {
namespace {

// A compiled circuit whose members never move: the Levelizer and the model
// hold references into the netlist, so the world lives on the heap.
struct World {
  Netlist nl;
  ScanDesign design;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<ScanModeModel> model;
  std::vector<Fault> faults;
};

std::unique_ptr<World> compile_world(Netlist nl, int chains) {
  auto w = std::make_unique<World>();
  w->nl = std::move(nl);
  TpiOptions topt;
  topt.num_chains = chains;
  w->design = run_tpi(w->nl, topt);
  w->lv = std::make_unique<Levelizer>(w->nl);
  w->model = std::make_unique<ScanModeModel>(*w->lv, w->design);
  w->faults = collapsed_fault_list(w->nl);
  return w;
}

std::unique_ptr<World> small_world(std::uint64_t seed) {
  RandomCircuitSpec spec;
  spec.num_gates = 50;
  spec.num_ffs = 4;
  spec.num_pis = 6;
  spec.num_pos = 4;
  spec.seed = seed;
  return compile_world(make_random_sequential(spec), 1);
}

// s1494 exercises every phase in a few milliseconds: flush credit, PODEM
// targets, step-2 vectors, and step-3 group and final models.
std::unique_ptr<World> s1494_world() {
  const SuiteEntry& e = suite_entry("s1494");
  return compile_world(build_suite_circuit(e), e.chains);
}

// Wall-clock ATPG budgets are the one nondeterministic input; every
// determinism assertion in this file runs with them disabled.
PipelineOptions base_opt(int jobs) {
  PipelineOptions opt;
  opt.comb_time_limit_ms = 0;
  opt.seq_time_limit_ms = 0;
  opt.final_time_limit_ms = 0;
  opt.verify_easy = true;
  opt.jobs = jobs;
  return opt;
}

std::string ckpt_path(const char* leaf) {
  return (std::filesystem::path(::testing::TempDir()) / leaf).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- checkpoint format -----------------------------------------------------

CheckpointData sample_checkpoint() {
  CheckpointData d;
  d.hash = 0xdeadbeefcafef00dull;
  d.resume.phase = PipelinePhase::S3Groups;
  d.resume.podem_next = 2;
  PipelineResult& r = d.resume.partial;
  r.total_faults = 3;
  r.easy = 1;
  r.hard = 2;
  r.outcome = {FaultOutcome::EasyAlternating, FaultOutcome::NotAffecting,
               FaultOutcome::DetectedComb};
  r.info.resize(3);
  r.info[0].category = ChainFaultCategory::Easy;
  r.info[0].locations.push_back(ChainLocation{0, 1});
  r.info[2].category = ChainFaultCategory::Hard;
  r.info[2].multi_chain = true;
  r.info[2].locations.push_back(ChainLocation{0, 2});
  r.info[2].locations.push_back(ChainLocation{1, 0});
  r.vectors.push_back(ScanVector{{Val::One, Val::Zero}, {Val::X, Val::One}});
  r.detection_curve = {1};
  r.s3_sequences.push_back(TestSequence{{Val::One, Val::X}});
  r.s3_sequence_fault = {2};
  d.counters.emplace_back("fsct_classify_faults_total", 3);
  CheckpointData::HistState hs;
  hs.name = "fsct_podem_backtracks";
  hs.sum = 12;
  hs.buckets = {1, 0, 2};
  d.hists.push_back(std::move(hs));
  d.attr.push_back(CheckpointData::AttrCell{2, "podem_backtracks", 7});
  return d;
}

TEST(Checkpoint, RoundTrips) {
  const CheckpointData a = sample_checkpoint();
  const std::string text = serialize_checkpoint(a);
  const CheckpointData b = parse_checkpoint(text, "mem");
  EXPECT_EQ(serialize_checkpoint(b), text);
  EXPECT_EQ(b.hash, a.hash);
  EXPECT_EQ(b.resume.phase, PipelinePhase::S3Groups);
  EXPECT_EQ(b.resume.podem_next, 2u);
  EXPECT_EQ(b.resume.partial.outcome, a.resume.partial.outcome);
  EXPECT_EQ(b.resume.partial.vectors, a.resume.partial.vectors);
  EXPECT_EQ(b.resume.partial.s3_sequences, a.resume.partial.s3_sequences);
  EXPECT_EQ(b.counters, a.counters);

  // And the on-disk writer is atomic + re-readable.
  const std::string path = ckpt_path("roundtrip.ckpt");
  write_checkpoint_atomic(path, a);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(serialize_checkpoint(read_checkpoint(path)), text);
}

std::string parse_error(const std::string& text) {
  try {
    parse_checkpoint(text, "ckpt");
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(Checkpoint, RejectsTamperedFiles) {
  const std::string good = serialize_checkpoint(sample_checkpoint());
  ASSERT_EQ(parse_error(good), "");
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < good.size();) {
    const std::size_t nl = good.find('\n', pos);
    lines.push_back(good.substr(pos, nl - pos));
    pos = nl + 1;
  }
  const auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l + "\n";
    return out;
  };
  const auto without = [&](std::size_t from, std::size_t to) {
    std::vector<std::string> kept;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i < from || i >= to) kept.push_back(lines[i]);
    }
    return join(kept);
  };

  // Truncated: sentinel gone.
  EXPECT_NE(parse_error(without(lines.size() - 1, lines.size()))
                .find("truncated: missing end sentinel"),
            std::string::npos);
  // Truncated: a whole section line missing — the sentinel count catches it,
  // naming the file and the sentinel's line.
  {
    const std::string e = parse_error(without(4, 5));
    EXPECT_NE(e.find("end sentinel expects"), std::string::npos) << e;
    EXPECT_NE(e.find("ckpt: line"), std::string::npos) << e;
  }
  // Corrupt JSON mid-file: the error is anchored to that line.
  {
    std::vector<std::string> bad = lines;
    bad[2] = "{\"section\":\"info\",\"data\":[[";
    const std::string e = parse_error(join(bad));
    EXPECT_NE(e.find("ckpt: line 3:"), std::string::npos) << e;
  }
  // Bad outcome digit, anchored to the outcome line.
  {
    std::vector<std::string> bad = lines;
    const std::size_t at = bad[1].find("\"data\":\"");
    bad[1][at + 8] = '9';
    const std::string e = parse_error(join(bad));
    EXPECT_NE(e.find("ckpt: line 2: bad outcome digit"), std::string::npos)
        << e;
  }
  // Per-item step-3 records (written by the retired multi-process runner)
  // are refused on their own line, not silently dropped.
  {
    std::vector<std::string> old = lines;
    old.insert(old.end() - 1,
               "{\"section\":\"group\",\"gi\":0,\"detected\":[],"
               "\"credited\":[],\"unverified\":0,\"seqs\":[]}");
    const std::string e = parse_error(join(old));
    EXPECT_NE(e.find("ckpt: line 11: unsupported step-3 \"group\" record"),
              std::string::npos)
        << e;
  }
  // Wrong schema.
  {
    std::string text = good;
    const std::size_t at = text.find("fsct-ckpt-v1");
    text.replace(at, 12, "fsct-ckpt-v9");
    EXPECT_NE(parse_error(text).find("ckpt: line 1: unsupported checkpoint "
                                     "schema"),
              std::string::npos);
  }
  // Content after the sentinel.
  EXPECT_NE(parse_error(good + lines[1] + "\n")
                .find("content after end sentinel"),
            std::string::npos);
  // Empty file.
  EXPECT_NE(parse_error("").find("empty checkpoint"), std::string::npos);
}

TEST(Checkpoint, ResumeRefusesForeignCheckpoints) {
  const std::unique_ptr<World> w1 = small_world(101);
  const std::unique_ptr<World> w2 = small_world(202);
  const std::string ck = ckpt_path("foreign.ckpt");
  const PipelineOptions opt = base_opt(1);

  CheckpointOptions stop;
  stop.checkpoint_path = ck;
  stop.stop_after_safepoints = 2;
  EXPECT_THROW(run_checkpointed_pipeline(*w1->model, w1->faults, opt, stop),
               PipelineStopped);

  // A different circuit refuses the checkpoint, pointing at its header...
  CheckpointOptions ro;
  ro.resume_path = ck;
  try {
    run_checkpointed_pipeline(*w2->model, w2->faults, opt, ro);
    ADD_FAILURE() << "resume accepted a foreign checkpoint";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(ck + ": line 1: "),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("binding hash mismatch"),
              std::string::npos)
        << e.what();
  }
  // ...and so does the same circuit under a result-affecting option change.
  PipelineOptions changed = base_opt(1);
  changed.random_patterns += 1;
  EXPECT_THROW(run_checkpointed_pipeline(*w1->model, w1->faults, changed, ro),
               CheckpointError);
  // Execution knobs are NOT binding: a resume at a different job count runs.
  const PipelineResult resumed =
      run_checkpointed_pipeline(*w1->model, w1->faults, base_opt(4), ro);
  const PipelineResult fresh =
      run_fsct_pipeline(*w1->model, w1->faults, base_opt(1));
  EXPECT_EQ(diff_pipeline_results(fresh, resumed), "");
}

TEST(Checkpoint, BindingHashCoversResultAffectingOptionsOnly) {
  const std::unique_ptr<World> w = small_world(7);
  const PipelineOptions a = base_opt(1);
  PipelineOptions b = base_opt(4);
  b.simd_width = 256;
  EXPECT_EQ(checkpoint_binding_hash(*w->model, w->faults, a),
            checkpoint_binding_hash(*w->model, w->faults, b));
  PipelineOptions c = base_opt(1);
  c.random_patterns = 7;
  EXPECT_NE(checkpoint_binding_hash(*w->model, w->faults, a),
            checkpoint_binding_hash(*w->model, w->faults, c));
  PipelineOptions d = base_opt(1);
  d.dominance = false;
  EXPECT_NE(checkpoint_binding_hash(*w->model, w->faults, a),
            checkpoint_binding_hash(*w->model, w->faults, d));
  PipelineOptions e = base_opt(1);
  e.verify_easy = false;
  EXPECT_NE(checkpoint_binding_hash(*w->model, w->faults, a),
            checkpoint_binding_hash(*w->model, w->faults, e));
}

// ---- resume-from-every-safe-point sweep ------------------------------------
// Stop cooperatively at safe point k for every k until the run completes
// uninterrupted; each stop's checkpoint must round-trip the text format and
// resume to the bitwise uninterrupted result, with every counter and
// histogram total the uninterrupted run recorded.

void sweep(int jobs) {
  const std::unique_ptr<World> w = s1494_world();
  PipelineOptions opt = base_opt(jobs);
  ObsRegistry base_reg;
  opt.obs = &base_reg;
  const PipelineResult baseline = run_fsct_pipeline(*w->model, w->faults, opt);
  ASSERT_GT(baseline.s3_circuits_group, 0u);
  ASSERT_GT(baseline.s3_circuits_final, 0u);
  const std::string want_counters = base_reg.counters_json();
  const std::string ck = ckpt_path("sweep.ckpt");

  int completed_at = -1;
  for (int k = 1; k < 10000; ++k) {
    CheckpointOptions stop;
    stop.checkpoint_path = ck;
    stop.stop_after_safepoints = k;
    ObsRegistry stop_reg;
    opt.obs = &stop_reg;
    try {
      const PipelineResult r =
          run_checkpointed_pipeline(*w->model, w->faults, opt, stop);
      EXPECT_EQ(diff_pipeline_results(baseline, r), "")
          << "uninterrupted checkpointed run differs (k=" << k << ")";
      completed_at = k;
      break;
    } catch (const PipelineStopped&) {
    }
    const std::string text = serialize_checkpoint(read_checkpoint(ck));
    EXPECT_EQ(serialize_checkpoint(parse_checkpoint(text, "mem")), text)
        << "checkpoint at safe point " << k << " does not round-trip";

    CheckpointOptions ro;
    ro.resume_path = ck;
    ObsRegistry resume_reg;
    opt.obs = &resume_reg;
    const PipelineResult resumed =
        run_checkpointed_pipeline(*w->model, w->faults, opt, ro);
    EXPECT_EQ(diff_pipeline_results(baseline, resumed), "")
        << "resume from safe point " << k << " diverges (jobs=" << jobs << ")";
    EXPECT_EQ(resume_reg.counters_json(), want_counters)
        << "resume from safe point " << k
        << " restores different counter/histogram totals (jobs=" << jobs
        << ")";
  }
  // The loop must terminate by running out of safe points: 8 phase
  // boundaries plus one per PODEM target (every hard fault).
  EXPECT_EQ(completed_at, static_cast<int>(9 + baseline.hard));
}

TEST(Checkpoint, ResumeFromEverySafePointSweep) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    sweep(jobs);
  }
}

// ---- fuzz oracle O8 --------------------------------------------------------

TEST(Checkpoint, ResumeOracleFuzzFindsNoDisagreements) {
  FuzzOptions fo;
  fo.seed = 20260808;
  fo.iterations = 12;
  fo.oracles = kOracleResume;
  fo.jobs = 2;
  fo.max_gates = 40;
  fo.max_ffs = 5;
  fo.parser_stress = false;
  fo.shrink = false;  // a failure here is reported, not minimized
  const FuzzReport rep = run_fuzz(fo);
  EXPECT_GT(rep.oracle_runs[7], 0u);
  for (const FuzzFailure& f : rep.failures) {
    ADD_FAILURE() << "iteration " << f.iteration << ": " << f.diagnostic
                  << "\nrepro: " << f.repro;
  }
}

// ---- crash injection -------------------------------------------------------
// A real `fsct test --checkpoint` process, SIGKILLed while it sleeps inside
// step 3 (a test-only phase sleep widens the window), leaves its last
// checkpoint on disk; `--resume` from it must finish with the normalized
// report of an uninterrupted run.

pid_t spawn_fsct(const std::vector<std::string>& args, const std::string& log,
                 const char* extra_env) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) env.emplace_back(*e);
  if (extra_env != nullptr) env.emplace_back(extra_env);
  std::vector<char*> argv = {const_cast<char*>(FSCT_CLI_PATH)};
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::FILE* f = std::freopen(log.c_str(), "w", stdout);
    if (f != nullptr) ::dup2(::fileno(stdout), 2);
    ::execve(FSCT_CLI_PATH, argv.data(), envp.data());
    ::_exit(127);
  }
  return pid;
}

int wait_exit(pid_t pid) {
  int st = 0;
  ::waitpid(pid, &st, 0);
  return WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
}

TEST(Checkpoint, SigkilledRunResumesToIdenticalReport) {
  const std::string dir = ckpt_path("crash");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string ck = dir + "/run.ckpt";
  const std::string log = dir + "/fsct.log";

  // `fsct test` exits 1 when faults stay undetected; both are results.
  const int ref_rc = wait_exit(spawn_fsct(
      {"test", "s1494", "--jobs", "2", "--metrics", dir + "/ref.json"}, log,
      nullptr));
  ASSERT_TRUE(ref_rc == 0 || ref_rc == 1) << read_file(log);

  const pid_t victim = spawn_fsct(
      {"test", "s1494", "--jobs", "2", "--checkpoint", ck, "--metrics",
       dir + "/killed.json"},
      log, "FSCT_TEST_PHASE_SLEEP=s3:30000");
  ASSERT_GT(victim, 0);
  // The step-3 checkpoint lands just before the phase sleep; kill then.
  bool in_step3 = false;
  for (int i = 0; i < 1200 && !in_step3; ++i) {
    std::ifstream in(ck);
    std::string head;
    std::getline(in, head);
    in_step3 = head.find("\"phase\":\"s3.groups\"") != std::string::npos;
    if (!in_step3) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::kill(victim, SIGKILL);
  EXPECT_EQ(wait_exit(victim), 128 + SIGKILL);
  ASSERT_TRUE(in_step3) << "no step-3 checkpoint appeared: " << read_file(log);
  EXPECT_FALSE(std::filesystem::exists(dir + "/killed.json"));

  const int resume_rc = wait_exit(spawn_fsct(
      {"test", "s1494", "--jobs", "2", "--resume", ck, "--metrics",
       dir + "/resumed.json"},
      log, nullptr));
  EXPECT_EQ(resume_rc, ref_rc) << read_file(log);
  EXPECT_EQ(normalized_report(read_file(dir + "/resumed.json")),
            normalized_report(read_file(dir + "/ref.json")));
}

}  // namespace
}  // namespace fsct
