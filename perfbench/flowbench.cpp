// flowbench — times fsct's user flow, `fsct test <file.bench> --chains K
// -o prog.fsct`, in-process and layer by layer.
//
//   flowbench --workload NAME [--seed N] [--input-seed N] [--seconds S]
//             [--trace 0|1] [--work DIR]
//       Generates the workload's .bench files from the input seed (untimed),
//       then runs the flow over all of them repeatedly for about S seconds
//       and prints one metric per line followed by a one-line JSON result.
//       --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
//       ones (untraced and traced passes alternate; the difference is the
//       tracing overhead).  Exit 1 when a circuit fails
//       the correctness gate, 2 on a usage error.
//
//   flowbench flow <file.bench> --chains K -o <prog.fsct>
//       One in-process flow on an existing file, for comparing the written
//       program with the one `fsct test <file.bench> --chains K -o` writes.
//
//   flowbench inputs --workload NAME [--input-seed N] --work DIR
//       Writes the workload's .bench files and lists them, one
//       "<path> <chains>" per line.
//
// The flow makes the library calls `fsct test` makes, in its order:
// read_bench_file, run_tpi, Levelizer, ScanModeModel + check(),
// collapsed_fault_list, run_fsct_pipeline (verify_easy, jobs 4, defaults
// otherwise), make_chain_test_program, write_test_program + write_bench.
// Each call is timed from outside.  The correctness gate (model check,
// outcome tallies, replay of the written files fault-free and with a
// seeded sample of claimed detections) runs outside the timed window.
#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_circuits/generator.h"
#include "bench_circuits/suite.h"
#include "core/bench_harness.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "core/test_export.h"
#include "fault/fault.h"
#include "netlist/bench_io.h"
#include "netlist/levelize.h"
#include "scan/scan_mode_model.h"
#include "scan/tpi.h"

namespace {

using namespace fsct;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Executors for every workload: the CLI default (one per hardware thread)
/// on the 4-core machine the baseline was recorded on, fixed so that runs on
/// other hosts stay comparable.
constexpr int kJobs = 4;

// ---------------------------------------------------------------- workloads

/// One input circuit: the paper suite's stand-in for `shape` when `seed` is
/// empty, else a random circuit of that shape's size drawn from `seed`.
struct CircuitSpec {
  std::string shape;
  std::optional<std::uint64_t> seed;

  std::string name() const {
    return seed ? shape + "_" + std::to_string(*seed) : shape;
  }
  Netlist build() const {
    const SuiteEntry& e = suite_entry(shape);
    if (!seed) return build_suite_circuit(e);
    RandomCircuitSpec spec;
    spec.name = name();
    spec.num_pis = e.pis;
    spec.num_pos = e.pos;
    spec.num_ffs = e.ffs;
    spec.num_gates = e.gates;
    spec.seed = *seed;
    return make_random_sequential(spec);
  }
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of the k-th derived circuit of an input seed.
std::uint64_t derived_seed(std::uint64_t input_seed, std::uint64_t k) {
  return splitmix64(input_seed * 0x100000001b3ULL + k);
}

struct Workload {
  const char* name;
  /// Replayed claimed detections per circuit in the correctness gate.
  std::size_t gate_sample;
};

// large-chip: the suite's s13207 stand-in (7,951 gates, 638 FFs, 5 chains),
//   the circuit `fsct test s13207 --chains 5` screens.  Export and packed
//   simulation carry its flow, PODEM little.
// atpg-tail: two circuits each of the s1423, s4863 and s5378 shapes, the
//   suite instance and a derived one; step-3 sequential ATPG carries 60-98%
//   of every flow, including the suite instances' known hard faults.
// many-small: 300 derived s1488/s1494-shaped circuits (6 FFs, ~650 gates);
//   per-circuit fixed costs set the median latency and a few PODEM tails the
//   p95.
//
// The circuits come from the input seed, which is fixed (1) unless
// --input-seed names another: random circuits of one shape differ by up to
// 3x in flow time (s13207 shape: 5.4-16.0 s; 300 small ones: 6.5-10.8 s),
// so runs on different circuits would not be comparable.  The run seed
// (--seed) chooses the claimed detections the correctness gate replays; a
// held-out input seed re-checks a claim on circuits not used to make it.
constexpr std::uint64_t kInputSeed = 1;

const Workload kWorkloads[] = {
    {"large-chip", 1},
    {"atpg-tail", 2},
    {"many-small", 3},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (large-chip, atpg-tail, many-small)");
}

std::vector<CircuitSpec> workload_circuits(const Workload& w,
                                           std::uint64_t input_seed) {
  std::vector<CircuitSpec> out;
  const std::string wn = w.name;
  if (wn == "large-chip") {
    if (input_seed == kInputSeed) {
      out.push_back({"s13207", std::nullopt});
    } else {
      out.push_back({"s13207", derived_seed(input_seed, 0)});
    }
  } else if (wn == "atpg-tail") {
    std::uint64_t k = 0;
    for (const char* shape : {"s1423", "s4863", "s5378"}) {
      out.push_back({shape, std::nullopt});
      out.push_back({shape, derived_seed(input_seed, k++)});
    }
  } else {  // many-small
    for (std::uint64_t i = 0; i < 300; ++i) {
      out.push_back({i % 2 ? "s1494" : "s1488", derived_seed(input_seed, i)});
    }
  }
  return out;
}

struct InputFile {
  std::string name;
  std::string bench;  ///< input .bench path
  std::string out;    ///< program path; the netlist goes to out + ".bench"
  int chains = 1;
};

std::vector<InputFile> write_inputs(const Workload& w,
                                    std::uint64_t input_seed,
                                    const fs::path& dir) {
  fs::create_directories(dir / "in");
  fs::create_directories(dir / "out");
  std::vector<InputFile> files;
  for (const CircuitSpec& c : workload_circuits(w, input_seed)) {
    InputFile f;
    f.name = c.name();
    f.bench = (dir / "in" / (f.name + ".bench")).string();
    f.out = (dir / "out" / (f.name + ".fsct")).string();
    f.chains = suite_entry(c.shape).chains;
    std::ofstream os(f.bench);
    write_bench(os, c.build());
    os.close();
    if (!os) throw std::runtime_error("cannot write " + f.bench);
    files.push_back(std::move(f));
  }
  return files;
}

// ---------------------------------------------------------------- the flow

/// Top-level layer spans around the calls of one flow, in call order.
enum Layer {
  kParse,
  kTpi,
  kLevelize,
  kModel,
  kCollapse,
  kPipeline,
  kExportBuild,
  kExportWrite,
  kNumLayers,
};
constexpr const char* kLayerSpan[kNumLayers] = {
    "netlist.parse",  "scan.tpi",       "netlist.levelize", "scan.model",
    "fault.collapse", "core.pipeline",  "export.build",     "export.write"};
constexpr int kSetupLayers[] = {kParse, kTpi, kLevelize, kModel, kCollapse};
/// The spans run_fsct_pipeline records on the calling thread's track when
/// its registry traces (phases, and the tasks that thread runs itself).
constexpr const char* kPipelineSpans[] = {
    "classify",         "classify.chunk",   "step1.alternating",
    "seqsim.pass",      "step2.flush_credit", "step2.atpg",
    "ppsfp.run",        "ppsfp.chunk",      "step2.seq_verify",
    "step3.groups",     "s3.group",         "step3.ledger",
    "step3.final",      "s3.final",         "step3.final_verify"};

struct Span {
  std::string name;
  int circuit = 0;
  double t0 = 0, t1 = 0;  ///< seconds since the benchmark's epoch
};

const Clock::time_point g_epoch = Clock::now();
double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// Everything one flow over one circuit produced and measured.
struct FlowRun {
  std::string error;  ///< empty = the flow and the gate passed
  double layer[kNumLayers] = {};
  double wall = 0, cpu = 0;
  double gate_s = 0;
  std::size_t cycles = 0, bytes = 0, undetected = 0;
  std::size_t collapsed = 0;
  TpiStats tpi;
  PipelineResult r;
  std::uint64_t digest = 0;
  /// Traced runs only: the pipeline's registry.
  std::unique_ptr<ObsRegistry> reg;
  /// The calling thread's spans in the benchmark's time base: the gate's,
  /// and in traced runs the layer and pipeline spans.
  std::vector<Span> spans;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bool claimed_detection(FaultOutcome o, bool easy_verified) {
  switch (o) {
    case FaultOutcome::EasyAlternating:
      return easy_verified;
    case FaultOutcome::DetectedFlush:
    case FaultOutcome::DetectedComb:
    case FaultOutcome::DetectedSeq:
    case FaultOutcome::DetectedFinal:
      return true;
    default:
      return false;
  }
}

/// The correctness gate of one flow; returns the first failure, or "".
std::string gate(const Netlist& nl, const std::vector<Fault>& faults,
                 const PipelineResult& r, const std::string& out,
                 std::size_t sample, std::uint64_t sample_seed) {
  std::array<std::size_t, 8> n{};
  for (FaultOutcome o : r.outcome) ++n[static_cast<std::size_t>(o)];
  auto count = [&](FaultOutcome o) { return n[static_cast<std::size_t>(o)]; };
  const std::size_t tally =
      (r.total_faults - r.affecting()) + r.easy + r.flush_detected +
      r.s2_detected + r.s2_undetectable + r.s3_detected + r.s3_undetectable +
      r.s3_undetected;
  if (r.outcome.size() != r.total_faults || tally != r.total_faults ||
      count(FaultOutcome::NotAffecting) != r.total_faults - r.affecting() ||
      count(FaultOutcome::EasyAlternating) != r.easy ||
      count(FaultOutcome::DetectedFlush) != r.flush_detected ||
      count(FaultOutcome::DetectedComb) != r.s2_detected ||
      count(FaultOutcome::DetectedSeq) + count(FaultOutcome::DetectedFinal) !=
          r.s3_detected ||
      count(FaultOutcome::Undetectable) !=
          r.s2_undetectable + r.s3_undetectable ||
      count(FaultOutcome::Undetected) != r.s3_undetected) {
    return "outcome tallies do not sum to total_faults";
  }

  std::ifstream is(out);
  if (!is) return "cannot read " + out;
  const TestProgram p = read_test_program(is);
  const Netlist dev = read_bench_file(out + ".bench");
  const Levelizer lv(dev);
  if (const std::size_t m = run_test_program(lv, p); m != 0) {
    return std::to_string(m) + " mismatches on the fault-free device";
  }

  const bool easy_ok = r.easy_verified == r.easy;
  std::vector<std::size_t> claimed;
  for (std::size_t i = 0; i < r.outcome.size(); ++i) {
    if (claimed_detection(r.outcome[i], easy_ok)) claimed.push_back(i);
  }
  std::mt19937_64 rng(sample_seed);
  std::shuffle(claimed.begin(), claimed.end(), rng);
  claimed.resize(std::min(claimed.size(), sample));
  for (std::size_t i : claimed) {
    const Fault& f = faults[i];
    Fault g{dev.find(nl.node_name(f.node)), f.pin, f.stuck_one};
    if (g.node == kNullNode ||
        (f.pin >= 0 &&
         dev.node_name(dev.fanins(g.node)[static_cast<std::size_t>(f.pin)]) !=
             nl.node_name(nl.fanins(f.node)[static_cast<std::size_t>(f.pin)]))) {
      return "fault " + fault_name(nl, f) + " not found in the written netlist";
    }
    if (run_test_program(lv, p, &g) == 0) {
      return "claimed detection " + fault_name(nl, f) +
             " replays with 0 mismatches";
    }
  }
  return "";
}

struct FlowOptions {
  bool traced = false;
  bool gate = false;           ///< run the correctness gate
  /// Skips the gate when the flow reproduces this digest, which an earlier
  /// pass already gated (0 = none).
  std::uint64_t gated_digest = 0;
  std::size_t gate_sample = 0;
  std::uint64_t gate_seed = 0;
  int circuit = 0;             ///< span id
};

/// Runs the flow on one input file; never throws.
FlowRun run_flow(const InputFile& in, const FlowOptions& fo) {
  FlowRun run;
  double bench_minus_reg = 0;
  if (fo.traced) {
    run.reg = std::make_unique<ObsRegistry>();
    run.reg->enable_trace(true);
    bench_minus_reg = now_s() - run.reg->now_us() * 1e-6;
  }
  // Times one call as layer `l`; glue code between calls stays outside
  // every span and shows as unattributed flow time.
  auto timed = [&](Layer l, auto&& call) {
    const double t0 = now_s();
    call();
    const double t1 = now_s();
    run.layer[l] = t1 - t0;
    if (fo.traced) run.spans.push_back({kLayerSpan[l], fo.circuit, t0, t1});
  };
  try {
    const double t_begin = now_s();
    const double cpu0 = process_cpu_seconds();
    Netlist nl;
    timed(kParse, [&] { nl = read_bench_file(in.bench); });
    if (nl.find("scan_mode") != kNullNode) {
      throw std::runtime_error("circuit already contains a scan_mode input");
    }
    TpiOptions topt;
    topt.num_chains = in.chains;
    ScanDesign d;
    timed(kTpi, [&] { d = run_tpi(nl, topt, &run.tpi); });
    std::optional<Levelizer> lv;
    timed(kLevelize, [&] { lv.emplace(nl); });
    std::optional<ScanModeModel> model;
    std::string check_err;
    timed(kModel, [&] {
      model.emplace(*lv, d);
      check_err = model->check();
    });
    if (!check_err.empty()) {
      run.error = "scan-mode invariant violated: " + check_err;
      return run;
    }
    std::vector<Fault> faults;
    timed(kCollapse, [&] { faults = collapsed_fault_list(nl); });
    PipelineOptions opt;
    opt.verify_easy = true;
    opt.jobs = kJobs;
    opt.obs = run.reg.get();
    timed(kPipeline, [&] { run.r = run_fsct_pipeline(*model, faults, opt); });
    TestProgram p;
    timed(kExportBuild, [&] { p = make_chain_test_program(*model, run.r); });
    timed(kExportWrite, [&] {
      std::ofstream os(in.out);
      write_test_program(os, p);
      std::ofstream bos(in.out + ".bench");
      write_bench(bos, nl);
    });
    run.wall = now_s() - t_begin;
    run.cpu = process_cpu_seconds() - cpu0;

    run.cycles = p.stimulus.size();
    run.undetected = run.r.s3_undetected;
    run.collapsed = faults.size();
    const std::string prog = slurp(in.out);
    run.bytes = prog.size();
    run.digest = fnv1a(0xcbf29ce484222325ULL, run.r.outcome.data(),
                       run.r.outcome.size());
    run.digest = fnv1a(run.digest, prog.data(), prog.size());
    if (fo.gate && run.digest != fo.gated_digest) {
      const double g0 = now_s();
      run.error = gate(nl, faults, run.r, in.out, fo.gate_sample,
                       fo.gate_seed);
      run.gate_s = now_s() - g0;
      run.spans.push_back({"check.replay", fo.circuit, g0, g0 + run.gate_s});
    }
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  if (fo.traced) {
    for (const auto& e : run.reg->trace_snapshot()) {
      if (e.tid != 0) continue;  // worker tracks: below the phase spans
      run.spans.push_back({e.name, fo.circuit,
                           e.t0_us * 1e-6 + bench_minus_reg,
                           e.t1_us * 1e-6 + bench_minus_reg});
    }
  }
  return run;
}

/// Setup only (parse through collapse), for extra setup_s samples.
double run_setup(const InputFile& in) {
  const double t0 = now_s();
  Netlist nl = read_bench_file(in.bench);
  TpiOptions topt;
  topt.num_chains = in.chains;
  const ScanDesign d = run_tpi(nl, topt);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  if (!model.check().empty()) throw std::runtime_error("model check failed");
  const std::vector<Fault> faults = collapsed_fault_list(nl);
  return now_s() - t0;
}

/// Self time per span name: duration minus the direct children that the
/// same circuit's spans on the calling thread nest inside it.
void add_self_times(std::vector<Span> spans, std::map<std::string, double>& self) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
  });
  std::vector<const Span*> stack;
  for (const Span& s : spans) {
    while (!stack.empty() && stack.back()->t1 <= s.t0) stack.pop_back();
    self[s.name] += s.t1 - s.t0;
    if (!stack.empty()) self[stack.back()->name] -= s.t1 - s.t0;
    stack.push_back(&s);
  }
}

// ---------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- one pass

/// Sums over the circuits of one pass over the workload.
struct Pass {
  bool traced = false;
  double flow = 0, cpu = 0, setup = 0;
  double layer[kNumLayers] = {};
  double cycles = 0, undetected = 0;
  /// Per circuit (NaN where the flow failed): flow wall, CPU and set-up.
  std::vector<double> c_wall, c_cpu, c_setup;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  // traced passes
  std::map<std::string, double> num;
};

struct RunTotals {
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  /// Per circuit: the digest of the last gated flow (0 = none yet).
  std::vector<std::uint64_t> gated;
  /// Digest of the first pass: per-circuit verdicts and program bytes.
  std::uint64_t first_digest = 0;
  std::size_t regated = 0;  ///< flows re-gated because their digest changed
  double gate_s = 0;
  bool keep_spans = false;  ///< a traced run: keep spans for spans.json
  std::vector<Span> spans;
};

void add_counters(Pass& p, const FlowRun& f) {
  const ObsRegistry& reg = *f.reg;
  auto c = [&](Ctr k) { return static_cast<double>(reg.total(k)); };
  auto& m = p.num;
  m["scan.test_points"] += f.tpi.test_points;
  m["scan.functional_segments"] += f.tpi.functional_segments;
  m["fault.collapsed_faults"] += static_cast<double>(f.collapsed);
  m["fault.dominance_dropped"] += c(Ctr::DominanceDropped);
  const PipelineResult& r = f.r;
  m["core.classify_s"] += r.classify_seconds;
  m["core.classify_cpu_s"] += r.classify_cpu_seconds;
  m["core.alternating_s"] += r.alternating_seconds;
  m["core.alternating_cpu_s"] += r.alternating_cpu_seconds;
  m["core.s2_s"] += r.s2_seconds;
  m["core.s2_cpu_s"] += r.s2_cpu_seconds;
  m["core.s3_s"] += r.s3_seconds;
  m["core.s3_cpu_s"] += r.s3_cpu_seconds;
  m["core.flush_credit_detected"] += c(Ctr::FlushCreditDetected);
  m["core.dropped_by_ledger"] += c(Ctr::DroppedByLedger);
  m["atpg.podem_calls"] += c(Ctr::PodemCalls);
  m["atpg.podem_detected"] += c(Ctr::PodemDetected);
  m["atpg.podem_untestable"] += c(Ctr::PodemUntestable);
  m["atpg.podem_decisions"] += c(Ctr::PodemDecisions);
  m["atpg.podem_backtracks"] += c(Ctr::PodemBacktracks);
  m["atpg.podem_aborts"] += c(Ctr::PodemAborts);
  m["atpg.podem_time_limit_hits"] += c(Ctr::PodemTimeLimitHits);
  m["sim.seqsim_cycles"] += c(Ctr::SeqSimCycles);
  m["sim.seqsim_packed_passes"] += c(Ctr::SeqSimPackedPasses);
  m["sim.ppsfp_fault_sims"] += c(Ctr::PpsfpFaultSims);
  m["sim.ppsfp_events"] += c(Ctr::PpsfpEvents);
  m["sim.ppsfp_faults_dropped"] += c(Ctr::PpsfpFaultsDropped);
  for (const auto& w : reg.pool_stats()) {
    m["parallel.tasks"] += static_cast<double>(w.tasks);
    m["parallel.steals"] += static_cast<double>(w.steals);
    m["parallel.idle_s"] += w.idle_seconds;
  }
  m["pipeline_cpu_s"] += r.classify_cpu_seconds + r.alternating_cpu_seconds +
                         r.s2_cpu_seconds + r.s3_cpu_seconds;
  m["pipeline_phase_s"] += r.classify_seconds + r.alternating_seconds +
                           r.s2_seconds + r.s3_seconds;
  m["export.program_bytes"] += static_cast<double>(f.bytes);
  std::map<std::string, double> self;
  add_self_times(f.spans, self);
  for (const auto& [name, s] : self) m["span." + name + ".self_s"] += s;
}

Pass run_pass(const std::vector<InputFile>& files, const Workload& w,
              std::uint64_t seed, bool traced, RunTotals& tot) {
  Pass p;
  p.traced = traced;
  p.c_wall.assign(files.size(), NAN);
  p.c_cpu.assign(files.size(), NAN);
  p.c_setup.assign(files.size(), NAN);
  tot.gated.resize(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    // Every circuit is gated once; a later flow is gated again only when
    // its verdicts or program differ from the gated one (a wall-clock ATPG
    // limit fired differently).
    FlowOptions fo;
    fo.traced = traced;
    fo.gate = true;
    fo.gated_digest = tot.gated[i];
    fo.gate_sample = w.gate_sample;
    fo.gate_seed = derived_seed(seed ^ 0x6a7e, i);
    fo.circuit = static_cast<int>(i);
    const FlowRun f = run_flow(files[i], fo);
    ++tot.attempted;
    tot.gate_s += f.gate_s;
    if (!f.error.empty()) {
      ++tot.failed;
      tot.errors.push_back(files[i].name + ": " + f.error);
      continue;
    }
    if (tot.gated[i] != 0 && f.digest != tot.gated[i]) ++tot.regated;
    tot.gated[i] = f.digest;
    p.digest = fnv1a(p.digest, &f.digest, sizeof f.digest);
    double setup = 0;
    for (int l : kSetupLayers) setup += f.layer[l];
    p.flow += f.wall;
    p.cpu += f.cpu;
    p.setup += setup;
    p.c_wall[i] = f.wall;
    p.c_cpu[i] = f.cpu;
    p.c_setup[i] = setup;
    for (int l = 0; l < kNumLayers; ++l) p.layer[l] += f.layer[l];
    p.cycles += static_cast<double>(f.cycles);
    p.undetected += static_cast<double>(f.undetected);
    if (traced) add_counters(p, f);
    if (tot.keep_spans) {
      tot.spans.insert(tot.spans.end(), f.spans.begin(), f.spans.end());
    }
  }
  return p;
}

// ---------------------------------------------------------------- commands

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t input_seed = kInputSeed;
  double seconds = 10;
  int trace = 0;
  std::string work = ".bench_build/work";
  int chains = 1;
  std::string out;
  std::vector<std::string> positional;
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string s = argv[i];
    auto operand = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(s + " needs a value");
      return argv[++i];
    };
    auto number = [&](double lo, double hi) {
      const std::string v = operand();
      char* end = nullptr;
      errno = 0;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || errno != 0 || d < lo || d > hi) {
        throw std::invalid_argument(s + ": bad value '" + v + "'");
      }
      return d;
    };
    auto seed_operand = [&]() -> std::uint64_t {
      const std::string v = operand();
      char* end = nullptr;
      errno = 0;
      const std::uint64_t n = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
        throw std::invalid_argument(s + ": bad value '" + v + "'");
      }
      return n;
    };
    if (s == "--workload") {
      a.workload = operand();
    } else if (s == "--seed") {
      a.seed = seed_operand();
    } else if (s == "--input-seed") {
      a.input_seed = seed_operand();
    } else if (s == "--seconds") {
      a.seconds = number(0, 3600);
    } else if (s == "--trace") {
      a.trace = static_cast<int>(number(0, 1));
    } else if (s == "--work") {
      a.work = operand();
    } else if (s == "--chains") {
      a.chains = static_cast<int>(number(1, 1000));
    } else if (s == "-o") {
      a.out = operand();
    } else if (!s.empty() && s[0] == '-') {
      throw std::invalid_argument("unknown option '" + s + "'");
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int cmd_run(const Args& a) {
  const Workload& w = find_workload(a.workload);
  const std::uint64_t seed = a.seed;
  const fs::path dir = fs::path(a.work) /
                       (std::string(w.name) + "-" +
                        std::to_string(a.input_seed));
  const std::vector<InputFile> files = write_inputs(w, a.input_seed, dir);
  const BenchMachine mach = fingerprint_machine();
  std::printf("workload %s seed %llu input seed %llu: %zu circuits, jobs %d, "
              "trace %d\n",
              w.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(a.input_seed), files.size(),
              kJobs, a.trace);
  std::printf("machine: nproc %u, governor %s, %s, %s, sanitizer %s, git %s\n",
              mach.nproc, mach.governor.c_str(), mach.os.c_str(),
              mach.compiler.c_str(), mach.sanitizer.c_str(),
              mach.git_sha.c_str());

  // Passes over the whole workload until the measured flow time reaches
  // the budget.  The traced run alternates untraced and traced passes and
  // needs at least one of each.
  RunTotals tot;
  tot.keep_spans = a.trace == 1;
  std::vector<Pass> passes;
  double measured = 0;  // flow time so far; the gate is not counted
  for (;;) {
    const bool traced = a.trace == 1 && passes.size() % 2 == 1;
    passes.push_back(run_pass(files, w, seed, traced, tot));
    if (passes.size() == 1) tot.first_digest = passes[0].digest;
    measured += passes.back().flow;
    const std::size_t min_passes = a.trace == 1 ? 2 : 1;
    if (passes.size() >= min_passes && measured >= a.seconds) break;
  }
  long rss_kb = 0, peak_kb = 0;
  ObsRegistry::read_rss_kb(rss_kb, peak_kb);

  // End-to-end times are robust to a burst of load on the host in one
  // pass: per circuit, the median over the untraced passes, then summed
  // over the workload (flow_s) or ranked across circuits (circuit_s.*).
  const std::size_t n = files.size();
  std::vector<std::vector<double>> wall(n), cpu(n), setup(n);
  std::vector<double> cycles, tflow;
  for (const Pass& p : passes) {
    if (p.traced) {
      tflow.push_back(p.flow);
      continue;
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (std::isnan(p.c_wall[c])) continue;
      wall[c].push_back(p.c_wall[c]);
      cpu[c].push_back(p.c_cpu[c]);
      setup[c].push_back(p.c_setup[c]);
    }
    cycles.push_back(p.cycles);
  }
  // setup_s: at least five samples per circuit, from set-up-only reps.
  while (tot.failed == 0 && setup[0].size() < 5) {
    for (std::size_t c = 0; c < n; ++c) setup[c].push_back(run_setup(files[c]));
  }
  std::vector<double> circuit;  // per-circuit median flow time
  double flow_s = 0, cpu_s = 0, setup_s = 0;
  for (std::size_t c = 0; c < n; ++c) {
    if (wall[c].empty()) continue;
    circuit.push_back(median(wall[c]));
    flow_s += circuit.back();
    cpu_s += median(cpu[c]);
    setup_s += median(setup[c]);
  }

  std::vector<Metric> ms;
  if (a.trace == 0) {
    ms = {
        {"flow_s", flow_s, "s"},
        {"flow_cpu_s", cpu_s, "s"},
        {"setup_s", setup_s, "s"},
        {"circuit_s.p50", quantile(circuit, 0.5), "s"},
        {"circuit_s.p95", quantile(circuit, 0.95), "s"},
        {"peak_rss_mb", static_cast<double>(peak_kb) / 1024.0, "MB"},
        {"program_cycles", median(cycles), "cycles"},
    };
  } else {
    auto med = [&](auto get) {
      std::vector<double> v;
      for (const Pass& p : passes) {
        if (p.traced) v.push_back(get(p));
      }
      return median(v);
    };
    auto num = [&](const std::string& k) {
      return med([&](const Pass& p) {
        const auto it = p.num.find(k);
        return it == p.num.end() ? 0.0 : it->second;
      });
    };
    auto layer = [&](Layer l) {
      return med([&](const Pass& p) { return p.layer[l]; });
    };
    const double traced_flow = median(tflow);
    const double unattributed = med([&](const Pass& p) {
      double covered = 0;
      for (double l : p.layer) covered += l;
      return p.flow - covered;
    });
    const double calls = num("atpg.podem_calls");
    const double decisions = num("atpg.podem_decisions");
    const double sims = num("sim.ppsfp_fault_sims");
    const double pipeline_s = layer(kPipeline);
    ms = {
        {"netlist.parse_s", layer(kParse), "s"},
        {"netlist.levelize_s", layer(kLevelize), "s"},
        {"scan.tpi_s", layer(kTpi), "s"},
        {"scan.model_s", layer(kModel), "s"},
        {"scan.test_points", num("scan.test_points"), "count"},
        {"scan.functional_segments", num("scan.functional_segments"), "count"},
        {"fault.collapse_s", layer(kCollapse), "s"},
        {"fault.collapsed_faults", num("fault.collapsed_faults"), "count"},
        {"fault.dominance_dropped", num("fault.dominance_dropped"), "count"},
        {"core.pipeline_s", pipeline_s, "s"},
        {"core.classify_s", num("core.classify_s"), "s"},
        {"core.classify_cpu_s", num("core.classify_cpu_s"), "s"},
        {"core.alternating_s", num("core.alternating_s"), "s"},
        {"core.alternating_cpu_s", num("core.alternating_cpu_s"), "s"},
        {"core.s2_s", num("core.s2_s"), "s"},
        {"core.s2_cpu_s", num("core.s2_cpu_s"), "s"},
        {"core.s3_s", num("core.s3_s"), "s"},
        {"core.s3_cpu_s", num("core.s3_cpu_s"), "s"},
        {"core.flush_credit_detected", num("core.flush_credit_detected"),
         "count"},
        {"core.dropped_by_ledger", num("core.dropped_by_ledger"), "count"},
        {"core.undetected_faults", med([](const Pass& p) {
           return p.undetected;
         }), "count"},
        {"atpg.podem_calls", calls, "count"},
        {"atpg.podem_decisions", decisions, "count"},
        {"atpg.podem_backtracks", num("atpg.podem_backtracks"), "count"},
        {"atpg.podem_aborts", num("atpg.podem_aborts"), "count"},
        {"atpg.podem_time_limit_hits", num("atpg.podem_time_limit_hits"),
         "count"},
        {"atpg.resolved_ratio",
         calls > 0 ? (num("atpg.podem_detected") +
                      num("atpg.podem_untestable")) / calls
                   : 0,
         "ratio"},
        {"atpg.backtracks_per_decision",
         decisions > 0 ? num("atpg.podem_backtracks") / decisions : 0,
         "ratio"},
        {"sim.seqsim_cycles", num("sim.seqsim_cycles"), "cycles"},
        {"sim.seqsim_packed_passes", num("sim.seqsim_packed_passes"),
         "count"},
        {"sim.ppsfp_fault_sims", sims, "count"},
        {"sim.ppsfp_events", num("sim.ppsfp_events"), "count"},
        {"sim.ppsfp_drop_ratio",
         sims > 0 ? num("sim.ppsfp_faults_dropped") / sims : 0, "ratio"},
        {"parallel.tasks", num("parallel.tasks"), "count"},
        {"parallel.steals", num("parallel.steals"), "count"},
        {"parallel.idle_s", num("parallel.idle_s"), "s"},
        {"parallel.busy_ratio",
         num("pipeline_phase_s") > 0
             ? num("pipeline_cpu_s") / (num("pipeline_phase_s") * kJobs)
             : 0,
         "ratio"},
        {"export.build_s", layer(kExportBuild), "s"},
        {"export.write_s", layer(kExportWrite), "s"},
        {"export.program_bytes", num("export.program_bytes"), "bytes"},
        {"check.replay_s", tot.gate_s, "s"},
        {"trace.flow_s", traced_flow, "s"},
        {"trace.unattributed_s", unattributed, "s"},
        {"trace.unattributed_share",
         traced_flow > 0 ? unattributed / traced_flow : 0, "ratio"},
        {"trace.overhead_s", traced_flow - flow_s, "s"},
    };
    for (const char* s : kLayerSpan) {
      ms.push_back({std::string("span.") + s + ".self_s",
                    num(std::string("span.") + s + ".self_s"), "s"});
    }
    for (const char* s : kPipelineSpans) {
      ms.push_back({std::string("span.") + s + ".self_s",
                    num(std::string("span.") + s + ".self_s"), "s"});
    }
    // The spans stay in memory until here; write them for inspection.
    std::ofstream ts(dir / "spans.json");
    ts << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < tot.spans.size(); ++i) {
      const Span& s = tot.spans[i];
      ts << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.circuit
         << ", \"ts\": " << json_number(s.t0 * 1e6)
         << ", \"dur\": " << json_number((s.t1 - s.t0) * 1e6) << "}";
    }
    ts << "\n]}\n";
  }

  std::printf("passes %zu (%zu traced), circuit samples %zu, digest %016llx, "
              "gate %.1f s, re-gated flows %zu\n",
              passes.size(), tflow.size(), circuit.size(),
              static_cast<unsigned long long>(tot.first_digest), tot.gate_s,
              tot.regated);
  std::printf("undetected_faults %.0f count (aborted or undetected after "
              "step 3, first pass)\n", passes[0].undetected);
  std::printf("failed_share %.6f ratio (%zu of %zu circuit flows)\n",
              tot.attempted ? static_cast<double>(tot.failed) /
                                  static_cast<double>(tot.attempted)
                            : 0.0,
              tot.failed, tot.attempted);
  for (std::size_t i = 0; i < tot.errors.size() && i < 20; ++i) {
    std::printf("FAILED %s\n", tot.errors[i].c_str());
  }
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::printf("pass %zu%s: flow %.4f s, cpu %.4f s, setup %.4f s\n", i + 1,
                passes[i].traced ? " (traced)" : "", passes[i].flow,
                passes[i].cpu, passes[i].setup);
  }
  print_metrics(ms);

  std::ostringstream js;
  js << "{\"correct\": " << (tot.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tot.attempted << ", \"failed\": " << tot.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    js << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << json_number(ms[i].value) << ", \"unit\": \"" << ms[i].unit
       << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return tot.failed == 0 ? 0 : 1;
}

int cmd_flow(const Args& a) {
  if (a.positional.size() != 1 || a.out.empty()) {
    throw std::invalid_argument("usage: flowbench flow <file.bench> "
                                "--chains K -o <prog.fsct>");
  }
  InputFile in;
  in.bench = a.positional[0];
  in.out = a.out;
  in.chains = a.chains;
  const FlowRun f = run_flow(in, {});
  if (!f.error.empty()) {
    std::fprintf(stderr, "flowbench: %s\n", f.error.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu cycles), digest %016llx\n", a.out.c_str(),
              f.cycles, static_cast<unsigned long long>(f.digest));
  return 0;
}

int cmd_inputs(const Args& a) {
  const Workload& w = find_workload(a.workload);
  for (const InputFile& f : write_inputs(w, a.input_seed, fs::path(a.work))) {
    std::printf("%s %d\n", f.bench.c_str(), f.chains);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "flow") return cmd_flow(parse_args(argc, argv, 2));
    if (cmd == "inputs") return cmd_inputs(parse_args(argc, argv, 2));
    const Args a = parse_args(argc, argv, 1);
    if (a.workload.empty()) {
      throw std::invalid_argument("--workload is required");
    }
    return cmd_run(a);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
}
