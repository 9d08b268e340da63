#include "core/test_export.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "scan/scan_sequences.h"
#include "sim/seq_sim.h"
#include "sim/soa_circuit.h"

namespace fsct {
namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error("test program parse error, line " +
                           std::to_string(line) + ": " + msg);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::istringstream is(s);
  std::vector<std::string> out;
  std::string t;
  while (is >> t) out.push_back(t);
  return out;
}

}  // namespace

StrobeRun simulate_strobes(const Levelizer& lv, const TestSequence& stimulus,
                           std::span<const NodeId> observe) {
  using Word = WideVal<1>;
  constexpr std::size_t kLanes = Word::kLanes;
  const std::shared_ptr<const SoaCircuit> soa = SoaCircuit::compile(lv);
  const std::size_t n_pi = soa->inputs().size();
  const std::size_t n_obs = observe.size();
  const std::size_t cycles = stimulus.size();
  for (const auto& row : stimulus) {
    if (row.size() != n_pi) {
      throw std::invalid_argument("step: PI vector size mismatch");
    }
  }
  StrobeRun run;
  run.expected.resize(cycles);
  if (cycles == 0) return run;

  // Lane k simulates cycles [k * len, (k + 1) * len); only the last chunk
  // may be shorter, and its lane idles on X inputs past the end.
  const std::size_t len = (cycles + kLanes - 1) / kLanes;
  run.chunks = (cycles + len - 1) / len;
  std::vector<Word> pis(len * n_pi, Word::broadcast(Val::X));
  for (std::size_t t = 0; t < cycles; ++t) {
    const unsigned lane = static_cast<unsigned>(t / len);
    Word* step_pis = pis.data() + (t % len) * n_pi;
    for (std::size_t i = 0; i < n_pi; ++i) step_pis[i].set(lane, stimulus[t][i]);
  }

  // Round r starts lane k from init_k and ends it in end_k; the next round
  // starts lane k + 1 from end_k.  init_0 is the all-X power-up state in
  // every round, so after round r chunks 0..r are exact; once no init
  // changes, every chunk starts where its predecessor ended and the lanes
  // join into the serial trajectory, X for X.
  const std::uint64_t successors =
      (run.chunks == kLanes ? ~0ull : (1ull << run.chunks) - 1) & ~1ull;
  WideSeqSim<1> sim(soa);
  std::vector<Word> init(soa->dffs().size(), Word::broadcast(Val::X));
  std::vector<Word> strobes(len * n_obs);
  for (bool changed = true; changed;) {
    ++run.rounds;
    sim.set_state(init);
    for (std::size_t s = 0; s < len; ++s) {
      const WideSim<1>& v = sim.step({pis.data() + s * n_pi, n_pi});
      Word* out = strobes.data() + s * n_obs;
      for (std::size_t o = 0; o < n_obs; ++o) out[o] = v.value(observe[o]);
    }
    changed = false;
    for (std::size_t f = 0; f < init.size(); ++f) {
      const Word& end = sim.state()[f];
      const Word next{{(end.zero[0] << 1) & successors},
                      {(end.one[0] << 1) & successors}};
      changed |= next != init[f];
      init[f] = next;
    }
  }

  // Step-major so one step's strobes stay in cache across its 64 cycles.
  for (auto& row : run.expected) row.resize(n_obs);
  for (std::size_t s = 0; s < len; ++s) {
    const Word* in = strobes.data() + s * n_obs;
    for (std::size_t lane = 0, t = s; t < cycles; ++lane, t += len) {
      Val* row = run.expected[t].data();
      for (std::size_t o = 0; o < n_obs; ++o) {
        // Branch-free Word::at(): Zero = 0, One = 1, X = 2.
        const unsigned z = (in[o].zero[0] >> lane) & 1u;
        const unsigned one = (in[o].one[0] >> lane) & 1u;
        row[o] = static_cast<Val>(one | ((z | one) ^ 1u) << 1);
      }
    }
  }
  return run;
}

std::vector<std::vector<Val>> serial_strobes(const Levelizer& lv,
                                             const TestSequence& stimulus,
                                             std::span<const NodeId> observe) {
  SeqSim sim(lv);
  std::vector<std::vector<Val>> expected;
  expected.reserve(stimulus.size());
  for (const auto& pi : stimulus) {
    const auto& v = sim.step(pi);
    std::vector<Val>& row = expected.emplace_back();
    row.reserve(observe.size());
    for (NodeId o : observe) row.push_back(v[o]);
  }
  return expected;
}

TestProgram make_test_program(const ScanModeModel& model,
                              TestSequence stimulus,
                              std::vector<NodeId> observe) {
  const Levelizer& lv = model.levelizer();
  const Netlist& nl = lv.netlist();
  if (observe.empty()) {
    observe = nl.outputs();
    for (NodeId so : model.scan_outs()) {
      if (std::find(observe.begin(), observe.end(), so) == observe.end()) {
        observe.push_back(so);
      }
    }
  }
  TestProgram p;
  p.circuit = nl.name();
  for (NodeId pi : nl.inputs()) p.input_names.push_back(nl.node_name(pi));
  for (NodeId o : observe) p.observe_names.push_back(nl.node_name(o));
  p.stimulus = std::move(stimulus);
  p.expected = simulate_strobes(lv, p.stimulus, observe).expected;
  return p;
}

void write_test_program(std::ostream& os, const TestProgram& p) {
  os << "FSCT-TEST 1\n";
  os << "circuit " << p.circuit << "\n";
  os << "inputs";
  for (const auto& n : p.input_names) os << ' ' << n;
  os << "\nobserve";
  for (const auto& n : p.observe_names) os << ' ' << n;
  os << "\ncycles " << p.stimulus.size() << "\n";
  // One formatted row, one write: streaming char by char dominates the
  // write of a large program.
  std::string row;
  for (std::size_t t = 0; t < p.stimulus.size(); ++t) {
    row.assign("v ");
    for (Val v : p.stimulus[t]) row += val_char(v);
    row += " | ";
    for (Val v : p.expected[t]) row += val_char(v);
    row += '\n';
    os.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

std::string write_test_program_string(const TestProgram& p) {
  std::ostringstream os;
  write_test_program(os, p);
  return os.str();
}

TestProgram read_test_program(std::istream& is) {
  TestProgram p;
  std::string line;
  int ln = 0;

  auto next = [&]() -> bool {
    while (std::getline(is, line)) {
      ++ln;
      if (auto h = line.find('#'); h != std::string::npos) line.erase(h);
      if (!split_ws(line).empty()) return true;
    }
    return false;
  };

  if (!next() || split_ws(line) != std::vector<std::string>{"FSCT-TEST", "1"}) {
    fail(ln, "missing FSCT-TEST 1 header");
  }
  std::size_t cycles = 0;
  bool have_cycles = false;
  while (!have_cycles) {
    if (!next()) fail(ln, "unexpected end of header");
    auto toks = split_ws(line);
    if (toks[0] == "circuit") {
      if (toks.size() != 2) fail(ln, "circuit takes one name");
      p.circuit = toks[1];
    } else if (toks[0] == "inputs" || toks[0] == "observe") {
      // A repeated name would bind two columns to one net and leave another
      // input at X for the whole replay.
      std::unordered_set<std::string_view> seen;
      for (std::size_t i = 1; i < toks.size(); ++i) {
        if (!seen.insert(toks[i]).second) {
          fail(ln, "duplicate " + toks[0] + " name '" + toks[i] + "'");
        }
      }
      (toks[0] == "inputs" ? p.input_names : p.observe_names)
          .assign(toks.begin() + 1, toks.end());
    } else if (toks[0] == "cycles") {
      if (toks.size() != 2) fail(ln, "cycles takes one number");
      // std::stoul alone would accept "12abc" and throw context-free
      // exceptions on overflow or garbage.
      std::size_t pos = 0;
      unsigned long v = 0;
      try {
        v = std::stoul(toks[1], &pos);
      } catch (const std::exception&) {
        fail(ln, "invalid cycle count '" + toks[1] + "'");
      }
      if (pos != toks[1].size() || v > 100000000) {
        fail(ln, "invalid cycle count '" + toks[1] + "'");
      }
      cycles = static_cast<std::size_t>(v);
      have_cycles = true;
    } else {
      fail(ln, "unknown directive '" + toks[0] + "'");
    }
  }
  for (std::size_t t = 0; t < cycles; ++t) {
    if (!next()) fail(ln, "missing vector line");
    const auto toks = split_ws(line);
    if (toks.size() != 4 || toks[0] != "v" || toks[2] != "|") {
      fail(ln, "expected 'v <stimulus> | <expected>'");
    }
    if (toks[1].size() != p.input_names.size()) {
      fail(ln, "stimulus width != #inputs");
    }
    if (toks[3].size() != p.observe_names.size()) {
      fail(ln, "expected-response width != #observe");
    }
    std::vector<Val> stim, exp;
    try {
      for (char c : toks[1]) stim.push_back(val_from_char(c));
      for (char c : toks[3]) exp.push_back(val_from_char(c));
    } catch (const std::invalid_argument&) {
      fail(ln, "vector contains a character other than 0/1/X");
    }
    p.stimulus.push_back(std::move(stim));
    p.expected.push_back(std::move(exp));
  }
  return p;
}

TestProgram read_test_program_string(const std::string& text) {
  std::istringstream is(text);
  return read_test_program(is);
}

BoundTestProgram bind_test_program(const Netlist& nl, const TestProgram& p) {
  if (p.input_names.size() != nl.inputs().size()) {
    throw std::runtime_error("bind: program has " +
                             std::to_string(p.input_names.size()) +
                             " inputs, netlist has " +
                             std::to_string(nl.inputs().size()));
  }
  // Program order -> netlist inputs() order.
  std::vector<std::size_t> perm(p.input_names.size());
  for (std::size_t i = 0; i < p.input_names.size(); ++i) {
    const NodeId id = nl.find(p.input_names[i]);
    if (id == kNullNode) {
      throw std::runtime_error("bind: unknown input " + p.input_names[i]);
    }
    bool found = false;
    for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
      if (nl.inputs()[k] == id) {
        perm[i] = k;
        found = true;
      }
    }
    if (!found) {
      throw std::runtime_error("bind: " + p.input_names[i] +
                               " is not a primary input");
    }
  }
  BoundTestProgram b;
  b.stimulus.reserve(p.stimulus.size());
  for (const auto& row : p.stimulus) {
    std::vector<Val> v(nl.inputs().size(), Val::X);
    for (std::size_t i = 0; i < row.size(); ++i) v[perm[i]] = row[i];
    b.stimulus.push_back(std::move(v));
  }
  for (const auto& n : p.observe_names) {
    const NodeId id = nl.find(n);
    if (id == kNullNode) {
      throw std::runtime_error("bind: unknown observe net " + n);
    }
    b.observe.push_back(id);
  }
  b.expected = &p.expected;
  return b;
}

std::size_t run_test_program(const Levelizer& lv, const TestProgram& p,
                             const Fault* fault) {
  const BoundTestProgram b = bind_test_program(lv.netlist(), p);
  SeqSim sim(lv);
  Injection inj[1];
  std::span<const Injection> injections;
  if (fault != nullptr) {
    inj[0] = to_injection(*fault);
    injections = std::span<const Injection>(inj, 1);
  }
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < b.stimulus.size(); ++t) {
    const auto& v = sim.step(b.stimulus[t], injections);
    for (std::size_t o = 0; o < b.observe.size(); ++o) {
      const Val want = (*b.expected)[t][o];
      const Val got = v[b.observe[o]];
      if (want != Val::X && got != Val::X && want != got) ++mismatches;
    }
  }
  return mismatches;
}

TestProgram make_chain_test_program(const ScanModeModel& model,
                                    const PipelineResult& result) {
  const Netlist& nl = model.levelizer().netlist();
  const ScanSequenceBuilder sb(nl, model.design());
  const std::size_t maxlen = model.max_chain_length();

  TestSequence stimulus = sb.alternating(2 * maxlen + 8);
  for (const ScanVector& v : result.vectors) {
    const TestSequence seq =
        sb.apply_comb_vector(v.ff_state, v.pi_vals, maxlen + 2);
    stimulus.insert(stimulus.end(), seq.begin(), seq.end());
  }
  for (const TestSequence& seq : result.s3_sequences) {
    stimulus.insert(stimulus.end(), seq.begin(), seq.end());
  }
  return make_test_program(model, std::move(stimulus));
}

}  // namespace fsct
