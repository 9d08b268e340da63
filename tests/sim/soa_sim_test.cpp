// SoA core + wide-simulator equivalence properties (DESIGN.md §5h):
//  * SoaCircuit is a faithful flat view of the Levelizer snapshot,
//  * WideSim<NW> equals the scalar CombSim lane-for-lane on every suite
//    circuit, X values included,
//  * WideSeqSim<NW> equals the scalar SeqSim over multi-cycle runs on random
//    sequential circuits with X propagation,
//  * injection masks are lane-local: un-masked lanes carry the good machine.
#include "sim/soa_circuit.h"

#include <gtest/gtest.h>

#include <random>

#include "bench_circuits/generator.h"
#include "bench_circuits/paper_examples.h"
#include "bench_circuits/suite.h"
#include "sim/comb_sim.h"
#include "sim/seq_sim.h"

namespace fsct {
namespace {

Val rand_3val(std::mt19937_64& rng) {
  const auto r = rng() & 7;
  return r < 2 ? Val::X : (r & 1) ? Val::One : Val::Zero;
}

/// All 13 circuits the suite-conformance tests cover: s27 + the 12-entry
/// paper suite.
std::vector<Netlist> all_suite_circuits() {
  std::vector<Netlist> out;
  out.push_back(iscas_s27());
  for (const SuiteEntry& e : paper_suite()) {
    out.push_back(build_suite_circuit(e));
  }
  return out;
}

TEST(SoaCircuit, FlatViewMatchesLevelizer) {
  const Netlist nl = iscas_s27();
  const Levelizer lv(nl);
  const auto soa = SoaCircuit::compile(lv);

  ASSERT_EQ(soa->size(), nl.size());
  std::size_t comb_gates = 0;
  for (NodeId id = 0; id < nl.size(); ++id) {
    EXPECT_EQ(soa->type(id), nl.type(id));
    EXPECT_EQ(soa->level(id), lv.level(id));
    const auto& fins = nl.fanins(id);
    ASSERT_EQ(soa->fanin_count(id), fins.size());
    for (std::size_t p = 0; p < fins.size(); ++p) {
      EXPECT_EQ(soa->fanin(id)[p], fins[p]);
    }
    // Fanouts: the combinational subsequence of the Levelizer's list, in
    // the same order.
    std::vector<NodeId> want;
    for (NodeId s : lv.fanouts(id)) {
      if (is_combinational(nl.type(s))) want.push_back(s);
    }
    ASSERT_EQ(soa->fanout_count(id), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(soa->fanout(id)[k], want[k]);
    }
    comb_gates += is_combinational(nl.type(id));
  }

  // order() covers every combinational gate exactly once, level-monotone,
  // and runs() tile it with matching types.
  EXPECT_EQ(soa->order().size(), comb_gates);
  std::vector<char> seen(nl.size(), 0);
  int prev_level = -1;
  for (NodeId id : soa->order()) {
    EXPECT_TRUE(is_combinational(soa->type(id)));
    EXPECT_FALSE(seen[id]);
    seen[id] = 1;
    EXPECT_GE(soa->level(id), prev_level);
    prev_level = soa->level(id);
  }
  std::uint32_t pos = 0;
  for (const SoaRun& r : soa->runs()) {
    EXPECT_EQ(r.begin, pos);
    for (std::uint32_t i = r.begin; i < r.end; ++i) {
      EXPECT_EQ(soa->type(soa->order()[i]), r.type);
    }
    pos = r.end;
  }
  EXPECT_EQ(pos, soa->order().size());
}

TEST(SoaCircuit, MemoCompilesOncePerLevelizer) {
  // Every engine of one run shares the Levelizer snapshot's compilation;
  // a copy of the Levelizer is the same snapshot and shares it too.
  const Netlist nl = iscas_s27();
  const Levelizer lv(nl);
  const auto a = SoaCircuit::compile(lv);
  const auto b = SoaCircuit::compile(lv);
  EXPECT_EQ(a.get(), b.get());
  const Levelizer copy = lv;
  EXPECT_EQ(SoaCircuit::compile(copy).get(), a.get());
  const Levelizer other(nl);
  EXPECT_NE(SoaCircuit::compile(other).get(), a.get());
}

TEST(SoaCircuit, DffBookkeeping) {
  const Netlist nl = iscas_s27();
  const Levelizer lv(nl);
  const auto soa = SoaCircuit::compile(lv);
  ASSERT_EQ(soa->dffs().size(), nl.dffs().size());
  ASSERT_EQ(soa->dff_d().size(), nl.dffs().size());
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    EXPECT_EQ(soa->dffs()[i], nl.dffs()[i]);
    EXPECT_EQ(soa->dff_d()[i], nl.fanins(nl.dffs()[i])[0]);
  }
  EXPECT_EQ(soa->inputs(), nl.inputs());
}

/// Runs WideSim<NW> with `kSample` random 3-valued source assignments spread
/// over the lane range and checks each against the scalar CombSim.
template <int NW>
void check_wide_comb(const Netlist& nl, const Levelizer& lv,
                     std::mt19937_64& rng) {
  const auto soa = SoaCircuit::compile(lv);
  std::vector<NodeId> sources = nl.inputs();
  for (NodeId ff : nl.dffs()) sources.push_back(ff);

  constexpr unsigned kSample = 6;
  // Spread the sampled lanes across every word of the block.
  unsigned lanes[kSample];
  for (unsigned k = 0; k < kSample; ++k) {
    lanes[k] = (k * (WideVal<NW>::kLanes - 1)) / (kSample - 1);
  }

  std::vector<std::vector<Val>> scalar_src(
      kSample, std::vector<Val>(sources.size()));
  WideSim<NW> wsim(soa);
  for (NodeId s : sources) wsim.value(s) = WideVal<NW>::broadcast(Val::X);
  for (unsigned k = 0; k < kSample; ++k) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const Val v = rand_3val(rng);
      scalar_src[k][s] = v;
      wsim.value(sources[s]).set(lanes[k], v);
    }
  }
  wsim.run();

  CombSim csim(lv);
  std::vector<Val> values(nl.size());
  for (unsigned k = 0; k < kSample; ++k) {
    std::fill(values.begin(), values.end(), Val::X);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      values[sources[s]] = scalar_src[k][s];
    }
    csim.run(values);
    for (NodeId id = 0; id < nl.size(); ++id) {
      ASSERT_EQ(wsim.value(id).at(lanes[k]), values[id])
          << nl.name() << " net " << nl.node_name(id) << " lane " << lanes[k]
          << " width " << 64 * NW;
    }
  }
}

TEST(WideSim, MatchesCombSimOnAllSuiteCircuits) {
  std::mt19937_64 rng(2026);
  for (const Netlist& nl : all_suite_circuits()) {
    const Levelizer lv(nl);
    check_wide_comb<1>(nl, lv, rng);
    check_wide_comb<4>(nl, lv, rng);
    check_wide_comb<8>(nl, lv, rng);
  }
}

/// Multi-cycle equivalence with X initial state and X-bearing stimulus.
template <int NW>
void check_wide_seq(const Netlist& nl, const Levelizer& lv,
                    std::mt19937_64& rng) {
  const auto soa = SoaCircuit::compile(lv);
  constexpr unsigned kSample = 4;
  unsigned lanes[kSample];
  for (unsigned k = 0; k < kSample; ++k) {
    lanes[k] = (k * (WideVal<NW>::kLanes - 1)) / (kSample - 1);
  }

  const int cycles = 15;
  // Per-sample scalar stimulus; the wide run carries all samples at once.
  std::vector<std::vector<std::vector<Val>>> scalar_seq(kSample);
  std::vector<std::vector<WideVal<NW>>> wide_seq(
      cycles,
      std::vector<WideVal<NW>>(nl.inputs().size(),
                               WideVal<NW>::broadcast(Val::X)));
  for (unsigned k = 0; k < kSample; ++k) {
    for (int t = 0; t < cycles; ++t) {
      std::vector<Val> v(nl.inputs().size());
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = rand_3val(rng);
        wide_seq[t][i].set(lanes[k], v[i]);
      }
      scalar_seq[k].push_back(std::move(v));
    }
  }

  WideSeqSim<NW> wsim(soa);
  wsim.reset(Val::X);
  std::vector<SeqSim> ssims(kSample, SeqSim(lv));
  for (auto& s : ssims) s.reset(Val::X);

  for (int t = 0; t < cycles; ++t) {
    const WideSim<NW>& wv = wsim.step(wide_seq[t]);
    for (unsigned k = 0; k < kSample; ++k) {
      const auto& sv = ssims[k].step(scalar_seq[k][t]);
      for (NodeId id = 0; id < nl.size(); ++id) {
        ASSERT_EQ(wv.value(id).at(lanes[k]), sv[id])
            << nl.name() << " cycle " << t << " net " << nl.node_name(id)
            << " lane " << lanes[k] << " width " << 64 * NW;
      }
    }
  }
}

TEST(WideSeqSim, MatchesSeqSimWithXPropagation) {
  std::mt19937_64 rng(7);
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    RandomCircuitSpec spec;
    spec.num_gates = 90;
    spec.num_ffs = 10;
    spec.num_pis = 5;
    spec.num_pos = 4;
    spec.seed = seed;
    const Netlist nl = make_random_sequential(spec);
    const Levelizer lv(nl);
    check_wide_seq<1>(nl, lv, rng);
    check_wide_seq<4>(nl, lv, rng);
    check_wide_seq<8>(nl, lv, rng);
  }
}

TEST(WideSim, InjectionMasksAreLaneLocal) {
  // a -> buf -> po; stem s-a-0 on `a` masked to lane 200 only: that lane
  // reads 0 downstream, every other lane keeps the good value 1.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId buf = nl.add_gate(GateType::Buf, {a}, "buf");
  nl.mark_output(buf);
  const Levelizer lv(nl);
  const auto soa = SoaCircuit::compile(lv);

  WideSim<4> sim(soa);
  sim.value(a) = WideVal<4>::broadcast(Val::One);
  WideInjection<4> inj;
  inj.node = a;
  inj.pin = -1;
  inj.value = Val::Zero;
  inj.mask[200 / 64] = 1ull << (200 % 64);
  const WideInjection<4> injs[1] = {inj};
  sim.run(injs);
  for (unsigned lane = 0; lane < WideVal<4>::kLanes; ++lane) {
    EXPECT_EQ(sim.value(buf).at(lane), lane == 200 ? Val::Zero : Val::One);
  }
}

/// Reference for the injection chains: every gate pin, stem and DFF D pin
/// scans the whole list, applying matches in list order.
template <int NW>
std::vector<WideVal<NW>> linear_scan_run(
    const Levelizer& lv, std::vector<WideVal<NW>> v,
    std::span<const WideInjection<NW>> inj) {
  const Netlist& nl = lv.netlist();
  auto force = [&](NodeId id, int pin, WideVal<NW>& x) {
    for (const WideInjection<NW>& i : inj) {
      if (i.node == id && i.pin == pin) i.force(x);
    }
  };
  for (NodeId id = 0; id < nl.size(); ++id) {
    if (nl.type(id) == GateType::Const0) v[id] = WideVal<NW>::broadcast(Val::Zero);
    if (nl.type(id) == GateType::Const1) v[id] = WideVal<NW>::broadcast(Val::One);
    if (!is_combinational(nl.type(id))) force(id, -1, v[id]);
  }
  for (NodeId id : lv.topo_order()) {
    const auto fins = nl.fanins(id);
    WideVal<NW> ins[kMaxFanin];
    for (std::size_t p = 0; p < fins.size(); ++p) {
      ins[p] = v[fins[p]];
      force(id, static_cast<int>(p), ins[p]);
    }
    WideVal<NW> out = eval_gate_wide<NW>(nl.type(id), ins, fins.size());
    force(id, -1, out);
    v[id] = out;
  }
  return v;
}

template <int NW>
void check_injection_chains(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const Val vals[3] = {Val::Zero, Val::One, Val::X};
  for (int trial = 0; trial < 2; ++trial) {
    RandomCircuitSpec spec;
    spec.num_gates = 400;
    spec.num_ffs = 40;
    spec.num_pis = 10;
    spec.seed = seed + static_cast<std::uint64_t>(trial);
    const Netlist nl = make_random_sequential(spec);
    const Levelizer lv(nl);
    const auto soa = SoaCircuit::compile(lv);
    WideSim<NW> sim(soa);
    // Several lists on one simulator: chains must be rebuilt, not merged.
    for (const std::size_t n : {300u, 40u, 0u, 200u}) {
      std::vector<WideInjection<NW>> inj;
      while (inj.size() < n) {
        WideInjection<NW> i;
        i.node = static_cast<NodeId>(rng() % nl.size());
        const auto fins = nl.fanins(i.node);
        i.pin = (fins.empty() || rng() % 3 == 0)
                    ? -1
                    : static_cast<int>(rng() % fins.size());
        i.value = vals[rng() % 3];
        for (int w = 0; w < NW; ++w) i.mask[w] = rng() & rng();
        inj.push_back(i);
      }
      // Duplicates of earlier (node, pin) entries, overlapping lanes,
      // another value: the later entry must win where they overlap.
      for (std::size_t k = 0; k < n / 4; ++k) {
        WideInjection<NW> dup = inj[rng() % inj.size()];
        dup.value = vals[rng() % 3];
        for (int w = 0; w < NW; ++w) dup.mask[w] |= rng() & rng();
        inj.push_back(dup);
      }
      std::vector<WideVal<NW>> src(nl.size(), WideVal<NW>::broadcast(Val::X));
      auto randomize = [&](NodeId id) {
        for (unsigned lane = 0; lane < WideVal<NW>::kLanes; ++lane) {
          src[id].set(lane, rand_3val(rng));
        }
        sim.value(id) = src[id];
      };
      for (NodeId id : nl.inputs()) randomize(id);
      for (NodeId id : nl.dffs()) randomize(id);
      const auto want = linear_scan_run<NW>(lv, src, inj);
      sim.run(inj);
      for (NodeId id = 0; id < nl.size(); ++id) {
        ASSERT_EQ(sim.value(id), want[id])
            << "NW " << NW << " node " << nl.node_name(id) << " n " << n;
      }
      for (std::size_t q = 0; q < nl.dffs().size(); ++q) {
        WideVal<NW> d = want[nl.fanins(nl.dffs()[q])[0]];
        for (const WideInjection<NW>& i : inj) {
          if (i.node == nl.dffs()[q] && i.pin == 0) i.force(d);
        }
        ASSERT_EQ(sim.d_value(q), d) << "NW " << NW << " dff " << q;
      }
    }
  }
}

TEST(WideSim, InjectionChainsMatchLinearScan) {
  check_injection_chains<1>(700);
  check_injection_chains<4>(710);
  check_injection_chains<8>(720);
}

TEST(SimdWidth, DefaultAndValidation) {
  EXPECT_TRUE(is_valid_simd_width(64));
  EXPECT_TRUE(is_valid_simd_width(256));
  EXPECT_TRUE(is_valid_simd_width(512));
  EXPECT_FALSE(is_valid_simd_width(128));
  EXPECT_FALSE(is_valid_simd_width(0));

  const int prev = default_simd_width();
  EXPECT_TRUE(is_valid_simd_width(prev));
  set_default_simd_width(512);
  EXPECT_EQ(default_simd_width(), 512);
  EXPECT_THROW(set_default_simd_width(100), std::invalid_argument);
  EXPECT_EQ(default_simd_width(), 512);
  set_default_simd_width(prev);
}

}  // namespace
}  // namespace fsct
