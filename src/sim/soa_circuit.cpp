#include "sim/soa_circuit.h"

#include <algorithm>
#include <atomic>

namespace fsct {

#ifndef FSCT_DEFAULT_SIMD_WIDTH
#define FSCT_DEFAULT_SIMD_WIDTH 256
#endif

static_assert(FSCT_DEFAULT_SIMD_WIDTH == 64 || FSCT_DEFAULT_SIMD_WIDTH == 256 ||
                  FSCT_DEFAULT_SIMD_WIDTH == 512,
              "FSCT_SIMD_WIDTH must be 64, 256 or 512");

namespace {
std::atomic<int> g_default_simd_width{FSCT_DEFAULT_SIMD_WIDTH};
}  // namespace

int default_simd_width() {
  return g_default_simd_width.load(std::memory_order_relaxed);
}

void set_default_simd_width(int bits) {
  if (!is_valid_simd_width(bits)) {
    throw std::invalid_argument("SIMD width must be 64, 256 or 512");
  }
  g_default_simd_width.store(bits, std::memory_order_relaxed);
}

std::shared_ptr<const SoaCircuit> SoaCircuit::compile(const Levelizer& lv) {
  // Memoized per Levelizer snapshot: every engine built on the same snapshot
  // (SeqFaultSim, PairSim, PODEM) shares one flat compilation.
  // The per-snapshot mutex is held across the build so concurrent first
  // compiles of the same snapshot serialize instead of duplicating work.
  const std::shared_ptr<LevelizerMemo> memo = lv.memo();
  std::lock_guard<std::mutex> lk(memo->m);
  if (memo->value) {
    return std::static_pointer_cast<const SoaCircuit>(memo->value);
  }
  const Netlist& nl = lv.netlist();
  const std::size_t n = nl.size();
  auto c = std::shared_ptr<SoaCircuit>(new SoaCircuit());

  c->type_.resize(n);
  c->level_.resize(n);
  c->max_level_ = lv.max_level();
  for (NodeId id = 0; id < n; ++id) {
    c->type_[id] = nl.type(id);
    c->level_[id] = lv.level(id);
    switch (nl.type(id)) {
      case GateType::Const0: c->const0_.push_back(id); break;
      case GateType::Const1: c->const1_.push_back(id); break;
      default: break;
    }
  }
  // inputs()/dffs() keep netlist creation order: callers index PI vectors
  // and flip-flop state by it.
  c->inputs_ = nl.inputs();
  c->dffs_ = nl.dffs();
  c->dff_d_.reserve(c->dffs_.size());
  for (NodeId dff : c->dffs_) c->dff_d_.push_back(nl.fanins(dff)[0]);

  // Flat fanins.
  c->fanin_off_.resize(n + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    c->fanin_off_[id + 1] =
        c->fanin_off_[id] + static_cast<std::uint32_t>(nl.fanins(id).size());
  }
  c->fanin_.resize(c->fanin_off_[n]);
  for (NodeId id = 0; id < n; ++id) {
    std::copy(nl.fanins(id).begin(), nl.fanins(id).end(),
              c->fanin_.begin() + c->fanin_off_[id]);
  }

  // Flat combinational-only fanouts, preserving Levelizer order (one entry
  // per connected pin).
  c->fanout_off_.resize(n + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    std::uint32_t k = 0;
    for (NodeId s : lv.fanouts(id)) k += is_combinational(nl.type(s));
    c->fanout_off_[id + 1] = c->fanout_off_[id] + k;
  }
  c->fanout_.resize(c->fanout_off_[n]);
  {
    std::vector<std::uint32_t> w(c->fanout_off_.begin(),
                                 c->fanout_off_.end() - 1);
    for (NodeId id = 0; id < n; ++id) {
      for (NodeId s : lv.fanouts(id)) {
        if (is_combinational(nl.type(s))) c->fanout_[w[id]++] = s;
      }
    }
  }

  // Level-major, type-sorted evaluation order.  topo_order() is already
  // level-compatible; a stable sort by (level, type) groups same-type gates
  // into runs without breaking level boundaries.  Ties keep topo order, so
  // the layout is deterministic.
  c->order_ = lv.topo_order();
  std::stable_sort(c->order_.begin(), c->order_.end(),
                   [&](NodeId a, NodeId b) {
                     if (c->level_[a] != c->level_[b]) {
                       return c->level_[a] < c->level_[b];
                     }
                     return static_cast<int>(c->type_[a]) <
                            static_cast<int>(c->type_[b]);
                   });
  for (std::uint32_t i = 0; i < c->order_.size();) {
    std::uint32_t j = i + 1;
    const GateType t = c->type_[c->order_[i]];
    const int lev = c->level_[c->order_[i]];
    while (j < c->order_.size() && c->type_[c->order_[j]] == t &&
           c->level_[c->order_[j]] == lev) {
      ++j;
    }
    c->runs_.push_back({t, i, j});
    i = j;
  }
  memo->value = c;
  return c;
}

}  // namespace fsct
