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
  // (SeqFaultSim, PairSim, PODEM) shares one flat circuit.
  // The per-snapshot mutex is held across the build so concurrent first
  // compiles of the same snapshot serialize instead of duplicating work.
  const std::shared_ptr<LevelizerMemo> memo = lv.memo();
  std::lock_guard<std::mutex> lk(memo->m);
  if (memo->value) {
    return std::static_pointer_cast<const SoaCircuit>(memo->value);
  }
  const Netlist& nl = lv.netlist();
  const std::size_t n = nl.size();
  FlatNetlist flat;
  flat.type.resize(n);
  flat.fanin_off.resize(n + 1);
  for (NodeId id = 0; id < n; ++id) {
    flat.type[id] = nl.type(id);
    flat.fanin_off[id + 1] =
        flat.fanin_off[id] + static_cast<std::uint32_t>(nl.fanins(id).size());
  }
  flat.fanin.reserve(flat.fanin_off[n]);
  for (NodeId id = 0; id < n; ++id) {
    flat.fanin.insert(flat.fanin.end(), nl.fanins(id).begin(),
                      nl.fanins(id).end());
  }
  // inputs()/dffs() keep netlist creation order: callers index PI vectors
  // and flip-flop state by it.
  flat.inputs = nl.inputs();
  flat.dffs = nl.dffs();
  std::shared_ptr<const SoaCircuit> c = build(std::move(flat));
  memo->value = c;
  return c;
}

std::shared_ptr<const SoaCircuit> SoaCircuit::build(FlatNetlist flat) {
  auto c = std::shared_ptr<SoaCircuit>(new SoaCircuit());
  c->type_ = std::move(flat.type);
  c->fanin_off_ = std::move(flat.fanin_off);
  c->fanin_ = std::move(flat.fanin);
  c->inputs_ = std::move(flat.inputs);
  c->dffs_ = std::move(flat.dffs);
  const std::size_t n = c->type_.size();
  const auto comb = [&](NodeId id) { return is_combinational(c->type_[id]); };

  c->dff_d_.reserve(c->dffs_.size());
  for (NodeId dff : c->dffs_) c->dff_d_.push_back(c->fanin(dff)[0]);
  for (NodeId id = 0; id < n; ++id) {
    if (c->type_[id] == GateType::Const0) c->const0_.push_back(id);
    if (c->type_[id] == GateType::Const1) c->const1_.push_back(id);
  }

  // Combinational-only fanouts, one entry per pin.  Filling in sink-id order
  // lists each node's sinks in the order a Levelizer does.  `pending` counts
  // each gate's combinational fanin pins for the Kahn pass below.
  std::vector<std::uint32_t> pending(n, 0);
  c->fanout_off_.assign(n + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    if (!comb(id)) continue;
    for (std::uint32_t k = 0; k < c->fanin_count(id); ++k) {
      const NodeId f = c->fanin(id)[k];
      ++c->fanout_off_[f + 1];
      pending[id] += comb(f);
    }
  }
  for (std::size_t id = 0; id < n; ++id) {
    c->fanout_off_[id + 1] += c->fanout_off_[id];
  }
  c->fanout_.resize(c->fanout_off_[n]);
  {
    std::vector<std::uint32_t> w(c->fanout_off_.begin(),
                                 c->fanout_off_.end() - 1);
    for (NodeId id = 0; id < n; ++id) {
      if (!comb(id)) continue;
      for (std::uint32_t k = 0; k < c->fanin_count(id); ++k) {
        c->fanout_[w[c->fanin(id)[k]]++] = id;
      }
    }
  }

  // Kahn's algorithm over the combinational gates, exactly as Levelizer runs
  // it: topo_ doubles as the ready queue.  Sources, constants and flip-flops
  // sit on level 0.
  c->level_.assign(n, 0);
  c->topo_.reserve(n);
  std::size_t n_comb = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (!comb(id)) continue;
    ++n_comb;
    if (pending[id] == 0) c->topo_.push_back(id);
  }
  for (std::size_t head = 0; head < c->topo_.size(); ++head) {
    const NodeId id = c->topo_[head];
    int lvl = 0;
    for (std::uint32_t k = 0; k < c->fanin_count(id); ++k) {
      lvl = std::max(lvl, c->level_[c->fanin(id)[k]] + 1);
    }
    c->level_[id] = lvl;
    c->max_level_ = std::max(c->max_level_, lvl);
    for (std::uint32_t k = 0; k < c->fanout_count(id); ++k) {
      const NodeId s = c->fanout(id)[k];
      if (--pending[s] == 0) c->topo_.push_back(s);
    }
  }
  if (c->topo_.size() != n_comb) {
    throw std::runtime_error("levelize: combinational cycle");
  }

  // Level-major, type-sorted evaluation order: a counting sort of the topo
  // order on (level, type), which keeps topo order among ties exactly as a
  // stable sort would, so the layout is deterministic.
  constexpr std::size_t kTypes = static_cast<std::size_t>(GateType::Dff) + 1;
  const auto key = [&](NodeId id) {
    return static_cast<std::size_t>(c->level_[id]) * kTypes +
           static_cast<std::size_t>(c->type_[id]);
  };
  std::vector<std::uint32_t> start(
      (static_cast<std::size_t>(c->max_level_) + 1) * kTypes + 1, 0);
  for (NodeId id : c->topo_) ++start[key(id) + 1];
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  c->order_.resize(c->topo_.size());
  for (NodeId id : c->topo_) c->order_[start[key(id)]++] = id;
  for (std::uint32_t i = 0; i < c->order_.size();) {
    std::uint32_t j = i + 1;
    const std::size_t k = key(c->order_[i]);
    while (j < c->order_.size() && key(c->order_[j]) == k) ++j;
    c->runs_.push_back({c->type_[c->order_[i]], i, j});
    i = j;
  }
  return c;
}

}  // namespace fsct
