#include "atpg/pair_sim.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace fsct {

namespace {

using rail::kOne;
using rail::kZero;

// The complement of a pair: each machine's 0- and 1-rails swap.
inline PairBits invert(PairBits b) {
  return static_cast<PairBits>(((b & kZero) << 1) | ((b >> 1) & kZero));
}

// Evaluates one gate for both machines at once; `in(p)` is pin p's pair.
// AND-type gates reduce as the OR and the AND of the fanin bytes: a machine
// is 0 when any input's 0-rail is set and 1 when every input's 1-rail is.
// XOR and MUX combine the rails pin by pin.
template <class In>
inline PairBits eval_pair(GateType t, std::uint32_t n, In in) {
  switch (t) {
    case GateType::Buf: return in(0);
    case GateType::Not: return invert(in(0));
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      PairBits any = 0, all = kZero | kOne;
      for (std::uint32_t p = 0; p < n; ++p) {
        const PairBits b = in(p);
        any |= b;
        all &= b;
      }
      if (t == GateType::And) return (any & kZero) | (all & kOne);
      if (t == GateType::Nand) return invert((any & kZero) | (all & kOne));
      if (t == GateType::Or) return (any & kOne) | (all & kZero);
      return invert((any & kOne) | (all & kZero));
    }
    case GateType::Xor:
    case GateType::Xnor: {
      PairBits acc = kZero;  // even parity so far, in both machines
      for (std::uint32_t p = 0; p < n; ++p) {
        const PairBits x = in(p);
        const PairBits a0 = acc & kZero, a1 = (acc >> 1) & kZero;
        const PairBits x0 = x & kZero, x1 = (x >> 1) & kZero;
        acc = static_cast<PairBits>(((a0 & x0) | (a1 & x1)) |
                                    (((a0 & x1) | (a1 & x0)) << 1));
      }
      return t == GateType::Xor ? acc : invert(acc);
    }
    case GateType::Mux: {
      // s=0 picks d0, s=1 picks d1, s=X agrees only where d0 == d1.
      const PairBits s = in(0), d0 = in(1), d1 = in(2);
      const PairBits s0 = s & kZero, s1 = (s >> 1) & kZero;
      const PairBits a0 = d0 & kZero, a1 = (d0 >> 1) & kZero;
      const PairBits b0 = d1 & kZero, b1 = (d1 >> 1) & kZero;
      return static_cast<PairBits>(
          ((s0 & a0) | (s1 & b0) | (a0 & b0)) |
          (((s0 & a1) | (s1 & b1) | (a1 & b1)) << 1));
    }
    case GateType::Const0: return kZero;
    case GateType::Const1: return kOne;
    default: return 0;  // Input: never evaluated
  }
}

}  // namespace

PairSim::PairSim(std::shared_ptr<const SoaCircuit> c) : soa_(std::move(c)) {
  const std::size_t n = soa_->size();
  val_.assign(n, 0);
  flag_.assign(n, 0);
  const std::size_t levels = static_cast<std::size_t>(soa_->max_level()) + 1;
  level_start_.assign(levels + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    ++level_start_[static_cast<std::size_t>(soa_->level(id)) + 1];
  }
  for (std::size_t l = 0; l < levels; ++l) {
    level_start_[l + 1] += level_start_[l];
  }
  level_fill_.assign(levels, 0);
  queue_.assign(n, kNullNode);
  level_bits_.assign((levels + 63) / 64, 0);
}

void PairSim::set_observed(std::span<const char> mask) {
  observed_effect_count_ = 0;
  for (NodeId id = 0; id < flag_.size(); ++id) {
    flag_[id] &= static_cast<std::uint8_t>(~kObserved);
    if (id < mask.size() && mask[id]) {
      flag_[id] |= kObserved;
      if (flag_[id] & kEffect) ++observed_effect_count_;
    }
  }
}

void PairSim::init(std::span<const FaultSite> sites) {
  const std::size_t n = soa_->size();
  std::fill(val_.begin(), val_.end(), PairBits{0});
  for (std::uint8_t& f : flag_) f &= kObserved;
  pin_sites_.clear();
  effect_list_.clear();
  effect_count_ = 0;
  observed_effect_count_ = 0;

  for (const FaultSite& s : sites) {
    if (s.pin >= 0) {
      pin_sites_.push_back(s);
      flag_[s.node] |= kPinSite;
    } else if (s.value != Val::X) {
      flag_[s.node] &= static_cast<std::uint8_t>(~(kForce0 | kForce1));
      flag_[s.node] |= (s.value == Val::One) ? kForce1 : kForce0;
    }
  }

  // Full settle: sources, then evaluation order.
  for (NodeId id = 0; id < n; ++id) {
    const GateType t = soa_->type(id);
    if (t == GateType::Const0 || t == GateType::Const1) {
      const Val v = (t == GateType::Const1) ? Val::One : Val::Zero;
      note_change(id, forced(id, rail::both(v)));
    } else if (t == GateType::Input) {
      note_change(id, forced(id, rail::both(Val::X)));
    } else if (t == GateType::Dff) {
      throw std::logic_error("PairSim requires a pure combinational netlist");
    }
  }
  for (NodeId id : soa_->topo_order()) note_change(id, eval_node(id));
  trail_.clear();
}

PairBits PairSim::forced(NodeId id, PairBits v) const {
  const std::uint8_t fl = flag_[id];
  if (!(fl & (kForce0 | kForce1))) return v;
  return (v & rail::kGood) | ((fl & kForce0) ? rail::kF0 : rail::kF1);
}

PairBits PairSim::eval_node(NodeId id) const {
  const SoaCircuit& c = *soa_;
  const NodeId* fins = c.fanin(id);
  const std::uint32_t n = c.fanin_count(id);
  PairBits v;
  if (!(flag_[id] & kPinSite)) {
    v = eval_pair(c.type(id), n,
                  [&](std::uint32_t p) { return val_[fins[p]]; });
  } else {
    // The faulty machine sees the site values on the faulted pins.
    PairBits ins[kMaxFanin];
    for (std::uint32_t p = 0; p < n; ++p) ins[p] = val_[fins[p]];
    for (const FaultSite& s : pin_sites_) {
      if (s.node != id) continue;
      PairBits& b = ins[s.pin];
      b = (b & rail::kGood) | (rail::both(s.value) & rail::kFaulty);
    }
    v = eval_pair(c.type(id), n, [&](std::uint32_t p) { return ins[p]; });
  }
  return forced(id, v);
}

void PairSim::note_change(NodeId id, PairBits nv) {
  if (val_[id] == nv) return;
  trail_.push_back({id, val_[id]});
  apply(id, nv);
}

void PairSim::apply(NodeId id, PairBits nv) {
  val_[id] = nv;
  std::uint8_t& fl = flag_[id];
  const bool eff = rail::effect(nv);
  if (eff && !(fl & kEffect)) {
    fl |= kEffect;
    ++effect_count_;
    if (fl & kObserved) ++observed_effect_count_;
    if (!(fl & kListed)) {
      fl |= kListed;
      effect_list_.push_back(id);
    }
  } else if (!eff && (fl & kEffect)) {
    fl &= static_cast<std::uint8_t>(~kEffect);
    --effect_count_;
    if (fl & kObserved) --observed_effect_count_;
    // lazy removal from effect_list_ (compacted in effect_nets())
  }
}

void PairSim::unwind_to(std::size_t mark) {
  for (std::size_t i = trail_.size(); i > mark; --i) {
    apply(trail_[i - 1].net, trail_[i - 1].old);
  }
  trail_.resize(std::min(mark, trail_.size()));
}

void PairSim::set_source(NodeId src, Val v) {
  const GateType t = soa_->type(src);
  if (is_combinational(t) || t == GateType::Dff) {
    throw std::invalid_argument("set_source on non-source node");
  }
  const PairBits pv = forced(src, rail::both(v));
  if (val_[src] == pv) return;
  note_change(src, pv);
  propagate_from(src);
}

void PairSim::propagate_from(NodeId src) {
  const SoaCircuit& c = *soa_;
  // Levels are swept in ascending order, each bucket in push order.  Fanouts
  // sit on strictly higher levels, so pushes only ever land ahead of the
  // sweep, and the sweep jumps from one non-empty level to the next with a
  // count-trailing-zeros over the level bitmap.
  std::size_t hi_word = 0;
  const auto enqueue_fanouts = [&](NodeId id) {
    const NodeId* fo = c.fanout(id);
    const std::uint32_t nfo = c.fanout_count(id);
    for (std::uint32_t k = 0; k < nfo; ++k) {
      const NodeId s = fo[k];
      if (flag_[s] & kQueued) continue;
      flag_[s] |= kQueued;
      const auto l = static_cast<std::size_t>(c.level(s));
      queue_[level_start_[l] + level_fill_[l]++] = s;
      level_bits_[l >> 6] |= std::uint64_t{1} << (l & 63);
      hi_word = std::max(hi_word, l >> 6);
    }
  };
  enqueue_fanouts(src);
  for (std::size_t w = 0; w <= hi_word; ++w) {
    while (level_bits_[w] != 0) {
      const std::size_t l =
          (w << 6) | static_cast<std::size_t>(std::countr_zero(level_bits_[w]));
      const NodeId* bucket = queue_.data() + level_start_[l];
      const std::uint32_t fill = level_fill_[l];  // no pushes to level l now
      for (std::uint32_t q = 0; q < fill; ++q) {
        const NodeId id = bucket[q];
        flag_[id] &= static_cast<std::uint8_t>(~kQueued);
        const PairBits nv = eval_node(id);
        if (nv == val_[id]) continue;
        note_change(id, nv);
        enqueue_fanouts(id);
      }
      level_fill_[l] = 0;
      level_bits_[w] &= level_bits_[w] - 1;  // level l is the lowest set bit
    }
  }
}

const std::vector<NodeId>& PairSim::effect_nets() {
  std::size_t w = 0;
  for (const NodeId id : effect_list_) {
    if (flag_[id] & kEffect) {
      effect_list_[w++] = id;
    } else {
      flag_[id] &= static_cast<std::uint8_t>(~kListed);
    }
  }
  effect_list_.resize(w);
  return effect_list_;
}

}  // namespace fsct
