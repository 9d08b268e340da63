#include "fault/comb_fault_sim.h"

#include <bit>
#include <stdexcept>

#include "core/obs.h"

namespace fsct {

CombFaultSim::CombFaultSim(const Levelizer& lv, std::vector<NodeId> observe)
    : lv_(lv), observe_(std::move(observe)) {
  const Netlist& nl = lv_.netlist();
  observed_net_.assign(nl.size(), 0);
  for (NodeId n : observe_) {
    if (nl.type(n) == GateType::Dff) {
      observed_net_[nl.fanins(n)[0]] = 1;  // observe the D pin's net
    } else {
      observed_net_[n] = 1;
    }
  }
}

CombFaultSim::Scratch CombFaultSim::make_scratch(
    const std::vector<PackedVal>& good) const {
  Scratch s;
  s.cur = good;
  s.buckets.resize(static_cast<std::size_t>(lv_.max_level()) + 1);
  s.queued.assign(lv_.netlist().size(), 0);
  return s;
}

std::uint64_t CombFaultSim::simulate_fault(const Fault& f,
                                           const std::vector<PackedVal>& good,
                                           Scratch& s) const {
  const Netlist& nl = lv_.netlist();
  std::uint64_t det = 0;

  PackedVal ins[kMaxFanin];
  auto eval_cur = [&](NodeId id, const Fault* pin_fault) {
    const auto fins = nl.fanins(id);
    for (std::size_t p = 0; p < fins.size(); ++p) {
      ins[p] = s.cur[fins[p]];
      if (pin_fault && pin_fault->node == id &&
          pin_fault->pin == static_cast<int>(p)) {
        ins[p] = PackedVal::broadcast(pin_fault->stuck_one ? Val::One
                                                           : Val::Zero);
      }
    }
    return eval_gate_packed(nl.type(id), ins, fins.size());
  };

  // Seed the event queue with the fault site's effect.
  auto touch = [&](NodeId id, PackedVal v) {
    if (v == s.cur[id]) return;
    ++s.events;
    s.cur[id] = v;
    s.dirty.push_back(id);
    if (observed_net_[id]) {
      det |= (good[id].zero & v.one) | (good[id].one & v.zero);
    }
    for (NodeId n : lv_.fanouts(id)) {
      if (is_combinational(nl.type(n)) && !s.queued[n]) {
        s.queued[n] = 1;
        s.buckets[static_cast<std::size_t>(lv_.level(n))].push_back(n);
      }
    }
  };

  const Val sv = f.stuck_one ? Val::One : Val::Zero;
  if (f.pin == -1) {
    touch(f.node, PackedVal::broadcast(sv));
  } else if (!s.queued[f.node] && is_combinational(nl.type(f.node))) {
    s.queued[f.node] = 1;
    s.buckets[static_cast<std::size_t>(lv_.level(f.node))].push_back(f.node);
  } else if (nl.type(f.node) == GateType::Dff) {
    // D-pin fault of a DFF: the observed D net is healthy, but the value
    // captured is stuck.  In the combinational view this is equivalent to
    // observing a constant at that D pin; we model it by direct compare.
    const NodeId dnet = nl.fanins(f.node)[0];
    if (observed_net_[dnet]) {
      const PackedVal g = good[dnet];
      det |= (sv == Val::One) ? g.zero : g.one;
    }
  }

  // Propagate level by level.
  for (auto& bucket : s.buckets) {
    for (std::size_t bi = 0; bi < bucket.size(); ++bi) {
      const NodeId id = bucket[bi];
      s.queued[id] = 0;
      const bool site = (f.pin >= 0 && f.node == id);
      PackedVal v = eval_cur(id, site ? &f : nullptr);
      if (f.pin == -1 && f.node == id) v = PackedVal::broadcast(sv);
      touch(id, v);
    }
    bucket.clear();
  }

  // Restore good values.
  for (NodeId id : s.dirty) s.cur[id] = good[id];
  s.dirty.clear();
  return det;
}

CombFaultSimResult CombFaultSim::run(std::span<const CombPattern> patterns,
                                     std::span<const Fault> faults,
                                     ThreadPool* pool,
                                     ObsRegistry* obs) const {
  const ObsSpan run_span(obs, "ppsfp.run");
  const Netlist& nl = lv_.netlist();
  const std::size_t n_pi = nl.inputs().size();
  const std::size_t n_ff = nl.dffs().size();

  CombFaultSimResult res;
  res.detect_pattern.assign(faults.size(), -1);

  PackedCombSim psim(lv_);
  std::vector<PackedVal> good(nl.size());

  for (std::size_t pbase = 0; pbase < patterns.size(); pbase += 64) {
    const std::size_t pchunk = std::min<std::size_t>(64, patterns.size() - pbase);

    // Load sources for this block of patterns.
    for (std::size_t i = 0; i < n_pi; ++i) good[nl.inputs()[i]] = {};
    for (std::size_t i = 0; i < n_ff; ++i) good[nl.dffs()[i]] = {};
    for (std::size_t k = 0; k < pchunk; ++k) {
      const CombPattern& pat = patterns[pbase + k];
      if (pat.size() != n_pi + n_ff) {
        throw std::invalid_argument("pattern size != #PI + #FF");
      }
      for (std::size_t i = 0; i < n_pi; ++i) {
        good[nl.inputs()[i]].set(static_cast<unsigned>(k), pat[i]);
      }
      for (std::size_t i = 0; i < n_ff; ++i) {
        good[nl.dffs()[i]].set(static_cast<unsigned>(k), pat[n_pi + i]);
      }
    }
    psim.run(good);

    if (obs) obs->add(Ctr::PpsfpBlocks);
    const std::uint64_t valid =
        (pchunk == 64) ? ~0ull : ((1ull << pchunk) - 1);
    auto record = [&](std::size_t fi, std::uint64_t det) {
      det &= valid;
      if (det != 0) {
        res.detect_pattern[fi] =
            static_cast<int>(pbase) + std::countr_zero(det);
        return true;
      }
      return false;
    };

    if (pool != nullptr && pool->jobs() > 1) {
      const std::size_t grain = parallel_grain(faults.size(), pool->jobs(), 16);
      parallel_for(*pool, faults.size(), grain,
                   [&](std::size_t b, std::size_t e) {
                     const ObsSpan span(obs, "ppsfp.chunk");
                     Scratch s = make_scratch(good);
                     std::uint64_t sims = 0, dropped = 0;
                     for (std::size_t fi = b; fi < e; ++fi) {
                       if (res.detect_pattern[fi] >= 0) continue;  // dropped
                       ++sims;
                       dropped += record(fi, simulate_fault(faults[fi], good, s));
                     }
                     if (obs) {
                       obs->add(Ctr::PpsfpFaultSims, sims);
                       obs->add(Ctr::PpsfpEvents, s.events);
                       obs->add(Ctr::PpsfpFaultsDropped, dropped);
                     }
                   });
    } else {
      Scratch s = make_scratch(good);
      std::uint64_t sims = 0, dropped = 0;
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (res.detect_pattern[fi] >= 0) continue;  // fault dropping
        ++sims;
        dropped += record(fi, simulate_fault(faults[fi], good, s));
      }
      if (obs) {
        obs->add(Ctr::PpsfpFaultSims, sims);
        obs->add(Ctr::PpsfpEvents, s.events);
        obs->add(Ctr::PpsfpFaultsDropped, dropped);
      }
    }
  }
  return res;
}

}  // namespace fsct
