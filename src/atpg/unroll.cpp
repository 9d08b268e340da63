#include "atpg/unroll.h"

#include <stdexcept>
#include <unordered_map>

namespace fsct {

std::vector<char> fault_forward_closure(const Levelizer& lv,
                                        std::span<const NodeId> sites) {
  std::vector<char> cone(lv.netlist().size(), 0);
  std::vector<NodeId> stack;
  for (NodeId site : sites) {
    if (!cone[site]) {
      cone[site] = 1;
      stack.push_back(site);
    }
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId s : lv.fanouts(id)) {
      if (!cone[s]) {
        cone[s] = 1;
        stack.push_back(s);  // crosses DFFs: stuck-at faults persist
      }
    }
  }
  return cone;
}

std::vector<char> compute_keep_mask(const Levelizer& lv,
                                    const std::vector<Val>& scan_values,
                                    const std::vector<char>& fault_cone,
                                    std::span<const NodeId> roots) {
  const Netlist& nl = lv.netlist();
  auto frozen = [&](NodeId n) {
    if (!fault_cone.empty() && fault_cone[n]) return false;
    return scan_values[n] != Val::X;
  };
  std::vector<char> keep(nl.size(), 0);
  std::vector<NodeId> stack;
  for (NodeId r : roots) {
    if (!keep[r]) {
      keep[r] = 1;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId f : nl.fanins(id)) {
      if (keep[f] || frozen(f)) continue;
      keep[f] = 1;
      stack.push_back(f);  // DFF fanins cross the frame boundary uniformly
    }
  }
  return keep;
}

UnrolledModel unroll(const UnrollSpec& spec) {
  if (spec.base == nullptr || spec.frames < 1) {
    throw std::invalid_argument("unroll: bad spec");
  }
  if (spec.keep != nullptr && spec.fold_values == nullptr) {
    throw std::invalid_argument("unroll: keep requires fold_values");
  }
  const Levelizer& lv = *spec.base;
  const Netlist& b = lv.netlist();
  const std::size_t n_ff = b.dffs().size();
  const auto frames = static_cast<std::size_t>(spec.frames);
  if (spec.controllable_state.size() != n_ff ||
      spec.observable_ff.size() != n_ff) {
    throw std::invalid_argument("unroll: per-FF vector size mismatch");
  }

  auto kept = [&](NodeId id) {
    return spec.keep == nullptr || (*spec.keep)[id] != 0;
  };

  UnrolledModel m;
  m.map.assign(frames, std::vector<NodeId>(b.size(), kNullNode));
  m.cap.assign(frames, std::vector<NodeId>(n_ff, kNullNode));
  m.frame_pi.assign(frames, std::vector<NodeId>(b.inputs().size(), kNullNode));
  m.init_state.assign(n_ff, kNullNode);

  // The flat model.  Every kept node is copied once per frame (a kept DFF
  // as its capture buffer), plus the frame-0 state inputs and two constants.
  FlatNetlist out;
  {
    std::size_t nodes = 0, pins = 0;
    for (NodeId id = 0; id < b.size(); ++id) {
      if (!kept(id)) continue;
      ++nodes;
      pins += b.fanins(id).size();
    }
    out.type.reserve(nodes * (frames + 1) + 2);
    out.fanin_off.reserve(nodes * (frames + 1) + 3);
    out.fanin.reserve(pins * frames);
  }
  auto add_node = [&](GateType t, const NodeId* fins, std::size_t n) {
    const auto id = static_cast<NodeId>(out.type.size());
    out.type.push_back(t);
    out.fanin.insert(out.fanin.end(), fins, fins + n);
    out.fanin_off.push_back(static_cast<std::uint32_t>(out.fanin.size()));
    if (t == GateType::Input) out.inputs.push_back(id);
    return id;
  };

  NodeId const0 = kNullNode, const1 = kNullNode;
  auto get_const = [&](Val v) {
    if (v == Val::X) {
      throw std::logic_error("unroll: folding an X-valued node");
    }
    if (v == Val::Zero) {
      if (const0 == kNullNode) const0 = add_node(GateType::Const0, nullptr, 0);
      return const0;
    }
    if (const1 == kNullNode) const1 = add_node(GateType::Const1, nullptr, 0);
    return const1;
  };

  // Maps a base fanin reference within frame `fmap` to an unrolled node,
  // folding pruned nodes to their scan-mode constants.
  auto ref = [&](const std::vector<NodeId>& fmap, NodeId id) -> NodeId {
    if (!kept(id)) return get_const((*spec.fold_values)[id]);
    if (fmap[id] == kNullNode) {
      throw std::logic_error("unroll: reference to unbuilt node " +
                             b.node_name(id));
    }
    return fmap[id];
  };

  std::unordered_map<NodeId, Val> fixed;
  for (auto [pi, v] : spec.fixed_pis) fixed.emplace(pi, v);
  std::vector<NodeId> base_consts;
  for (NodeId id = 0; id < b.size(); ++id) {
    const GateType t = b.type(id);
    if (t == GateType::Const0 || t == GateType::Const1) base_consts.push_back(id);
  }

  // Frame-0 state inputs (only for kept flip-flops).
  for (std::size_t i = 0; i < n_ff; ++i) {
    const NodeId ff = b.dffs()[i];
    if (!kept(ff)) continue;
    m.init_state[i] = add_node(GateType::Input, nullptr, 0);
    m.map[0][ff] = m.init_state[i];
  }

  for (std::size_t f = 0; f < frames; ++f) {
    auto& fmap = m.map[f];
    // PIs.
    for (std::size_t i = 0; i < b.inputs().size(); ++i) {
      const NodeId pi = b.inputs()[i];
      NodeId u = kNullNode;
      if (auto it = fixed.find(pi); it != fixed.end()) {
        u = get_const(it->second);
      } else if (kept(pi)) {
        u = add_node(GateType::Input, nullptr, 0);
      }
      fmap[pi] = u;
      m.frame_pi[f][i] = u;
    }
    // Base constants.
    for (NodeId id : base_consts) {
      fmap[id] = get_const(b.type(id) == GateType::Const0 ? Val::Zero
                                                          : Val::One);
    }
    // Q values for frame f > 0 come from frame f-1 capture buffers.
    if (f > 0) {
      for (std::size_t i = 0; i < n_ff; ++i) {
        if (kept(b.dffs()[i])) fmap[b.dffs()[i]] = m.cap[f - 1][i];
      }
    }
    // Combinational gates.  Fanins are resolved before the gate is added:
    // a folded fanin may create a constant node first.
    NodeId fins[kMaxFanin];
    for (NodeId g : lv.topo_order()) {
      if (!kept(g)) continue;
      const std::span<const NodeId> bf = b.fanins(g);
      for (std::size_t k = 0; k < bf.size(); ++k) fins[k] = ref(fmap, bf[k]);
      fmap[g] = add_node(b.type(g), fins, bf.size());
    }
    // Capture buffers.
    for (std::size_t i = 0; i < n_ff; ++i) {
      const NodeId ff = b.dffs()[i];
      if (!kept(ff)) continue;
      const NodeId d = ref(fmap, b.fanins(ff)[0]);
      m.cap[f][i] = add_node(GateType::Buf, &d, 1);
    }
    // Observations.
    if (spec.observe_pos) {
      for (NodeId po : b.outputs()) {
        if (kept(po) && fmap[po] != kNullNode) m.observe.push_back(fmap[po]);
      }
    }
    for (std::size_t i = 0; i < n_ff; ++i) {
      if (spec.observable_ff[i] && kept(b.dffs()[i])) {
        m.observe.push_back(m.cap[f][i]);
      }
    }
  }

  // Controllability flags.
  m.controllable.assign(out.type.size(), 0);
  for (const std::vector<NodeId>& fpi : m.frame_pi) {
    for (NodeId u : fpi) {
      if (u != kNullNode && out.type[u] == GateType::Input) {
        m.controllable[u] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < n_ff; ++i) {
    if (spec.controllable_state[i] && m.init_state[i] != kNullNode) {
      m.controllable[m.init_state[i]] = 1;
    }
  }

  m.circuit = SoaCircuit::build(std::move(out));
  return m;
}

std::vector<FaultSite> UnrolledModel::map_fault(const Fault& f) const {
  std::vector<FaultSite> sites;
  const Val sv = f.stuck_one ? Val::One : Val::Zero;
  auto add = [&](NodeId node, int pin) {
    if (node == kNullNode) return;
    FaultSite s{node, pin, sv};
    for (const FaultSite& e : sites) {
      if (e.node == s.node && e.pin == s.pin) return;
    }
    sites.push_back(s);
  };
  // A base node is a DFF iff its frame-0 Q maps to one of the state inputs.
  bool is_dff = false;
  std::size_t ffi = 0;
  for (std::size_t i = 0; i < init_state.size(); ++i) {
    if (init_state[i] != kNullNode && map[0][f.node] == init_state[i]) {
      is_dff = true;
      ffi = i;
      break;
    }
  }
  if (is_dff) {
    if (f.pin == -1) {
      add(init_state[ffi], -1);
      for (int fr = 0; fr < frames(); ++fr) {
        add(cap[static_cast<std::size_t>(fr)][ffi], -1);
      }
    } else {
      for (int fr = 0; fr < frames(); ++fr) {
        add(cap[static_cast<std::size_t>(fr)][ffi], 0);
      }
    }
  } else {
    for (int fr = 0; fr < frames(); ++fr) {
      add(map[static_cast<std::size_t>(fr)][f.node], f.pin);
    }
  }
  return sites;
}

}  // namespace fsct
