#include "unroll_reference.h"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "netlist/levelize.h"

namespace fsct {

ReferenceUnrolledModel unroll_reference(const UnrollSpec& spec) {
  if (spec.base == nullptr || spec.frames < 1) {
    throw std::invalid_argument("unroll: bad spec");
  }
  if (spec.keep != nullptr && spec.fold_values == nullptr) {
    throw std::invalid_argument("unroll: keep requires fold_values");
  }
  const Netlist& b = spec.base->netlist();
  const std::size_t n_ff = b.dffs().size();
  if (spec.controllable_state.size() != n_ff ||
      spec.observable_ff.size() != n_ff) {
    throw std::invalid_argument("unroll: per-FF vector size mismatch");
  }
  Levelizer lv(b);

  auto kept = [&](NodeId id) {
    return spec.keep == nullptr || (*spec.keep)[id] != 0;
  };

  ReferenceUnrolledModel m;
  m.nl.set_name(b.name() + "_x" + std::to_string(spec.frames));
  m.map.assign(static_cast<std::size_t>(spec.frames),
               std::vector<NodeId>(b.size(), kNullNode));
  m.cap.assign(static_cast<std::size_t>(spec.frames),
               std::vector<NodeId>(n_ff, kNullNode));
  m.frame_pi.assign(static_cast<std::size_t>(spec.frames), {});
  m.init_state.assign(n_ff, kNullNode);

  NodeId const0 = kNullNode, const1 = kNullNode;
  auto get_const = [&](Val v) {
    if (v == Val::X) {
      throw std::logic_error("unroll: folding an X-valued node");
    }
    if (v == Val::Zero) {
      if (const0 == kNullNode) const0 = m.nl.add_const(false, "_const0");
      return const0;
    }
    if (const1 == kNullNode) const1 = m.nl.add_const(true, "_const1");
    return const1;
  };

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

  for (std::size_t i = 0; i < n_ff; ++i) {
    const NodeId ff = b.dffs()[i];
    if (!kept(ff)) continue;
    m.init_state[i] = m.nl.add_input(b.node_name(ff) + "@s0");
    m.map[0][ff] = m.init_state[i];
  }

  for (int f = 0; f < spec.frames; ++f) {
    const std::string suf = "@" + std::to_string(f);
    auto& fmap = m.map[static_cast<std::size_t>(f)];
    m.frame_pi[static_cast<std::size_t>(f)].assign(b.inputs().size(),
                                                   kNullNode);
    for (std::size_t i = 0; i < b.inputs().size(); ++i) {
      const NodeId pi = b.inputs()[i];
      NodeId u = kNullNode;
      if (auto it = fixed.find(pi); it != fixed.end()) {
        u = get_const(it->second);
      } else if (kept(pi)) {
        u = m.nl.add_input(b.node_name(pi) + suf);
      }
      fmap[pi] = u;
      m.frame_pi[static_cast<std::size_t>(f)][i] = u;
    }
    for (NodeId id = 0; id < b.size(); ++id) {
      if (b.type(id) == GateType::Const0) fmap[id] = get_const(Val::Zero);
      if (b.type(id) == GateType::Const1) fmap[id] = get_const(Val::One);
    }
    if (f > 0) {
      for (std::size_t i = 0; i < n_ff; ++i) {
        if (kept(b.dffs()[i])) {
          fmap[b.dffs()[i]] = m.cap[static_cast<std::size_t>(f - 1)][i];
        }
      }
    }
    for (NodeId g : lv.topo_order()) {
      if (!kept(g)) continue;
      std::vector<NodeId> fins;
      fins.reserve(b.fanins(g).size());
      for (NodeId x : b.fanins(g)) fins.push_back(ref(fmap, x));
      fmap[g] = m.nl.add_gate(b.type(g), std::move(fins), b.node_name(g) + suf);
    }
    for (std::size_t i = 0; i < n_ff; ++i) {
      const NodeId ff = b.dffs()[i];
      if (!kept(ff)) continue;
      const NodeId dnet = b.fanins(ff)[0];
      m.cap[static_cast<std::size_t>(f)][i] = m.nl.add_gate(
          GateType::Buf, {ref(fmap, dnet)},
          b.node_name(ff) + "@c" + std::to_string(f));
    }
    if (spec.observe_pos) {
      for (NodeId po : b.outputs()) {
        if (kept(po) && fmap[po] != kNullNode) m.observe.push_back(fmap[po]);
      }
    }
    for (std::size_t i = 0; i < n_ff; ++i) {
      if (spec.observable_ff[i] && kept(b.dffs()[i])) {
        m.observe.push_back(m.cap[static_cast<std::size_t>(f)][i]);
      }
    }
  }

  m.controllable.assign(m.nl.size(), 0);
  for (int f = 0; f < spec.frames; ++f) {
    for (std::size_t i = 0; i < b.inputs().size(); ++i) {
      const NodeId u = m.frame_pi[static_cast<std::size_t>(f)][i];
      if (u != kNullNode && m.nl.type(u) == GateType::Input) {
        m.controllable[u] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < n_ff; ++i) {
    if (spec.controllable_state[i] && m.init_state[i] != kNullNode) {
      m.controllable[m.init_state[i]] = 1;
    }
  }
  return m;
}

Netlist to_netlist(const SoaCircuit& c) {
  Netlist nl("flat");
  for (NodeId id = 0; id < c.size(); ++id) {
    const std::string name = "n" + std::to_string(id);
    switch (c.type(id)) {
      case GateType::Input: nl.add_input(name); break;
      case GateType::Const0: nl.add_const(false, name); break;
      case GateType::Const1: nl.add_const(true, name); break;
      case GateType::Dff: nl.add_dff(c.fanin(id)[0], name); break;
      default:
        nl.add_gate(c.type(id),
                    {c.fanin(id), c.fanin(id) + c.fanin_count(id)}, name);
        break;
    }
  }
  return nl;
}

}  // namespace fsct
