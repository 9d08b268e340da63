#include "sim/comb_sim.h"

namespace fsct {
namespace {

// Applies every injection matching (node, pin) to the packed value.  Multiple
// matches are legal: parallel-fault simulation packs many faulty machines in
// one word, and two of them may target the same pin with different values.
void apply_packed(std::span<const PackedInjection> inj, NodeId node, int pin,
                  PackedVal& v) {
  for (const PackedInjection& i : inj) {
    if (i.node != node || i.pin != pin) continue;
    v.zero &= ~i.mask;
    v.one &= ~i.mask;
    if (i.value == Val::Zero) v.zero |= i.mask;
    if (i.value == Val::One) v.one |= i.mask;
  }
}

// Scalar: the last matching injection wins (single-fault use has one match).
bool apply_scalar(std::span<const Injection> inj, NodeId node, int pin,
                  Val& v) {
  bool hit = false;
  for (const Injection& i : inj) {
    if (i.node == node && i.pin == pin) {
      v = i.value;
      hit = true;
    }
  }
  return hit;
}

}  // namespace

void CombSim::run(std::vector<Val>& values,
                  std::span<const Injection> inj) const {
  const Netlist& nl = lv_.netlist();
  for (NodeId id = 0; id < nl.size(); ++id) {
    if (nl.type(id) == GateType::Const0) values[id] = Val::Zero;
    if (nl.type(id) == GateType::Const1) values[id] = Val::One;
  }
  for (const Injection& i : inj) {
    if (i.pin == -1 && !is_combinational(nl.type(i.node))) {
      values[i.node] = i.value;
    }
  }
  for (const Injection& i : inj) injected_[i.node] = 1;
  Val ins[kMaxFanin];
  for (NodeId id : lv_.topo_order()) {
    const auto fins = nl.fanins(id);
    const bool hit = injected_[id] != 0;
    for (std::size_t p = 0; p < fins.size(); ++p) {
      ins[p] = values[fins[p]];
      if (hit) apply_scalar(inj, id, static_cast<int>(p), ins[p]);
    }
    Val out = eval_gate(nl.type(id), ins, fins.size());
    if (hit) apply_scalar(inj, id, -1, out);
    values[id] = out;
  }
  for (const Injection& i : inj) injected_[i.node] = 0;
}

Val CombSim::d_value(NodeId dff, const std::vector<Val>& values,
                     std::span<const Injection> inj) const {
  Val v = values[lv_.netlist().fanins(dff)[0]];
  apply_scalar(inj, dff, 0, v);
  return v;
}

void PackedCombSim::run(std::vector<PackedVal>& values,
                        std::span<const PackedInjection> inj) const {
  const Netlist& nl = lv_.netlist();
  for (NodeId id = 0; id < nl.size(); ++id) {
    if (nl.type(id) == GateType::Const0) {
      values[id] = PackedVal::broadcast(Val::Zero);
    }
    if (nl.type(id) == GateType::Const1) {
      values[id] = PackedVal::broadcast(Val::One);
    }
  }
  for (const PackedInjection& i : inj) {
    if (i.pin == -1 && !is_combinational(nl.type(i.node))) {
      PackedVal& v = values[i.node];
      v.zero &= ~i.mask;
      v.one &= ~i.mask;
      if (i.value == Val::Zero) v.zero |= i.mask;
      if (i.value == Val::One) v.one |= i.mask;
    }
  }
  for (const PackedInjection& i : inj) injected_[i.node] = 1;
  PackedVal ins[kMaxFanin];
  for (NodeId id : lv_.topo_order()) {
    const auto fins = nl.fanins(id);
    const bool hit = injected_[id] != 0;
    for (std::size_t p = 0; p < fins.size(); ++p) {
      ins[p] = values[fins[p]];
      if (hit) apply_packed(inj, id, static_cast<int>(p), ins[p]);
    }
    PackedVal out = eval_gate_packed(nl.type(id), ins, fins.size());
    if (hit) apply_packed(inj, id, -1, out);
    values[id] = out;
  }
  for (const PackedInjection& i : inj) injected_[i.node] = 0;
}

PackedVal PackedCombSim::d_value(NodeId dff,
                                 const std::vector<PackedVal>& values,
                                 std::span<const PackedInjection> inj) const {
  PackedVal v = values[lv_.netlist().fanins(dff)[0]];
  apply_packed(inj, dff, 0, v);
  return v;
}

}  // namespace fsct
