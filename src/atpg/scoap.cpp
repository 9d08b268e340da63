#include "atpg/scoap.h"

#include <algorithm>
#include <span>

namespace fsct {
namespace {

Cost sat_add(Cost a, Cost b) { return std::min<Cost>(kInfCost, a + b); }

}  // namespace

Scoap compute_scoap(const SoaCircuit& circ,
                    const std::vector<char>& controllable) {
  Scoap s;
  s.cc01.assign(2 * circ.size(), kInfCost);
  const auto set = [&](NodeId id, Cost c0, Cost c1) {
    s.cc01[2 * std::size_t{id}] = c0;
    s.cc01[2 * std::size_t{id} + 1] = c1;
  };

  for (NodeId id = 0; id < circ.size(); ++id) {
    switch (circ.type(id)) {
      case GateType::Input:
        if (controllable[id]) set(id, 1, 1);
        break;
      case GateType::Const0: set(id, 0, kInfCost); break;
      case GateType::Const1: set(id, kInfCost, 0); break;
      case GateType::Dff:
        if (controllable[id]) set(id, 1, 1);
        break;
      default:
        break;
    }
  }

  for (NodeId id : circ.topo_order()) {
    const std::span<const NodeId> fins(circ.fanin(id), circ.fanin_count(id));
    auto min0 = [&] {
      Cost c = kInfCost;
      for (NodeId f : fins) c = std::min(c, s.cc0(f));
      return c;
    };
    auto min1 = [&] {
      Cost c = kInfCost;
      for (NodeId f : fins) c = std::min(c, s.cc1(f));
      return c;
    };
    auto sum0 = [&] {
      Cost c = 0;
      for (NodeId f : fins) c = sat_add(c, s.cc0(f));
      return c;
    };
    auto sum1 = [&] {
      Cost c = 0;
      for (NodeId f : fins) c = sat_add(c, s.cc1(f));
      return c;
    };
    Cost c0 = kInfCost, c1 = kInfCost;
    switch (circ.type(id)) {
      case GateType::Buf: c0 = s.cc0(fins[0]); c1 = s.cc1(fins[0]); break;
      case GateType::Not: c0 = s.cc1(fins[0]); c1 = s.cc0(fins[0]); break;
      case GateType::And: c0 = min0(); c1 = sum1(); break;
      case GateType::Nand: c1 = min0(); c0 = sum1(); break;
      case GateType::Or: c1 = min1(); c0 = sum0(); break;
      case GateType::Nor: c0 = min1(); c1 = sum0(); break;
      case GateType::Xor:
      case GateType::Xnor: {
        // Two-value parity cost over the fanins: cheapest assignments giving
        // even/odd parity (dynamic programming over pins).
        Cost even = 0, odd = kInfCost;
        for (NodeId f : fins) {
          const Cost e2 = std::min(sat_add(even, s.cc0(f)),
                                   sat_add(odd, s.cc1(f)));
          const Cost o2 = std::min(sat_add(even, s.cc1(f)),
                                   sat_add(odd, s.cc0(f)));
          even = e2;
          odd = o2;
        }
        if (circ.type(id) == GateType::Xor) {
          c0 = even;
          c1 = odd;
        } else {
          c0 = odd;
          c1 = even;
        }
        break;
      }
      case GateType::Mux: {
        const NodeId sel = fins[0], d0 = fins[1], d1 = fins[2];
        c0 = std::min(sat_add(s.cc0(sel), s.cc0(d0)),
                      sat_add(s.cc1(sel), s.cc0(d1)));
        c1 = std::min(sat_add(s.cc0(sel), s.cc1(d0)),
                      sat_add(s.cc1(sel), s.cc1(d1)));
        break;
      }
      default:
        break;
    }
    set(id, (c0 == kInfCost) ? kInfCost : sat_add(c0, 1),
        (c1 == kInfCost) ? kInfCost : sat_add(c1, 1));
  }
  return s;
}

}  // namespace fsct
