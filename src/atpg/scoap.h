// SCOAP-style testability measures used to guide PODEM's backtrace.
//
// CC0/CC1 are the classic combinational controllability costs (Goldstein's
// rules, saturating arithmetic).  DFF outputs and uncontrollable sources are
// given infinite cost so backtrace steers toward assignable primary inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/levelize.h"

namespace fsct {

/// Saturating cost type; kInfCost means "cannot be controlled".
using Cost = std::uint32_t;
inline constexpr Cost kInfCost = 0x3fffffff;

/// Combinational controllability of every net, cc0 and cc1 interleaved so
/// that PODEM's backtrace reads both costs of a net from one cache line.
struct Scoap {
  /// cc01[2n] is the cost of setting net n to 0, cc01[2n + 1] to 1.
  std::vector<Cost> cc01;

  Cost cc0(NodeId n) const { return cc01[2 * std::size_t{n}]; }
  Cost cc1(NodeId n) const { return cc01[2 * std::size_t{n} + 1]; }
  Cost cc(NodeId n, bool one) const { return cc01[2 * std::size_t{n} + one]; }
};

/// Computes CC0/CC1.  `controllable` flags the source nodes (PIs / pseudo-PIs)
/// that ATPG may assign; all other sources get kInfCost for both values
/// except constants, which are free for their own value.
Scoap compute_scoap(const Levelizer& lv, const std::vector<char>& controllable);

}  // namespace fsct
