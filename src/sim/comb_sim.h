// Levelized combinational simulation, scalar (3-valued) and 64-way packed,
// with stuck-at fault injection hooks.
//
// The simulators evaluate every combinational gate of a Levelizer snapshot in
// topological order.  Source nodes (PIs, constants, DFF Q outputs) must be
// pre-set by the caller in the value vector; constants are overwritten with
// their fixed value for convenience.
#pragma once

#include <span>
#include <vector>

#include "netlist/levelize.h"
#include "sim/value.h"

namespace fsct {

/// A stuck value forced onto a circuit location during simulation.
/// pin == -1 forces the *output* of `node` (a stem fault; also works on PIs
/// and DFF outputs).  pin >= 0 forces what `node` *sees* on fanin pin `pin`
/// (a branch/pin fault; other fanouts of the driver are unaffected).
struct Injection {
  NodeId node = kNullNode;
  int pin = -1;
  Val value = Val::X;
};

/// Scalar 3-valued levelized simulator.  Like PackedCombSim it keeps a
/// per-node "injected" scratch flag, so one instance must not run() on two
/// threads at once.
class CombSim {
 public:
  explicit CombSim(const Levelizer& lv)
      : lv_(lv), injected_(lv.netlist().size(), 0) {}

  /// Evaluates all combinational gates into `values` (sized netlist.size();
  /// sources pre-set by caller).  `inj` forces stuck values; when several
  /// entries name the same (node, pin), the last one wins.  Only nodes that
  /// carry an injection scan the list.  A DFF node's entry in `values` is
  /// its Q (source) value and is NOT recomputed — the D-input value is read
  /// via d_value().
  void run(std::vector<Val>& values, std::span<const Injection> inj = {}) const;

  /// Value presented at a DFF's D pin after run(), honouring pin injections
  /// on the DFF itself.
  Val d_value(NodeId dff, const std::vector<Val>& values,
              std::span<const Injection> inj = {}) const;

  const Levelizer& levelizer() const { return lv_; }

 private:
  const Levelizer& lv_;
  mutable std::vector<char> injected_;  // per-node "has injection" scratch
};

/// Packed injection: forces `value` on the patterns selected by `mask`.
struct PackedInjection {
  NodeId node = kNullNode;
  int pin = -1;
  std::uint64_t mask = 0;
  Val value = Val::X;
};

/// 64-way packed levelized simulator (one bit position = one pattern, or one
/// faulty machine in parallel-fault mode).
class PackedCombSim {
 public:
  explicit PackedCombSim(const Levelizer& lv)
      : lv_(lv), injected_(lv.netlist().size(), 0) {}

  void run(std::vector<PackedVal>& values,
           std::span<const PackedInjection> inj = {}) const;

  /// Packed value at a DFF's D pin after run(), honouring pin injections.
  PackedVal d_value(NodeId dff, const std::vector<PackedVal>& values,
                    std::span<const PackedInjection> inj = {}) const;

  const Levelizer& levelizer() const { return lv_; }

 private:
  const Levelizer& lv_;
  mutable std::vector<char> injected_;  // per-node "has injection" scratch
};

}  // namespace fsct
