// PODEM test generation on a pure combinational model with good/faulty pair
// simulation.  Works unchanged for sequential targets: unroll the circuit
// first (unroll.h) and pass the per-frame fault sites.
//
// Decisions are made only at controllable Input nodes; implication is full
// event-driven forward simulation (PairSim), so the search is the classic
// PODEM decision tree over primary-input assignments with backtrace guided by
// SCOAP controllability and a static distance-to-observation measure.  A
// fully tried decision is undone by unwinding PairSim's trail to the mark
// taken when it was made (DESIGN.md §5l).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "atpg/pair_sim.h"
#include "atpg/scoap.h"
#include "netlist/levelize.h"

namespace fsct {

class ObsRegistry;

enum class AtpgStatus : std::uint8_t {
  Detected,    ///< a test was found; see AtpgResult::assignment
  Untestable,  ///< decision space exhausted — no test exists in this model
  Aborted,     ///< backtrack limit hit — undecided
};

struct AtpgOptions {
  int backtrack_limit = 2000;
  /// Wall-clock budget per generate() call; 0 = unlimited.  Exceeding it
  /// returns Aborted (the role of the CPU limit the paper gives stg3).
  int time_limit_ms = 0;
  /// D-frontier gates considered per objective round (closest-to-observation
  /// first); bounds per-iteration work on very wide cones.
  int frontier_cap = 16;
  /// Observability sink (counters + decision-depth histogram, recorded once
  /// per generate() call).  nullptr = record nothing.
  ObsRegistry* obs = nullptr;
};

struct AtpgResult {
  AtpgStatus status = AtpgStatus::Aborted;
  /// Binary values of the controllable inputs of the detecting test
  /// (unlisted inputs are don't-care).
  std::vector<std::pair<NodeId, Val>> assignment;
  int decisions = 0;
  int backtracks = 0;
  /// True when an Aborted status was caused by the wall-clock budget rather
  /// than the backtrack limit.
  bool hit_time_limit = false;
};

/// PODEM engine bound to one (unrolled) combinational model.  Reusable across
/// many faults on the same model.
class Podem {
 public:
  /// `controllable` sized c->size(), true at assignable Input nodes;
  /// `observe` lists the nets checked for fault effects.
  Podem(std::shared_ptr<const SoaCircuit> c, std::vector<char> controllable,
        std::vector<NodeId> observe, AtpgOptions opt = {});
  /// PODEM on a base circuit (its memoized flat compilation).
  Podem(const Levelizer& lv, std::vector<char> controllable,
        std::vector<NodeId> observe, AtpgOptions opt = {})
      : Podem(SoaCircuit::compile(lv), std::move(controllable),
              std::move(observe), opt) {}

  /// Generates a test for the fault given by its site overrides.  When
  /// `attr_fault` >= 0 and the obs sink has attribution enabled, the call's
  /// work (calls/decisions/backtracks, the wall-truncation exclusion rule
  /// matching the counters, plus wall nanoseconds) is charged to that fault
  /// id in the per-fault attribution ledger.
  AtpgResult generate(std::span<const FaultSite> sites,
                      std::int64_t attr_fault = -1);

 private:
  struct Objective {
    NodeId net = kNullNode;
    Val val = Val::X;
  };

  // Scratch mark bits (mark_).
  static constexpr std::uint8_t kXpathMark = 1;
  static constexpr std::uint8_t kFrontierMark = 2;  // D-frontier dedupe
  // through_ entries: the chain-end net, with this bit set when the chain
  // inverts.
  static constexpr NodeId kInvert = NodeId{1} << 31;

  AtpgResult generate_impl(std::span<const FaultSite> sites);
  bool detected() const;
  void find_objectives(std::span<const FaultSite> sites,
                       std::vector<Objective>& out);
  void side_input_objectives(NodeId gate, std::vector<Objective>& out) const;
  bool backtrace(Objective obj, NodeId& pi, Val& pv) const;
  bool x_path_exists(NodeId from);

  std::vector<char> controllable_;
  std::vector<NodeId> observe_;
  std::vector<int> obs_dist_;  // static gate-distance to nearest observation
  Scoap scoap_;
  AtpgOptions opt_;
  PairSim sim_;
  std::vector<NodeId> through_;  // static pass-through chain end, see kInvert
  std::vector<std::uint8_t> mark_;
  // Per-call scratch, kept to avoid an allocation per objective round.
  std::vector<NodeId> frontier_;
  std::vector<NodeId> xpath_stack_;
  std::vector<NodeId> xpath_visited_;
};

}  // namespace fsct
