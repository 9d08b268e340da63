// Good/faulty pair simulation for ATPG (the 5-valued D-calculus: a net whose
// pair is (1,0) carries D, (0,1) carries D').
//
// PairSim works on a *pure combinational* netlist (sources are Input/Const
// nodes only — sequential circuits are first unrolled, see unroll.h).  The
// fault is a set of FaultSite overrides applied to the faulty component only;
// multiple sites model the same stuck-at fault replicated across time frames.
//
// Each net's pair is one dual-rail byte (PairBits): a "is 0" and a "is 1"
// rail per machine, so one pass over a gate's fanin bytes evaluates the good
// and the faulty machine together.  set_source() performs event-driven
// forward update over level buckets, so PODEM's assign/flip cycle costs only
// the affected cone, and every net change is recorded on a trail so that
// unwind_to() undoes a whole run of assignments without re-simulating
// (DESIGN.md §5l).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/levelize.h"
#include "sim/soa_circuit.h"
#include "sim/value.h"

namespace fsct {

/// Good/faulty value pair of one net.
struct PairVal {
  Val g = Val::X;  ///< fault-free machine
  Val f = Val::X;  ///< faulty machine
  friend bool operator==(const PairVal&, const PairVal&) = default;
};

/// True when the net carries a definite fault effect (D or D').
inline bool has_effect(PairVal v) {
  return v.g != Val::X && v.f != Val::X && v.g != v.f;
}

/// Dual-rail pair value of one net: bit 0 "good is 0", bit 1 "good is 1",
/// bit 2 "faulty is 0", bit 3 "faulty is 1".  A machine with neither of its
/// bits set is X; both set never occurs.
using PairBits = std::uint8_t;

namespace rail {
inline constexpr PairBits kG0 = 1, kG1 = 2, kF0 = 4, kF1 = 8;
inline constexpr PairBits kGood = kG0 | kG1;
inline constexpr PairBits kFaulty = kF0 | kF1;
inline constexpr PairBits kZero = kG0 | kF0;  ///< the 0-rails of both machines
inline constexpr PairBits kOne = kG1 | kF1;   ///< the 1-rails of both machines

/// Good machine is X.
inline bool good_x(PairBits b) { return (b & kGood) == 0; }
/// Good value as a Val.
inline Val good(PairBits b) {
  return (b & kG0) ? Val::Zero : (b & kG1) ? Val::One : Val::X;
}
/// Carries D (good 1, faulty 0) or D' (good 0, faulty 1).
inline bool effect(PairBits b) {
  return b == (kG1 | kF0) || b == (kG0 | kF1);
}
/// Both machines binary.
inline bool binary(PairBits b) { return (b & kGood) && (b & kFaulty); }
/// The pair value with both machines at `v`.
inline PairBits both(Val v) {
  return v == Val::Zero ? kZero : v == Val::One ? kOne : PairBits{0};
}
}  // namespace rail

/// One stuck-at override in the faulty machine.  pin == -1 forces the node's
/// output; pin >= 0 forces what the node sees on that fanin pin.
struct FaultSite {
  NodeId node = kNullNode;
  int pin = -1;
  Val value = Val::X;
};

/// Event-driven good/faulty pair simulator.
class PairSim {
 public:
  explicit PairSim(const Levelizer& lv);

  /// Resets all nets to X, installs the fault sites, settles the circuit
  /// (constants propagate) and empties the trail.  Must be called before
  /// set_source.
  void init(std::span<const FaultSite> sites);

  /// Assigns the good value of a source node (Val::X un-assigns) and
  /// propagates.  The faulty component follows the good one except where a
  /// site overrides it.
  void set_source(NodeId src, Val v);

  /// Current trail position; pass it to unwind_to() to come back here.
  std::size_t trail_mark() const { return trail_.size(); }

  /// Restores every net changed since trail_mark() returned `mark`, newest
  /// change first.  Undoing the assignments made since the mark this way
  /// leaves exactly the state set_source(src, X) for each of them would (the
  /// values, effects, counts and effect_nets() order; see DESIGN.md §5l).
  void unwind_to(std::size_t mark);

  /// Current pair value of a net.
  PairVal value(NodeId n) const {
    const PairBits b = val_[n];
    return {rail::good(b), rail::good(static_cast<PairBits>(b >> 2))};
  }
  /// Current pair value of a net, dual-rail encoded.
  PairBits bits(NodeId n) const { return val_[n]; }

  /// True if any net currently carries D/D'.
  bool any_effect() const { return effect_count_ > 0; }

  /// Marks the nets whose effects any_observed_effect() reports (`mask`
  /// sized netlist.size()).  Survives init(); PODEM sets its observation
  /// points once and gets an O(1) "detected" predicate.
  void set_observed(std::span<const char> mask);
  bool observed(NodeId n) const { return (flag_[n] & kObserved) != 0; }

  /// True if any net marked by set_observed() currently carries D/D'.
  bool any_observed_effect() const { return observed_effect_count_ > 0; }

  /// Nets currently carrying D/D' (compacted on call).
  const std::vector<NodeId>& effect_nets();

  const Levelizer& levelizer() const { return lv_; }

  /// The flat compiled view this simulator runs on (shared with PODEM for
  /// combinational-fanout walks).
  const SoaCircuit& soa() const { return *soa_; }

 private:
  // Per-net flag bits (flag_).
  static constexpr std::uint8_t kPinSite = 1;  // a pin site sits on this gate
  static constexpr std::uint8_t kForce0 = 2;   // faulty output forced to 0
  static constexpr std::uint8_t kForce1 = 4;   // faulty output forced to 1
  static constexpr std::uint8_t kObserved = 8;
  static constexpr std::uint8_t kEffect = 16;  // carries D/D'
  static constexpr std::uint8_t kListed = 32;  // present in effect_list_
  static constexpr std::uint8_t kQueued = 64;  // in a level bucket

  struct TrailEntry {
    NodeId net;
    PairBits old;
  };

  PairBits eval_node(NodeId id) const;
  /// `v` with the faulty rails replaced where an output site forces them.
  PairBits forced(NodeId id, PairBits v) const;
  void propagate_from(NodeId src);
  void note_change(NodeId id, PairBits nv);
  void apply(NodeId id, PairBits nv);

  const Levelizer& lv_;
  std::shared_ptr<const SoaCircuit> soa_;
  std::vector<PairBits> val_;
  std::vector<std::uint8_t> flag_;
  std::vector<FaultSite> pin_sites_;  // every pin site of the current fault
  std::vector<NodeId> effect_list_;   // may contain stale entries; compacted
  std::size_t effect_count_ = 0;
  std::size_t observed_effect_count_ = 0;
  std::vector<TrailEntry> trail_;
  // Propagation scratch.  A net is queued at most once per propagation, so
  // one array of size() holds every level's bucket: level l owns
  // queue_[level_start_[l], level_start_[l] + level_fill_[l]).  One bit per
  // level is set while its bucket is non-empty.
  std::vector<NodeId> queue_;
  std::vector<std::uint32_t> level_start_;
  std::vector<std::uint32_t> level_fill_;
  std::vector<std::uint64_t> level_bits_;
};

}  // namespace fsct
