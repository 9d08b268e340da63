// Time-frame expansion: turns a sequential circuit into a pure combinational
// "iterative array" model suitable for PairSim/PODEM.  The model is written
// straight into flat arrays (types, a fanin CSR, inputs) and built as a
// SoaCircuit: no node names and no per-node containers (DESIGN.md §5m).
//
// Per frame, every combinational gate is copied.  Flip-flop boundaries become
// explicit capture buffers: frame f's BUF node for a flip-flop carries the
// value it captures at the end of frame f, and feeds its Q uses in frame
// f+1.  Frame-0 Q values are fresh Input nodes — controllable if the
// caller says so (enhanced-controllability prefix of a scan chain), otherwise
// left X (unknown power-up state).
//
// A stuck-at fault of the base circuit maps to one FaultSite per frame
// (stuck-at faults are permanent): gate faults map onto the per-frame copies,
// DFF D-pin faults onto the capture buffers, DFF Q (output) faults onto the
// frame-0 state Input *and* every capture buffer.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "atpg/pair_sim.h"
#include "fault/fault.h"
#include "netlist/levelize.h"
#include "sim/soa_circuit.h"
#include "sim/value.h"

namespace fsct {

/// What to unroll and how the environment constrains it.
struct UnrollSpec {
  /// The base circuit; its netlist is unrolled in its topological order.
  const Levelizer* base = nullptr;
  int frames = 1;
  /// PI -> constant held at that value in every frame (TPI scan-mode pins,
  /// including scan_mode = 1).
  std::vector<std::pair<NodeId, Val>> fixed_pis;
  /// Per base-FF index (netlist dffs() order): may ATPG choose the frame-0
  /// state of this FF?  (True for the fault-free controllable chain prefix.)
  std::vector<char> controllable_state;
  /// Per base-FF index: is the value captured by this FF observed in every
  /// frame?  (True for the fault-free observable chain suffix / scan-out.)
  std::vector<char> observable_ff;
  /// Observe the primary outputs of every frame.
  bool observe_pos = true;

  // ---- optional value-aware pruning ---------------------------------------
  // When `keep` is set, only flagged base nodes are materialised per frame;
  // a reference to an unflagged node is replaced by a constant of its
  // scan-mode value (`fold_values`, which must then be binary there).  Build
  // the mask with compute_keep_mask() so this invariant holds.
  const std::vector<char>* keep = nullptr;        // base-sized node mask
  const std::vector<Val>* fold_values = nullptr;  // base-sized scan-mode values
};

/// Computes a pruning mask for `unroll`: the backward closure (crossing
/// flip-flop boundaries) of `roots`, stopped at nodes that are *frozen* —
/// binary under `scan_values` and outside the fault's forward closure
/// (`fault_cone`, a node mask; pass empty to freeze on value alone).  Frozen
/// boundary nodes are left out of the mask and will be folded to constants.
std::vector<char> compute_keep_mask(const Levelizer& lv,
                                    const std::vector<Val>& scan_values,
                                    const std::vector<char>& fault_cone,
                                    std::span<const NodeId> roots);

/// Forward closure of a set of fault sites across flip-flop boundaries (node
/// mask): every node reachable from any of `sites`, found in one traversal.
std::vector<char> fault_forward_closure(const Levelizer& lv,
                                        std::span<const NodeId> sites);

/// The expanded model plus the bookkeeping needed to map a PODEM solution
/// back into a clocked test.
///
/// Node ids are creation order: the frame-0 state inputs, then per frame
/// its PI inputs, its combinational gates in base topological order and its
/// capture buffers, with the two shared constants created at first use.
struct UnrolledModel {
  /// The model's flat circuit (pure combinational: Input/Const sources).
  std::shared_ptr<const SoaCircuit> circuit;
  /// controllable[n] for every node of `circuit` (Input nodes ATPG may
  /// assign).
  std::vector<char> controllable;
  /// Nets checked for fault effects.
  std::vector<NodeId> observe;
  /// map[f][base_id] = node id in `circuit` of frame-f copy (combinational
  /// gates and PIs).  For a DFF base id it is the frame-f *Q* value node.
  std::vector<std::vector<NodeId>> map;
  /// cap[f][ff_index] = frame-f capture buffer of that FF.
  std::vector<std::vector<NodeId>> cap;
  /// frame_pi[f][pi_index] = frame-f node of that base PI (Input or Const).
  std::vector<std::vector<NodeId>> frame_pi;
  /// init_state[ff_index] = frame-0 Q Input node.
  std::vector<NodeId> init_state;

  /// FaultSites in `circuit` equivalent to base fault `f` in every frame.
  std::vector<FaultSite> map_fault(const Fault& f) const;

  int frames() const { return static_cast<int>(map.size()); }
};

/// Builds the iterative-array model.  Throws on bad spec sizes.
UnrolledModel unroll(const UnrollSpec& spec);

}  // namespace fsct
