// Reference time-frame unroller for tests: builds the iterative-array model
// as a named Netlist, one add_input/add_gate per node, and levelizes the base
// circuit itself.  unroll() must produce the same model in flat form — node
// for node, pin for pin — so this is the oracle its array output is checked
// against (unroll_test.cpp).  to_netlist() turns a flat circuit back into a
// Netlist so tests can run Netlist::validate() on it.
#pragma once

#include <vector>

#include "atpg/unroll.h"
#include "netlist/netlist.h"

namespace fsct {

/// The reference model: the unrolled Netlist plus the same bookkeeping as
/// UnrolledModel (see there for the meaning of each field).
struct ReferenceUnrolledModel {
  Netlist nl;
  std::vector<char> controllable;
  std::vector<NodeId> observe;
  std::vector<std::vector<NodeId>> map;
  std::vector<std::vector<NodeId>> cap;
  std::vector<std::vector<NodeId>> frame_pi;
  std::vector<NodeId> init_state;
};

/// Builds the model of `spec` through the Netlist.  Throws as unroll() does.
ReferenceUnrolledModel unroll_reference(const UnrollSpec& spec);

/// The flat circuit as a Netlist with nodes named n<id>.  Throws (from the
/// Netlist) on a bad arity or a fanin that does not precede its gate.
Netlist to_netlist(const SoaCircuit& c);

}  // namespace fsct
