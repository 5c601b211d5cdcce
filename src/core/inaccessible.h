// Copyright 2026 The LTAM Authors.
// The inaccessible-location finding problem (Section 6, Definitions 8-9,
// Algorithm 1).
//
// Given a subject, a set of authorizations, and a (multilevel) location
// graph, a location is *inaccessible* if no authorized route with access
// request duration [0, inf) reaches it from the entry locations. The
// algorithm associates with every location an overall grant time T^g and
// an overall departure time T^d (interval sets), seeds the entry
// locations from their authorizations, and propagates grant/departure
// windows to neighbors until a fixpoint; locations whose T^g stays null
// are inaccessible.

#ifndef LTAM_CORE_INACCESSIBLE_H_
#define LTAM_CORE_INACCESSIBLE_H_

#include <string>
#include <vector>

#include "core/auth_database.h"
#include "graph/multilevel_graph.h"
#include "time/interval_set.h"

namespace ltam {

/// Which propagation strategy to run.
enum class InaccessibleAlgorithm : uint8_t {
  /// Faithful Algorithm 1: repeated sweeps over all flagged locations
  /// (the while/for structure of the paper, lines 14-34).
  kSweep = 0,
  /// FIFO worklist: processes exactly the flagged locations in flag
  /// order; same fixpoint, fewer rescans. This variant reproduces the
  /// row order of Table 2.
  kWorklist = 1,
};

/// Options for FindInaccessible.
struct InaccessibleOptions {
  InaccessibleAlgorithm algorithm = InaccessibleAlgorithm::kWorklist;
  /// Record a TraceRow after the initiation step and after every location
  /// update (the structure of Table 2). Costs memory; off by default.
  bool capture_trace = false;
  /// Section 6 remark: "an entry location is inaccessible to a subject s
  /// if it has null exit duration for its authorization." Algorithm 1 as
  /// printed leaves such an entry accessible (its T^g is non-null); with
  /// this flag the textual remark wins and entry locations with no
  /// authorized exit are reported inaccessible. Off by default
  /// (algorithm-faithful).
  bool strict_entry_exit = false;
};

/// Per-location state snapshot used in traces (one Table 2 cell group).
struct LocationTimeState {
  LocationId location = kInvalidLocation;
  bool flag = false;
  IntervalSet grant;      ///< T^g.
  IntervalSet departure;  ///< T^d.
};

/// One row of the Table 2 trace: the state of every location after a
/// step ("Initiation", "Update A", ...).
struct TraceRow {
  std::string label;
  std::vector<LocationTimeState> states;
};

/// Result of the analysis.
struct InaccessibleResult {
  /// Locations with null overall grant time, ascending by id.
  std::vector<LocationId> inaccessible;
  /// Final T^g per analyzed location (parallel to `analyzed`).
  std::vector<LocationTimeState> final_states;
  /// The analyzed primitive locations, ascending by id.
  std::vector<LocationId> analyzed;
  /// Location-update steps executed (measures convergence).
  size_t updates = 0;
  /// Trace rows (only when capture_trace).
  std::vector<TraceRow> trace;

  /// True iff `l` was found inaccessible.
  bool IsInaccessible(LocationId l) const;

  /// Renders the trace in the layout of Table 2.
  std::string TraceToString(const MultilevelLocationGraph& graph) const;
};

/// Solves the inaccessible location finding problem (Definition 9) for
/// `subject` over the primitive locations of `scope` (a composite; use
/// graph.root() for the whole site). Entry seeds are the entry primitives
/// of `scope`; adjacency is the flattened complex-route adjacency
/// restricted to the scope.
Result<InaccessibleResult> FindInaccessible(
    const MultilevelLocationGraph& graph, LocationId scope,
    SubjectId subject, const AuthorizationDatabase& auth_db,
    const InaccessibleOptions& options = {});

/// Lemma-1-based hierarchical pruning: runs the analysis locally inside
/// every composite (considering only that composite's entry locations)
/// and reports locations that are *provably* inaccessible globally
/// because they are inaccessible within their own composite. A superset
/// check against the full analysis is cheap: every location returned here
/// is inaccessible in FindInaccessible's answer, but not conversely.
Result<std::vector<LocationId>> HierarchicalInaccessiblePrune(
    const MultilevelLocationGraph& graph, SubjectId subject,
    const AuthorizationDatabase& auth_db);

}  // namespace ltam

#endif  // LTAM_CORE_INACCESSIBLE_H_
