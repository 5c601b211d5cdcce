// Copyright 2026 The LTAM Authors.
// The access control engine (Figure 3, Section 5).
//
// "When a user issues an access request, the access control engine [1]
// checks the authorization database... [2] invokes the query engine to
// find out whether the user has violated any authorization due to
// unauthorized access requests or over-staying. [3] ... is also
// responsible for authorization derivation."
//
// Beyond request-time checks, the engine monitors movement continuously
// ("LTAM monitors the user movement at all times"), which lets it catch
// tailgating (presence without a granted request) and overstays — the two
// failure classes the paper contrasts against card-reader systems.

#ifndef LTAM_ENGINE_ACCESS_CONTROL_ENGINE_H_
#define LTAM_ENGINE_ACCESS_CONTROL_ENGINE_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/auth_database.h"
#include "core/rules/rule_engine.h"
#include "engine/events.h"
#include "engine/location_resolver.h"
#include "engine/movement_db.h"
#include "graph/multilevel_graph.h"

namespace ltam {

/// Tuning knobs for the engine.
struct EngineOptions {
  /// Enforce physical adjacency: from outside, a subject may only enter
  /// an entry primitive of the site; from inside, only an effective
  /// neighbor of their current location. Denials carry kNotAdjacent.
  bool enforce_adjacency = true;
  /// Raise kAccessDenied alerts for denied requests.
  bool alert_on_denial = true;
};

/// The LTAM enforcement engine.
///
/// Borrows the four stores of Figure 3 (graph = location layout,
/// authorization DB, movement DB, profile DB); they must outlive the
/// engine. All event entry points take the current chronon; time must be
/// nondecreasing per subject (enforced by the movement database).
class AccessControlEngine {
 public:
  AccessControlEngine(const MultilevelLocationGraph* graph,
                      AuthorizationDatabase* auth_db,
                      MovementDatabase* movement_db,
                      const UserProfileDatabase* profiles,
                      EngineOptions options = {});

  /// Handles an access request (t, s, l): Definition-7 check plus
  /// movement-graph adjacency. On grant, records the entry in the ledger
  /// and the movement database (closing the previous stay, with exit-
  /// window checks on the location being left).
  Decision RequestEntry(Chronon t, SubjectId s, LocationId l);

  /// Subject leaves the site (steps outside). Checks the exit window of
  /// the stay being closed.
  Status RequestExit(Chronon t, SubjectId s);

  /// Tracking observation: the positioning substrate saw `s` inside `l`.
  /// If that contradicts the movement database, raises alerts
  /// (kUnauthorizedPresence when s has no usable authorization covering
  /// t, kImpossibleMovement when the jump skips the graph) and, per
  /// options, records the corrected movement. Returns non-OK when the
  /// observation itself was refused — it names an unknown/composite
  /// location (kInvalidArgument) or arrives out of time order for the
  /// subject (kFailedPrecondition) — so callers with a uniform error
  /// contract never lose the refusal. Alerts are raised either way.
  Status ObservePresence(Chronon t, SubjectId s, LocationId l);

  /// Raw position fix; resolved through `resolver` (set via
  /// AttachResolver) then forwarded to ObservePresence. Fixes outside
  /// every boundary are treated as "outside" and close open stays.
  /// Returns kFailedPrecondition when no resolver is attached, and
  /// forwards ObservePresence's refusals.
  Status HandlePositionFix(const PositionFix& fix);

  /// Attaches a spatial resolver (required for HandlePositionFix).
  void AttachResolver(LocationResolver resolver);

  /// Recovery support: registers an already-open stay (subject inside `l`
  /// since `since` under authorization `auth`; kInvalidAuth when the stay
  /// was unauthorized) without touching the movement database or the
  /// ledger. Used by ShardedDecisionEngine::Seed when resuming over an
  /// existing movement history.
  void ResumeStay(SubjectId s, LocationId l, AuthId auth, Chronon since);

  /// Periodic patrol: raises one kOverstay alert per stay whose exit
  /// window has passed while the subject is still inside.
  void Tick(Chronon t);

  /// Alerts raised so far, in time order.
  const std::vector<Alert>& alerts() const { return alerts_; }

  /// Clears the alert buffer (e.g. after the operator acknowledges).
  void ClearAlerts() { alerts_.clear(); }

  /// Total requests processed / granted.
  size_t requests_processed() const { return requests_processed_; }
  size_t requests_granted() const { return requests_granted_; }

 private:
  /// Per-subject state of the stay currently in progress.
  struct ActiveStay {
    LocationId location = kInvalidLocation;
    /// Authorization that granted the entry; kInvalidAuth for stays
    /// created by contradicting observations (tailgaters).
    AuthId auth = kInvalidAuth;
    Chronon since = 0;
    bool overstay_alerted = false;
  };

  void RaiseAlert(Chronon t, SubjectId s, LocationId l, AlertType type,
                  std::string detail);

  /// Exit-window checks for the stay being closed at time t.
  void CheckExitWindow(Chronon t, SubjectId s, const ActiveStay& stay);

  /// True iff moving s from their current location to l is one legal step.
  bool AdjacencyOk(SubjectId s, LocationId l) const;

  const MultilevelLocationGraph* graph_;
  AuthorizationDatabase* auth_db_;
  MovementDatabase* movement_db_;
  const UserProfileDatabase* profiles_;
  EngineOptions options_;
  std::optional<LocationResolver> resolver_;
  std::unordered_map<SubjectId, ActiveStay> active_;
  std::vector<Alert> alerts_;
  size_t requests_processed_ = 0;
  size_t requests_granted_ = 0;
};

}  // namespace ltam

#endif  // LTAM_ENGINE_ACCESS_CONTROL_ENGINE_H_
