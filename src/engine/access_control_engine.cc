// Copyright 2026 The LTAM Authors.

#include "engine/access_control_engine.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace ltam {

AccessControlEngine::AccessControlEngine(
    const MultilevelLocationGraph* graph, AuthorizationDatabase* auth_db,
    MovementDatabase* movement_db, const UserProfileDatabase* profiles,
    EngineOptions options)
    : graph_(graph),
      auth_db_(auth_db),
      movement_db_(movement_db),
      profiles_(profiles),
      options_(options) {
  LTAM_CHECK(graph != nullptr);
  LTAM_CHECK(auth_db != nullptr);
  LTAM_CHECK(movement_db != nullptr);
  LTAM_CHECK(profiles != nullptr);
}

void AccessControlEngine::RaiseAlert(Chronon t, SubjectId s, LocationId l,
                                     AlertType type, std::string detail) {
  alerts_.push_back(Alert{t, s, l, type, std::move(detail)});
}

bool AccessControlEngine::AdjacencyOk(SubjectId s, LocationId l) const {
  LocationId cur = movement_db_->CurrentLocation(s);
  if (cur == kInvalidLocation) {
    // From outside the site, only the site's entry doors are reachable.
    std::vector<LocationId> doors = graph_->EntryPrimitives(graph_->root());
    return std::find(doors.begin(), doors.end(), l) != doors.end();
  }
  if (!graph_->Exists(cur) || !graph_->location(cur).IsPrimitive()) {
    // The movement database names a location the layout does not (a
    // corrupted log replay, or a layout edit that removed the room).
    // There is no legal step from nowhere.
    return false;
  }
  const std::vector<LocationId>& adj = graph_->EffectiveNeighbors(cur);
  return std::find(adj.begin(), adj.end(), l) != adj.end();
}

void AccessControlEngine::CheckExitWindow(Chronon t, SubjectId s,
                                          const ActiveStay& stay) {
  if (stay.auth == kInvalidAuth) return;  // Unauthorized stay; no window.
  const TimeInterval& exit_window =
      auth_db_->record(stay.auth).auth.exit_duration();
  if (t < exit_window.start()) {
    RaiseAlert(t, s, stay.location, AlertType::kEarlyExit,
               "left before exit duration " + exit_window.ToString());
  } else if (t > exit_window.end() && !stay.overstay_alerted) {
    RaiseAlert(t, s, stay.location, AlertType::kOverstay,
               "left after exit duration " + exit_window.ToString());
  }
}

Decision AccessControlEngine::RequestEntry(Chronon t, SubjectId s,
                                           LocationId l) {
  ++requests_processed_;
  Decision decision;
  if (!profiles_->Exists(s)) {
    decision = Decision::Deny(DenyReason::kUnknownSubject);
  } else if (!graph_->Exists(l) || !graph_->location(l).IsPrimitive()) {
    decision = Decision::Deny(DenyReason::kUnknownLocation);
  } else if (options_.enforce_adjacency && !AdjacencyOk(s, l)) {
    decision = Decision::Deny(DenyReason::kNotAdjacent);
  } else {
    decision = auth_db_->CheckAccess(t, s, l);
  }

  if (!decision.granted) {
    if (options_.alert_on_denial) {
      RaiseAlert(t, s, l, AlertType::kAccessDenied,
                 std::string("reason: ") + DenyReasonToString(decision.reason));
    }
    return decision;
  }

  // Close the previous stay (checking its exit window) and open the new
  // one.
  auto it = active_.find(s);
  if (it != active_.end()) {
    CheckExitWindow(t, s, it->second);
  }
  Status st = movement_db_->RecordMovement(t, s, l);
  if (!st.ok()) {
    // Out-of-order event: refuse the grant rather than corrupt history.
    return Decision::Deny(DenyReason::kNotAdjacent);
  }
  Status ledger = auth_db_->RecordEntry(decision.auth);
  LTAM_CHECK(ledger.ok()) << "ledger update failed after grant: "
                          << ledger.ToString();
  active_[s] = ActiveStay{l, decision.auth, t, false};
  ++requests_granted_;
  return decision;
}

Status AccessControlEngine::RequestExit(Chronon t, SubjectId s) {
  auto it = active_.find(s);
  LocationId cur = movement_db_->CurrentLocation(s);
  if (cur == kInvalidLocation) {
    return Status::FailedPrecondition("subject is not inside the site");
  }
  if (it != active_.end()) {
    CheckExitWindow(t, s, it->second);
    active_.erase(it);
  }
  return movement_db_->RecordMovement(t, s, kInvalidLocation);
}

Status AccessControlEngine::ObservePresence(Chronon t, SubjectId s,
                                            LocationId l) {
  LocationId cur = movement_db_->CurrentLocation(s);
  if (cur == l) return Status::OK();  // Observation agrees with the database.
  if (!graph_->Exists(l) || !graph_->location(l).IsPrimitive()) {
    // The tracking substrate named a location the layout does not have
    // (sensor glitch or corrupted log). Never record it: a phantom
    // current location would poison every later adjacency check.
    RaiseAlert(t, s, l, AlertType::kImpossibleMovement,
               "observation names an unknown location");
    return Status::InvalidArgument(
        "observation names an unknown or composite location");
  }

  // The subject is somewhere the database does not expect: they moved
  // without a granted request.
  bool adjacent =
      !options_.enforce_adjacency || AdjacencyOk(s, l);
  if (!adjacent) {
    RaiseAlert(t, s, l, AlertType::kImpossibleMovement,
               StrFormat("observed jump from l%u", cur));
  }
  // Would a request at t have been granted? If not, this is an
  // unauthorized presence (tailgating or barrier bypass).
  Decision hypothetical = auth_db_->CheckAccess(t, s, l);
  if (!hypothetical.granted) {
    RaiseAlert(t, s, l, AlertType::kUnauthorizedPresence,
               std::string("no usable authorization: ") +
                   DenyReasonToString(hypothetical.reason));
  }
  if (options_.record_unauthorized_movement) {
    auto it = active_.find(s);
    if (it != active_.end()) {
      CheckExitWindow(t, s, it->second);
    }
    Status st = movement_db_->RecordMovement(t, s, l);
    if (!st.ok()) {
      // Out-of-order observation: refused, nothing recorded.
      return st;
    }
    if (hypothetical.granted) {
      Status ledger = auth_db_->RecordEntry(hypothetical.auth);
      LTAM_CHECK(ledger.ok())
          << "ledger update failed: " << ledger.ToString();
      active_[s] = ActiveStay{l, hypothetical.auth, t, false};
    } else {
      active_[s] = ActiveStay{l, kInvalidAuth, t, false};
    }
  }
  return Status::OK();
}

Status AccessControlEngine::HandlePositionFix(const PositionFix& fix) {
  if (!resolver_.has_value()) {
    RaiseAlert(fix.time, fix.subject, kInvalidLocation,
               AlertType::kImpossibleMovement,
               "position fix received but no resolver attached");
    return Status::FailedPrecondition(
        "position fix received but no resolver attached");
  }
  std::optional<LocationId> l = resolver_->Resolve(fix.position);
  if (!l.has_value()) {
    // Outside every boundary: if the database thinks the subject is
    // inside, they left without an exit request.
    LocationId cur = movement_db_->CurrentLocation(fix.subject);
    if (cur != kInvalidLocation) {
      auto it = active_.find(fix.subject);
      if (it != active_.end()) {
        CheckExitWindow(fix.time, fix.subject, it->second);
        active_.erase(it);
      }
      return movement_db_->RecordMovement(fix.time, fix.subject,
                                          kInvalidLocation);
    }
    return Status::OK();
  }
  return ObservePresence(fix.time, fix.subject, *l);
}

void AccessControlEngine::AttachResolver(LocationResolver resolver) {
  resolver_ = std::move(resolver);
}

void AccessControlEngine::ResumeStay(SubjectId s, LocationId l, AuthId auth,
                                     Chronon since) {
  active_[s] = ActiveStay{l, auth, since, false};
}

void AccessControlEngine::Tick(Chronon t) {
  for (auto& [s, stay] : active_) {
    if (stay.auth == kInvalidAuth || stay.overstay_alerted) continue;
    const TimeInterval& exit_window =
        auth_db_->record(stay.auth).auth.exit_duration();
    if (t > exit_window.end()) {
      RaiseAlert(t, s, stay.location, AlertType::kOverstay,
                 "still inside after exit duration " +
                     exit_window.ToString());
      stay.overstay_alerted = true;
    }
  }
}

}  // namespace ltam
