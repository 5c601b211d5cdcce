// Copyright 2026 The LTAM Authors.
// The outcome of evaluating an access request (Definitions 6 and 7).

#ifndef LTAM_CORE_DECISION_H_
#define LTAM_CORE_DECISION_H_

#include <string>

#include "core/authorization.h"
#include "time/chronon.h"

namespace ltam {

/// Definition 6: an access request (t, s, l) — at time t, subject s
/// requests to enter location l.
struct AccessRequest {
  Chronon time = 0;
  SubjectId subject = kInvalidSubject;
  LocationId location = kInvalidLocation;

  std::string ToString() const;
};

/// Why an access request was denied.
enum class DenyReason : uint8_t {
  kNone = 0,               ///< Request was granted.
  kNoAuthorization = 1,    ///< No authorization exists for (s, l).
  kOutsideEntryDuration = 2,  ///< Authorizations exist but none covers t.
  kEntriesExhausted = 3,   ///< Matching authorizations are all used up.
  kNotAdjacent = 4,        ///< Movement constraint: l is not reachable from
                           ///< the subject's current location in one step.
  kUnknownSubject = 5,     ///< Subject not registered.
  kUnknownLocation = 6,    ///< Location does not exist or is composite.
  kExitRejected = 7,       ///< Exit request refused: the subject is not
                           ///< inside, or the event is out of order.
  // 8 is retired: the write-ahead log no longer refuses events, and the
  // wire decoder refuses the value.
  kObservationRejected = 9,  ///< Tracking observation refused: it names an
                             ///< unknown/composite location or arrives out
                             ///< of time order, so nothing was recorded.
};

/// Returns a stable lower-case name for a deny reason.
const char* DenyReasonToString(DenyReason reason);

/// Definition 7 outcome: granted (with the granting authorization) or
/// denied (with the most specific applicable reason).
struct Decision {
  bool granted = false;
  AuthId auth = kInvalidAuth;
  DenyReason reason = DenyReason::kNone;

  static Decision Grant(AuthId auth) {
    return Decision{true, auth, DenyReason::kNone};
  }
  static Decision Deny(DenyReason reason) {
    return Decision{false, kInvalidAuth, reason};
  }

  std::string ToString() const;
};

}  // namespace ltam

#endif  // LTAM_CORE_DECISION_H_
