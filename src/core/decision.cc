// Copyright 2026 The LTAM Authors.

#include "core/decision.h"

#include "time/interval.h"
#include "util/string_util.h"

namespace ltam {

std::string AccessRequest::ToString() const {
  return "(" + ChrononToString(time) + ", s" + std::to_string(subject) +
         ", l" + std::to_string(location) + ")";
}

const char* DenyReasonToString(DenyReason reason) {
  switch (reason) {
    case DenyReason::kNone:
      return "none";
    case DenyReason::kNoAuthorization:
      return "no-authorization";
    case DenyReason::kOutsideEntryDuration:
      return "outside-entry-duration";
    case DenyReason::kEntriesExhausted:
      return "entries-exhausted";
    case DenyReason::kNotAdjacent:
      return "not-adjacent";
    case DenyReason::kUnknownSubject:
      return "unknown-subject";
    case DenyReason::kUnknownLocation:
      return "unknown-location";
    case DenyReason::kExitRejected:
      return "exit-rejected";
    case DenyReason::kObservationRejected:
      return "observation-rejected";
  }
  return "unknown";
}

std::string Decision::ToString() const {
  if (granted) {
    // Exits and accepted observations grant without a backing
    // authorization; print them without a meaningless auth id.
    if (auth == kInvalidAuth) return "granted";
    return StrFormat("granted (auth #%u)", auth);
  }
  return std::string("denied (") + DenyReasonToString(reason) + ")";
}

}  // namespace ltam
