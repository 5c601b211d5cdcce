// Copyright 2026 The LTAM Authors.

#include "core/auth_database.h"

#include <algorithm>

#include "util/logging.h"

namespace ltam {

AuthId AuthorizationDatabase::Add(const LocationTemporalAuthorization& auth) {
  AuthId id = static_cast<AuthId>(records_.size());
  records_.push_back(AuthRecord{id, auth, AuthOrigin::kExplicit,
                                kInvalidRule, false, 0});
  by_subject_location_[Key(auth.subject(), auth.location())].push_back(id);
  by_subject_[auth.subject()].push_back(id);
  by_location_[auth.location()].push_back(id);
  ++active_count_;
  return id;
}

AuthId AuthorizationDatabase::AddDerived(
    const LocationTemporalAuthorization& auth, RuleId rule) {
  AuthId id = Add(auth);
  records_[id].origin = AuthOrigin::kDerived;
  records_[id].source_rule = rule;
  by_rule_[rule].push_back(id);
  return id;
}

Status AuthorizationDatabase::Revoke(AuthId id) {
  if (!Exists(id)) return Status::NotFound("no such authorization");
  if (!records_[id].revoked) {
    records_[id].revoked = true;
    --active_count_;
  }
  return Status::OK();
}

size_t AuthorizationDatabase::RevokeDerivedBy(RuleId rule) {
  auto it = by_rule_.find(rule);
  if (it == by_rule_.end()) return 0;
  size_t revoked = 0;
  for (AuthId id : it->second) {
    if (!records_[id].revoked) {
      records_[id].revoked = true;
      --active_count_;
      ++revoked;
    }
  }
  return revoked;
}

Status AuthorizationDatabase::RecordEntry(AuthId id) {
  if (!Exists(id)) return Status::NotFound("no such authorization");
  AuthRecord& rec = records_[id];
  if (rec.revoked) {
    return Status::FailedPrecondition("authorization is revoked");
  }
  if (rec.auth.max_entries() != kUnlimitedEntries &&
      rec.entries_used >= rec.auth.max_entries()) {
    return Status::FailedPrecondition("authorization entries exhausted");
  }
  ++rec.entries_used;
  return Status::OK();
}

Status AuthorizationDatabase::RestoreEntriesUsed(AuthId id, int64_t used) {
  if (!Exists(id)) return Status::NotFound("no such authorization");
  AuthRecord& rec = records_[id];
  // max_entries() is INT64_MAX on an unlimited record, so one bound
  // covers both kinds; capping it one below keeps the next RecordEntry
  // on an unlimited record from overflowing.
  const int64_t limit =
      std::min(rec.auth.max_entries(), kUnlimitedEntries - 1);
  if (used < 0 || used > limit) {
    return Status::InvalidArgument(
        "spent entries " + std::to_string(used) + " outside [0, " +
        std::to_string(limit) + "] for authorization " + std::to_string(id));
  }
  rec.entries_used = used;
  return Status::OK();
}

const AuthRecord& AuthorizationDatabase::record(AuthId id) const {
  LTAM_CHECK(Exists(id)) << "authorization id " << id << " out of range";
  return records_[id];
}

namespace {
std::vector<AuthId> FilterActive(
    const std::vector<AuthRecord>& records,
    const std::vector<AuthId>* ids) {
  std::vector<AuthId> out;
  if (ids == nullptr) return out;
  out.reserve(ids->size());
  for (AuthId id : *ids) {
    if (!records[id].revoked) out.push_back(id);
  }
  return out;
}
}  // namespace

std::vector<AuthId> AuthorizationDatabase::ForSubjectLocation(
    SubjectId s, LocationId l) const {
  auto it = by_subject_location_.find(Key(s, l));
  return FilterActive(records_,
                      it == by_subject_location_.end() ? nullptr : &it->second);
}

std::vector<AuthId> AuthorizationDatabase::ForSubject(SubjectId s) const {
  auto it = by_subject_.find(s);
  return FilterActive(records_, it == by_subject_.end() ? nullptr : &it->second);
}

std::vector<AuthId> AuthorizationDatabase::ForLocation(LocationId l) const {
  auto it = by_location_.find(l);
  return FilterActive(records_,
                      it == by_location_.end() ? nullptr : &it->second);
}

std::vector<AuthId> AuthorizationDatabase::Active() const {
  std::vector<AuthId> out;
  out.reserve(active_count_);
  for (const AuthRecord& rec : records_) {
    if (!rec.revoked) out.push_back(rec.id);
  }
  return out;
}

std::vector<AuthId> AuthorizationDatabase::DerivedBy(RuleId rule) const {
  auto it = by_rule_.find(rule);
  return FilterActive(records_, it == by_rule_.end() ? nullptr : &it->second);
}

Decision AuthorizationDatabase::CheckAccess(Chronon t, SubjectId s,
                                            LocationId l) const {
  auto it = by_subject_location_.find(Key(s, l));
  if (it == by_subject_location_.end()) {
    return Decision::Deny(DenyReason::kNoAuthorization);
  }
  bool any_active = false;
  bool any_in_window = false;
  for (AuthId id : it->second) {
    const AuthRecord& rec = records_[id];
    if (rec.revoked) continue;
    any_active = true;
    if (!rec.auth.entry_duration().Contains(t)) continue;
    any_in_window = true;
    // Definition 7: "s has entered l during [tis, tie] for less than n
    // times."
    if (rec.auth.max_entries() == kUnlimitedEntries ||
        rec.entries_used < rec.auth.max_entries()) {
      return Decision::Grant(id);
    }
  }
  if (!any_active) return Decision::Deny(DenyReason::kNoAuthorization);
  return Decision::Deny(any_in_window ? DenyReason::kEntriesExhausted
                                      : DenyReason::kOutsideEntryDuration);
}

Decision AuthorizationDatabase::CheckAndRecordAccess(Chronon t, SubjectId s,
                                                     LocationId l) {
  Decision d = CheckAccess(t, s, l);
  if (d.granted) {
    Status st = RecordEntry(d.auth);
    LTAM_CHECK(st.ok()) << "ledger update failed after grant: "
                        << st.ToString();
  }
  return d;
}

IntervalSet AuthorizationDatabase::EntryDurations(SubjectId s,
                                                  LocationId l) const {
  IntervalSet out;
  for (AuthId id : ForSubjectLocation(s, l)) {
    out.Add(records_[id].auth.entry_duration());
  }
  return out;
}

IntervalSet AuthorizationDatabase::ExitDurations(SubjectId s,
                                                 LocationId l) const {
  IntervalSet out;
  for (AuthId id : ForSubjectLocation(s, l)) {
    out.Add(records_[id].auth.exit_duration());
  }
  return out;
}

IntervalSet AuthorizationDatabase::GrantDurations(
    SubjectId s, LocationId l, const TimeInterval& window) const {
  IntervalSet out;
  for (AuthId id : ForSubjectLocation(s, l)) {
    std::optional<TimeInterval> g = records_[id].auth.GrantDuration(window);
    if (g.has_value()) out.Add(*g);
  }
  return out;
}

}  // namespace ltam
