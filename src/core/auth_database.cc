// Copyright 2026 The LTAM Authors.

#include "core/auth_database.h"

#include <algorithm>

#include "util/logging.h"

namespace ltam {

void AuthorizationDatabase::ClearCache() const {
  for (CacheBucket& bucket : cache_) {
    std::lock_guard<std::mutex> lock(bucket.mu);
    bucket.entries.clear();
  }
}

AuthorizationDatabase::AuthorizationDatabase(
    AuthorizationDatabase&& other) noexcept
    : records_(std::move(other.records_)),
      by_subject_location_(std::move(other.by_subject_location_)),
      by_subject_(std::move(other.by_subject_)),
      by_location_(std::move(other.by_location_)),
      by_rule_(std::move(other.by_rule_)),
      active_count_(other.active_count_),
      version_(other.version_.load(std::memory_order_acquire)),
      subject_version_(std::move(other.subject_version_)) {
  other.active_count_ = 0;
  // The moved-from database keeps its (untouched) cache buckets but has
  // lost its records; drop the buckets so a later read rescans the now-
  // empty indexes instead of serving dangling AuthIds.
  other.ClearCache();
}

AuthorizationDatabase& AuthorizationDatabase::operator=(
    AuthorizationDatabase&& other) noexcept {
  if (this == &other) return *this;
  records_ = std::move(other.records_);
  by_subject_location_ = std::move(other.by_subject_location_);
  by_subject_ = std::move(other.by_subject_);
  by_location_ = std::move(other.by_location_);
  by_rule_ = std::move(other.by_rule_);
  active_count_ = other.active_count_;
  subject_version_ = std::move(other.subject_version_);
  version_.store(other.version_.load(std::memory_order_acquire),
                 std::memory_order_release);
  other.active_count_ = 0;
  // Our old cache entries could collide with the incoming per-subject
  // versions; both sides start cold.
  ClearCache();
  other.ClearCache();
  return *this;
}

AuthorizationDatabase::AuthorizationDatabase(
    const AuthorizationDatabase& other)
    : records_(other.records_),
      by_subject_location_(other.by_subject_location_),
      by_subject_(other.by_subject_),
      by_location_(other.by_location_),
      by_rule_(other.by_rule_),
      active_count_(other.active_count_),
      version_(other.version_.load(std::memory_order_acquire)),
      subject_version_(other.subject_version_) {}

AuthorizationDatabase& AuthorizationDatabase::operator=(
    const AuthorizationDatabase& other) {
  if (this == &other) return *this;
  records_ = other.records_;
  by_subject_location_ = other.by_subject_location_;
  by_subject_ = other.by_subject_;
  by_location_ = other.by_location_;
  by_rule_ = other.by_rule_;
  active_count_ = other.active_count_;
  subject_version_ = other.subject_version_;
  version_.store(other.version_.load(std::memory_order_acquire),
                 std::memory_order_release);
  // Our old entries could collide with the incoming per-subject versions.
  ClearCache();
  return *this;
}

void AuthorizationDatabase::TouchSubject(SubjectId s) {
  ++subject_version_[s];
  version_.fetch_add(1, std::memory_order_acq_rel);
}

uint64_t AuthorizationDatabase::SubjectVersion(SubjectId s) const {
  auto it = subject_version_.find(s);
  return it == subject_version_.end() ? 0 : it->second;
}

AuthId AuthorizationDatabase::Add(const LocationTemporalAuthorization& auth) {
  AuthId id = static_cast<AuthId>(records_.size());
  records_.push_back(AuthRecord{id, auth, AuthOrigin::kExplicit,
                                kInvalidRule, false, 0});
  by_subject_location_[Key(auth.subject(), auth.location())].push_back(id);
  by_subject_[auth.subject()].push_back(id);
  by_location_[auth.location()].push_back(id);
  ++active_count_;
  TouchSubject(auth.subject());
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
    TouchSubject(records_[id].auth.subject());
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
      TouchSubject(records_[id].auth.subject());
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

std::vector<AuthId> AuthorizationDatabase::ScanSubjectLocation(
    SubjectId s, LocationId l) const {
  auto it = by_subject_location_.find(Key(s, l));
  return FilterActive(records_,
                      it == by_subject_location_.end() ? nullptr : &it->second);
}

const std::vector<AuthId>& AuthorizationDatabase::CachedActive(
    CacheBucket& bucket, SubjectId s, LocationId l) const {
  // Entries are tagged with the *subject's* version: a mutation touching
  // one subject invalidates only that subject's cached lists. (A subject
  // that was never mutated has version 0 and no authorizations, which a
  // default-constructed entry — version 0, empty list — already answers
  // correctly.)
  uint64_t ver = SubjectVersion(s);
  CacheEntry& entry = bucket.entries[Key(s, l)];
  if (entry.version != ver) {
    entry.version = ver;
    entry.active = ScanSubjectLocation(s, l);
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry.active;
}

std::vector<AuthId> AuthorizationDatabase::ForSubjectLocation(
    SubjectId s, LocationId l) const {
  // Deliberately uncached: bulk analytic sweeps (Algorithm 1 seeding,
  // conflict scans, interval aggregates) would otherwise insert one
  // never-evicted cache entry per (subject, location) pair they touch.
  // Only the request hot path (CheckAccess) populates the cache.
  return ScanSubjectLocation(s, l);
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
  // Hot path: candidate ids come from the derived-authorization cache
  // (no allocation on a hit); ledger state is read live from records_.
  CacheBucket& bucket = cache_[s % kCacheBuckets];
  std::lock_guard<std::mutex> lock(bucket.mu);
  const std::vector<AuthId>& candidates = CachedActive(bucket, s, l);
  if (candidates.empty()) {
    return Decision::Deny(DenyReason::kNoAuthorization);
  }
  bool any_in_window = false;
  for (AuthId id : candidates) {
    const AuthRecord& rec = records_[id];
    if (!rec.auth.entry_duration().Contains(t)) continue;
    any_in_window = true;
    // Definition 7: "s has entered l during [tis, tie] for less than n
    // times."
    if (rec.auth.max_entries() == kUnlimitedEntries ||
        rec.entries_used < rec.auth.max_entries()) {
      return Decision::Grant(id);
    }
  }
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
