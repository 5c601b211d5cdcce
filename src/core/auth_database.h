// Copyright 2026 The LTAM Authors.
// The authorization database (Figure 3) with the Definition-7 decision
// procedure and the per-authorization entry-count ledger.

#ifndef LTAM_CORE_AUTH_DATABASE_H_
#define LTAM_CORE_AUTH_DATABASE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/authorization.h"
#include "core/decision.h"
#include "time/interval_set.h"
#include "util/result.h"

namespace ltam {

/// Where an authorization record came from.
enum class AuthOrigin : uint8_t {
  kExplicit = 0,  ///< Created directly by a security officer.
  kDerived = 1,   ///< Produced by an authorization rule (Section 4).
};

/// A stored authorization with provenance and lifecycle state.
struct AuthRecord {
  AuthId id = kInvalidAuth;
  LocationTemporalAuthorization auth;
  AuthOrigin origin = AuthOrigin::kExplicit;
  /// Rule that derived this record; kInvalidRule for explicit records.
  RuleId source_rule = kInvalidRule;
  /// Revoked records are kept for audit but ignored by every query.
  bool revoked = false;
  /// Number of entries exercised against this authorization.
  int64_t entries_used = 0;
};

/// Indexed in-memory store of location-temporal authorizations.
///
/// Supports the access-control engine (Definition 7 checks + entry
/// ledger), the rule engine (provenance-tracked derived records with bulk
/// revocation), and the reachability analysis of Section 6 (per-location
/// authorization scans).
///
/// ### Concurrency contract
///
/// Every lookup (CheckAccess, ForSubjectLocation, the interval
/// aggregates, ...) is a plain read of indexes that change only between
/// batches, so any number of threads may read at once — the server's
/// read workers may check the same subject at the same time.
///  - RecordEntry writes one record's ledger; the sharded engine calls it
///    only for records of the calling shard's subjects, so no two
///    threads write one record.
///  - Mutations (Add, AddDerived, Revoke, RevokeDerivedBy) must be
///    externally synchronized against all readers — run them between
///    batches, never during one.
class AuthorizationDatabase {
 public:
  // --- Mutation ------------------------------------------------------------

  /// Adds an explicit authorization; returns its id.
  AuthId Add(const LocationTemporalAuthorization& auth);

  /// Adds a rule-derived authorization; returns its id.
  AuthId AddDerived(const LocationTemporalAuthorization& auth, RuleId rule);

  /// Marks a record revoked. Idempotent.
  Status Revoke(AuthId id);

  /// Revokes every active record derived by `rule`; returns the count.
  size_t RevokeDerivedBy(RuleId rule);

  /// Records that the subject exercised one entry under `id`
  /// (FailedPrecondition when the record is revoked or exhausted).
  Status RecordEntry(AuthId id);

  /// Sets the spent-entry count of `id` in one step, for loading a
  /// persisted ledger. InvalidArgument when `used` is negative or above
  /// the record's max_entries, or, on an unlimited record, INT64_MAX
  /// (the next RecordEntry would overflow it).
  Status RestoreEntriesUsed(AuthId id, int64_t used);

  // --- Lookup --------------------------------------------------------------

  /// True iff `id` denotes an existing (possibly revoked) record.
  bool Exists(AuthId id) const { return id < records_.size(); }

  /// Borrowing accessor; `id` must exist.
  const AuthRecord& record(AuthId id) const;

  /// Total records ever added (including revoked).
  size_t size() const { return records_.size(); }

  /// Number of non-revoked records.
  size_t active_size() const { return active_count_; }

  /// Active authorization ids for a (subject, location) pair.
  std::vector<AuthId> ForSubjectLocation(SubjectId s, LocationId l) const;

  /// Active authorization ids mentioning subject `s`.
  std::vector<AuthId> ForSubject(SubjectId s) const;

  /// Active authorization ids mentioning location `l`.
  std::vector<AuthId> ForLocation(LocationId l) const;

  /// Every active authorization id, ascending.
  std::vector<AuthId> Active() const;

  /// Active authorization ids derived by `rule`, ascending.
  std::vector<AuthId> DerivedBy(RuleId rule) const;

  // --- Decision procedure (Definition 7) -----------------------------------

  /// Evaluates an access request: granted iff some active authorization
  /// for (s, l) has t inside its entry duration and fewer than n entries
  /// used. Pure: does not touch the ledger.
  Decision CheckAccess(Chronon t, SubjectId s, LocationId l) const;

  /// CheckAccess + RecordEntry on the granting authorization.
  Decision CheckAndRecordAccess(Chronon t, SubjectId s, LocationId l);

  /// Always 0: CheckAccess reads the (subject, location) index in place
  /// and caches nothing. The accessors stay so that the benchmark code
  /// reading them keeps building.
  uint64_t cache_hits() const { return 0; }
  uint64_t cache_misses() const { return 0; }

  // --- Aggregates for Section 6 --------------------------------------------

  /// Union of entry durations of active authorizations for (s, l) — the
  /// raw material of the overall grant time.
  IntervalSet EntryDurations(SubjectId s, LocationId l) const;

  /// Union of exit durations of active authorizations for (s, l).
  IntervalSet ExitDurations(SubjectId s, LocationId l) const;

  /// Chronons at which s could enter l, honoring the request window:
  /// union over authorizations of GrantDuration(window).
  IntervalSet GrantDurations(SubjectId s, LocationId l,
                             const TimeInterval& window) const;

 private:
  static uint64_t Key(SubjectId s, LocationId l) {
    return (static_cast<uint64_t>(s) << 32) | l;
  }

  std::vector<AuthRecord> records_;
  std::unordered_map<uint64_t, std::vector<AuthId>> by_subject_location_;
  std::unordered_map<SubjectId, std::vector<AuthId>> by_subject_;
  std::unordered_map<LocationId, std::vector<AuthId>> by_location_;
  std::unordered_map<RuleId, std::vector<AuthId>> by_rule_;
  size_t active_count_ = 0;
};

}  // namespace ltam

#endif  // LTAM_CORE_AUTH_DATABASE_H_
