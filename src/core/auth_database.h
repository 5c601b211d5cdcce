// Copyright 2026 The LTAM Authors.
// The authorization database (Figure 3) with the Definition-7 decision
// procedure and the per-authorization entry-count ledger.

#ifndef LTAM_CORE_AUTH_DATABASE_H_
#define LTAM_CORE_AUTH_DATABASE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
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
/// ### Caching and concurrency contract
///
/// CheckAccess goes through a per-subject *derived-authorization cache*:
/// the active (explicit + rule-derived, non-revoked) authorization ids
/// per (subject, location) pair, tagged with the subject's mutation
/// version. A mutation (Add/AddDerived/Revoke/RevokeDerivedBy) bumps
/// only the touched subject's version, so only that subject's cached
/// lists refresh; everyone else keeps hitting. Repeated CheckAccess
/// calls therefore skip the re-derivation scan and its allocation.
/// Bulk analytic lookups (ForSubjectLocation and the interval
/// aggregates) deliberately bypass the cache so sweeps over millions of
/// (subject, location) pairs do not grow it unboundedly.
///
/// Concurrency follows the sharded-engine discipline (phase-based):
///  - CheckAccess / RecordEntry / ForSubjectLocation may be called from
///    multiple threads concurrently **as long as no two threads touch the
///    same subject** (the sharded engine partitions subjects per shard).
///    The candidate cache is internally bucketed by subject so concurrent
///    readers do not race.
///  - Mutations (Add, AddDerived, Revoke, RevokeDerivedBy) must be
///    externally synchronized against all readers — run them between
///    batches, never during one.
class AuthorizationDatabase {
 public:
  AuthorizationDatabase() = default;

  /// Movable and copyable (snapshot restore moves a rebuilt database
  /// into place; benchmarks copy a template database to get a fresh
  /// ledger). The candidate cache does not travel — the destination
  /// starts cold and refills lazily.
  AuthorizationDatabase(AuthorizationDatabase&& other) noexcept;
  AuthorizationDatabase& operator=(AuthorizationDatabase&& other) noexcept;
  AuthorizationDatabase(const AuthorizationDatabase& other);
  AuthorizationDatabase& operator=(const AuthorizationDatabase& other);

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

  // --- Aggregates for Section 6 --------------------------------------------

  // --- Cache observability ---------------------------------------------

  /// Global database version; bumped by every mutation (observability /
  /// change detection across the whole store).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Per-subject mutation version: bumped whenever an authorization
  /// mentioning `s` is added, revoked, or re-derived. Tags the candidate
  /// cache and lets incremental analyses (core/inaccessible.h) recompute
  /// only subjects that changed.
  uint64_t SubjectVersion(SubjectId s) const;

  /// Candidate-cache hit/miss counters (CheckAccess + ForSubjectLocation).
  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

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

  /// One cached candidate list: the active AuthIds for a (s, l) key as of
  /// the subject's version. entries_used / ledger state is *not* cached —
  /// CheckAccess reads it live — so RecordEntry needs no invalidation.
  struct CacheEntry {
    uint64_t version = 0;
    std::vector<AuthId> active;
  };
  /// Cache shard; bucketed by subject so concurrent readers of distinct
  /// subjects rarely contend (and per the class contract, same-subject
  /// calls are single-threaded anyway).
  struct CacheBucket {
    std::mutex mu;
    std::unordered_map<uint64_t, CacheEntry> entries;
  };
  static constexpr size_t kCacheBuckets = 16;

  /// Uncached scan (the pre-cache ForSubjectLocation body).
  std::vector<AuthId> ScanSubjectLocation(SubjectId s, LocationId l) const;

  /// Returns the cached active list for (s, l), refreshing it when stale.
  /// `bucket.mu` must be held by the caller; the reference is valid while
  /// the lock is held.
  const std::vector<AuthId>& CachedActive(CacheBucket& bucket, SubjectId s,
                                          LocationId l) const;

  /// Records a mutation touching subject `s` (invalidates caches).
  void TouchSubject(SubjectId s);

  /// Drops every cached candidate list (used by move/copy, where entry
  /// tags could collide with another database's version history).
  void ClearCache() const;

  std::vector<AuthRecord> records_;
  std::unordered_map<uint64_t, std::vector<AuthId>> by_subject_location_;
  std::unordered_map<SubjectId, std::vector<AuthId>> by_subject_;
  std::unordered_map<LocationId, std::vector<AuthId>> by_location_;
  std::unordered_map<RuleId, std::vector<AuthId>> by_rule_;
  size_t active_count_ = 0;

  std::atomic<uint64_t> version_{1};
  std::unordered_map<SubjectId, uint64_t> subject_version_;
  mutable std::array<CacheBucket, kCacheBuckets> cache_;
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace ltam

#endif  // LTAM_CORE_AUTH_DATABASE_H_
